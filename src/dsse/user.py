"""Authorized-user (HSP) role: recover a keyword's latest counter from the
server's published Bloom filter, build search tokens and search without
contacting the owner, and verify results client-side.

The filter is untrusted until its MAC and timestamp check out, so token
generation refuses to probe an unverified filter. Each user holds the
filter it verified last, with its block tags (protocol.FilterTags) and its
(t, sigma), and names that version when it fetches. A whole filter is
tagged block by block; a delta's taus are staged into copies of the blocks
they fall in, and only those are tagged again and, once sigma matches,
written. An unchanged filter is the empty delta: it tags nothing and costs
one sigma check. A refused update leaves the held filter as it was.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .bloom import BloomFilter
from .crypto import LAMBDA, chain_label, derived_key, se_decrypt, se_encrypt
from .encoding import Persistent, Reader, put_u64
from .errors import (
    AmbiguousCounterError,
    CounterBoundError,
    FormatError,
    NotFoundError,
    ProtocolError,
    StaleFilterError,
    TamperedFilterError,
)
from .owner import DataOwner
from .protocol import (
    FRESHNESS_WINDOW,
    FilterTags,
    SearchTokenEnvelope,
    VerifyReport,
    verify_result,
)
from .wire import Client

MAX_COUNTER = 2**31  # a counter guess never goes past this

_SNAPSHOT_MAGIC = b"DSSEUSR2"


@dataclass
class ProbeStats:
    """Filter probes spent on the last counter guess."""

    search_probes: int = 0
    digit_probes: int = 0

    @property
    def digit_rounds(self) -> int:
        """Digit positions examined, terminator round included: ten probes each."""
        return self.digit_probes // 10

    @property
    def total(self) -> int:
        return self.search_probes + self.digit_probes


@dataclass
class AuthorizedUser(Persistent):
    """Holds a copy of the owner's keys plus the current group key.

    One thread uses a user at a time: the probe stats and the token-time
    filter belong to its latest gen_token call.
    """

    k_prf: bytes
    k_se: bytes
    k_mac: bytes
    r: bytes
    epoch: int = 1
    last_probe_stats: ProbeStats = field(default_factory=ProbeStats)
    # (sigma, t) of the filter the last gen_token accepted; None after a refusal
    token_filter: tuple[bytes, int] | None = field(
        default=None, init=False, repr=False, compare=False
    )
    # the filter that last passed its MAC, held through its block tags, and
    # its (t, sigma)
    _tags: FilterTags | None = field(default=None, init=False, repr=False, compare=False)
    _version: tuple[int, bytes] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @classmethod
    def from_owner(cls, owner: DataOwner) -> "AuthorizedUser":
        """Credential grant over the simulator's secure channel."""
        k = owner.keys
        return cls(k.k_prf, k.k_se, k.k_mac, k.r, k.epoch)

    def update_group_key(self, r: bytes, epoch: int) -> None:
        self.r = r
        self.epoch = epoch

    # ------------------------------------------------------------------
    # Counter recovery
    # ------------------------------------------------------------------

    def guess_counter(self, bf: BloomFilter, keyword: str) -> int | None:
        """Largest counter whose membership element is in the filter.

        If the filter carries digit embeddings for the keyword (it was
        rebuilt by a refresh), extraction gives a floor and the upward
        search starts there; otherwise it starts at 1. Returns None when
        the keyword has no trace in the filter. Probes are counted in
        last_probe_stats.
        """
        stats = ProbeStats()
        self.last_probe_stats = stats
        ambiguity = None
        try:
            base = bf.extract_counter(self.k_prf, keyword)
            # one round of 10 digit probes per position, terminator included
            rounds = 1 if base is None else len(str(base)) + 1
        except AmbiguousCounterError as exc:
            # digit collision (filter false positive): fall back to probing
            # the membership chain from 1
            base, rounds, ambiguity = None, exc.pos, exc
        stats.digit_probes = 10 * rounds
        result = self._max_present(bf, keyword, base or 0, stats)
        if result is None and ambiguity is not None:
            # a refreshed filter has no membership elements below the
            # embedded floor; with the embedding unreadable the counter is
            # unrecoverable, which is not the same as "keyword absent"
            raise ambiguity
        return result

    def _max_present(
        self, bf: BloomFilter, keyword: str, base: int, stats: ProbeStats
    ) -> int | None:
        def present(c: int) -> bool:
            stats.search_probes += 1
            return bf.verify(chain_label(self.k_prf, keyword, c))

        if base >= MAX_COUNTER:
            raise CounterBoundError(f"extracted floor {base} at or past bound {MAX_COUNTER}")
        if not present(base + 1):
            return base if base > 0 else None

        # exponential bracket from the known hit, then binary search
        lo = base + 1
        step = 1
        while True:
            probe = lo + step
            if probe > MAX_COUNTER:
                if MAX_COUNTER == lo or present(MAX_COUNTER):
                    raise CounterBoundError(f"counter still present at bound {MAX_COUNTER}")
                probe = MAX_COUNTER  # just verified absent
                break
            if not present(probe):
                break
            lo = probe
            step *= 2
        hi = probe
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if present(mid):
                lo = mid
            else:
                hi = mid
        return lo

    # ------------------------------------------------------------------
    # Token generation
    # ------------------------------------------------------------------

    def gen_token(
        self,
        answer: tuple[bytes | list[bytes], bytes, int],
        keyword: str,
        now: int,
    ) -> tuple[SearchTokenEnvelope, int]:
        """Apply the server's filter answer, guess the counter, wrap the token.

        answer is (update, sigma, t) as Client.get_bloom returns it. Returns
        (envelope, guessed counter); the counter feeds the later result
        verification. The MAC gate runs before any probing: an update that
        fails it aborts here, leaves the held filter as it was and no
        token-time filter. Freshness is checked on every call.
        """
        self._apply(*answer)
        t = self._version[0]
        if not self._fresh(t, now):
            raise StaleFilterError(f"filter timestamp {t} too old at {now}")
        cnt = self.guess_counter(self._tags.bf, keyword)
        if cnt is None:
            raise NotFoundError(f"keyword has no entries: {keyword!r}")
        return self.token_for_counter(keyword, cnt), cnt

    def _apply(self, update: bytes | list[bytes], sigma: bytes, t: int) -> None:
        """Bring the held filter to the answer: a whole filter, or the taus to
        add to the held one (none if unchanged). A refused answer changes
        nothing and leaves no token-time filter; a delta on another version
        than the one held, empty or not, fails the MAC like any forgery."""
        self.token_filter = None
        if isinstance(update, list):
            if self._tags is None:
                raise ProtocolError("filter delta sent to a user holding no filter")
            if not self._tags.add_checked(update, sigma, t):
                raise TamperedFilterError("published filter fails its MAC")
        else:
            tags = FilterTags(self.k_mac, BloomFilter.deserialize(update))
            if tags.sigma(t) != sigma:
                raise TamperedFilterError("published filter fails its MAC")
            self._tags = tags
        self._version, self.token_filter = (t, sigma), (sigma, t)

    def _fresh(self, t: int, now: int) -> bool:
        return 0 <= now - t <= FRESHNESS_WINDOW

    def token_for_counter(self, keyword: str, cnt: int) -> SearchTokenEnvelope:
        key = derived_key(self.k_prf, keyword, cnt)
        return SearchTokenEnvelope(self.epoch, se_encrypt(self.r, key))

    def query(
        self, client: Client, keyword: str, now: int
    ) -> tuple[list[bytes], list[bytes], bytes, int]:
        """Fetch the filter since the version this user holds, guess the
        counter, search once at it: (ids, ciphertexts, gamma, counter). The
        filter has no false negatives, so the guess is never below the
        attested counter; a NotFoundError there is raised, since an answer
        from lower down could hide new files."""
        envelope, cnt = self.gen_token(client.get_bloom(self._version), keyword, now)
        return (*client.search(envelope), cnt)

    # ------------------------------------------------------------------
    # Verification / decryption
    # ------------------------------------------------------------------

    def verify(
        self,
        keyword: str,
        guessed_cnt: int,
        rst: list[bytes],
        ciphertexts: list[bytes],
        gamma: bytes,
        now: int,
        token_filter: tuple[bytes, int] | None = None,
    ) -> VerifyReport:
        """Delegated verification: all four checks are mandatory.

        (a) and (b) as in verify_result, against the guessed counter;
        (c) the filter the counter was guessed from passed its MAC check;
        (d) that filter's timestamp is fresh at `now`. token_filter is the
        (sigma, t) of that filter; it defaults to self.token_filter. A
        transcript checked in another process passes the values it recorded
        at token time.
        """
        report = verify_result(
            self.k_mac, keyword, guessed_cnt, rst, ciphertexts, gamma
        )
        token_filter = token_filter or self.token_filter
        report.sigma_ok = token_filter is not None
        report.fresh_ok = token_filter is not None and self._fresh(token_filter[1], now)
        return report

    def decrypt_files(self, ciphertexts: list[bytes]) -> list[bytes]:
        return [se_decrypt(self.k_se, c) for c in ciphertexts]

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def snapshot(self) -> bytes:
        """DSSEUSR2: the four LAMBDA-byte keys, then the epoch."""
        buf = bytearray(_SNAPSHOT_MAGIC)
        buf += self.k_prf + self.k_se + self.k_mac + self.r
        put_u64(buf, self.epoch)
        return bytes(buf)

    @classmethod
    def restore(cls, data: bytes) -> "AuthorizedUser":
        if not data.startswith(_SNAPSHOT_MAGIC):
            raise FormatError("not a user snapshot", offset=0)
        r = Reader(data, len(_SNAPSHOT_MAGIC))
        user = cls(*(r.fixed(LAMBDA) for _ in range(4)), r.u64())
        r.expect_end()
        return user

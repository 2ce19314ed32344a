"""Data-owner (IoT gateway) role: index construction, token generation,
result verification, group-key rotation and the periodic filter refresh.

The owner keeps one counter per keyword. Each file upload appends, per
keyword, a fresh index entry under the counter's chain key, a PRF of
(keyword, counter): one PRF output of that key is its label tau and the pad
masking its body, which holds the previous counter's key, so the server can
walk a keyword's whole history from the newest entry without ever seeing
two linkable labels.

DataOwner is single-writer: one gateway thread calls add_file / refresh /
rotate; token generation and verification are read-only.
"""

from __future__ import annotations

import secrets
from dataclasses import dataclass, field

from .bloom import BloomFilter, BloomParams
from .crypto import (
    KeyBundle,
    LAMBDA,
    ZERO,
    chain_link,
    derived_key,
    se_encrypt,
    xor_bytes,
)
from .encoding import Persistent, Reader, put_str, put_u8, put_u64
from .errors import FormatError, NotFoundError, UsageError
from .protocol import (
    AddPayload,
    BASIC,
    FILE_ID_LEN,
    FULL,
    FilterTags,
    RefreshPayload,
    SearchTokenEnvelope,
    check_mode,
    mask_width,
    result_mac,
    verify_result,
    VerifyReport,
)

_SNAPSHOT_MAGIC = b"DSSEOWN6"


@dataclass(slots=True)
class KeywordRecord:
    cnt: int
    gamma: bytes | None  # aggregate MAC over this keyword's files (full mode)
    # the chain key of counter cnt; derived again at restore, not saved
    key: bytes = field(repr=False)


class DataOwner(Persistent):
    def __init__(self, mode: str, keys: KeyBundle, bf: BloomFilter | None):
        """No keywords yet; bf is the filter in full mode and None in basic.
        generate() passes an empty filter, restore() the saved one. Its
        size is kept by every refresh. The filter's block tags are not
        saved: they are computed here, and again at each refresh."""
        self.mode = check_mode(mode)
        self.keys = keys
        self.tbl: dict[str, KeywordRecord] = {}
        self._tags = None if bf is None else FilterTags(keys.k_mac, bf)
        self.t = 0  # time of the newest filter MAC (sigma) issued

    @property
    def bf(self) -> BloomFilter | None:
        return None if self._tags is None else self._tags.bf

    @classmethod
    def generate(cls, mode: str, bloom_params: BloomParams | None = None) -> "DataOwner":
        """Fresh keys, empty state, a first filter sized by bloom_params."""
        full = check_mode(mode) == FULL
        bf = BloomFilter(*(bloom_params or BloomParams()).derive()) if full else None
        return cls(mode, KeyBundle.generate(), bf)

    # ------------------------------------------------------------------
    # AddFile
    # ------------------------------------------------------------------

    def add_file(
        self,
        plaintext: bytes,
        keywords: set[str] | list[str],
        now: int,
    ) -> AddPayload:
        """Encrypt one file and build its index entries.

        Keywords must be distinct and non-empty. Entry order inside the
        payload is sorted by keyword for reproducibility; the server's
        table is unordered anyway. In full mode the filter MAC is
        re-tagged only in the blocks the new taus went into.
        """
        self._check_time(now)
        kws = sorted(keywords)
        if not kws:
            raise UsageError("file must contain at least one keyword")
        if len(kws) != len(set(kws)):
            raise UsageError("duplicate keywords in input")
        if any(not w for w in kws):
            raise UsageError("empty keyword string")
        if not plaintext:
            raise UsageError("empty file")

        k = self.keys
        ciphertext = se_encrypt(k.k_se, plaintext)
        file_id = secrets.token_bytes(FILE_ID_LEN)
        entries: list[tuple[bytes, bytes]] = []
        touched: set[int] = set()  # filter blocks
        width = mask_width(self.mode)

        for w in kws:
            rec = self.tbl.get(w) or KeywordRecord(0, ZERO, ZERO)
            cnt = rec.cnt + 1
            k_cnt = derived_key(k.k_prf, w, cnt)
            tau, pad = chain_link(k_cnt)
            held = rec.key
            gamma = None
            if self.mode == FULL:
                gamma = xor_bytes(rec.gamma, result_mac(k.k_mac, ciphertext, w, cnt))
                held += gamma
                touched.add(self.bf.add(tau))
            self.tbl[w] = KeywordRecord(cnt, gamma, k_cnt)
            entries.append((tau, xor_bytes(held, pad[:width])))

        sigma = t = None
        if self.mode == FULL:
            self._tags.retag(touched)
            sigma = self._tags.sigma(now)
            t = self.t = now
        return AddPayload(file_id, ciphertext, entries, sigma, t)

    def _check_time(self, now: int) -> None:
        """The server refuses a full-mode payload older than its filter, so
        refuse to build one before the counters move past an entry the
        server would never store."""
        if self.mode == FULL and now < self.t:
            raise UsageError(f"timestamp {now} precedes the last filter MAC at {self.t}")

    # ------------------------------------------------------------------
    # GenToken / SSEVerify
    # ------------------------------------------------------------------

    def gen_token(self, keyword: str) -> SearchTokenEnvelope:
        """Token for the keyword's latest counter: its chain key.

        Full mode wraps the key under the group key so the token itself
        proves membership in the current epoch; basic mode sends it in the
        clear (there is no delegation to protect)."""
        rec = self.tbl.get(keyword)
        if rec is None:
            raise NotFoundError(f"keyword never added: {keyword!r}")
        return self._token(rec.key)

    def token_for_counter(self, keyword: str, cnt: int) -> SearchTokenEnvelope:
        return self._token(derived_key(self.keys.k_prf, keyword, cnt))

    def _token(self, key: bytes) -> SearchTokenEnvelope:
        k = self.keys
        if self.mode == FULL:
            return SearchTokenEnvelope(k.epoch, se_encrypt(k.r, key))
        return SearchTokenEnvelope(0, key)

    def verify(
        self,
        keyword: str,
        rst: list[bytes],
        ciphertexts: list[bytes],
        gamma: bytes,
        now: int,
    ) -> VerifyReport:
        """Check a search result against the owner's own counter.

        The owner knows the true counter, so it has no filter to check:
        the report's filter checks stay None. `now` is unused; it keeps
        the call shape of AuthorizedUser.verify."""
        if self.mode != FULL:
            raise UsageError("no proofs to verify in basic mode")
        rec = self.tbl.get(keyword)
        if rec is None:
            raise NotFoundError(f"keyword never added: {keyword!r}")
        return verify_result(
            self.keys.k_mac, keyword, rec.cnt, rst, ciphertexts, gamma
        )

    # ------------------------------------------------------------------
    # Group key rotation / filter refresh
    # ------------------------------------------------------------------

    def rotate_group_key(self) -> tuple[bytes, int]:
        """New group key and epoch, for delivery to the server and to every
        user that stays authorized."""
        if self.mode != FULL:
            raise UsageError("group keys exist only in full mode")
        self.keys.rotate()
        return self.keys.r, self.keys.epoch

    def refresh_bloom(self, now: int) -> RefreshPayload:
        """Rebuild the filter with only digit embeddings of current counters,
        and send its elements, sorted, from which the server builds it too.

        Membership entries restart from the current counters, so the filter
        stops growing with history; gamma chains are untouched. The server
        hashes at most m // k elements, so more are refused here, before
        anything changes."""
        if self.mode != FULL:
            raise UsageError("refresh applies to full mode only")
        self._check_time(now)
        bf = BloomFilter(self.bf.m, self.bf.k)
        elements = sorted(
            e for w, rec in self.tbl.items() for e in bf.embed_counter(self.keys.k_prf, w, rec.cnt)
        )
        if len(elements) > bf.m // bf.k:
            raise UsageError(
                f"{len(elements)} digit elements exceed the {bf.m // bf.k} (m // k) a refresh carries"
            )
        self._tags = FilterTags(self.keys.k_mac, bf)
        self.t = now
        return RefreshPayload(b"".join(elements), self._tags.sigma(now), now)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def snapshot(self) -> bytes:
        """DSSEOWN6: mode flag, the four keys, epoch, [t], the keyword
        table, [filter]; [..] only in full mode. Fields are fixed-width
        where LAMBDA fixes them, and the filter runs to the end."""
        k = self.keys
        buf = bytearray(_SNAPSHOT_MAGIC)
        put_u8(buf, 1 if self.mode == FULL else 0)
        buf += k.k_prf + k.k_se + k.k_mac + k.r
        put_u64(buf, k.epoch)
        if self.mode == FULL:
            put_u64(buf, self.t)
        self._put_table(buf)
        if self.bf is None:
            return bytes(buf)
        return b"".join((buf, *self.bf.buffers()))  # the bits are copied once

    def _put_table(self, buf: bytearray) -> None:
        """The keyword table: count, then (keyword, cnt, [gamma]) by keyword."""
        put_u64(buf, len(self.tbl))
        for w in sorted(self.tbl):
            rec = self.tbl[w]
            put_str(buf, w)
            put_u64(buf, rec.cnt)
            if self.mode == FULL:
                buf += rec.gamma

    @classmethod
    def restore(cls, data: bytes) -> "DataOwner":
        if not data.startswith(_SNAPSHOT_MAGIC):
            raise FormatError("not an owner snapshot", offset=0)
        r = Reader(data, len(_SNAPSHOT_MAGIC))
        full = r.flag()
        keys = KeyBundle(*(r.fixed(LAMBDA) for _ in range(4)), r.u64())
        t = r.u64() if full else 0
        tbl = {}
        # add_file never writes an empty keyword or a counter of 0; at 0 the
        # next upload would mask the key of counter 0 where ZERO belongs
        for w in r.ascending("keyword", r.str_):
            if not w:
                raise FormatError("empty keyword", offset=r.pos - 4)  # its u32 length
            at = r.pos
            cnt = r.u64()
            if cnt == 0:
                raise FormatError(f"keyword {w!r} has counter 0", offset=at)
            gamma = r.fixed(LAMBDA) if full else None
            tbl[w] = KeywordRecord(cnt, gamma, derived_key(keys.k_prf, w, cnt))
        bf = BloomFilter.deserialize(r.rest()) if full else None
        r.expect_end()
        owner = cls(FULL if full else BASIC, keys, bf)
        owner.t = t
        owner.tbl = tbl
        return owner

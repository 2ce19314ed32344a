"""Cloud-server role: index ingestion, chain-walking search answered with
the files and their aggregate MAC, the merged-entry search shortcut, and
filter publication. This server is honest; the simulator's server that can
be told to cheat derives from it (harness.scenario.AdversarialServer).

Between refreshes the published filter only gains elements, and those are
the labels (taus) each upload brings. The table gains them at its end, so
it is their log: a caller holding an older version of the filter can be
answered with the taus added since, whenever that is smaller than the
filter itself, and the current version with none.

So the filter is fully determined by its header (m, k), the elements of
the last REFRESH the server adopted and the labels the table gained since:
its generating set. That is all the server holds of it, and all a snapshot
keeps (the labels added since are runs of their own). The server does not
check the filter; it only relays it, so its bits are built only when a
whole filter must be sent, from the generating set, and kept in step with
each later upload until the next REFRESH or restore drops them
(CloudServer.bf).

The server never sees keywords. Its table maps opaque labels to masked
entries; a search token gives it one chain key, from which it derives that
entry's label and mask pad (crypto.chain_link, one PRF call) and walks
exactly one keyword's chain and nothing else: each entry it opens gives the
key, and so the label and pad, of the one before.
"""

from __future__ import annotations

import io
import threading
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import islice

from .bloom import BloomFilter, BloomParams, check_header
from .crypto import LAMBDA, ZERO, chain_link, se_decrypt, xor_bytes
from .encoding import Persistent, Reader, put_bytes, put_u8, put_u32, put_u64
from .errors import (
    FormatError,
    NotFoundError,
    ProtocolError,
    StaleEpochError,
    UsageError,
)
from .protocol import (
    AddPayload,
    BASIC,
    FILE_ID_LEN,
    FULL,
    RefreshPayload,
    SearchTokenEnvelope,
    check_mode,
    mask_width,
)

_SNAPSHOT_MAGIC = b"DSSESR11"
_SPILL = 1 << 12  # snapshot bytes gathered before they move to the output


@dataclass(slots=True)
class ChainEntry:
    mu: bytes
    file_id: bytes


@dataclass(slots=True)
class MergedEntry:
    """An entry a search opened, frozen with the answer at its counter.

    chain is the append-only list of file ids, oldest-first, that the merged
    entries of one keyword chain share; the entry at counter n answers with
    its first n, so a chain's merged entries are counters 1..L of a list of
    length L. gamma is the aggregate MAC its mask held (full mode): a repeat
    search at that counter still hands out a verifiable gamma.
    """

    chain: list[bytes]
    n: int
    gamma: bytes | None

    @property
    def ids(self) -> tuple[bytes, ...]:
        """The answer, newest-first."""
        return tuple(self.chain[self.n - 1 :: -1])


def _check_elements(m: int, k: int, elements: bytes) -> None:
    """Refuse a refresh's elements unless they are whole LAMBDA-byte
    labels, at most m // k of them (counted before any is read) and
    strictly ascending."""
    if len(elements) % LAMBDA:
        raise FormatError(f"refresh elements of {len(elements)} bytes are not whole labels")
    if len(elements) // LAMBDA > m // k:
        raise FormatError(f"{len(elements) // LAMBDA} refresh elements exceed m // k = {m // k}")
    for at in range(LAMBDA, len(elements), LAMBDA):
        if elements[at : at + LAMBDA] <= elements[at - LAMBDA : at]:
            raise FormatError("refresh elements are not strictly ascending", offset=at)


def _extend(below: MergedEntry | None, fresh: list[bytes]) -> list[bytes]:
    """The id list, oldest-first, for a walk that collected fresh
    (oldest-first) on top of the merged entry it stopped at, if any.

    The walk shares the list of the entry below when that entry is its
    list's end, appending to it. Otherwise (a crafted entry) it gets a
    copy: ids that another entry's prefix covers never change.
    """
    if below is None:
        return fresh
    if below.n == len(below.chain):
        below.chain.extend(fresh)
        return below.chain
    return below.chain[: below.n] + fresh


class CloudServer(Persistent):
    def __init__(
        self,
        mode: str,
        bloom_params: BloomParams | None = None,
        group_key: bytes | None = None,
        epoch: int = 1,
    ):
        self.mode = check_mode(mode)
        if self.mode == FULL and group_key is None:
            raise UsageError("a full-mode server needs the group key")
        self.tbl: dict[bytes, ChainEntry | MergedEntry] = {}
        self.files: dict[bytes, bytes] = {}
        self.sigma = b""
        self.t = 0
        # the filter's generating set (full mode): its header, the last
        # adopted REFRESH's elements, and the table's length then, for the
        # labels added since are its suffix
        self.m, self.k = (0, 0) if self.mode != FULL else (bloom_params or BloomParams()).derive()
        self.elements = b""
        self.refreshed_at = 0
        self._bits: BloomFilter | None = None  # built by bf, dropped by refresh
        self.r = group_key
        self.epoch = epoch
        self.last_search_lookups = 0
        # get_bloom answers by kind (full, delta, not_modified), and the
        # filter or tau bytes they carried; cumulative, not persisted
        self.filters_served: Counter[str] = Counter()
        self.filter_bytes_served: Counter[str] = Counter()
        # REFRESHes adopted, and the elements they carried; cumulative
        self.refreshes: Counter[str] = Counter(adopted=0, elements=0)
        # filter bits built from the generating set, and the elements
        # (refresh elements and labels) hashed to build them; cumulative
        self.filters_built: Counter[str] = Counter(builds=0, elements=0)
        self._lock = threading.RLock()
        self._versions: dict[tuple[int, bytes], int] = {}  # none before an upload

    def _start_log(self) -> None:
        """Log the filter as it is now as the only version.

        _versions maps each (t, sigma) the filter had since to the table's
        length then, in ascending order, so the taus added since are the
        table's newest len(tbl) - at labels: the table gains labels only at
        its end and never loses one (add stores entries before it logs and
        acks a replay before any insert; search only reassigns labels). The
        log is not persisted: a restored server logs its current version."""
        self._versions = {(self.t, self.sigma): len(self.tbl)}

    def _log_upload(self) -> None:
        """Log the version an upload left, then forget every version whose
        delta would not be smaller than the filter."""
        end = len(self.tbl)
        versions = self._versions
        versions.pop((self.t, self.sigma), None)  # keep the positions ascending
        versions[self.t, self.sigma] = end
        filter_size = 8 + self.m // 8  # its serialization: header and bits
        cut = end - (filter_size - 1) // LAMBDA  # oldest position worth a delta
        while versions[oldest := next(iter(versions))] < cut:
            del versions[oldest]

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------

    def add(self, payload: AddPayload) -> None:
        """Store one upload. A payload whose file is already stored is
        acknowledged without a change if it is a replay of that upload (an
        owner retrying after a lost ack), and refused otherwise."""
        with self._lock:
            stored = self.files.get(payload.file_id)
            if stored is not None:
                if stored == payload.ciphertext and self._holds(payload):
                    return
                raise ProtocolError("duplicate file id")
            if len(payload.file_id) != FILE_ID_LEN:
                raise ProtocolError(
                    f"file id is {len(payload.file_id)} bytes, expected {FILE_ID_LEN}"
                )
            if self.mode == FULL:
                if payload.t is None or len(payload.sigma or b"") != LAMBDA:
                    raise ProtocolError(f"full-mode payload needs t and a {LAMBDA}-byte sigma")
                if payload.t < self.t:
                    raise ProtocolError(
                        f"non-monotonic timestamp {payload.t} < {self.t}"
                    )
            width = mask_width(self.mode)
            seen: set[bytes] = set()
            for tau, mu in payload.entries:
                if tau in self.tbl or tau in seen:
                    raise ProtocolError("duplicate index label in payload")
                seen.add(tau)
                if len(tau) != LAMBDA or len(mu) != width:
                    # catches basic/full state mixing: mask widths differ
                    raise ProtocolError(
                        f"entry sized {len(tau)}/{len(mu)}, expected {LAMBDA}/{width}"
                    )
            bits = self._bits
            for tau, mu in payload.entries:
                self.tbl[tau] = ChainEntry(mu, payload.file_id)
                if bits is not None:
                    bits.add(tau)
            self.files[payload.file_id] = payload.ciphertext
            if self.mode == FULL:
                self.sigma = payload.sigma
                self.t = payload.t
                self._log_upload()

    def _holds(self, payload: AddPayload) -> bool:
        """Whether every (tau, mu) of the payload is stored for its file: as
        that chain entry, or as a merged entry whose newest id is the file
        (a search merged it, and the mask is gone)."""

        def stored(tau: bytes, mu: bytes) -> bool:
            entry = self.tbl.get(tau)
            if isinstance(entry, ChainEntry):
                return entry.mu == mu and entry.file_id == payload.file_id
            return entry is not None and entry.chain[entry.n - 1] == payload.file_id

        return all(stored(tau, mu) for tau, mu in payload.entries)

    def refresh(self, payload: RefreshPayload) -> None:
        """Adopt the owner's rebuilt filter wholesale: an empty filter of
        this server's size, with the payload's elements added. Sigma (LAMBDA
        bytes) and the elements (_check_elements) are checked before
        anything changes. No bits are built: the elements become the
        generating set in the locked swap, which checks the timestamp and
        drops any bits built."""
        if self.mode != FULL:
            raise UsageError("refresh applies to full mode only")
        if len(payload.sigma) != LAMBDA:
            raise ProtocolError(f"sigma is {len(payload.sigma)} bytes, expected {LAMBDA}")
        _check_elements(self.m, self.k, payload.elements)
        with self._lock:
            if payload.t < self.t:
                raise ProtocolError(f"non-monotonic timestamp {payload.t} < {self.t}")
            self._bits = None
            self.sigma = payload.sigma
            self.t = payload.t
            self.elements = payload.elements
            self.refreshed_at = len(self.tbl)
            self._start_log()
            self.refreshes["adopted"] += 1
            self.refreshes["elements"] += payload.n

    def set_group_key(self, r: bytes, epoch: int) -> None:
        with self._lock:
            if self.mode != FULL:
                raise UsageError("group keys exist only in full mode")
            if epoch <= self.epoch:
                raise ProtocolError(f"epoch must increase: {epoch} <= {self.epoch}")
            if len(r) != LAMBDA:
                raise ProtocolError(f"group key is {len(r)} bytes, expected {LAMBDA}")
            self.r = r
            self.epoch = epoch

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------

    def _open_token(self, envelope: SearchTokenEnvelope) -> bytes:
        """The chain key the token carries."""
        if self.mode == FULL:
            if envelope.epoch != self.epoch:
                raise StaleEpochError(
                    f"token epoch {envelope.epoch}, current {self.epoch}"
                )
            key = se_decrypt(self.r, envelope.body)
        else:
            key = envelope.body
        if len(key) != LAMBDA:
            raise ProtocolError(f"token body is {len(key)} bytes, expected {LAMBDA}")
        return key

    def walk(
        self, envelope: SearchTokenEnvelope
    ) -> Iterator[tuple[bytes, ChainEntry | MergedEntry, bytes | None]]:
        """The entries a token reaches, newest first, each as (label, entry,
        gamma), gamma the one its mask or merged answer holds (None in basic
        mode). The walk stops after the chain's first entry (its key is the
        zero key) or after a merged entry. It changes nothing: search merges
        what it yields, and harness.audit walks a table rebuilt from a
        transcript with it. An unknown head label is a NotFoundError, a
        missing interior one a ProtocolError, and so is a label reached
        twice: an ADD can hold an entry that opens to its own key, and a walk
        around it would never end."""
        tau, pad = chain_link(self._open_token(envelope))
        width = mask_width(self.mode)
        missing = NotFoundError("unknown index label in token")
        reached: set[bytes] = set()
        while True:
            if tau in reached:
                raise ProtocolError("chain loops back to a label it reached")
            reached.add(tau)
            entry = self.tbl.get(tau)
            if entry is None:
                raise missing
            if isinstance(entry, MergedEntry):
                yield tau, entry, entry.gamma
                return
            opened = xor_bytes(entry.mu, pad[:width])
            yield tau, entry, opened[LAMBDA:] or None
            k = opened[:LAMBDA]
            if k == ZERO:
                return
            tau, pad = chain_link(k)
            missing = ProtocolError("chain broken: interior label missing")

    def search(
        self, envelope: SearchTokenEnvelope
    ) -> tuple[list[bytes], list[bytes], bytes | None]:
        """Walk one keyword's chain from its newest entry; answer with
        (ids, ciphertexts, gamma), gamma None in basic mode.

        Collects file ids newest-first, stopping at the zero key or at a
        previously merged entry. Afterwards every entry the walk opened is
        rewritten as a merged entry at its own counter, so a later search at
        any counter walked so far costs one lookup, and one at a newer
        counter one plus one per entry added since.
        """
        with self._lock:
            walked: list[tuple[bytes, bytes, bytes | None]] = []  # label, id, gamma
            below: MergedEntry | None = None
            for tau, entry, gamma in self.walk(envelope):
                if isinstance(entry, MergedEntry):
                    below = entry
                else:
                    walked.append((tau, entry.file_id, gamma))
            self.last_search_lookups = len(walked) + (below is not None)

            if walked:
                chain = _extend(below, [fid for _, fid, _ in reversed(walked)])
                for n, (label, _, gamma) in zip(range(len(chain), 0, -1), walked):
                    self.tbl[label] = MergedEntry(chain, n, gamma)
            head = self.tbl[walked[0][0]] if walked else below
            ids = head.chain[head.n - 1 :: -1]
            return ids, self.ciphertexts_for(ids), head.gamma

    def ciphertexts_for(self, ids: list[bytes]) -> list[bytes]:
        with self._lock:
            try:
                return [self.files[i] for i in ids]
            except KeyError:
                raise NotFoundError("unknown file id") from None

    # ------------------------------------------------------------------
    # Filter publication
    # ------------------------------------------------------------------

    @property
    def bf(self) -> BloomFilter | None:
        """The published filter's bits (None in basic mode). The first call
        since the last REFRESH or restore builds them from the generating
        set: the refresh's elements and the labels the table gained since.
        Each later ADD adds its labels to them."""
        if self.mode != FULL:
            return None
        with self._lock:
            if self._bits is None:
                bits = BloomFilter(self.m, self.k)
                elements = self.elements
                for at in range(0, len(elements), LAMBDA):
                    bits.add(elements[at : at + LAMBDA])
                for label in islice(self.tbl, self.refreshed_at, None):
                    bits.add(label)
                self.filters_built["builds"] += 1
                self.filters_built["elements"] += bits.n_inserted
                self._bits = bits
            return self._bits

    def get_bloom(
        self, since: tuple[int, bytes] | None = None
    ) -> tuple[bytes | list[bytes], bytes, int]:
        """The published filter as (update, sigma, timestamp).

        since is the (t, sigma) of the copy the caller holds. If the log
        holds it, update is the list of taus added since, which the caller
        adds to its copy: empty when since is current. The log holds only
        versions for which that list is smaller than the filter. Otherwise
        update is the serialized filter, whose bits the first such answer
        since the last REFRESH or restore builds (bf)."""
        with self._lock:
            if self.mode != FULL:
                raise UsageError("no published filter in basic mode")
            at = self._versions.get(since)
            if at is None:
                update = self.bf.serialize()
                kind, size = "full", len(update)
            else:
                update = list(islice(reversed(self.tbl), len(self.tbl) - at))[::-1]
                kind, size = "delta" if update else "not_modified", len(update) * LAMBDA
            self.filters_served[kind] += 1
            if size:
                self.filter_bytes_served[kind] += size
            return update, self.sigma, self.t

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def snapshot(self) -> bytes:
        """DSSESR11, canonical: restore accepts no other encoding of the
        same state, so snapshot -> restore -> snapshot is the identity.

        The mode flag, then [group key, epoch, sigma (a presence byte, then
        LAMBDA bytes), t]; the files; the shared id lists; four runs of
        entries; [filter] ([..] only in full mode). The file table comes
        first, ids ascending, and names each file id once: id lists and
        chain entries name a file by its u32 place in it. Each shared id
        list is written once; a merged entry names it by number and its
        prefix length. The runs are the chain entries, then the merged
        entries, whose labels came before the last refresh, then the same
        two for the labels since: each a u64 count and its records, labels
        ascending. Lists are numbered by first use in run order. Every field
        but a ciphertext is fixed-width. The filter is its header (m, k),
        then u32 n and the n elements of the last refresh: no bits.

        The bytes gather in a small buffer that spills into the output, so
        the snapshot is held about once while it is written."""
        with self._lock:
            full = self.mode == FULL
            out = io.BytesIO()
            buf = bytearray(_SNAPSHOT_MAGIC)

            def spill() -> None:
                if len(buf) >= _SPILL:
                    out.write(buf)
                    buf.clear()

            put_u8(buf, 1 if full else 0)
            if full:
                buf += self.r
                put_u64(buf, self.epoch)
                put_u8(buf, 1 if self.sigma else 0)
                buf += self.sigma
                put_u64(buf, self.t)
            fids = sorted(self.files)
            place = {fid: i for i, fid in enumerate(fids)}
            put_u64(buf, len(fids))
            for fid in fids:
                buf += fid
                put_bytes(buf, self.files[fid])
                spill()
            runs: tuple[list[bytes], ...] = ([], [], [], [])
            for i, (tau, entry) in enumerate(self.tbl.items()):
                runs[2 * (i >= self.refreshed_at) + isinstance(entry, MergedEntry)].append(tau)
            for run in runs:
                run.sort()
            number: dict[int, int] = {}  # id() of a shared list -> its number
            chains: list[list[bytes]] = []
            for run in runs[1::2]:
                for chain in (self.tbl[tau].chain for tau in run):
                    if id(chain) not in number:
                        number[id(chain)] = len(chains)
                        chains.append(chain)
            put_u64(buf, len(chains))
            for chain in chains:
                put_u32(buf, len(chain))
                for fid in chain:
                    put_u32(buf, place[fid])
                spill()
            for run in runs:
                put_u64(buf, len(run))
                for tau in run:
                    entry = self.tbl[tau]
                    buf += tau
                    if isinstance(entry, ChainEntry):
                        buf += entry.mu
                        put_u32(buf, place[entry.file_id])
                    else:
                        put_u32(buf, number[id(entry.chain)])
                        put_u32(buf, entry.n)
                        buf += entry.gamma or b""  # none in basic mode
                    spill()
            if full:
                put_u32(buf, self.m)
                put_u32(buf, self.k)
                put_u32(buf, len(self.elements) // LAMBDA)
                buf += self.elements
            out.write(buf)
            return out.getvalue()

    @classmethod
    def restore(cls, data: bytes) -> "CloudServer":
        """The server a snapshot holds. Every file number resolves to the
        table's own id object, so entries and lists share one per file.

        The runs enter the table in the order they were written, so the
        labels since the last refresh are again its suffix; a label read in
        an earlier run is refused, and so is any entry before a basic
        server's refresh (it has none, so all its labels come after). The
        filter's generating set is restored and no bits are built: the
        refresh's elements are checked as a REFRESH's are (_check_elements)
        once every field has parsed. The header is checked as a serialized
        filter's is (check_header); a snapshot can thus name a filter of up
        to the header's 2^32 - 1 bits (512 MB) without carrying it, the
        most a server's BloomParams can size, and the first whole GET_BLOOM
        builds it."""
        if not data.startswith(_SNAPSHOT_MAGIC):
            raise FormatError("not a server snapshot", offset=0)
        r = Reader(data, len(_SNAPSHOT_MAGIC))
        full = r.flag()
        if full:
            server = cls(FULL, group_key=r.fixed(LAMBDA), epoch=r.u64())
            server.sigma = r.fixed(LAMBDA) if r.flag() else b""
            server.t = r.u64()
        else:
            server = cls(BASIC)
        width = mask_width(server.mode)
        for fid in r.ascending("file id", lambda: r.fixed(FILE_ID_LEN)):
            server.files[fid] = r.bytes_()
        fids = list(server.files)

        def file() -> bytes:
            at = r.pos
            i = r.u32()
            if i >= len(fids):
                raise FormatError(f"file {i} out of range of {len(fids)}", offset=at)
            return fids[i]

        chains = [[file() for _ in range(r.u32())] for _ in range(r.u64())]
        used = 0  # lists numbered so far, in run order
        tbl = server.tbl
        for run in range(4):
            if run == 2:
                server.refreshed_at = len(tbl)
            for tau in r.ascending("index label", lambda: r.fixed(LAMBDA)):
                at = r.pos - LAMBDA
                if tau in tbl:
                    raise FormatError("index label in two runs", offset=at)
                if run < 2 and not full:
                    raise FormatError("an entry before a basic server's refresh", offset=at)
                if run % 2 == 0:
                    tbl[tau] = ChainEntry(r.fixed(width), file())
                    continue
                at = r.pos
                i, n = r.u32(), r.u32()
                if i > used or i >= len(chains):
                    raise FormatError(f"id list {i} out of range or out of order", offset=at)
                if not 1 <= n <= len(chains[i]):
                    raise FormatError(
                        f"prefix {n} of a {len(chains[i])}-id list", offset=at + 4
                    )
                used = max(used, i + 1)
                tbl[tau] = MergedEntry(chains[i], n, r.fixed(LAMBDA) if full else None)
        if used != len(chains):
            raise FormatError(f"{len(chains) - used} id lists unused", offset=r.pos)
        if full:
            at = r.pos
            server.m, server.k = r.u32(), r.u32()
            check_header(server.m, server.k, offset=at)
            server.elements = r.fixed(r.u32() * LAMBDA)
        r.expect_end()
        if full:
            _check_elements(server.m, server.k, server.elements)
            server._start_log()
        return server

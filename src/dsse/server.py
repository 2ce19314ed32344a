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

In memory the table (Table) is one bytearray of fixed-width records in
arrival order, label(16) | body(16 basic, 32 full) | u32 place. A chain
entry's body is its mu and its place names the server's list of file ids
by arrival (places): the layout of a DSSESR12 chain run. A search rewrites
each record it opens, in place, as a merged entry: its place becomes
MERGED, which no file has, and its body u32 list | u32 n | gamma (full
mode), zero-padded, the list naming one of the server's shared id lists
(lists). An index of record numbers, probed linearly at a load of at most
1/2, finds a label. Its slot is hash(label): Python's per-process keyed
SipHash, as a dict's is. An ADD is not authenticated, and slots keyed by a
label's raw bytes would let a sender choose labels that share one probe
run, so that every insert scans it. A chain entry so costs its record and
8-16 B of index: about 51 B in basic mode and 67 B in full mode, where a
dict of label and ChainEntry objects held about 188 and 204 B (tracemalloc
over 1,000 basic uploads; dsse bench server_bytes_per_entry, a restored
full-mode server of 15,000 entries). Merging adds only the entry's id to a
shared list, about 8 B, where a MergedEntry object in a dict of its own
added about 154 B (tracemalloc over 50 basic searches merging 20,000
entries).
"""

from __future__ import annotations

import io
import struct
import threading
from array import array
from collections import Counter
from collections.abc import Iterator, Mapping
from dataclasses import dataclass

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

_SNAPSHOT_MAGIC = b"DSSESR12"
_SPILL = 1 << 12  # snapshot bytes gathered before they move to the output


@dataclass(slots=True)
class ChainEntry:
    """A record no search has opened, as Table reads it: its mask, and the
    file its place names."""

    mu: bytes
    file_id: bytes


@dataclass(slots=True)
class MergedEntry:
    """A record a search opened, as Table reads it: frozen with the answer
    at its counter.

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


def _extend(lists: list[list[bytes]], below: tuple | None, fresh: list[bytes]) -> int:
    """The number in lists of the id list, oldest-first, for a walk that
    collected fresh (oldest-first) on top of the merged entry it stopped
    at, if any, given as Table.listed reads it.

    The walk shares the list of the entry below when that entry is its
    list's end, appending to it. Otherwise (a crafted entry) it gets a
    new list: ids that another entry's prefix covers never change.
    """
    if below is not None:
        i, n, _ = below
        if n == len(lists[i]):
            lists[i].extend(fresh)
            return i
        fresh = lists[i][:n] + fresh
    lists.append(fresh)
    return len(lists) - 1


_PLACE = struct.Struct(">I")
MERGED = 0xFFFFFFFF  # a merged record's place: no file has it
_TAIL = bytes(LAMBDA - 8) + _PLACE.pack(MERGED)  # a merged record's pad and place


class Table(Mapping):
    """label -> ChainEntry or MergedEntry, iterated in arrival order: a
    read-only mapping that builds each entry from its record. Only the
    server writes it: records enter through append_run, whole runs of them
    (restore) or a run that extend packs (ADD), and merge (search) rewrites
    one in place.

    Every label has a record in `records`, label(16) | body(width) | u32
    place, numbered in arrival order. A chain entry's body is its mu, and
    its place indexes `places`, the server's file ids by arrival. A merged
    entry's place is MERGED and its body u32 list | u32 n | gamma (full
    mode), zero-padded; the list indexes `lists`, the server's shared id
    lists. `index` holds record number + 1 (0 is an empty slot) at
    hash(label) & mask, probing linearly, at most half full.
    """

    def __init__(self, width: int, places: list[bytes], lists: list[list[bytes]]):
        self.width = width
        self.size = LAMBDA + width + 4  # one record
        self._record = struct.Struct(f">{LAMBDA}s{width}sI")  # a record: label, body, place
        self._label = struct.Struct(f"{LAMBDA}s{width + 4}x")  # a record's label
        self._body = struct.Struct(f">{width}sI")  # its body and place
        # a merged record's list, n, gamma and place, after its label
        self._merged = struct.Struct(f">II{width - LAMBDA}s{LAMBDA - 8}xI")
        self._place = struct.Struct(f">{self.size - 4}xI")  # its place
        self.places = places
        self.lists = lists
        self.records = bytearray()
        self.index = array("I", bytes(4 * 8))

    def find(self, label: bytes) -> int:
        """The label's record number, or -1."""
        if len(label) != LAMBDA:
            return -1
        records, index, size = self.records, self.index, self.size
        mask = len(index) - 1
        slot = hash(label) & mask
        while n := index[slot]:
            if records.startswith(label, (n - 1) * size):
                return n - 1
            slot = (slot + 1) & mask
        return -1

    def extend(self, entries: list[tuple[bytes, bytes]], place: int) -> bool:
        """Append the records of (label, mu) pairs, all naming the file at
        place, as one run, and return True; or add none and return False if
        the table or an earlier pair holds one of the labels. The caller has
        checked that each label and mu is LAMBDA and width bytes."""
        pack = self._record.pack
        return self.append_run(b"".join([pack(label, mu, place) for label, mu in entries])) < 0

    def append_run(self, run: bytes | memoryview) -> int:
        """Append whole records and return -1; or append none and return
        the number in run of the first record whose label the table or an
        earlier record holds. The caller has checked each record's body
        and place. The index first grows to stay at most half full."""
        start, slots = len(self), len(self.index)
        while 2 * (start + len(run) // self.size) > slots:
            slots *= 2
        if slots != len(self.index):
            self._reindex(slots)
        self.records += run
        return self._index(start, run)

    def merge(self, n: int, i: int, count: int, gamma: bytes | None) -> None:
        """Rewrite record n as the merged entry that answers with the
        first count ids of list i, and gamma."""
        self._merged.pack_into(
            self.records, n * self.size + LAMBDA, i, count, gamma or b"", MERGED
        )

    def _index(self, start: int, run: bytes | memoryview) -> int:
        """Index records start onwards, which run holds, and return -1; or,
        at the first label the table already held, take back those records
        and their slots and return its number in run."""
        records, index, size = self.records, self.index, self.size
        mask = len(index) - 1
        filled = []
        for n, (label,) in enumerate(self._label.iter_unpack(run), start + 1):
            slot = hash(label) & mask
            while at := index[slot]:
                if records.startswith(label, (at - 1) * size):
                    for slot in filled:  # empty before, so no probe passed them
                        index[slot] = 0
                    del records[start * size :]
                    return n - 1 - start
                slot = (slot + 1) & mask
            index[slot] = n
            filled.append(slot)
        return -1

    def _reindex(self, slots: int) -> None:
        self.index = index = array("I", bytes(4 * slots))
        mask = slots - 1
        for n, (label,) in enumerate(self._label.iter_unpack(self.records), 1):
            slot = hash(label) & mask
            while index[slot]:
                slot = (slot + 1) & mask
            index[slot] = n

    def labels(self, start: int = 0) -> Iterator[bytes]:
        """The labels of records start onwards, in arrival order. The
        records cannot grow until the iterator is done or dropped."""
        view = memoryview(self.records)[start * self.size :]
        return (label for (label,) in self._label.iter_unpack(view))

    def body(self, n: int) -> tuple[bytes, int]:
        """Record n's body and place."""
        return self._body.unpack_from(self.records, n * self.size + LAMBDA)

    def listed(self, n: int) -> tuple[int, int, bytes | None]:
        """Merged record n's list number, n and gamma."""
        i, count, gamma, _ = self._merged.unpack_from(self.records, n * self.size + LAMBDA)
        return i, count, gamma or None

    def runs(self, start: int, stop: int) -> tuple[array, array]:
        """The numbers of the chain records among start..stop-1, and of
        the merged ones, each in arrival order: one pass over their
        places."""
        runs = array("I"), array("I")
        view = memoryview(self.records)[start * self.size : stop * self.size]
        for n, (place,) in enumerate(self._place.iter_unpack(view), start):
            runs[place == MERGED].append(n)
        return runs

    def __getitem__(self, label: bytes) -> ChainEntry | MergedEntry:
        n = self.find(label)
        if n < 0:
            raise KeyError(label)
        mu, place = self.body(n)
        if place != MERGED:
            return ChainEntry(mu, self.places[place])
        i, count, gamma = self.listed(n)
        return MergedEntry(self.lists[i], count, gamma)

    def __contains__(self, label: object) -> bool:
        return self.find(label) >= 0

    def __iter__(self) -> Iterator[bytes]:
        return self.labels()

    def __len__(self) -> int:
        return len(self.records) // self.size


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
        self.files: dict[bytes, bytes] = {}
        self.places: list[bytes] = []  # the file ids by arrival: records name them by place
        self.lists: list[list[bytes]] = []  # the shared id lists: merged records name them
        self.tbl = Table(mask_width(self.mode), self.places, self.lists)
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
        acks a replay before any insert; search only rewrites records). The
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
            for tau, mu in payload.entries:
                if len(tau) != LAMBDA or len(mu) != width:
                    # catches basic/full state mixing: mask widths differ
                    raise ProtocolError(
                        f"entry sized {len(tau)}/{len(mu)}, expected {LAMBDA}/{width}"
                    )
            if not self.tbl.extend(payload.entries, len(self.places)):
                raise ProtocolError("duplicate index label in payload")
            self.places.append(payload.file_id)
            bits = self._bits
            if bits is not None:
                for tau, _ in payload.entries:
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
    ) -> Iterator[tuple[bytes, int, int, bytes | None]]:
        """The records a token reaches, newest first, each as (label, record
        number, place, gamma), each read once: place MERGED for a merged
        entry, gamma the one its mask or merged answer holds (None in basic
        mode). The walk stops after the chain's first entry (its
        key is the zero key) or after a merged entry. It changes nothing:
        search merges what it yields, and harness.audit walks a table
        rebuilt from a transcript with it. An unknown head label is a
        NotFoundError, a missing interior one a ProtocolError, and so is a
        label reached twice: an ADD can hold an entry that opens to its own
        key, and a walk around it would never end."""
        tau, pad = chain_link(self._open_token(envelope))
        tbl, width = self.tbl, mask_width(self.mode)
        missing = NotFoundError("unknown index label in token")
        reached: set[bytes] = set()
        while True:
            if tau in reached:
                raise ProtocolError("chain loops back to a label it reached")
            reached.add(tau)
            n = tbl.find(tau)
            if n < 0:
                raise missing
            mu, place = tbl.body(n)
            if place == MERGED:
                yield tau, n, place, tbl.listed(n)[2]
                return
            opened = xor_bytes(mu, pad[:width])
            yield tau, n, place, opened[LAMBDA:] or None
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
        previously merged entry. Afterwards every record the walk opened is
        rewritten as a merged entry at its own counter, so a later search at
        any counter walked so far costs one lookup, and one at a newer
        counter one plus one per entry added since.
        """
        with self._lock:
            tbl = self.tbl
            walked: list[tuple[int, int, bytes | None]] = []  # record, place, gamma
            below = None  # the merged record's list, n and gamma
            for _, n, place, gamma in self.walk(envelope):
                if place == MERGED:
                    below = tbl.listed(n)
                else:
                    walked.append((n, place, gamma))
            self.last_search_lookups = len(walked) + (below is not None)

            if walked:
                fresh = [self.places[place] for _, place, _ in reversed(walked)]
                i = _extend(self.lists, below, fresh)
                count = len(self.lists[i])
                for c, (n, _, gamma) in zip(range(count, 0, -1), walked):
                    tbl.merge(n, i, c, gamma)
                below = i, count, walked[0][2]  # the head, merged now, answers
            i, count, gamma = below
            ids = self.lists[i][count - 1 :: -1]
            return ids, self.ciphertexts_for(ids), gamma

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
                for label in self.tbl.labels(self.refreshed_at):
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
                update = list(self.tbl.labels(at))
                kind, size = "delta" if update else "not_modified", len(update) * LAMBDA
            self.filters_served[kind] += 1
            if size:
                self.filter_bytes_served[kind] += size
            return update, self.sigma, self.t

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def snapshot(self) -> bytes:
        """DSSESR12, canonical: restore accepts no other encoding of the
        same state, so snapshot -> restore -> snapshot is the identity.

        The mode flag, then [group key, epoch, sigma (a presence byte, then
        LAMBDA bytes), t]; the files; the shared id lists; four runs of
        entries; [filter] ([..] only in full mode). Everything is written
        in the order the server holds it, so nothing is sorted or
        renumbered. The file table comes first, in places order, and names
        each file id once: id lists and chain entries name a file by its
        u32 place, as the table's records do. The shared id lists follow in
        lists order, each written once; a merged entry names one by its
        number there and its prefix length. The runs are the chain entries,
        then the merged entries, whose labels came before the last refresh,
        then the same two for the labels since: each a u64 count and its
        records in arrival order. A chain record is written as the table
        holds it, and a merged one without its pad and MERGED place. Every
        field but a ciphertext is fixed-width. The filter is its header
        (m, k), then u32 n and the n elements of the last refresh: no bits.

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
            put_u64(buf, len(self.places))
            for fid in self.places:
                buf += fid
                put_bytes(buf, self.files[fid])
                spill()
            place = {fid: _PLACE.pack(i) for i, fid in enumerate(self.places)}  # each as a u32
            put_u64(buf, len(self.lists))
            for ids in self.lists:
                put_u32(buf, len(ids))
                buf += b"".join(map(place.__getitem__, ids))
                spill()
            tbl, since = self.tbl, self.refreshed_at
            records, size = tbl.records, tbl.size
            for kind, run in enumerate(tbl.runs(0, since) + tbl.runs(since, len(tbl))):
                put_u64(buf, len(run))
                length = size - len(_TAIL) if kind % 2 else size
                for n in run:
                    at = n * size
                    buf += records[at : at + length]
                    if len(buf) >= _SPILL:
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
        table's own id object, so entries and lists share one per file, and
        the files and lists become the server's places and lists as
        written: their numbers are the table's. A repeated file id is
        refused, and so is a list no merged entry names.

        The runs enter the table in the order they were written, so the
        labels since the last refresh are again its suffix; a label read
        twice, in one run or two, is refused, and so is any entry before a
        basic server's refresh (it has none, so all its labels come after).
        A chain run's records are the table's own: once its places are
        seen to be in range, it is appended whole. A merged run's are too,
        once each is padded and given the MERGED place; a chain record with
        that place is out of range. The filter's generating set is restored
        and no bits are built: the refresh's elements are checked as a
        REFRESH's are (_check_elements) once every field has parsed. The
        header is checked as a serialized filter's is (check_header); a
        snapshot can thus name a filter of up to the header's 2^32 - 1 bits
        (512 MB) without carrying it, the most a server's BloomParams can
        size, and the first whole GET_BLOOM builds it."""
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
        files = server.files
        for _ in range(r.u64()):
            at = r.pos
            fid = r.fixed(FILE_ID_LEN)
            if fid in files:
                raise FormatError("file id repeated", offset=at)
            files[fid] = r.bytes_()
        fids = server.places
        fids.extend(files)

        def place() -> int:
            at = r.pos
            i = r.u32()
            if i >= len(fids):
                raise FormatError(f"file {i} out of range of {len(fids)}", offset=at)
            return i

        chains = server.lists  # the snapshot's list numbers are the table's
        chains.extend([fids[place()] for _ in range(r.u32())] for _ in range(r.u64()))
        used = bytearray(len(chains))  # whether a merged entry names each list
        tbl = server.tbl
        merged = struct.Struct(f">{LAMBDA}xII{width - LAMBDA}x")  # a merged record's list and n
        for run in range(4):
            if run == 2:
                server.refreshed_at = len(tbl)
            record = merged if run % 2 else tbl._place
            count = r.u64()
            at = r.pos
            if count and run < 2 and not full:
                raise FormatError("an entry before a basic server's refresh", offset=at)
            records = r.view(count * record.size)
            step = record.size
            if record is tbl._place:
                for j, (i,) in enumerate(record.iter_unpack(records)):
                    if i >= len(fids):
                        raise FormatError(
                            f"file {i} out of range of {len(fids)}", offset=at + (j + 1) * step - 4
                        )
            else:
                for j, (i, n) in enumerate(merged.iter_unpack(records)):
                    if i >= len(chains):
                        raise FormatError(
                            f"id list {i} out of range of {len(chains)}", offset=at + j * step + LAMBDA
                        )
                    if not 1 <= n <= len(chains[i]):
                        raise FormatError(
                            f"prefix {n} of a {len(chains[i])}-id list",
                            offset=at + j * step + LAMBDA + 4,
                        )
                    used[i] = 1
                records = b"".join(
                    part for j in range(0, len(records), step) for part in (records[j : j + step], _TAIL)
                )
            j = tbl.append_run(records)
            if j >= 0:
                raise FormatError("index label repeated", offset=at + j * step)
        if unused := used.count(0):
            raise FormatError(f"{unused} id lists unused", offset=r.pos)
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

"""Blocked Bloom filter with canonical serialization and counter embedding.

The serialized form (m || k || bit bytes) is normative: the filter MAC
covers m, k and every bit byte, so two filters built from the same add
multiset must serialize byte-identically. There is no per-filter salt,
which keeps the owner's and server's filters bit-synchronized.

The bits form blocks of BLOCK_BYTES (Putze, Sanders & Singler, "Cache-,
Hash- and Space-Efficient Bloom Filters", WEA 2007), and m is a whole
number of blocks, at least one. Each element sets its k bits in one block.
They come from one SHAKE256 output of 8(k+1) bytes, read as big-endian
8-byte words: word 0 mod the block count picks the block (biased below
2^-47), and words 1..k, each mod BLOCK_BITS, are the positions inside it.
BLOCK_BITS is 2^16, so each such residue is read directly as its word's
last two bytes. One hash call per element, yet the k positions are as
independent as k separate hashes. An upload thus changes at most one
block per element, which is what lets the filter MAC (protocol.FilterTags)
re-tag only the blocks it touched. The price is a higher false-positive
rate at the same m, from the uneven load of the blocks; BloomParams.derive
grows m to pay for it.

A filter crosses the network in one form, serialize()'s: what the filter
MAC covers, what the owner's snapshot stores and what a GET_BLOOM reply
carries. A REFRESH carries no filter at all, only the elements of the
refreshed one (owner.refresh_bloom). The server holds no bits for it
either: only the header, those elements and the labels its table gained
since, and its snapshot only those (the labels since in runs of their
own). It builds the bits from them only when a whole GET_BLOOM reply
needs them (server.CloudServer.bf).

Counter embedding stores a keyword's latest counter as one filter element
per decimal digit (position 1 = least significant); extraction probes each
position's ten digits until a position has no hit.
"""

from __future__ import annotations

import hashlib
import math
import struct
from collections.abc import Iterable
from dataclasses import dataclass

from .crypto import digit_element
from .errors import AmbiguousCounterError, FormatError, UsageError

_HEADER = struct.Struct(">II")
_MAX_DIGIT_POSITIONS = 20  # 10^20 > 2^64; more positions means a corrupt filter
_MAX_K = 64  # a 2^-64 target; a header asking for more is refused, not hashed
_MAX_M = 2**32 - 1  # the header's 4-byte m

BLOCK_BYTES = 8192
BLOCK_BITS = 8 * BLOCK_BYTES
# the digest layout for each k: the block word, then the last two bytes of
# each position word (its residue mod BLOCK_BITS = 2^16)
_DIGESTS = [struct.Struct(">Q" + "6xH" * k) for k in range(_MAX_K + 1)]


@dataclass(frozen=True)
class BloomParams:
    """Sizing inputs: target false-positive probability and expected load."""

    target_fp: float = 2.0**-30
    capacity: int = 1_000_000

    def derive(self) -> tuple[int, int]:
        """Return (m bits, k hash functions) for the optimal-k sizing rule.

        m is multiplied by 1 + k^2 / (2 BLOCK_BITS) and rounded up to whole
        blocks, at least one. The factor is a fit to the false-positive
        rate over Poisson block loads: it keeps that rate at or below
        target_fp (x1.0069 at k = 30, where x1.0064 is needed)."""
        if not 0.0 < self.target_fp < 1.0:
            raise UsageError(f"target_fp must be in (0,1), got {self.target_fp}")
        if self.capacity < 1:
            raise UsageError(f"capacity must be >= 1, got {self.capacity}")
        k = math.ceil(-math.log2(self.target_fp))
        if k > _MAX_K:
            raise UsageError(f"target_fp {self.target_fp} needs k={k} > {_MAX_K}")
        m = math.ceil(self.capacity * k / math.log(2))
        m = math.ceil(m * (1 + k * k / (2 * BLOCK_BITS)) / BLOCK_BITS) * BLOCK_BITS
        if m > _MAX_M:
            raise UsageError(f"capacity {self.capacity} needs m={m} > {_MAX_M} bits")
        return m, k


def expected_fp_rate(m: int, k: int, n: int) -> float:
    """(1 - e^(-kn/m))^k for n inserted elements: the rate of an unblocked
    filter, which a blocked one exceeds by a factor derive's growth of m
    pays for."""
    return (1.0 - math.exp(-k * n / m)) ** k


def check_header(m: int, k: int, offset: int = 0) -> None:
    """Refuse a filter header (m, k) whose filter would be unsafe to build:
    k must be 1 to 64, since every add and verify hashes 8(k+1) bytes, and
    m a positive multiple of BLOCK_BITS."""
    if not 1 <= k <= _MAX_K:
        raise FormatError(f"bad bloom header m={m} k={k}", offset=offset)
    if m == 0 or m % BLOCK_BITS:
        raise FormatError(f"bloom m={m} is not whole {BLOCK_BITS}-bit blocks", offset=offset)


def _set_bits(bits: bytearray, base: int, positions: tuple[int, ...]) -> None:
    """Set the bits at positions in the block at byte base."""
    for p in positions:
        bits[base + (p >> 3)] |= 1 << (p & 7)


class BloomFilter:
    def __init__(self, m: int, k: int):
        """An empty filter of m bits and k hashes, for a header that
        check_header accepts (BloomParams.derive always gives one)."""
        self.m = m
        self.k = k
        self.bits = bytearray(m // 8)
        self.n_inserted = 0

    @property
    def n_blocks(self) -> int:
        return self.m // BLOCK_BITS

    def _locate(self, element: bytes) -> tuple[int, tuple[int, ...]]:
        """The element's block, and its k positions in that block."""
        k = self.k
        words = _DIGESTS[k].unpack(hashlib.shake_256(element).digest(8 * (k + 1)))
        return words[0] % (self.m // BLOCK_BITS), words[1:]

    def add(self, element: bytes) -> int:
        """Set the element's bits; return the index of the block holding them."""
        block, positions = self._locate(element)
        _set_bits(self.bits, block * BLOCK_BYTES, positions)
        self.n_inserted += 1
        return block

    def staged(self, elements: Iterable[bytes]) -> dict[int, bytearray]:
        """The blocks the elements fall in, by index, each a copy with the
        elements' bits set; this filter is left as it is."""
        staged: dict[int, bytearray] = {}
        for element in elements:
            block, positions = self._locate(element)
            if block not in staged:
                staged[block] = bytearray(self.block(block))
            _set_bits(staged[block], 0, positions)
        return staged

    def verify(self, element: bytes) -> bool:
        """Whether every bit of the element is set. A probe of an absent
        element usually stops at its first or second position."""
        block, positions = self._locate(element)
        bits, base = self.bits, block * BLOCK_BYTES
        for p in positions:
            if not bits[base + (p >> 3)] & (1 << (p & 7)):
                return False
        return True

    def block(self, i: int) -> memoryview:
        """Block i's bytes, in place (writable)."""
        return memoryview(self.bits)[i * BLOCK_BYTES : (i + 1) * BLOCK_BYTES]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BloomFilter):
            return NotImplemented
        return self.m == other.m and self.k == other.k and self.bits == other.bits

    def popcount(self) -> int:
        return sum(bin(b).count("1") for b in self.bits)

    # -- canonical serialization -------------------------------------------

    def buffers(self) -> tuple[bytes, memoryview]:
        """The serialization's two parts, header and bit bytes, without
        copying the bits (for hashing it in place)."""
        return _HEADER.pack(self.m, self.k), memoryview(self.bits)

    def serialize(self) -> bytes:
        """m(4 BE) || k(4 BE) || m/8 bit bytes, bit i at byte i//8, LSB-first."""
        return b"".join(self.buffers())

    @classmethod
    def deserialize(cls, data: bytes | memoryview) -> "BloomFilter":
        """Parse a serialization, copying its bit bytes once. The header
        is checked first (check_header): a user checks the MAC of a filter
        only after parsing it. Nothing is allocated until every check
        passes."""
        if len(data) < _HEADER.size:
            raise FormatError("bloom header truncated", offset=len(data))
        m, k = _HEADER.unpack_from(data)
        check_header(m, k)
        want = m // 8
        body = memoryview(data)[_HEADER.size :]
        if len(body) != want:
            raise FormatError(
                f"bloom body has {len(body)} bytes, expected {want}",
                offset=_HEADER.size,
            )
        bf = cls(m, k)
        memoryview(bf.bits)[:] = body  # a bytearray slice would copy body first
        return bf

    # -- counter digit embedding (periodic-refresh support) -----------------

    def embed_counter(self, k_prf: bytes, keyword: str, counter: int) -> list[bytes]:
        """Add one element per decimal digit of counter (pos 1 = least
        significant); return the elements added."""
        if counter < 1:
            raise UsageError(f"cannot embed counter {counter}")
        elements = []
        pos = 1
        while counter > 0:
            counter, digit = divmod(counter, 10)
            elements.append(digit_element(k_prf, keyword, pos, digit))
            self.add(elements[-1])
            pos += 1
        return elements

    def extract_counter(self, k_prf: bytes, keyword: str) -> int | None:
        """Recover an embedded counter, or None if position 1 has no digit.

        A position with two or more hits is a false-positive collision; we
        refuse to guess and raise AmbiguousCounterError so the caller can
        fall back to probing from 1.
        """
        value = 0
        scale = 1
        for pos in range(1, _MAX_DIGIT_POSITIONS + 2):
            hits = [
                d for d in range(10)
                if self.verify(digit_element(k_prf, keyword, pos, d))
            ]
            if not hits:
                return value if pos > 1 else None
            if len(hits) > 1:
                raise AmbiguousCounterError(
                    f"digits {hits} all present at position {pos} for keyword",
                    pos=pos,
                )
            value += hits[0] * scale
            scale *= 10
        raise FormatError(
            f"counter embedding exceeds {_MAX_DIGIT_POSITIONS} digit positions"
        )

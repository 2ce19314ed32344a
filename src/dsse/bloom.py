"""Bit-array Bloom filter with canonical serialization and counter embedding.

The serialized form (m || k || bit bytes) is normative: it is the direct
input to the filter-integrity MAC, so two filters built from the same add
multiset must serialize byte-identically. The k indexes of an element come
from one SHAKE256 output of 8k bytes: index i is its i-th 8-byte word read
big-endian and reduced mod m (a bias below m / 2^64). One hash call per
element, yet the k indexes are as independent as k separate hashes, which
the 2^-30 default sizing relies on. There is no per-filter salt, which
keeps the owner's and server's filters bit-synchronized.

Counter embedding stores a keyword's latest counter as one filter element
per decimal digit (position 1 = least significant); extraction probes each
position's ten digits until a position has no hit.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass

from .crypto import digit_element
from .errors import AmbiguousCounterError, FormatError, UsageError

_HEADER = struct.Struct(">II")
_MAX_DIGIT_POSITIONS = 20  # 10^20 > 2^64; more positions means a corrupt filter
_MAX_K = 64  # a 2^-64 target; a header asking for more is refused, not hashed
_MAX_M = 2**32 - 1  # the header's 4-byte m


@dataclass(frozen=True)
class BloomParams:
    """Sizing inputs: target false-positive probability and expected load."""

    target_fp: float = 2.0**-30
    capacity: int = 1_000_000

    def derive(self) -> tuple[int, int]:
        """Return (m bits, k hash functions) for the optimal-k sizing rule."""
        if not 0.0 < self.target_fp < 1.0:
            raise UsageError(f"target_fp must be in (0,1), got {self.target_fp}")
        if self.capacity < 1:
            raise UsageError(f"capacity must be >= 1, got {self.capacity}")
        k = math.ceil(-math.log2(self.target_fp))
        if k > _MAX_K:
            raise UsageError(f"target_fp {self.target_fp} needs k={k} > {_MAX_K}")
        m = math.ceil(self.capacity * k / math.log(2))
        if m > _MAX_M:
            raise UsageError(f"capacity {self.capacity} needs m={m} > {_MAX_M} bits")
        return m, k


def expected_fp_rate(m: int, k: int, n: int) -> float:
    """(1 - e^(-kn/m))^k for n inserted elements."""
    return (1.0 - math.exp(-k * n / m)) ** k


class BloomFilter:
    def __init__(self, params: BloomParams):
        m, k = params.derive()
        self.m = m
        self.k = k
        self.bits = bytearray((m + 7) // 8)
        self.n_inserted = 0

    @classmethod
    def _from_raw(cls, m: int, k: int, bits: bytearray) -> "BloomFilter":
        bf = cls.__new__(cls)
        bf.m = m
        bf.k = k
        bf.bits = bits
        bf.n_inserted = 0
        return bf

    def cleared(self) -> "BloomFilter":
        """An empty filter of the same size."""
        return self._from_raw(self.m, self.k, bytearray(len(self.bits)))

    def copy(self) -> "BloomFilter":
        """A filter with the same bits, in a buffer of its own."""
        return self._from_raw(self.m, self.k, bytearray(self.bits))

    def _indexes(self, element: bytes) -> list[int]:
        """The k big-endian 8-byte words of SHAKE256(element), each mod m."""
        m, k = self.m, self.k
        words = struct.unpack(f">{k}Q", hashlib.shake_256(element).digest(8 * k))
        return [w % m for w in words]

    def add(self, element: bytes) -> None:
        bits = self.bits
        for idx in self._indexes(element):
            bits[idx >> 3] |= 1 << (idx & 7)
        self.n_inserted += 1

    def verify(self, element: bytes) -> bool:
        bits = self.bits
        for idx in self._indexes(element):
            if not bits[idx >> 3] & (1 << (idx & 7)):
                return False
        return True

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
        """m(4 BE) || k(4 BE) || ceil(m/8) bit bytes, bit i at byte i//8, LSB-first."""
        return b"".join(self.buffers())

    @classmethod
    def deserialize(cls, data: bytes | memoryview) -> "BloomFilter":
        """Parse a serialization, copying its bit bytes once. k must be
        1 to 64: every add and verify hashes 8k bytes, and the server has no
        key to check the filter a REFRESH brings."""
        if len(data) < _HEADER.size:
            raise FormatError("bloom header truncated", offset=len(data))
        m, k = _HEADER.unpack_from(data)
        if m < 1 or not 1 <= k <= _MAX_K:
            raise FormatError(f"bad bloom header m={m} k={k}", offset=0)
        want = (m + 7) // 8
        body = memoryview(data)[_HEADER.size :]
        if len(body) != want:
            raise FormatError(
                f"bloom body has {len(body)} bytes, expected {want}",
                offset=_HEADER.size,
            )
        return cls._from_raw(m, k, bytearray(body))

    # -- counter digit embedding (periodic-refresh support) -----------------

    def embed_counter(self, k_prf: bytes, keyword: str, counter: int) -> None:
        """Add one element per decimal digit of counter (pos 1 = least significant)."""
        if counter < 1:
            raise UsageError(f"cannot embed counter {counter}")
        pos = 1
        while counter > 0:
            counter, digit = divmod(counter, 10)
            self.add(digit_element(k_prf, keyword, pos, digit))
            pos += 1

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

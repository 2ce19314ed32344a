"""Length-prefixed binary primitives shared by the wire format and snapshots,
the atomic file write every saved state goes through, and the save/load
the three roles share.

Every variable-length field is a 4-byte big-endian length followed by the
raw bytes; a field whose width the format fixes (a key, a label) is its raw
bytes alone, and integers are big-endian. Decoding is strict: short reads
raise FormatError with the offending offset.
"""

from __future__ import annotations

import os
import struct
import tempfile
from typing import Callable, Iterator, TypeVar

from .errors import FormatError

MAX_FIELD = 1 << 30  # sanity cap on a single length prefix (1 GiB)

T = TypeVar("T")
P = TypeVar("P", bound="Persistent")


def put_u8(buf: bytearray, v: int) -> None:
    buf.append(v & 0xFF)


def put_u32(buf: bytearray, v: int) -> None:
    buf += struct.pack(">I", v)


def put_u64(buf: bytearray, v: int) -> None:
    buf += struct.pack(">Q", v)


def put_bytes(buf: bytearray, b: bytes) -> None:
    if len(b) > MAX_FIELD:
        raise FormatError(f"field too large to encode: {len(b)} bytes")
    put_u32(buf, len(b))
    buf += b


def put_fixed(buf: bytearray, b: bytes, n: int) -> None:
    """A field whose width the format fixes: its raw bytes, which must be n."""
    if len(b) != n:
        raise FormatError(f"fixed-width field is {len(b)} bytes, expected {n}")
    buf += b


def put_str(buf: bytearray, s: str) -> None:
    put_bytes(buf, s.encode("utf-8"))


class Reader:
    """Cursor over a byte string with offset-aware error reporting."""

    def __init__(self, data: bytes, pos: int = 0):
        self.data = data
        self.pos = pos

    def fixed(self, n: int) -> bytes:
        """The next n bytes: a field whose width the format fixes."""
        if self.pos + n > len(self.data):
            raise FormatError(
                f"truncated: wanted {n} bytes, {len(self.data) - self.pos} left",
                offset=self.pos,
            )
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def u8(self) -> int:
        return self.fixed(1)[0]

    def u32(self) -> int:
        return struct.unpack(">I", self.fixed(4))[0]

    def u64(self) -> int:
        return struct.unpack(">Q", self.fixed(8))[0]

    def flag(self) -> bool:
        """Presence byte: 0 or 1, anything else is malformed."""
        at = self.pos
        v = self.u8()
        if v > 1:
            raise FormatError(f"presence flag {v}, expected 0 or 1", offset=at)
        return v == 1

    def bytes_(self) -> bytes:
        at = self.pos
        n = self.u32()
        if n > MAX_FIELD:
            raise FormatError(f"length prefix too large: {n}", offset=at)
        return self.fixed(n)

    def rest(self) -> memoryview:
        """The unread bytes, as a view into the data rather than a copy,
        for a last field that runs to the end."""
        out = memoryview(self.data)[self.pos :]
        self.pos = len(self.data)
        return out

    def str_(self) -> str:
        at = self.pos
        try:
            return self.bytes_().decode("utf-8")
        except UnicodeDecodeError:
            raise FormatError("invalid utf-8 in string field", offset=at) from None

    def ascending(self, what: str, read: Callable[[], T]) -> Iterator[T]:
        """Read a u64 count, then yield that many values, each read by
        `read` and strictly greater than the last (the order snapshots
        write them in)."""
        prev = None
        for _ in range(self.u64()):
            at = self.pos
            key = read()
            if prev is not None and key <= prev:
                raise FormatError(f"{what}s out of order", offset=at)
            prev = key
            yield key

    def expect_end(self) -> None:
        if self.pos != len(self.data):
            raise FormatError(
                f"{len(self.data) - self.pos} trailing bytes", offset=self.pos
            )


def write_atomic(path: str, data: bytes) -> None:
    """Replace the file at path with data, so that a crash or a failed write
    leaves either the old file or the new one, never a torn one: write a
    temp file in the same directory, fsync it, then rename it over path."""
    fd, tmp = tempfile.mkstemp(
        dir=os.path.dirname(os.path.abspath(path)), suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


class Persistent:
    """save/load for a role whose state is the bytes of its snapshot(),
    read back by its restore() classmethod."""

    def save(self, path: str) -> None:
        write_atomic(path, self.snapshot())

    @classmethod
    def load(cls: type[P], path: str) -> P:
        with open(path, "rb") as f:
            return cls.restore(f.read())

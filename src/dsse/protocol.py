"""Protocol objects exchanged between owner, server and users, plus the
result-verification procedure both the owner and authorized users run.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from .crypto import LAMBDA, aggregate_mac, mac_generate
from .errors import UsageError

BASIC = "basic"
FULL = "full"

FRESHNESS_WINDOW = 1200  # seconds a published filter stays fresh: two upload periods


def pack_time(t: int) -> bytes:
    """Timestamps are unix seconds, 8-byte big-endian, everywhere a MAC or
    the wire needs them."""
    return struct.pack(">Q", t)


def filter_mac(k_mac: bytes, t: int, *filter_parts: bytes | memoryview) -> bytes:
    """sigma over the canonical filter serialization and its timestamp.

    The serialization may come in parts (BloomFilter.buffers()), which are
    MACed in place: no 4 MB copy of the filter per upload or check."""
    return mac_generate(k_mac, *filter_parts, pack_time(t))


def result_mac(k_mac: bytes, ciphertext: bytes, keyword: str) -> bytes:
    """Per-file tag binding an encrypted file to a keyword; XOR-aggregated
    into gamma. Binding the keyword blocks answering one keyword's query
    with another's equally sized result set."""
    return mac_generate(k_mac, ciphertext + keyword.encode("utf-8"))


@dataclass
class AddPayload:
    """One file upload: ciphertext plus its index entries.

    entries holds (tau, mu) pairs, one per distinct keyword in the file.
    sigma/t are present in full mode only (MAC over the owner's filter).
    """

    file_id: bytes
    ciphertext: bytes
    entries: list[tuple[bytes, bytes]]
    sigma: bytes | None = None
    t: int | None = None


@dataclass
class RefreshPayload:
    """Periodic filter replacement carrying only counter digit embeddings."""

    bf_bytes: bytes
    sigma: bytes
    t: int


@dataclass
class SearchTokenEnvelope:
    """Search credential for one keyword at its latest counter.

    In full mode body is an AEAD ciphertext of tau||k_cnt under the group
    key of `epoch`; in basic mode there is no group key and body is the
    raw 2*LAMBDA-byte pair (epoch is 0).
    """

    epoch: int
    body: bytes


@dataclass
class VerifyReport:
    """Outcome of each verification check; None means the check was skipped."""

    cardinality_ok: bool
    gamma_ok: bool
    sigma_ok: bool | None = None
    fresh_ok: bool | None = None

    @property
    def ok(self) -> bool:
        return (
            self.cardinality_ok
            and self.gamma_ok
            and self.sigma_ok is not False
            and self.fresh_ok is not False
        )


def verify_result(
    k_mac: bytes,
    keyword: str,
    cnt: int,
    rst: list[bytes],
    ciphertexts: list[bytes],
    gamma: bytes,
) -> VerifyReport:
    """Run the result checks against a search result.

    (a) cardinality: one ciphertext per id, none repeated (a repeated
    pair cancels in the XOR aggregate; an honest chain holds each freshly
    encrypted file once), and as many as the counter; (b) XOR of per-file
    tags equals the gamma the server answered with. The owner knows the
    true counter, so these are all it needs. A delegated user adds (c) and
    (d) about the filter it derived the counter from (see
    AuthorizedUser.verify); this function leaves them None.
    """
    distinct = len(set(ciphertexts)) == len(ciphertexts) == len(rst)
    tags = [result_mac(k_mac, c, keyword) for c in ciphertexts]
    return VerifyReport(distinct and len(rst) == cnt, aggregate_mac(tags) == gamma)


def check_mode(mode: str) -> str:
    if mode not in (BASIC, FULL):
        raise UsageError(f"mode must be '{BASIC}' or '{FULL}', got {mode!r}")
    return mode


def mask_width(mode: str) -> int:
    """Masked-entry width: tau||key in basic mode, tau||key||gamma in full."""
    return 2 * LAMBDA if mode == BASIC else 3 * LAMBDA

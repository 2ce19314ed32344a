"""Protocol objects exchanged between owner, server and users, plus the
result-verification procedure both the owner and authorized users run.
"""

from __future__ import annotations

import struct
from collections.abc import Iterable
from dataclasses import dataclass

from .bloom import BloomFilter
from .crypto import (
    LAMBDA,
    TAG_BLOCK,
    TAG_FILTER,
    TAG_RESULT,
    aggregate_mac,
    encode_counter_input,
    mac_generate,
    prf1,
)
from .errors import UsageError

BASIC = "basic"
FULL = "full"

FRESHNESS_WINDOW = 1200  # seconds a published filter stays fresh: two upload periods
FILE_ID_LEN = 16  # a file id is random bytes of this fixed width


def pack_time(t: int) -> bytes:
    """Timestamps are unix seconds, 8-byte big-endian, everywhere a MAC or
    the wire needs them."""
    return struct.pack(">Q", t)


_BLOCK_INPUT = struct.Struct(">BI")  # TAG_BLOCK | block index
_FILTER_INPUT = struct.Struct(">BII")  # TAG_FILTER | m | k


def filter_mac(k_filter: bytes, m: int, k: int, agg: bytes, t: int) -> bytes:
    """sigma: the outer MAC over a filter's size, the XOR of its block tags
    and its timestamp (see FilterTags)."""
    return mac_generate(k_filter, _FILTER_INPUT.pack(TAG_FILTER, m, k), agg, pack_time(t))


class FilterTags:
    """The filter MAC of one filter, kept as per-block tags and their XOR.

        tag_i = MAC(k1, TAG_BLOCK | u32 i | block_i)     agg = XOR_i tag_i
        sigma = MAC(k2, TAG_FILTER | u32 m | u32 k | agg | u64 t)

    k1 and k2 are derived from k_mac under the two tags. Re-tagging a block
    moves agg by its old tag XOR its new one, so after an edit sigma costs
    the blocks the edit touched, not the whole filter (an XOR-MAC: Bellare,
    Guérin & Rogaway, CRYPTO 1995). The index inside each tag stops blocks
    from being swapped or moved; the outer MAC stops a forger from XOR-ing
    observed tags into an agg of its choosing.
    """

    def __init__(self, k_mac: bytes, bf: BloomFilter):
        """Tag every block of bf."""
        self.bf = bf
        self._k_block = prf1(k_mac, bytes((TAG_BLOCK,)))
        self._k_filter = prf1(k_mac, bytes((TAG_FILTER,)))
        self._tags = [0] * bf.n_blocks
        self._agg = 0
        self.retag(range(bf.n_blocks))

    def _tag(self, i: int, block: bytes | memoryview) -> int:
        return int.from_bytes(
            mac_generate(self._k_block, _BLOCK_INPUT.pack(TAG_BLOCK, i), block), "big"
        )

    def retag(self, blocks: Iterable[int]) -> None:
        """Bring the tags of these blocks of self.bf up to date."""
        bf, tags, agg = self.bf, self._tags, self._agg
        for i in blocks:
            new = self._tag(i, bf.block(i))
            agg ^= tags[i] ^ new
            tags[i] = new
        self._agg = agg

    def add_checked(self, elements: Iterable[bytes], sigma: bytes, t: int) -> bool:
        """Add the elements to self.bf if the filter that makes is the one
        sigma covers at t, and return whether it was. The blocks they fall
        in are staged as copies and tagged, and only once sigma matches are
        they and their tags written, so a refused add changes nothing."""
        staged = self.bf.staged(elements)
        new = {i: self._tag(i, block) for i, block in staged.items()}
        tags, agg = self._tags, self._agg
        for i, tag in new.items():
            agg ^= tags[i] ^ tag
        if self._sigma(agg, t) != sigma:
            return False
        for i, block in staged.items():
            self.bf.block(i)[:] = block
            tags[i] = new[i]
        self._agg = agg
        return True

    def sigma(self, t: int) -> bytes:
        return self._sigma(self._agg, t)

    def _sigma(self, agg: int, t: int) -> bytes:
        bf = self.bf
        return filter_mac(self._k_filter, bf.m, bf.k, agg.to_bytes(LAMBDA, "big"), t)


def result_mac(k_mac: bytes, ciphertext: bytes, keyword: str, i: int) -> bytes:
    """Per-file tag binding an encrypted file to a keyword and to its place
    i in that keyword's chain (the counter it was uploaded at);
    XOR-aggregated into gamma. Binding the keyword blocks answering one
    keyword's query with another's equally sized result set. Binding the
    place leaves a server one known tag per place, the true file's: with
    tags that named no place, more than 128 of them let it solve for a set
    of newer files whose tags XOR to those of as many older ones, and swap
    one set for the other (as XHASH fell to Bellare and Micciancio; the
    XOR-MAC of Bellare, Guérin and Rogaway tags each block with its index
    against this)."""
    return mac_generate(k_mac, encode_counter_input(TAG_RESULT, keyword, i), ciphertext)


@dataclass
class AddPayload:
    """One file upload: ciphertext plus its index entries.

    entries holds (tau, mu) pairs, one per distinct keyword in the file:
    mu masks the previous entry's key (the zero key for a keyword's
    first), and in full mode the keyword's gamma after this file.
    sigma/t are present in full mode only (MAC over the owner's filter).
    """

    file_id: bytes
    ciphertext: bytes
    entries: list[tuple[bytes, bytes]]
    sigma: bytes | None = None
    t: int | None = None


@dataclass
class RefreshPayload:
    """Periodic filter replacement carrying only counter digit embeddings.

    elements is the refreshed filter's n digit elements, LAMBDA bytes each,
    strictly ascending, in one bytes object; the server adds them to an
    empty filter of its own size, and sigma covers the filter that makes.

    What the server learns: n, the number of decimal digits over all
    current counters, and which elements repeat from the previous
    refresh. The bits told it as much already: on gateway_ingest (seed
    1701) the common set bits of consecutive refreshed filters, divided by
    k, gave 1,213 and 1,833, and the repeated elements were 1,212 of 2,939
    and 1,833 of 3,598. The order must be sorted: the owner's keyword table
    is in first-upload order, so listed in it the elements' positions
    would link them to earlier ADD frames."""

    elements: bytes
    sigma: bytes
    t: int

    @property
    def n(self) -> int:
        return len(self.elements) // LAMBDA


@dataclass
class SearchTokenEnvelope:
    """Search credential for one keyword at its latest counter.

    The token is k_cnt, the chain key of the counter's entry; the server
    derives the entry's label from it (crypto.key_label). In full mode body
    is an AEAD ciphertext of it under the group key of `epoch`; in basic
    mode there is no group key and body is the raw LAMBDA-byte key (epoch
    is 0).
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
    tags equals the gamma the server answered with, each file tagged at
    the place the answer's order gives it, newest first: cnt down to 1 (a
    file past place 1 has none, and fails it). The owner knows the
    true counter, so these are all it needs. A delegated user adds (c) and
    (d) about the filter it derived the counter from (see
    AuthorizedUser.verify); this function leaves them None.
    """
    distinct = len(set(ciphertexts)) == len(ciphertexts) == len(rst)
    tags = [result_mac(k_mac, c, keyword, i) for i, c in zip(range(cnt, 0, -1), ciphertexts)]
    return VerifyReport(
        distinct and len(rst) == cnt,
        len(tags) == len(ciphertexts) and aggregate_mac(tags) == gamma,
    )


def check_mode(mode: str) -> str:
    if mode not in (BASIC, FULL):
        raise UsageError(f"mode must be '{BASIC}' or '{FULL}', got {mode!r}")
    return mode


def mask_width(mode: str) -> int:
    """Masked-entry width: the previous entry's key in basic mode, that key
    and gamma in full."""
    return LAMBDA if mode == BASIC else 2 * LAMBDA

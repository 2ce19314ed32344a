"""Recompute one keyword's full chain from raw stdlib primitives only
(hmac/hashlib/struct, and AES-GCM from cryptography for the token), with no helpers from the package, and
compare the owner's emitted bytes against it.
Catches any accidental coupling between the implementation and the test
helpers used elsewhere.
"""

import hashlib
import hmac
import struct

from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from dsse.bloom import BloomFilter, BloomParams
from dsse.owner import DataOwner

NOW = 1_700_000_000


def raw_counter_input(tag: int, keyword: str, counter: int) -> bytes:
    kw = keyword.encode("utf-8")
    return struct.pack(">BI", tag, len(kw)) + kw + struct.pack(">Q", counter)


def raw_chain_key(k_prf: bytes, keyword: str, counter: int) -> bytes:
    msg = raw_counter_input(0x02, keyword, counter)
    return hmac.new(k_prf, msg, hashlib.sha256).digest()[:16]


def raw_link(key: bytes) -> bytes:
    """HMAC-SHA-512 of the byte 0x06 under a chain key: the entry's label
    is its first 16 bytes, and its mask the next 32 (full) or 16 (basic)."""
    return hmac.new(key, b"\x06", hashlib.sha512).digest()


def raw_tau(k_prf: bytes, keyword: str, counter: int) -> bytes:
    return raw_link(raw_chain_key(k_prf, keyword, counter))[:16]


def raw_mask(key: bytes, width: int) -> bytes:
    return raw_link(key)[16 : 16 + width]


def xor(a: bytes, b: bytes) -> bytes:
    return bytes(x ^ y for x, y in zip(a, b))


def test_full_mode_chain_matches_raw_primitives():
    owner = DataOwner.generate("full", BloomParams(0.01, 100))
    keyword = "heartbeat:75"
    ciphertexts = []
    emitted = []
    for i in range(4):
        payload = owner.add_file(f"reading {i}".encode(), [keyword], NOW + 600 * i)
        ciphertexts.append(payload.ciphertext)
        emitted.append(payload.entries[0])

    k = owner.keys
    gamma = b"\x00" * 16
    for i, (tau, mu) in enumerate(emitted, start=1):
        assert tau == raw_tau(k.k_prf, keyword, i)
        # the file's tag names its place i in the chain (tag 0x07)
        msg = raw_counter_input(0x07, keyword, i) + ciphertexts[i - 1]
        gamma = xor(gamma, hmac.new(k.k_mac, msg, hashlib.sha256).digest()[:16])
        prev_key = raw_chain_key(k.k_prf, keyword, i - 1) if i > 1 else b"\x00" * 16
        expected_mu = xor(prev_key + gamma, raw_mask(raw_chain_key(k.k_prf, keyword, i), 32))
        assert mu == expected_mu, f"entry {i}"

    # the owner's running aggregate agrees with the raw recomputation
    assert owner.tbl[keyword].gamma == gamma
    # and its token is the newest chain key under the group key, AES-GCM
    token = owner.gen_token(keyword)
    nonce, body = token.body[:12], token.body[12:]
    assert AESGCM(k.r).decrypt(nonce, body, None) == raw_chain_key(k.k_prf, keyword, 4)

    # and the digit embedding uses the 0x03-tagged raw encoding: a REFRESH
    # carries one element per digit, sorted
    owner.tbl[keyword].cnt = 456
    refresh = owner.refresh_bloom(NOW + 3000)
    elements = raw_digit_elements(k.k_prf, keyword, 456)
    assert len(elements) == 3
    assert refresh.elements == b"".join(sorted(elements))


def test_basic_mode_chain_matches_raw_primitives():
    owner = DataOwner.generate("basic", BloomParams(0.01, 100))
    keyword = "steps:880"
    (tau1, mu1) = owner.add_file(b"first", [keyword], NOW).entries[0]
    (tau2, mu2) = owner.add_file(b"second", [keyword], NOW + 600).entries[0]
    k = owner.keys

    assert tau1 == raw_tau(k.k_prf, keyword, 1)
    assert mu1 == xor(b"\x00" * 16, raw_mask(raw_chain_key(k.k_prf, keyword, 1), 16))
    assert tau2 == raw_tau(k.k_prf, keyword, 2)
    assert mu2 == xor(
        raw_chain_key(k.k_prf, keyword, 1),
        raw_mask(raw_chain_key(k.k_prf, keyword, 2), 16),
    )
    assert owner.gen_token(keyword).body == raw_chain_key(k.k_prf, keyword, 2)


def raw_digit_elements(k_prf: bytes, keyword: str, counter: int) -> list[bytes]:
    """One element per decimal digit of counter, position 1 the least
    significant: HMAC-SHA-256 under k_prf over 0x03 | u32 keyword length |
    keyword | u32 position | u32 digit, cut to 16 bytes."""
    kw = keyword.encode("utf-8")
    out = []
    for pos, digit in enumerate(reversed(str(counter)), start=1):
        msg = struct.pack(">BI", 0x03, len(kw)) + kw + struct.pack(">II", pos, int(digit))
        out.append(hmac.new(k_prf, msg, hashlib.sha256).digest()[:16])
    return out


def raw_sigma(k_mac: bytes, serialized: bytes, t: int) -> bytes:
    """sigma of a serialized filter: the blocks (a filter is whole blocks
    of 8,192 bytes) each tagged under a key derived from k_mac with tag
    0x04, the tags XOR-ed, and the outer MAC under a key derived with tag
    0x05 over m, k, that XOR and t."""
    m, k = struct.unpack(">II", serialized[:8])
    bits = serialized[8:]
    size = 8192
    k_block = hmac.new(k_mac, b"\x04", hashlib.sha256).digest()[:16]
    k_filter = hmac.new(k_mac, b"\x05", hashlib.sha256).digest()[:16]
    agg = 0
    for i in range(len(bits) // size):
        msg = struct.pack(">BI", 0x04, i) + bits[i * size : (i + 1) * size]
        agg ^= int.from_bytes(hmac.new(k_block, msg, hashlib.sha256).digest()[:16], "big")
    msg = struct.pack(">BII", 0x05, m, k) + agg.to_bytes(16, "big") + struct.pack(">Q", t)
    return hmac.new(k_filter, msg, hashlib.sha256).digest()[:16]


def test_filter_mac_matches_raw_primitives():
    # one block of 65,536 bits, and four
    for params in (BloomParams(0.01, 100), BloomParams(2.0**-30, 5000)):
        owner = DataOwner.generate("full", params)
        for i in range(3):
            payload = owner.add_file(f"reading {i}".encode(), ["hrv:50", f"x:{i}"], NOW + 600 * i)
        assert payload.sigma == raw_sigma(owner.keys.k_mac, owner.bf.serialize(), payload.t)
        refresh = owner.refresh_bloom(NOW + 3000)
        # a REFRESH carries the refreshed filter's digit elements, sorted;
        # sigma covers the filter of the owner's size that holds them
        elements = sorted(
            e for w, rec in owner.tbl.items()
            for e in raw_digit_elements(owner.keys.k_prf, w, rec.cnt)
        )
        assert refresh.elements == b"".join(elements)
        m, k = owner.bf.m, owner.bf.k
        raw = struct.pack(">II", m, k) + raw_bloom_bits(m, k, elements)
        assert refresh.sigma == raw_sigma(owner.keys.k_mac, raw, NOW + 3000)


def raw_bloom_bits(m: int, k: int, elements: list[bytes]) -> bytes:
    """Bit bytes of an (m, k) filter holding elements. The element's
    8(k+1)-byte SHAKE256 output is read as big-endian 8-byte words: word 0
    mod the number of 65,536-bit blocks picks a block, and words 1..k mod
    65,536 are the bits set inside it; bit g at byte g // 8, least
    significant bit first. An m the filter would refuse (below one block)
    is read here as one block of m bits, so this reference does not
    assume the whole-block rule it is compared against."""
    blocks, width = max(m // 65536, 1), min(m, 65536)
    bits = bytearray((m + 7) // 8)
    for e in elements:
        out = hashlib.shake_256(e).digest(8 * (k + 1))
        words = [int.from_bytes(out[8 * i : 8 * i + 8], "big") for i in range(k + 1)]
        base = words[0] % blocks * 65536
        for w in words[1:]:
            g = base + w % width
            bits[g // 8] |= 1 << (g % 8)
    return bytes(bits)


def test_bloom_indexes_match_raw_primitives():
    for params in (BloomParams(0.01, 100), BloomParams(2.0**-30, 5000)):
        bf = BloomFilter(params)
        elements = [bytes([i]) * 16 for i in range(8)]
        for element in elements:
            bf.add(element)
        assert bf.serialize() == struct.pack(">II", bf.m, bf.k) + raw_bloom_bits(
            bf.m, bf.k, elements
        )
    one = BloomFilter(BloomParams(0.01, 100))
    one.add(b"one chain label!")
    assert bin(int.from_bytes(one.serialize()[8:], "big")).count("1") == one.k

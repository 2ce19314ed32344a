"""Recompute one keyword's full chain from raw stdlib primitives only
(hmac/hashlib/struct, and zlib for the packed filter), with no helpers
from the package, and compare the owner's emitted bytes against it.
Catches any accidental coupling between the implementation and the test
helpers used elsewhere.
"""

import hashlib
import hmac
import struct
import zlib

from dsse.bloom import BloomFilter, BloomParams
from dsse.owner import DataOwner

NOW = 1_700_000_000


def raw_counter_input(tag: int, keyword: str, counter: int) -> bytes:
    kw = keyword.encode("utf-8")
    return struct.pack(">BI", tag, len(kw)) + kw + struct.pack(">Q", counter)


def raw_tau(k_prf: bytes, keyword: str, counter: int) -> bytes:
    msg = raw_counter_input(0x01, keyword, counter)
    return hmac.new(k_prf, msg, hashlib.sha256).digest()[:16]


def raw_chain_key(k_prf: bytes, keyword: str, counter: int) -> bytes:
    pre = hashlib.sha256(raw_counter_input(0x02, keyword, counter)).digest()[:16]
    return hmac.new(k_prf, pre, hashlib.sha256).digest()[:16]


def raw_mask(key: bytes, tau: bytes, width: int) -> bytes:
    return hmac.new(key, tau, hashlib.sha512).digest()[:width]


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
        gamma = xor(
            gamma,
            hmac.new(k.k_mac, ciphertexts[i - 1] + keyword.encode(), hashlib.sha256)
            .digest()[:16],
        )
        prev_key = raw_chain_key(k.k_prf, keyword, i - 1) if i > 1 else b"\x00" * 16
        plain = raw_tau(k.k_prf, keyword, i - 1) + prev_key + gamma
        expected_mu = xor(plain, raw_mask(raw_chain_key(k.k_prf, keyword, i), tau, 48))
        assert mu == expected_mu, f"entry {i}"

    # the owner's running aggregate agrees with the raw recomputation
    assert owner.tbl[keyword].gamma == gamma

    # and the digit embedding uses the 0x03-tagged raw encoding
    owner.tbl[keyword].cnt = 456
    refresh = owner.refresh_bloom(NOW + 3000)
    from dsse.bloom import BloomFilter

    bf = BloomFilter.deserialize(zlib.decompress(refresh.bf_bytes, wbits=-15))
    for pos, digit in ((1, 6), (2, 5), (3, 4)):
        kw = keyword.encode("utf-8")
        msg = struct.pack(">BI", 0x03, len(kw)) + kw + struct.pack(">II", pos, digit)
        element = hmac.new(k.k_prf, msg, hashlib.sha256).digest()[:16]
        assert bf.verify(element)


def test_basic_mode_chain_matches_raw_primitives():
    owner = DataOwner.generate("basic", BloomParams(0.01, 100))
    keyword = "steps:880"
    (tau1, mu1) = owner.add_file(b"first", [keyword], NOW).entries[0]
    (tau2, mu2) = owner.add_file(b"second", [keyword], NOW + 600).entries[0]
    k = owner.keys

    assert tau1 == raw_tau(k.k_prf, keyword, 1)
    assert mu1 == xor(
        raw_tau(k.k_prf, keyword, 0) + b"\x00" * 16,
        raw_mask(raw_chain_key(k.k_prf, keyword, 1), tau1, 32),
    )
    assert tau2 == raw_tau(k.k_prf, keyword, 2)
    assert mu2 == xor(
        raw_tau(k.k_prf, keyword, 1) + raw_chain_key(k.k_prf, keyword, 1),
        raw_mask(raw_chain_key(k.k_prf, keyword, 2), tau2, 32),
    )


def raw_sigma(k_mac: bytes, serialized: bytes, t: int) -> bytes:
    """sigma of a serialized filter: the blocks (8,192 bytes, or all the
    bit bytes when m is at most 65,536) each tagged under a key derived
    from k_mac with tag 0x04, the tags XOR-ed, and the outer MAC under a
    key derived with tag 0x05 over m, k, that XOR and t."""
    m, k = struct.unpack(">II", serialized[:8])
    bits = serialized[8:]
    size = 8192 if m > 65536 else len(bits)
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
        # a REFRESH carries the serialization raw-deflated (RFC 1951)
        raw = zlib.decompress(refresh.bf_bytes, wbits=-15)
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

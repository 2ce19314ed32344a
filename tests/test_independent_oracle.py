"""Recompute one keyword's full chain from raw stdlib primitives only
(hmac/hashlib/struct), with no helpers from the package, and compare the
owner's emitted bytes against it. Catches any accidental coupling between
the implementation and the test helpers used elsewhere.
"""

import hashlib
import hmac
import struct

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

    bf = BloomFilter.deserialize(refresh.bf_bytes)
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


def test_filter_mac_matches_raw_primitives():
    owner = DataOwner.generate("full", BloomParams(0.01, 100))
    payload = owner.add_file(b"reading", ["hrv:50"], NOW)
    expected = hmac.new(
        owner.keys.k_mac,
        owner.bf.serialize() + struct.pack(">Q", NOW),
        hashlib.sha256,
    ).digest()[:16]
    assert payload.sigma == expected


def raw_bloom_bits(m: int, k: int, elements: list[bytes]) -> bytes:
    """Bit bytes of an (m, k) filter holding elements: index i of an element
    is the i-th big-endian 8-byte word of its 8k-byte SHAKE256 output, mod m;
    bit g at byte g // 8, least significant bit first."""
    bits = bytearray((m + 7) // 8)
    for e in elements:
        out = hashlib.shake_256(e).digest(8 * k)
        for i in range(k):
            g = int.from_bytes(out[8 * i : 8 * i + 8], "big") % m
            bits[g // 8] |= 1 << (g % 8)
    return bytes(bits)


def test_bloom_indexes_match_raw_primitives():
    bf = BloomFilter(BloomParams(0.01, 100))
    element = b"one chain label!"
    bf.add(element)
    assert bf.serialize() == struct.pack(">II", bf.m, bf.k) + raw_bloom_bits(
        bf.m, bf.k, [element]
    )
    assert bin(int.from_bytes(bf.serialize()[8:], "big")).count("1") == bf.k

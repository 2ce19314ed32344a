import hashlib
import hmac
import random

import pytest

from dsse import crypto
from dsse.errors import DecryptionError, UsageError

K = bytes(range(16))
K2 = bytes(range(16, 32))


def test_output_lengths():
    msg = b"some message"
    assert len(crypto.prf1(K, msg)) == 16
    assert len(crypto.prf2(K, msg)) == 32
    assert len(crypto.prf3(K, msg)) == 48
    assert len(crypto.hash16(msg)) == 16
    assert len(crypto.mac_generate(K, msg)) == 16


def test_output_lengths_random_inputs():
    rng = random.Random(1)
    for _ in range(10_000):
        msg = rng.randbytes(rng.randint(0, 64))
        assert len(crypto.prf1(K, msg)) == 16
        assert len(crypto.prf2(K, msg)) == 32
        assert len(crypto.prf3(K, msg)) == 48
        assert len(crypto.hash16(msg)) == 16
        assert len(crypto.mac_generate(K, msg)) == 16


def test_hash_collision_free_over_corpus():
    # every distinct keyword string in the synthetic universe hashes uniquely
    from dsse.harness.phi import ATTRIBUTES

    digests = set()
    count = 0
    for name, lo, hi in ATTRIBUTES:
        for value in range(lo, hi + 1):
            digests.add(crypto.hash16(f"{name}:{value}".encode()))
            count += 1
    assert len(digests) == count


def test_prf_determinism():
    msg = b"deterministic"
    assert crypto.prf1(K, msg) == crypto.prf1(K, msg)
    assert crypto.prf2(K, msg) == crypto.prf2(K, msg)
    assert crypto.prf3(K, msg) == crypto.prf3(K, msg)
    assert crypto.mac_generate(K, msg) == crypto.mac_generate(K, msg)


def test_prf1_is_truncated_hmac_sha256():
    msg = b"check against the stdlib directly"
    assert crypto.prf1(K, msg) == hmac.new(K, msg, hashlib.sha256).digest()[:16]
    assert crypto.prf2(K, msg) == hmac.new(K, msg, hashlib.sha512).digest()[:32]
    assert crypto.prf3(K, msg) == hmac.new(K, msg, hashlib.sha512).digest()[:48]


def test_hash_empty_matches_published_vector():
    # SHA-256("") = e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855
    assert crypto.hash16(b"") == bytes.fromhex("e3b0c44298fc1c149afbf4c8996fb924")


def test_distinct_counters_give_distinct_labels():
    a = crypto.prf1(K, crypto.encode_counter_input(0x01, "hb:75", 1))
    b = crypto.prf1(K, crypto.encode_counter_input(0x01, "hb:75", 2))
    assert a != b


def test_distinct_keys_give_distinct_outputs():
    rng = random.Random(2)
    msg = b"fixed message"
    seen = set()
    for _ in range(1000):
        key = rng.randbytes(16)
        seen.add(crypto.prf2(key, msg))
    assert len(seen) == 1000


def test_bad_key_length_rejected():
    for fn in (crypto.prf1, crypto.prf2, crypto.prf3, crypto.mac_generate):
        with pytest.raises(UsageError):
            fn(b"\x00" * 15, b"msg")
    with pytest.raises(UsageError):
        crypto.se_encrypt(b"\x00" * 8, b"m")


def test_xor_mask_round_trip():
    rng = random.Random(3)
    for _ in range(100):
        x = rng.randbytes(48)
        mask = crypto.prf3(K, rng.randbytes(16))
        assert crypto.xor_bytes(crypto.xor_bytes(x, mask), mask) == x


def test_encoding_injective():
    rng = random.Random(4)
    seen = {}
    for _ in range(5000):
        tag = rng.choice([0x01, 0x02])
        w = "".join(rng.choice("abcdef:0123456789") for _ in range(rng.randint(1, 12)))
        cnt = rng.randint(0, 2**40)
        enc = crypto.encode_counter_input(tag, w, cnt)
        key = (tag, w, cnt)
        if enc in seen:
            assert seen[enc] == key
        seen[enc] = key
    # digit inputs never collide with counter inputs (distinct tag byte)
    assert crypto.encode_digit_input("w", 1, 6)[0] == 0x03


def test_encoding_separates_adjacent_fields():
    # same byte stream, different split points, must differ
    a = crypto.encode_counter_input(0x01, "ab", 1)
    b = crypto.encode_counter_input(0x01, "a", 1)
    assert a != b
    assert crypto.encode_digit_input("w", 1, 6) != crypto.encode_digit_input("w", 6, 1)


def test_encode_counter_bounds():
    with pytest.raises(UsageError):
        crypto.encode_counter_input(0x01, "w", -1)
    with pytest.raises(UsageError):
        crypto.encode_counter_input(0x01, "w", 2**64)
    with pytest.raises(UsageError):
        crypto.encode_digit_input("w", 0, 5)
    with pytest.raises(UsageError):
        crypto.encode_digit_input("w", 1, 10)


def test_se_round_trip_and_tamper():
    key = crypto.new_key()
    msg = b"personal health record " * 10
    ct = crypto.se_encrypt(key, msg)
    assert crypto.se_decrypt(key, ct) == msg
    flipped = bytearray(ct)
    flipped[-1] ^= 0x01
    with pytest.raises(DecryptionError):
        crypto.se_decrypt(key, bytes(flipped))


def test_se_is_probabilistic():
    key = crypto.new_key()
    assert crypto.se_encrypt(key, b"m") != crypto.se_encrypt(key, b"m")


def test_mac_binds_keyword():
    c = b"ciphertext bytes"
    assert crypto.mac_generate(K, c + b"w1") != crypto.mac_generate(K, c + b"w2")


def test_mac_over_parts_is_the_mac_of_their_concatenation():
    parts = [b"head", memoryview(bytearray(b"in-place bits")), b"\x00" * 8]
    whole = b"head" + b"in-place bits" + b"\x00" * 8
    assert crypto.mac_generate(K, *parts) == crypto.mac_generate(K, whole)
    assert crypto.mac_generate(K, whole) == hmac.new(K, whole, hashlib.sha256).digest()[:16]


def test_aggregate_mac_properties():
    t1 = crypto.mac_generate(K, b"a")
    t2 = crypto.mac_generate(K, b"b")
    t3 = crypto.mac_generate(K, b"c")
    assert crypto.aggregate_mac([]) == b"\x00" * 16
    assert crypto.aggregate_mac([t1]) == t1
    assert crypto.aggregate_mac([t1, t2]) == crypto.aggregate_mac([t2, t1])
    rng = random.Random(5)
    tags = [t1, t2, t3, t1, t2]
    want = crypto.aggregate_mac(tags)
    for _ in range(10):
        shuffled = tags[:]
        rng.shuffle(shuffled)
        assert crypto.aggregate_mac(shuffled) == want
    with pytest.raises(UsageError):
        crypto.aggregate_mac([t1, b"short"])


def test_key_bundle_rotation():
    bundle = crypto.KeyBundle.generate()
    assert bundle.epoch == 1
    old_r = bundle.r
    bundle.rotate()
    assert bundle.epoch == 2
    assert bundle.r != old_r
    other = crypto.KeyBundle.generate()
    assert other.k_prf != bundle.k_prf

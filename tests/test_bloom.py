import math
import random
import struct

import pytest

from dsse.bloom import BloomFilter, BloomParams, expected_fp_rate
from dsse.crypto import new_key
from dsse.errors import AmbiguousCounterError, FormatError, UsageError


def test_params_at_target_fp_2pow30():
    m, k = BloomParams(2.0**-30, 1000).derive()
    assert k == 30
    # m/n = k/ln2 ~ 43.3 bits per element
    assert abs(m / 1000 - 30 / math.log(2)) < 0.1


def test_params_year_scale_filter_size():
    # one refresh period of uploads (52,560 files x 15 keywords) plus digit
    # embeddings lands in the same few-MB ballpark as the reference ~5 MB
    n = 52_560 * 15 + 200_000
    m, _ = BloomParams(2.0**-30, n).derive()
    size_mb = m / 8 / 1024 / 1024
    assert 2.0 < size_mb < 10.0


def test_params_validation():
    with pytest.raises(UsageError):
        BloomParams(0.0, 10).derive()
    with pytest.raises(UsageError):
        BloomParams(1.5, 10).derive()
    with pytest.raises(UsageError):
        BloomParams(0.01, 0).derive()


def test_params_bound_k_at_64():
    # each add and verify hashes 8k bytes, so sizing stops at a 2^-64 target
    assert BloomParams(2.0**-64, 10).derive()[1] == 64
    with pytest.raises(UsageError):
        BloomParams(2.0**-65, 10).derive()


def test_params_bound_m_by_the_header():
    # the header holds m in 4 bytes; a larger m failed with struct.error at
    # serialize time, after allocating the bit array
    fits = int((2**32 - 1) * math.log(2) / 30)
    assert BloomParams(2.0**-30, fits).derive() == (4_294_967_265, 30)
    for capacity in (fits + 1, 100_000_000):
        with pytest.raises(UsageError, match="needs m="):
            BloomParams(2.0**-30, capacity).derive()


def test_fresh_filter_rejects_everything():
    bf = BloomFilter(BloomParams(0.01, 100))
    rng = random.Random(0)
    assert all(not bf.verify(rng.randbytes(16)) for _ in range(100))


def test_no_false_negatives():
    bf = BloomFilter(BloomParams(0.01, 500))
    rng = random.Random(1)
    elements = [rng.randbytes(16) for _ in range(500)]
    for e in elements:
        bf.add(e)
    assert all(bf.verify(e) for e in elements)
    assert bf.n_inserted == 500


def test_add_idempotent_on_bits():
    bf = BloomFilter(BloomParams(0.01, 10))
    e = b"e" * 16
    bf.add(e)
    bits = bytes(bf.bits)
    bf.add(e)
    assert bytes(bf.bits) == bits
    assert bf.popcount() <= bf.k * 1


def test_measured_fp_rate_near_formula():
    # relaxed config so the rate is measurable; the 2^-30 production target
    # is statistically untestable directly
    params = BloomParams(0.01, 10_000)
    bf = BloomFilter(params)
    rng = random.Random(2)
    for _ in range(10_000):
        bf.add(rng.randbytes(16))
    probes = 200_000
    hits = sum(bf.verify(rng.randbytes(16)) for _ in range(probes))
    rate = hits / probes
    predicted = expected_fp_rate(bf.m, bf.k, 10_000)
    assert 0.5 * predicted < rate < 2.0 * predicted


def test_measured_fp_rate_near_formula_at_high_k():
    # the k indexes of an element come from one hash output, so they must
    # act as k independent hashes at high k too; criterion 8 runs at k=7
    n = 20_000
    bf = BloomFilter(BloomParams(2.0**-12, n))
    assert bf.k == 12
    rng = random.Random(12)
    for _ in range(n):
        bf.add(rng.randbytes(16))
    probes = 300_000
    hits = sum(bf.verify(rng.randbytes(16)) for _ in range(probes))
    rate = hits / probes
    predicted = expected_fp_rate(bf.m, bf.k, n)
    assert 0.5 * predicted < rate < 2.0 * predicted


def test_serialization_round_trip_and_canonical():
    bf = BloomFilter(BloomParams(0.01, 50))
    rng = random.Random(3)
    elements = [rng.randbytes(16) for _ in range(50)]
    for e in elements:
        bf.add(e)
    blob = bf.serialize()
    assert len(blob) == 8 + (bf.m + 7) // 8
    back = BloomFilter.deserialize(blob)
    assert back == bf
    assert back.serialize() == blob
    # same adds in another order -> byte-equal serialization
    other = BloomFilter(BloomParams(0.01, 50))
    for e in reversed(elements):
        other.add(e)
    assert other.serialize() == blob


def test_deserialize_rejects_garbage():
    with pytest.raises(FormatError):
        BloomFilter.deserialize(b"\x00\x00")
    bf = BloomFilter(BloomParams(0.01, 10))
    blob = bf.serialize()
    with pytest.raises(FormatError):
        BloomFilter.deserialize(blob[:-1])
    with pytest.raises(FormatError):
        BloomFilter.deserialize(blob + b"\x00")


def test_deserialize_bounds_k():
    bf = BloomFilter(BloomParams(2.0**-64, 10))
    assert BloomFilter.deserialize(bf.serialize()) == bf
    body = bf.serialize()[8:]
    for k in (0, 65, 2**20 + 64, 2**32 - 1):
        with pytest.raises(FormatError, match="bad bloom header"):
            BloomFilter.deserialize(struct.pack(">II", bf.m, k) + body)


def test_embed_456_adds_exactly_three_digit_elements():
    # digits of 456: position 1 -> 6, position 2 -> 5, position 3 -> 4
    from dsse.crypto import digit_element

    bf = BloomFilter(BloomParams(2.0**-30, 100))
    k_prf = new_key()
    bf.embed_counter(k_prf, "w", 456)
    assert bf.n_inserted == 3
    assert bf.verify(digit_element(k_prf, "w", 1, 6))
    assert bf.verify(digit_element(k_prf, "w", 2, 5))
    assert bf.verify(digit_element(k_prf, "w", 3, 4))
    assert not bf.verify(digit_element(k_prf, "w", 1, 5))
    assert bf.extract_counter(k_prf, "w") == 456


def test_embed_extract_single_digit_and_zero_digits():
    k_prf = new_key()
    bf = BloomFilter(BloomParams(2.0**-30, 100))
    bf.embed_counter(k_prf, "a", 7)
    assert bf.n_inserted == 1
    assert bf.extract_counter(k_prf, "a") == 7
    bf.embed_counter(k_prf, "b", 100)  # zero digits are embedded too
    assert bf.extract_counter(k_prf, "b") == 100


def test_embed_zero_rejected():
    bf = BloomFilter(BloomParams(0.01, 10))
    with pytest.raises(UsageError):
        bf.embed_counter(new_key(), "w", 0)


def test_extract_never_embedded_is_absent():
    bf = BloomFilter(BloomParams(2.0**-30, 100))
    assert bf.extract_counter(new_key(), "w") is None


def test_embed_extract_round_trip_random():
    k_prf = new_key()
    rng = random.Random(4)
    pairs = [(f"kw:{i}", rng.randint(1, 10**7)) for i in range(1000)]
    bf = BloomFilter(BloomParams(2.0**-30, 8 * len(pairs)))
    for w, cnt in pairs:
        bf.embed_counter(k_prf, w, cnt)
    for w, cnt in pairs:
        assert bf.extract_counter(k_prf, w) == cnt


def test_extract_ambiguity_raises():
    from dsse.crypto import digit_element

    k_prf = new_key()
    bf = BloomFilter(BloomParams(2.0**-30, 100))
    bf.embed_counter(k_prf, "w", 42)
    bf.add(digit_element(k_prf, "w", 1, 7))  # forced collision at position 1
    with pytest.raises(AmbiguousCounterError) as info:
        bf.extract_counter(k_prf, "w")
    assert info.value.pos == 1

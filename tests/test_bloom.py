import math
import random
import struct

import pytest

from dsse.bloom import BLOCK_BITS, BLOCK_BYTES, BloomFilter, BloomParams, expected_fp_rate
from dsse.crypto import new_key
from dsse.errors import AmbiguousCounterError, FormatError, UsageError


def test_params_at_target_fp_2pow30():
    n = 1_000_000
    m, k = BloomParams(2.0**-30, n).derive()
    assert k == 30
    # m/n = k/ln2 ~ 43.3 bits per element, grown by 1 + k^2/(2 BLOCK_BITS)
    # and rounded up to whole blocks
    grown = 30 / math.log(2) * (1 + 30**2 / (2 * BLOCK_BITS))
    assert 0 <= m / n - grown < BLOCK_BITS / n


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
    # serialize time, after allocating the bit array. The largest m in whole
    # blocks is 65,535 of them.
    top = 2**32 - BLOCK_BITS
    fits = int(top * math.log(2) / 30 / (1 + 30**2 / (2 * BLOCK_BITS)))
    assert BloomParams(2.0**-30, fits).derive() == (top, 30)
    for capacity in (fits + 1, 100_000_000):
        with pytest.raises(UsageError, match="needs m="):
            BloomParams(2.0**-30, capacity).derive()


def test_params_grow_m_to_whole_blocks():
    # a year of uploads: 4,265,328 bit bytes unblocked, x1.0069 and rounded
    # up to 525 blocks
    m, k = BloomParams(2.0**-30, 52_560 * 15).derive()
    assert (m // 8, k) == (4_300_800, 30)
    assert m % BLOCK_BITS == 0
    # a small filter is grown too, and is at least one whole block:
    # 43,281 bits are one block, and 65,355 bits grow past it to two
    assert BloomParams(2.0**-30, 1000).derive() == (BLOCK_BITS, 30)
    assert BloomFilter(*BloomParams(2.0**-30, 1000).derive()).n_blocks == 1
    assert BloomParams(2.0**-30, 1510).derive() == (2 * BLOCK_BITS, 30)


def poisson_load_fp(m: int, k: int, n: int) -> float:
    """False-positive rate of a blocked (m, k) filter holding n elements.
    The probed block's load is Poisson with mean n / blocks (a binomial's
    tail, overstated); a load of j leaves a bit unset with probability
    (1 - 1/b)^(kj) for b bits per block."""
    blocks, b = m // BLOCK_BITS, BLOCK_BITS
    lam = n / blocks
    spread = int(12 * math.sqrt(lam)) + 10
    total = 0.0
    for j in range(max(0, int(lam) - spread), int(lam) + spread):
        log_p = -lam + j * math.log(lam) - math.lgamma(j + 1)
        unset = math.exp(k * j * math.log1p(-1 / b))
        total += math.exp(log_p + k * math.log1p(-unset))
    return total


@pytest.mark.parametrize("k", [7, 12, 30, 64])
def test_blocked_fp_at_or_below_target(k):
    # derive's growth of m pays for the uneven block loads at every k the
    # sizing allows, from a few blocks up to a multi-year filter
    for capacity in (20_000, 100_000, 52_560 * 15, 5_000_000):
        m, got_k = BloomParams(2.0**-k, capacity).derive()
        assert got_k == k and m > BLOCK_BITS
        assert poisson_load_fp(m, k, capacity) <= 2.0**-k, (k, capacity)


def test_each_element_sets_bits_in_one_block():
    bf = BloomFilter(*BloomParams(0.01, 50_000).derive())
    assert bf.n_blocks == bf.m // BLOCK_BITS > 1
    rng = random.Random(5)
    touched = set()
    for _ in range(20):
        before = bytes(bf.bits)
        block = bf.add(rng.randbytes(16))
        touched.add(block)
        changed = {i // BLOCK_BYTES for i, (a, b) in enumerate(zip(before, bf.bits)) if a != b}
        assert changed <= {block}
        assert bytes(bf.block(block)) == bytes(bf.bits[block * BLOCK_BYTES : (block + 1) * BLOCK_BYTES])
    assert len(touched) > 1


def test_staged_blocks_are_copies_with_the_elements_added():
    bf = BloomFilter(*BloomParams(0.01, 50_000).derive())
    bf.add(b"\x09" * 16)
    before = bytes(bf.bits)
    elements = [bytes([i]) * 16 for i in range(5)]
    staged = bf.staged(elements)
    assert bytes(bf.bits) == before
    added = BloomFilter.deserialize(bf.serialize())
    assert set(staged) == {added.add(e) for e in elements}
    assert all(staged[i] == added.block(i) for i in staged)
    assert bf.staged([]) == {}


def test_fresh_filter_rejects_everything():
    bf = BloomFilter(*BloomParams(0.01, 100).derive())
    rng = random.Random(0)
    assert all(not bf.verify(rng.randbytes(16)) for _ in range(100))


def test_no_false_negatives():
    bf = BloomFilter(*BloomParams(0.01, 500).derive())
    rng = random.Random(1)
    elements = [rng.randbytes(16) for _ in range(500)]
    for e in elements:
        bf.add(e)
    assert all(bf.verify(e) for e in elements)
    assert bf.n_inserted == 500


def test_add_idempotent_on_bits():
    bf = BloomFilter(*BloomParams(0.01, 10).derive())
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
    bf = BloomFilter(*params.derive())
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
    bf = BloomFilter(*BloomParams(2.0**-12, n).derive())
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
    bf = BloomFilter(*BloomParams(0.01, 50).derive())
    rng = random.Random(3)
    elements = [rng.randbytes(16) for _ in range(50)]
    for e in elements:
        bf.add(e)
    blob = bf.serialize()
    assert len(blob) == 8 + bf.m // 8
    back = BloomFilter.deserialize(blob)
    assert back == bf
    assert back.serialize() == blob
    # same adds in another order -> byte-equal serialization
    other = BloomFilter(*BloomParams(0.01, 50).derive())
    for e in reversed(elements):
        other.add(e)
    assert other.serialize() == blob


def test_deserialize_rejects_garbage():
    with pytest.raises(FormatError):
        BloomFilter.deserialize(b"\x00\x00")
    bf = BloomFilter(*BloomParams(0.01, 10).derive())
    blob = bf.serialize()
    with pytest.raises(FormatError):
        BloomFilter.deserialize(blob[:-1])
    with pytest.raises(FormatError):
        BloomFilter.deserialize(blob + b"\x00")


def test_deserialize_rejects_m_not_whole_blocks():
    bf = BloomFilter(*BloomParams(2.0**-30, 2000).derive())  # two blocks
    assert bf.m == 2 * BLOCK_BITS
    # m must be a positive multiple of BLOCK_BITS, so an m below one block
    # is refused too
    for m in (bf.m - 8, bf.m + 8, 0, 8, 145, BLOCK_BITS - 8):
        blob = struct.pack(">II", m, bf.k) + bytes((m + 7) // 8)  # a body of the right length
        with pytest.raises(FormatError, match="not whole"):
            BloomFilter.deserialize(blob)
    small = BloomFilter(*BloomParams(0.01, 10).derive())
    assert small.m == BLOCK_BITS and BloomFilter.deserialize(small.serialize()) == small


def test_deserialize_bounds_k():
    bf = BloomFilter(*BloomParams(2.0**-64, 10).derive())
    assert BloomFilter.deserialize(bf.serialize()) == bf
    body = bf.serialize()[8:]
    for k in (0, 65, 2**20 + 64, 2**32 - 1):
        with pytest.raises(FormatError, match="bad bloom header"):
            BloomFilter.deserialize(struct.pack(">II", bf.m, k) + body)


def element_cases() -> dict[str, tuple[BloomParams, list[bytes]]]:
    rng = random.Random(5)
    return {
        "one_block": (BloomParams(0.01, 100), [rng.randbytes(16) for _ in range(60)]),
        "multi_block": (BloomParams(2.0**-30, 5000), [rng.randbytes(16) for _ in range(60)]),
        "empty": (BloomParams(2.0**-30, 5000), []),
        "dense": (BloomParams(2.0**-30, 2000), [rng.randbytes(16) for _ in range(3000)]),
    }


@pytest.mark.parametrize("case", element_cases())
def test_a_filter_rebuilt_from_its_sorted_elements_is_the_same(case):
    # a REFRESH carries the elements sorted, not in the order the owner
    # added them: an empty filter of the same size given them in that
    # order has the same bits
    params, elements = element_cases()[case]
    bf = BloomFilter(*params.derive())
    for element in elements:
        bf.add(element)
    rebuilt = BloomFilter(bf.m, bf.k)
    assert rebuilt == BloomFilter(*params.derive()) and rebuilt.bits is not bf.bits
    for element in sorted(elements):
        rebuilt.add(element)
    assert rebuilt == bf and rebuilt.serialize() == bf.serialize()


def test_embed_456_adds_exactly_three_digit_elements():
    # digits of 456: position 1 -> 6, position 2 -> 5, position 3 -> 4
    from dsse.crypto import digit_element

    bf = BloomFilter(*BloomParams(2.0**-30, 100).derive())
    k_prf = new_key()
    assert bf.embed_counter(k_prf, "w", 456) == [
        digit_element(k_prf, "w", pos, digit) for pos, digit in ((1, 6), (2, 5), (3, 4))
    ]
    assert bf.n_inserted == 3
    assert bf.verify(digit_element(k_prf, "w", 1, 6))
    assert bf.verify(digit_element(k_prf, "w", 2, 5))
    assert bf.verify(digit_element(k_prf, "w", 3, 4))
    assert not bf.verify(digit_element(k_prf, "w", 1, 5))
    assert bf.extract_counter(k_prf, "w") == 456


def test_embed_extract_single_digit_and_zero_digits():
    k_prf = new_key()
    bf = BloomFilter(*BloomParams(2.0**-30, 100).derive())
    bf.embed_counter(k_prf, "a", 7)
    assert bf.n_inserted == 1
    assert bf.extract_counter(k_prf, "a") == 7
    bf.embed_counter(k_prf, "b", 100)  # zero digits are embedded too
    assert bf.extract_counter(k_prf, "b") == 100


def test_embed_zero_rejected():
    bf = BloomFilter(*BloomParams(0.01, 10).derive())
    with pytest.raises(UsageError):
        bf.embed_counter(new_key(), "w", 0)


def test_extract_never_embedded_is_absent():
    bf = BloomFilter(*BloomParams(2.0**-30, 100).derive())
    assert bf.extract_counter(new_key(), "w") is None


def test_embed_extract_round_trip_random():
    k_prf = new_key()
    rng = random.Random(4)
    pairs = [(f"kw:{i}", rng.randint(1, 10**7)) for i in range(1000)]
    bf = BloomFilter(*BloomParams(2.0**-30, 8 * len(pairs)).derive())
    for w, cnt in pairs:
        bf.embed_counter(k_prf, w, cnt)
    for w, cnt in pairs:
        assert bf.extract_counter(k_prf, w) == cnt


def test_extract_ambiguity_raises():
    from dsse.crypto import digit_element

    k_prf = new_key()
    bf = BloomFilter(*BloomParams(2.0**-30, 100).derive())
    bf.embed_counter(k_prf, "w", 42)
    bf.add(digit_element(k_prf, "w", 1, 7))  # forced collision at position 1
    with pytest.raises(AmbiguousCounterError) as info:
        bf.extract_counter(k_prf, "w")
    assert info.value.pos == 1

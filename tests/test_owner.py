import hashlib
import random
import tracemalloc

import pytest

from dsse import crypto
from dsse.bloom import BLOCK_BITS, BloomFilter, BloomParams
from dsse.errors import FormatError, NotFoundError, UsageError
from dsse.owner import DataOwner, KeywordRecord
from dsse.protocol import FilterTags, result_mac
from dsse.user import AuthorizedUser

NOW = 1_700_000_000
PARAMS = BloomParams(2.0**-30, 5000)


def fresh(mode="full"):
    return DataOwner.generate(mode, PARAMS)


def test_generate_independent_keys_and_empty_state():
    a, b = fresh(), fresh()
    assert a.keys.k_prf != b.keys.k_prf
    assert a.tbl == {}
    assert a.keys.epoch == 1
    assert fresh("basic").bf is None


def test_add_file_validations():
    owner = fresh()
    with pytest.raises(UsageError):
        owner.add_file(b"data", [], NOW)
    with pytest.raises(UsageError):
        owner.add_file(b"data", ["w", "w"], NOW)
    with pytest.raises(UsageError):
        owner.add_file(b"data", ["ok", ""], NOW)
    with pytest.raises(UsageError):
        owner.add_file(b"", ["w"], NOW)


def test_first_entry_chains_to_zero_key():
    # the first entry for a keyword masks (zero key, gamma): unmasking it
    # terminates the chain walk
    owner = fresh()
    payload = owner.add_file(b"f1", ["heartbeat:75"], NOW)
    (tau, mu), = payload.entries
    k = owner.keys
    key = crypto.derived_key(k.k_prf, "heartbeat:75", 1)
    label, pad = crypto.chain_link(key)
    assert tau == label == crypto.chain_label(k.k_prf, "heartbeat:75", 1)
    assert len(mu) == 32
    opened = crypto.xor_bytes(mu, pad)
    assert opened[:16] == b"\x00" * 16
    assert opened[16:] == result_mac(k.k_mac, payload.ciphertext, "heartbeat:75", 1)


def test_second_entry_unmasks_to_first():
    owner = fresh()
    owner.add_file(b"f1", ["w"], NOW)
    payload2 = owner.add_file(b"f2", ["w"], NOW + 600)
    (tau2, mu2), = payload2.entries
    k = owner.keys
    label2, pad2 = crypto.chain_link(crypto.derived_key(k.k_prf, "w", 2))
    assert tau2 == label2
    opened = crypto.xor_bytes(mu2, pad2)
    assert opened[:16] == crypto.derived_key(k.k_prf, "w", 1)
    # the key it opens to names the first entry's label
    assert crypto.chain_link(opened[:16])[0] == crypto.chain_label(k.k_prf, "w", 1)
    assert opened[16:] == owner.tbl["w"].gamma


def test_basic_mode_mask_is_one_lambda():
    owner = fresh("basic")
    p1 = owner.add_file(b"f1", ["w"], NOW)
    (tau, mu), = p1.entries
    assert len(mu) == 16
    assert p1.sigma is None and p1.t is None
    k = owner.keys
    label, pad = crypto.chain_link(crypto.derived_key(k.k_prf, "w", 1))
    assert tau == label
    assert crypto.xor_bytes(mu, pad[:16]) == b"\x00" * 16


def test_entry_count_matches_keyword_count():
    owner = fresh()
    kws = [f"attr{i}:v" for i in range(15)]
    payload = owner.add_file(b"f", kws, NOW)
    assert len(payload.entries) == 15
    assert len({tau for tau, _ in payload.entries}) == 15


def test_counters_match_plaintext_index():
    owner = fresh()
    rng = random.Random(7)
    truth: dict[str, int] = {}
    for i in range(100):
        kws = {f"kw:{rng.randint(0, 20)}" for _ in range(5)}
        owner.add_file(f"f{i}".encode(), kws, NOW + i)
        for w in kws:
            truth[w] = truth.get(w, 0) + 1
    assert {w: rec.cnt for w, rec in owner.tbl.items()} == truth


def test_gamma_recomputable_from_ciphertexts():
    owner = fresh()
    cts = []
    for i in range(5):
        payload = owner.add_file(f"f{i}".encode(), ["w"], NOW + i)
        cts.append(payload.ciphertext)
        tags = [result_mac(owner.keys.k_mac, c, "w", j) for j, c in enumerate(cts, start=1)]
        assert owner.tbl["w"].gamma == crypto.aggregate_mac(tags)


def test_sigma_covers_current_filter_and_timestamp():
    owner = fresh()
    payload = owner.add_file(b"f", ["w"], NOW)
    assert payload.t == NOW
    assert payload.sigma == FilterTags(owner.keys.k_mac, owner.bf).sigma(NOW)


def test_incremental_sigma_matches_tagging_every_block():
    # the owner re-tags only the blocks an upload touched; its sigma must be
    # the one a recomputation over every block gives, after uploads, after
    # a refresh and after a save and restore
    owner = fresh()
    assert owner.bf.n_blocks == 4

    def from_scratch(t):
        return FilterTags(owner.keys.k_mac, owner.bf).sigma(t)

    for i in range(30):
        payload = owner.add_file(f"f{i}".encode(), [f"a:{i % 5}", f"b:{i}"], NOW + i)
        assert payload.sigma == from_scratch(NOW + i)
    refresh = owner.refresh_bloom(NOW + 100)
    assert refresh.sigma == from_scratch(NOW + 100)
    assert owner.add_file(b"post", ["a:1"], NOW + 200).sigma == from_scratch(NOW + 200)
    owner = DataOwner.restore(owner.snapshot())
    for i in range(5):
        payload = owner.add_file(f"g{i}".encode(), [f"c:{i}"], NOW + 300 + i)
        assert payload.sigma == from_scratch(NOW + 300 + i)


def test_gen_token_owner_contents():
    owner = fresh()
    for i in range(3):
        owner.add_file(f"f{i}".encode(), ["w"], NOW + i)
    env = owner.gen_token("w")
    assert env.epoch == 1
    key = crypto.se_decrypt(owner.keys.r, env.body)
    assert key == crypto.derived_key(owner.keys.k_prf, "w", 3)
    assert crypto.chain_link(key)[0] == crypto.chain_label(owner.keys.k_prf, "w", 3)


def test_gen_token_unknown_keyword():
    with pytest.raises(NotFoundError):
        fresh().gen_token("missing")


def test_basic_token_is_plain_key():
    owner = fresh("basic")
    owner.add_file(b"f", ["w"], NOW)
    env = owner.gen_token("w")
    assert env.epoch == 0
    assert env.body == crypto.derived_key(owner.keys.k_prf, "w", 1)


def test_rotate_increments_epoch():
    owner = fresh()
    r1, e1 = owner.rotate_group_key()
    r2, e2 = owner.rotate_group_key()
    assert (e1, e2) == (2, 3)
    assert r1 != r2
    with pytest.raises(UsageError):
        fresh("basic").rotate_group_key()


def test_refresh_embeds_current_counters():
    owner = fresh()
    for i in range(456):
        owner.add_file(f"f{i}".encode(), ["w", f"other:{i % 3}"], NOW + i)
    payload = owner.refresh_bloom(NOW + 1000)
    # one element per decimal digit of each keyword's counter
    expected = sum(len(str(rec.cnt)) for rec in owner.tbl.values())
    assert owner.bf.n_inserted == expected
    assert owner.bf.extract_counter(owner.keys.k_prf, "w") == 456
    assert owner.t == NOW + 1000
    # the REFRESH carries those elements, sorted, and they build the
    # owner's filter, which sigma covers
    assert payload.n == expected and payload.elements == b"".join(sorted(
        crypto.digit_element(owner.keys.k_prf, w, pos, int(digit))
        for w, rec in owner.tbl.items()
        for pos, digit in enumerate(reversed(str(rec.cnt)), start=1)
    ))
    bf = BloomFilter(owner.bf.m, owner.bf.k)
    for i in range(0, len(payload.elements), crypto.LAMBDA):
        bf.add(payload.elements[i : i + crypto.LAMBDA])
    assert bf == owner.bf
    assert payload.sigma == FilterTags(owner.keys.k_mac, bf).sigma(NOW + 1000)
    # the next upload appends its membership element to the refreshed filter
    owner.add_file(b"more", ["w"], NOW + 1600)
    assert owner.bf.verify(crypto.chain_label(owner.keys.k_prf, "w", 457))
    assert owner.bf.n_inserted == expected + 1


def test_time_before_the_last_sigma_refused_before_any_change():
    owner = fresh()
    owner.add_file(b"f1", ["w"], NOW)
    owner.refresh_bloom(NOW + 600)
    owner.add_file(b"f2", ["w"], NOW + 600)  # the same time is not earlier
    before = owner.snapshot()
    with pytest.raises(UsageError, match="precedes"):
        owner.add_file(b"late", ["w", "new:1"], NOW + 599)
    with pytest.raises(UsageError, match="precedes"):
        owner.refresh_bloom(NOW)
    assert owner.snapshot() == before
    assert owner.t == NOW + 600
    # basic mode signs no filter, so it has no time to keep in order
    basic = fresh("basic")
    basic.add_file(b"f1", ["w"], NOW)
    basic.add_file(b"f2", ["w"], NOW - 600)
    assert basic.tbl["w"].cnt == 2 and basic.t == 0


def test_a_refresh_above_m_over_k_elements_refused_before_any_change():
    # the server hashes at most m // k elements of a REFRESH: a one-block
    # filter at k = 64 takes 1,024, and 1,025 one-upload keywords are one
    # digit element each
    owner = DataOwner.generate("full", BloomParams(2.0**-64, 10))
    assert (owner.bf.m, owner.bf.k) == (BLOCK_BITS, 64)
    owner.add_file(b"f", [f"kw:{i}" for i in range(BLOCK_BITS // 64)], NOW)
    assert owner.refresh_bloom(NOW + 600).n == BLOCK_BITS // 64
    owner.add_file(b"g", ["one:more"], NOW + 1200)
    before = owner.snapshot()
    with pytest.raises(UsageError, match=r"1025 digit elements exceed the 1024 \(m // k\)"):
        owner.refresh_bloom(NOW + 1800)
    assert owner.snapshot() == before and owner.t == NOW + 1200


def test_gamma_continuous_across_refresh():
    owner = fresh()
    owner.add_file(b"f1", ["w"], NOW)
    gamma_before = owner.tbl["w"].gamma
    owner.refresh_bloom(NOW + 600)
    assert owner.tbl["w"].gamma == gamma_before


def test_snapshot_round_trip(tmp_path):
    owner = fresh()
    for i in range(20):
        owner.add_file(f"f{i}".encode(), {f"kw:{i % 4}", "shared:1"}, NOW + i)
    owner.refresh_bloom(NOW + 100)
    owner.add_file(b"post", ["shared:1"], NOW + 200)
    path = tmp_path / "owner.bin"
    owner.save(str(path))
    back = DataOwner.load(str(path))
    assert back.mode == owner.mode
    assert back.keys == owner.keys
    assert back.tbl == owner.tbl
    assert back.bf == owner.bf
    assert back.t == owner.t == NOW + 200
    # the restored owner continues the chain identically
    token_a = owner.gen_token("shared:1")
    token_b = back.gen_token("shared:1")
    assert crypto.se_decrypt(owner.keys.r, token_a.body) == crypto.se_decrypt(
        back.keys.r, token_b.body
    )


def resealed(body):
    """An owner snapshot of body, the bytes before its SHA-256: a blob
    edited in place passes the digest and reaches the field checks."""
    return body + hashlib.sha256(body).digest()


def one_keyword_blob(mode):
    """An owner snapshot holding keyword "w" at counter 1, and the offset
    of its table: after the magic, the mode flag, four keys, the epoch and,
    in full mode, t."""
    owner = fresh(mode)
    owner.add_file(b"f", ["w"], NOW)
    return owner.snapshot(), 8 + 1 + 4 * 16 + 8 + (8 if mode == "full" else 0)


@pytest.mark.parametrize("mode", ["full", "basic"])
def test_restore_refuses_a_counter_of_0(mode):
    # a counter of 1 flipped to 0 restored, and the next upload of its
    # keyword masked the key of counter 0 where the zero key belongs, so
    # every later search of it broke the chain
    blob, table_at = one_keyword_blob(mode)
    cnt_at = table_at + 8 + 4 + 1  # the count, then "w" behind its length
    assert blob[cnt_at : cnt_at + 8] == (1).to_bytes(8, "big")
    with pytest.raises(FormatError, match="counter 0") as refused:
        DataOwner.restore(resealed(blob[:cnt_at] + bytes(8) + blob[cnt_at + 8 : -32]))
    assert refused.value.offset == cnt_at


@pytest.mark.parametrize("mode", ["full", "basic"])
def test_restore_refuses_an_empty_keyword(mode):
    blob, table_at = one_keyword_blob(mode)
    w_at = table_at + 8
    assert blob[w_at : w_at + 5] == b"\x00\x00\x00\x01w"
    with pytest.raises(FormatError, match="empty keyword") as refused:
        DataOwner.restore(resealed(blob[:w_at] + bytes(4) + blob[w_at + 5 : -32]))
    assert refused.value.offset == w_at


@pytest.mark.parametrize("mode", ["full", "basic"])
def test_restore_refuses_a_repeated_keyword(mode):
    # the table is written in its own order, not sorted, so a keyword read
    # twice is refused where the second one starts
    blob, table_at = one_keyword_blob(mode)
    w_at = table_at + 8
    record = blob[w_at : w_at + 4 + 1 + 8 + (16 if mode == "full" else 0)]
    assert blob[table_at:w_at] == (1).to_bytes(8, "big") and record.startswith(b"\x00\x00\x00\x01w")
    body = blob[:table_at] + (2).to_bytes(8, "big") + record + blob[w_at : -32]
    with pytest.raises(FormatError, match="keyword 'w' repeated") as refused:
        DataOwner.restore(resealed(body))
    assert refused.value.offset == w_at + len(record)


@pytest.mark.parametrize("mode", ["full", "basic"])
def test_restore_keeps_the_keyword_order(mode):
    owner = fresh(mode)
    owner.add_file(b"f", ["z:1"], NOW)
    owner.add_file(b"g", ["m:1", "a:1"], NOW + 1)
    blob = owner.snapshot()
    back = DataOwner.restore(blob)
    assert list(back.tbl) == list(owner.tbl) == ["z:1", "a:1", "m:1"]
    assert back.snapshot() == blob


@pytest.mark.parametrize("mode", ["full", "basic"])
def test_restore_refuses_a_counter_moved_to_another_that_parses(mode):
    # a counter of 2 read as 3 parses: the next upload would mask the key
    # of counter 3 over one of 2, and a search from it finds no entry at 3;
    # only the digest over the whole snapshot catches it
    owner = fresh(mode)
    owner.add_file(b"f", ["w"], NOW)
    owner.add_file(b"g", ["w"], NOW + 1)
    blob = owner.snapshot()
    cnt_at = 8 + 1 + 4 * 16 + 8 + (8 if mode == "full" else 0) + 8 + 4 + 1
    assert blob[cnt_at : cnt_at + 8] == (2).to_bytes(8, "big")
    flipped = blob[:cnt_at] + (3).to_bytes(8, "big") + blob[cnt_at + 8 :]
    with pytest.raises(FormatError, match="digest") as refused:
        DataOwner.restore(flipped)
    assert refused.value.offset == len(blob) - 32
    # the same edit under a fresh digest restores at counter 3
    assert DataOwner.restore(resealed(flipped[:-32])).tbl["w"].cnt == 3


def test_no_key_in_a_repr():
    owner = fresh()
    owner.add_file(b"f", ["w"], NOW)
    user = AuthorizedUser.from_owner(owner)
    k, rec = owner.keys, owner.tbl["w"]
    for shown in (repr(k), repr(user), repr(rec)):
        for key in (k.k_prf, k.k_se, k.k_mac, k.r, rec.key):
            assert repr(key) not in shown and key.hex() not in shown
    # the keys still take part in equality
    assert user == AuthorizedUser.from_owner(owner)
    assert user != AuthorizedUser(k.k_prf, k.k_se, k.k_mac, bytes(16), k.epoch)
    assert rec != KeywordRecord(rec.cnt, rec.gamma, bytes(16))


def test_previous_snapshot_version_refused():
    owner = fresh()
    owner.add_file(b"f", ["w"], NOW)
    blob = owner.snapshot()
    assert blob.startswith(b"DSSEOWN8")
    assert blob[-32:] == hashlib.sha256(blob[:-32]).digest()
    # DSSEOWN7 wrote its keywords ascending; DSSEOWN6 had no digest; DSSEOWN5 held a filter of labels that were a separate PRF of each chain
    # key, under keys derived over a hashed input; DSSEOWN4 held gammas over result tags that named no place in the
    # chain; DSSEOWN3 held an unblocked filter; DSSEOWN2 and DSSEOWN1
    # prefixed each key and gamma with its length and stored the filter
    # sizing; DSSEOWN1 also had the older index function
    for magic in (b"DSSEOWN7", b"DSSEOWN6", b"DSSEOWN5", b"DSSEOWN4", b"DSSEOWN3", b"DSSEOWN2", b"DSSEOWN1"):
        with pytest.raises(FormatError, match="not an owner snapshot"):
            DataOwner.restore(magic + blob[8:])


def test_restore_peaks_below_two_filter_sizes():
    # default sizing: a 5,410,257-byte filter; restoring it once read about
    # four filter sizes (two slices, a bytearray and a discarded empty filter)
    owner = DataOwner.generate("full")
    owner.add_file(b"f", ["w"], NOW)
    blob = owner.snapshot()
    filter_len = len(owner.bf.serialize())
    tracemalloc.start()
    try:
        back = DataOwner.restore(blob)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert back.bf == owner.bf
    assert peak < 2 * filter_len

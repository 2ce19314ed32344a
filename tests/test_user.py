import math
import random
import tracemalloc

import pytest

from dsse import crypto, protocol
from dsse import user as user_module
from dsse.bloom import BLOCK_BYTES, BloomFilter, BloomParams
from dsse.errors import (
    AmbiguousCounterError,
    CounterBoundError,
    DecryptionError,
    FormatError,
    NotFoundError,
    ProtocolError,
    StaleFilterError,
    TamperedFilterError,
)
from dsse.harness.phi import synthesize_stream
from dsse.harness.scenario import AdversarialServer
from dsse.owner import DataOwner
from dsse.protocol import FRESHNESS_WINDOW, FilterTags, RefreshPayload
from dsse.server import CloudServer, MergedEntry
from dsse.user import AuthorizedUser
from dsse.wire import Client

NOW = 1_700_000_000
PARAMS = BloomParams(2.0**-30, 50_000)


def build_system(counter: int, keyword: str = "w", refresh_at: int | None = None):
    """Owner+server with one keyword at the given counter; optionally run a
    filter refresh when the counter passes refresh_at."""
    owner = DataOwner.generate("full", PARAMS)
    server = AdversarialServer("full", PARAMS, group_key=owner.keys.r)
    t = NOW
    for i in range(counter):
        server.add(owner.add_file(f"f{i}".encode(), [keyword], t))
        t += 600
        if refresh_at is not None and i + 1 == refresh_at:
            server.refresh(owner.refresh_bloom(t))
            t += 600
    return owner, server, t


def fetch(server) -> tuple[bytes, bytes, int]:
    """The server's whole filter answer, as Client.get_bloom hands it on."""
    return server.get_bloom()


def probe_budget(distance: int, digit_rounds: int) -> int:
    return 2 * math.ceil(math.log2(distance + 2)) + 10 * digit_rounds


@pytest.mark.parametrize("counter", [1, 5, 100, 4097])
def test_guess_counter_pre_refresh(counter):
    owner, server, _ = build_system(counter)
    user = AuthorizedUser.from_owner(owner)
    bf = BloomFilter.deserialize(server.get_bloom()[0])
    assert user.guess_counter(bf, "w") == counter
    stats = user.last_probe_stats
    assert stats.digit_rounds == 1  # no embeddings: one all-miss digit round
    assert stats.search_probes <= 2 * math.ceil(math.log2(counter + 2))


def test_guess_counter_absent_keyword():
    owner, server, _ = build_system(3)
    user = AuthorizedUser.from_owner(owner)
    bf = BloomFilter.deserialize(server.get_bloom()[0])
    assert user.guess_counter(bf, "never") is None
    assert user.last_probe_stats.search_probes == 1


@pytest.mark.parametrize("counter", [1, 5, 100, 456, 4097])
def test_guess_counter_post_refresh_no_new_files(counter):
    owner, server, _ = build_system(counter, refresh_at=counter)
    user = AuthorizedUser.from_owner(owner)
    bf = BloomFilter.deserialize(server.get_bloom()[0])
    assert user.guess_counter(bf, "w") == counter
    stats = user.last_probe_stats
    assert stats.digit_rounds == len(str(counter)) + 1
    assert stats.total <= probe_budget(0, stats.digit_rounds)


def test_guess_counter_post_refresh_with_new_files():
    # refresh embeds 456, then four more uploads: extraction gives the
    # floor, the upward search finds 460
    owner, server, _ = build_system(460, refresh_at=456)
    user = AuthorizedUser.from_owner(owner)
    bf = BloomFilter.deserialize(server.get_bloom()[0])
    assert user.guess_counter(bf, "w") == 460
    stats = user.last_probe_stats
    assert stats.digit_rounds == 4
    assert stats.total <= probe_budget(4, 4)


def test_guess_counter_ambiguous_digit_falls_back():
    owner, server, _ = build_system(25)  # no refresh: chain elements present
    user = AuthorizedUser.from_owner(owner)
    bf = BloomFilter.deserialize(server.get_bloom()[0])
    # doctor two colliding digit elements so extraction is ambiguous
    bf.add(crypto.digit_element(owner.keys.k_prf, "w", 1, 3))
    bf.add(crypto.digit_element(owner.keys.k_prf, "w", 1, 4))
    assert user.guess_counter(bf, "w") == 25  # falls back to probing from 1


def test_unreadable_embedding_raises_instead_of_absent():
    # post-refresh, a digit collision makes the floor unreadable and there
    # are no membership elements below it to fall back on; surfacing the
    # ambiguity beats claiming the keyword is absent (or guessing wrong)
    for extra in (0, 4):
        owner, server, _ = build_system(42 + extra, refresh_at=42)
        user = AuthorizedUser.from_owner(owner)
        bf = BloomFilter.deserialize(server.get_bloom()[0])
        assert user.guess_counter(bf, "w") == 42 + extra
        bf.add(crypto.digit_element(owner.keys.k_prf, "w", 1, 7))
        with pytest.raises(AmbiguousCounterError):
            user.guess_counter(bf, "w")


def test_guess_counter_hits_bound(monkeypatch):
    owner, server, _ = build_system(9)
    monkeypatch.setattr(user_module, "MAX_COUNTER", 8)
    user = AuthorizedUser.from_owner(owner)
    bf = BloomFilter.deserialize(server.get_bloom()[0])
    with pytest.raises(CounterBoundError):
        user.guess_counter(bf, "w")


def test_gen_token_equivalent_to_owner_token():
    owner, server, t = build_system(7)
    user = AuthorizedUser.from_owner(owner)
    env_user, cnt = user.gen_token(fetch(server), "w", t)
    assert cnt == 7
    env_owner = owner.gen_token("w")
    assert crypto.se_decrypt(owner.keys.r, env_user.body) == crypto.se_decrypt(
        owner.keys.r, env_owner.body
    )


def test_gen_token_rejects_tampered_filter():
    owner, server, t = build_system(3)
    user = AuthorizedUser.from_owner(owner)
    bf_bytes, sigma, ts = server.get_bloom()
    bad = bytearray(bf_bytes)
    bad[9] ^= 0x40
    with pytest.raises(TamperedFilterError):
        user.gen_token((bytes(bad), sigma, ts), "w", t)
    # and a wrong sigma with intact bytes
    with pytest.raises(TamperedFilterError):
        user.gen_token((bf_bytes, b"\x00" * 16, ts), "w", t)


def changed_blocks(before: bytes, bf: BloomFilter) -> list[int]:
    """The blocks of bf whose bytes differ from those of the bit bytes before."""
    size = BLOCK_BYTES
    return [i for i in range(bf.n_blocks) if bf.block(i) != before[i * size : (i + 1) * size]]


def test_retagged_filter_matches_tagging_every_block(monkeypatch):
    # a user holding an accepted filter tags again only the blocks a delta
    # changed, and lands on the agg and sigma that tagging every block gives
    owner, server, t = build_system(3)
    client = Client.in_process(server)
    user = AuthorizedUser.from_owner(owner)
    tagged = []
    tag = FilterTags._tag
    monkeypatch.setattr(
        FilterTags, "_tag", lambda self, i, block: tagged.append(i) or tag(self, i, block)
    )
    user.gen_token(client.get_bloom(), "w", t)
    bf = user._tags.bf
    assert len(tagged) == bf.n_blocks == 34
    for i in range(3):
        server.add(owner.add_file(f"late{i}".encode(), ["w", f"x:{i}", f"y:{i}"], t))
        before = bytes(bf.bits)
        tagged.clear()
        assert user.gen_token(client.get_bloom(), "w", t)[1] == 4 + i
        assert user._tags.bf is bf and bf == server.bf
        assert sorted(tagged) == changed_blocks(before, bf)
        assert 1 <= len(tagged) <= 3
        assert user._tags._agg == FilterTags(owner.keys.k_mac, bf)._agg


@pytest.mark.parametrize("held", [False, True], ids=["fresh_user", "holding_user"])
@pytest.mark.parametrize("forgery", ["swap_blocks", "roll_back_block", "flip_last_block"])
def test_block_forgeries_refused(held, forgery):
    # each keeps the honest sigma; block tags carry their index, and agg
    # covers every block, so none passes, and a user holding an accepted
    # filter keeps it
    owner, server, t = build_system(3)
    user = AuthorizedUser.from_owner(owner)
    old = fetch(server)
    if held:
        user.gen_token(old, "w", t)
    server.add(owner.add_file(b"late", ["w", "x:1"], t))
    bf_bytes, sigma, ts = fetch(server)
    bf = BloomFilter.deserialize(bf_bytes)
    size = BLOCK_BYTES
    old_bits = old[0][8:]  # after the m and k header
    i = changed_blocks(old_bits, bf)[0]  # a block the upload changed
    if forgery == "swap_blocks":
        j = next(j for j in range(bf.n_blocks) if bf.block(j) != bf.block(i))
        block_i, block_j = bytes(bf.block(i)), bytes(bf.block(j))
        bf.bits[i * size : (i + 1) * size] = block_j
        bf.bits[j * size : (j + 1) * size] = block_i
    elif forgery == "roll_back_block":
        bf.bits[i * size : (i + 1) * size] = old_bits[i * size : (i + 1) * size]
    else:
        bf.bits[-1] ^= 0x80
    with pytest.raises(TamperedFilterError):
        user.gen_token((bf.serialize(), sigma, ts), "w", t)
    assert user.token_filter is None
    if held:
        assert user._tags.bf.serialize() == old[0]
        assert user.gen_token(([], *old[1:]), "w", t)[1] == 3


def test_refused_filter_leaves_no_token_time_filter():
    owner, server, t = build_system(3)
    user = AuthorizedUser.from_owner(owner)
    bf, sigma, ts = triple = fetch(server)
    env, cnt = user.gen_token(triple, "w", t)
    ids, cts, gamma = server.search(env)
    assert user.verify("w", cnt, ids, cts, gamma, t).ok
    assert user.token_filter == (sigma, ts)
    with pytest.raises(TamperedFilterError):
        user.gen_token((bf, b"\x00" * 16, ts), "w", t)
    assert user.token_filter is None
    report = user.verify("w", cnt, ids, cts, gamma, t)
    assert report.sigma_ok is False and report.fresh_ok is False and not report.ok


def test_gen_token_rejects_stale_filter():
    owner, server, t = build_system(3)
    user = AuthorizedUser.from_owner(owner)
    triple = fetch(server)
    with pytest.raises(StaleFilterError):
        user.gen_token(triple, "w", t + FRESHNESS_WINDOW + 1)


def test_gen_token_absent_keyword():
    owner, server, t = build_system(3)
    user = AuthorizedUser.from_owner(owner)
    with pytest.raises(NotFoundError):
        user.gen_token(fetch(server), "absent", t)


def test_end_to_end_verify_and_decrypt():
    owner, server, t = build_system(6)
    user = AuthorizedUser.from_owner(owner)
    env, cnt = user.gen_token(fetch(server), "w", t)
    ids, cts, gamma = server.search(env)
    report = user.verify("w", cnt, ids, cts, gamma, t)
    assert report.ok
    files = user.decrypt_files(cts)
    assert files == [f"f{i}".encode() for i in reversed(range(6))]  # order kept
    tampered = cts[:]
    tampered[2] = tampered[2][:-1] + bytes([tampered[2][-1] ^ 1])
    with pytest.raises(DecryptionError):
        user.decrypt_files(tampered)


def test_merged_result_still_verifies_after_refresh():
    # search (head merges), then refresh: the answer's gamma comes from the
    # merged entry while the token-time filter is the refreshed one
    owner, server, t = build_system(8)
    server.search(owner.gen_token("w"))
    server.refresh(owner.refresh_bloom(t))
    user = AuthorizedUser.from_owner(owner)
    env, cnt = user.gen_token(fetch(server), "w", t + 60)
    assert cnt == 8
    ids, cts, gamma = server.search(env)
    assert server.last_search_lookups == 1
    report = user.verify("w", cnt, ids, cts, gamma, t + 60)
    assert report.ok


def test_verify_detects_stale_proof():
    owner, server, t = build_system(4)
    user = AuthorizedUser.from_owner(owner)
    env, cnt = user.gen_token(fetch(server), "w", t)
    ids, cts, gamma = server.search(env)
    report = user.verify("w", cnt, ids, cts, gamma, t + FRESHNESS_WINDOW + 61)
    assert report.fresh_ok is False and not report.ok
    assert report.sigma_ok is True  # the MAC itself still matches


def test_boundary_false_positive_answer_does_not_verify():
    # filter falsely contains counter+1: the guessed token has no table
    # entry, and the answer at guess-1 does not verify against the counter
    # the filter attests, so a server cannot pass it off as the newest
    owner, server, t = build_system(5)
    user = AuthorizedUser.from_owner(owner)
    # results are verified against the filter accepted at token time
    user.gen_token(fetch(server), "w", t)
    bf = BloomFilter.deserialize(server.get_bloom()[0])
    bf.add(crypto.chain_label(owner.keys.k_prf, "w", 6))
    assert user.guess_counter(bf, "w") == 6  # the lie
    with pytest.raises(NotFoundError):
        server.search(user.token_for_counter("w", 6))
    ids, cts, gamma = server.search(user.token_for_counter("w", 5))
    report = user.verify("w", 6, ids, cts, gamma, t)
    # five files tagged at places 6..2 are not the tags gamma_5 holds
    assert not report.gamma_ok and not report.cardinality_ok and not report.ok


def test_query_refuses_below_a_planted_false_positive():
    # the published filter falsely holds counter c+1 of "w" and counter 1 of
    # "ghost": neither has an entry at its guess, and the query searches no
    # lower counter
    c = 5
    owner = DataOwner.generate("full", PARAMS)
    server = CloudServer("full", PARAMS, group_key=owner.keys.r)
    client = Client.in_process(server)
    for i in range(c):
        client.add(owner.add_file(f"f{i}".encode(), ["w"], NOW + i * 600))
    t = NOW + c * 600
    refresh = owner.refresh_bloom(t)
    planted = sorted([
        *(refresh.elements[i : i + 16] for i in range(0, len(refresh.elements), 16)),
        crypto.chain_label(owner.keys.k_prf, "w", c + 1),
        crypto.chain_label(owner.keys.k_prf, "ghost", 1),
    ])
    bf = BloomFilter(owner.bf.m, owner.bf.k)
    for element in planted:
        bf.add(element)
    client.refresh(RefreshPayload(b"".join(planted), FilterTags(owner.keys.k_mac, bf).sigma(t), t))
    assert server.bf == bf
    user = AuthorizedUser.from_owner(owner)
    assert user.gen_token(client.get_bloom(), "w", t)[1] == c + 1  # the lie
    with pytest.raises(NotFoundError):
        user.query(client, "w", t + 60)
    assert user.token_filter == (client.get_bloom()[1], t)
    with pytest.raises(NotFoundError):
        user.query(client, "ghost", t + 60)


def test_query_raises_when_the_head_is_withheld(monkeypatch):
    # a server that answers the attested counter with "unknown label" gets
    # no second search, so it cannot answer from a lower counter and hide
    # the newest file
    owner, server, t = build_system(10)
    user = AuthorizedUser.from_owner(owner)
    searched = []
    search = server.search

    def withhold_head(envelope):
        searched.append(envelope)
        if len(searched) == 1:
            raise NotFoundError("unknown index label in token")
        return search(envelope)

    monkeypatch.setattr(server, "search", withhold_head)
    with pytest.raises(NotFoundError):
        user.query(Client.in_process(server), "w", t)
    assert len(searched) == 1


def test_repeated_ciphertext_pair_fails_cardinality():
    # the server drops the two newest files and repeats one ciphertext in
    # their places, with the gamma of counter 8, which it unmasks from entry
    # 8 on any walk. With tags that named no place the pair cancelled in the
    # XOR aggregate and gamma matched; each copy is now tagged at its own
    # place, so gamma fails too, and the distinctness check still refuses it
    owner, server, t = build_system(8)
    gamma8 = owner.tbl["w"].gamma
    for i in (8, 9):
        server.add(owner.add_file(f"f{i}".encode(), ["w"], t))
    user = AuthorizedUser.from_owner(owner)
    env, cnt = user.gen_token(fetch(server), "w", t)
    ids, cts, _ = server.search(env)
    forged = [cts[2], cts[2]] + cts[2:]
    assert cnt == len(ids) == len(forged) == 10
    for report in (
        owner.verify("w", ids, forged, gamma8, t),
        user.verify("w", cnt, ids, forged, gamma8, t),
    ):
        assert not report.gamma_ok and not report.cardinality_ok and not report.ok


def _gf2_swap(tags: list[int], old: int, n_swap: int, rng: random.Random) -> tuple[list[int], list[int]]:
    """From the server's view: places 1..len(tags) with their known tags,
    the answer due at counter `old`. Take a basis of 128 tags among places
    1..old, write each newer tag in it, and sample n_swap newer places until
    their basis sets XOR to a set of exactly n_swap basis places. Returns
    (newer places, older places) with equal tag XORs."""
    basis: dict[int, tuple[int, int]] = {}  # pivot bit -> (vector, basis set)
    chosen: list[int] = []  # the basis places, in basis-set bit order

    def reduce(v: int, combo: int) -> tuple[int, int]:
        while v:
            top = v.bit_length() - 1
            if top not in basis:
                break
            v, combo = v ^ basis[top][0], combo ^ basis[top][1]
        return v, combo

    for place in range(1, old + 1):
        v, combo = reduce(tags[place - 1], 0)
        if v and len(chosen) < 128:
            basis[v.bit_length() - 1] = (v, combo | 1 << len(chosen))
            chosen.append(place)
    assert len(chosen) == 128
    sets = {}
    for place in range(old + 1, len(tags) + 1):
        v, combo = reduce(tags[place - 1], 0)
        assert v == 0
        sets[place] = combo
    for _ in range(5000):
        newer = rng.sample(sorted(sets), n_swap)
        combo = 0
        for place in newer:
            combo ^= sets[place]
        if combo.bit_count() == n_swap:
            return newer, [p for j, p in enumerate(chosen) if combo >> j & 1]
    raise AssertionError("no swap found")


def test_stale_answer_with_newer_files_swapped_in_fails_gamma():
    # 300 uploads of one keyword 1 s apart, then one owner search: the
    # server reads gamma_1..gamma_300 from its merged entries, so it knows
    # every file's tag as gamma_i XOR gamma_(i-1). It answers counter 200
    # (a filter attesting 200 is fresh for FRESHNESS_WINDOW) with 60 of
    # files 1..200 replaced by 60 newer files whose tags XOR to theirs:
    # 200 distinct files and gamma_200. With tags that named no place this
    # verified; each new file's tag at the place it took is one the server
    # never saw.
    keyword = "pulse_oxygen:97"
    params = BloomParams(2.0**-30, 5_000)
    owner = DataOwner.generate("full", params)
    server = CloudServer("full", params, group_key=owner.keys.r)
    for phi in synthesize_stream(21, 300, period_seconds=1):
        phi.force_keyword(keyword)
        server.add(owner.add_file(phi.to_bytes(), phi.keywords(), phi.timestamp))
    server.search(owner.gen_token(keyword))

    head = max(
        (e for e in server.tbl.values() if isinstance(e, MergedEntry)), key=lambda e: e.n
    )
    gammas = {e.n: e.gamma for e in server.tbl.values()
              if isinstance(e, MergedEntry) and e.chain is head.chain}
    assert sorted(gammas) == list(range(1, 301))
    gamma = [bytes(16)] + [gammas[n] for n in range(1, 301)]
    tags = [int.from_bytes(crypto.xor_bytes(gamma[i], gamma[i - 1]), "big")
            for i in range(1, 301)]

    newer, older = _gf2_swap(tags, 200, 60, random.Random(7))
    places = list(range(200, 0, -1))  # the answer at 200, newest first
    taken = dict(zip(older, newer))
    forged = [head.chain[taken.get(p, p) - 1] for p in places]
    assert forged != head.chain[199::-1]
    cts = server.ciphertexts_for(forged)

    report = protocol.verify_result(owner.keys.k_mac, keyword, 200, forged, cts, gamma[200])
    assert report.cardinality_ok and not report.gamma_ok and not report.ok
    # the true answer at 200 still verifies
    true = head.chain[199::-1]
    assert protocol.verify_result(
        owner.keys.k_mac, keyword, 200, true, server.ciphertexts_for(true), gamma[200]
    ).ok


def test_fewer_ciphertexts_than_ids_fail_cardinality():
    owner, server, t = build_system(3)
    user = AuthorizedUser.from_owner(owner)
    env, cnt = user.gen_token(fetch(server), "w", t)
    ids, cts, gamma = server.search(env)
    report = user.verify("w", cnt, ids, cts[:2], gamma, t)
    assert report.cardinality_ok is False and not report.ok


def test_upload_between_token_and_search_still_verifies():
    # the answer is not bound to the server's current filter, so an honest
    # upload landing between GET_BLOOM and SEARCH fails no honest query
    owner, server, t = build_system(4)
    user = AuthorizedUser.from_owner(owner)
    env, cnt = user.gen_token(fetch(server), "w", t)
    server.add(owner.add_file(b"late", ["w"], t))
    ids, cts, gamma = server.search(env)
    assert len(ids) == cnt == 4
    report = user.verify("w", cnt, ids, cts, gamma, t + 60)
    assert report.ok and report.sigma_ok and report.fresh_ok


def test_accepted_filter_reused_and_freshness_rechecked(monkeypatch):
    owner, server, t = build_system(3)
    user = AuthorizedUser.from_owner(owner)
    macs, tagged = [], []
    real_mac, real_tag = protocol.filter_mac, FilterTags._tag
    monkeypatch.setattr(
        protocol, "filter_mac", lambda *a: macs.append(1) or real_mac(*a)
    )
    monkeypatch.setattr(FilterTags, "_tag", lambda *a: tagged.append(1) or real_tag(*a))
    _, sigma, ts = fetch(server)
    assert user.gen_token(fetch(server), "w", t)[1] == 3
    assert len(macs) == 1
    tagged.clear()
    unchanged = [], sigma, ts  # the empty delta: one sigma check, no block tagged
    assert user.gen_token(unchanged, "w", t)[1] == 3
    assert len(macs) == 2 and not tagged
    with pytest.raises(StaleFilterError):
        user.gen_token(unchanged, "w", t + FRESHNESS_WINDOW + 1)
    assert len(macs) == 3
    server.add(owner.add_file(b"f3", ["w"], t))
    assert len(macs) == 4  # the owner's
    assert user.gen_token(fetch(server), "w", t)[1] == 4
    assert len(macs) == 5


@pytest.mark.parametrize("behavior", ["stale_bloom", "flip_bloom_bit"])
def test_filter_adversaries_refused_with_client_cache(behavior):
    # the user holds an honest filter before the adversary is armed; every
    # later fetch, a stale one answered NOT_MODIFIED included, is refused
    owner, server, t = build_system(3)
    client = Client.in_process(server)
    user = AuthorizedUser.from_owner(owner)
    user.query(client, "w", t)
    server.set_adversary(behavior)
    for i in range(3):  # past the freshness window
        server.add(owner.add_file(f"late{i}".encode(), ["w"], t + i * 600))
    now = t + 2 * 600
    expected = StaleFilterError if behavior == "stale_bloom" else TamperedFilterError
    held = user._tags.bf.serialize()
    for _ in range(2):
        with pytest.raises(expected):
            user.query(client, "w", now)
    assert user._tags.bf.serialize() == held


def held_state(user: AuthorizedUser):
    """What a refused update must leave as it was."""
    return user._tags.bf.serialize(), user._tags._agg, user._version


def test_a_refused_delta_leaves_the_held_filter_and_the_next_fetch_is_a_delta():
    owner, server, t = build_system(3)
    client = Client.in_process(server)
    user = AuthorizedUser.from_owner(owner)
    user.query(client, "w", t)
    held = held_state(user)
    server.add(owner.add_file(b"f3", ["w", "x:1"], t))
    server.set_adversary("flip_bloom_bit")
    with pytest.raises(TamperedFilterError):
        user.query(client, "w", t)
    assert held_state(user) == held and user.token_filter is None
    assert server.filters_served == {"full": 1, "delta": 1}
    server.set_adversary("honest")
    ids, _, _, cnt = user.query(client, "w", t)
    assert len(ids) == cnt == 4
    assert server.filters_served == {"full": 1, "delta": 2}
    assert user._tags.bf == server.bf and user.token_filter == (server.sigma, t)


def test_an_answer_on_a_version_the_user_does_not_hold_is_refused():
    owner, server, t = build_system(3)
    user = AuthorizedUser.from_owner(owner)
    bf_bytes, sigma, ts = fetch(server)
    delta = [crypto.chain_label(owner.keys.k_prf, "w", 4)], sigma, ts
    for update in (delta, ([], sigma, ts)):
        with pytest.raises(ProtocolError, match="holding no filter"):
            user.gen_token(update, "w", t)
    assert user._tags is user._version is user.token_filter is None
    user.gen_token((bf_bytes, sigma, ts), "w", t)
    held = held_state(user)
    # an unchanged answer on another version fails the MAC like any forgery
    for other in (([], sigma, ts - 600), ([], b"\x00" * 16, ts)):
        with pytest.raises(TamperedFilterError):
            user.gen_token(other, "w", t)
        assert held_state(user) == held and user.token_filter is None


def test_accepting_a_delta_tags_the_blocks_its_taus_fall_in(monkeypatch):
    owner, server, t = build_system(3)
    user = AuthorizedUser.from_owner(owner)
    user.gen_token(fetch(server), "w", t)
    version = user._version
    payload = owner.add_file(b"f3", ["w", "x:1", "y:1", "z:1"], t)
    server.add(payload)
    taus, sigma, ts = server.get_bloom(version)
    assert len(taus) == 4
    scratch = BloomFilter.deserialize(user._tags.bf.serialize())
    blocks = {scratch.add(tau) for tau in taus}
    tagged = []
    tag = FilterTags._tag
    monkeypatch.setattr(
        FilterTags, "_tag", lambda self, i, block: tagged.append(i) or tag(self, i, block)
    )
    assert user.gen_token((taus, sigma, ts), "w", t)[1] == 4
    assert sorted(tagged) == sorted(blocks)
    monkeypatch.undo()
    assert user._tags.bf == scratch == server.bf
    assert user._tags._agg == FilterTags(owner.keys.k_mac, scratch)._agg


def test_a_delta_fetch_and_gen_token_allocate_well_under_a_filter():
    owner, server, t = build_system(3)
    client = Client.in_process(server)
    user = AuthorizedUser.from_owner(owner)
    user.query(client, "w", t)
    filter_len = len(server.bf.bits)
    assert server.bf.n_blocks == 34
    server.add(owner.add_file(b"f3", ["w", "x:1", "y:1"], t))
    tracemalloc.start()
    try:
        user.gen_token(client.get_bloom(user._version), "w", t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert server.filters_served["delta"] == 1
    assert peak < filter_len / 4, (peak, filter_len)


def test_a_fetched_filter_is_parsed_once_and_a_delta_not_at_all(monkeypatch):
    owner, server, t = build_system(3)
    client = Client.in_process(server)
    user = AuthorizedUser.from_owner(owner)
    calls = []
    serialize, deserialize = BloomFilter.serialize, BloomFilter.deserialize
    monkeypatch.setattr(
        BloomFilter, "serialize", lambda bf: calls.append("serialize") or serialize(bf)
    )
    monkeypatch.setattr(
        BloomFilter, "deserialize",
        staticmethod(lambda data: calls.append("deserialize") or deserialize(data)),
    )
    assert user.gen_token(client.get_bloom(), "w", t)[1] == 3
    assert calls == ["serialize", "deserialize"]  # the server's, then the user's
    server.add(owner.add_file(b"f3", ["w"], t))
    calls.clear()
    assert user.gen_token(client.get_bloom(), "w", t)[1] == 4
    assert server.filters_served["delta"] == 1
    assert calls == []


def test_each_user_of_one_client_fetches_against_its_own_version():
    owner, server, t = build_system(3)
    client = Client.in_process(server)
    users = [AuthorizedUser.from_owner(owner) for _ in range(4)]
    for user in users:
        assert len(user.query(client, "w", t)[0]) == 3
    server.add(owner.add_file(b"f3", ["w"], t))
    for user in users:
        assert len(user.query(client, "w", t)[0]) == 4
    assert server.filters_served == {"full": 4, "delta": 4}
    filters = [user._tags.bf for user in users]
    assert len({id(bf) for bf in filters}) == 4
    assert all(bf == server.bf for bf in filters)


def test_revoked_user_cannot_search():
    owner, server, t = build_system(3)
    u_ok = AuthorizedUser.from_owner(owner)
    u_revoked = AuthorizedUser.from_owner(owner)
    r, epoch = owner.rotate_group_key()
    server.set_group_key(r, epoch)
    u_ok.update_group_key(r, epoch)
    # stale epoch announced plainly
    from dsse.errors import StaleEpochError

    with pytest.raises(StaleEpochError):
        server.search(u_revoked.token_for_counter("w", 3))
    # lying about the epoch does not help: decryption fails under the new key
    env = u_revoked.token_for_counter("w", 3)
    env.epoch = epoch
    with pytest.raises(DecryptionError):
        server.search(env)
    ids, _, _ = server.search(u_ok.token_for_counter("w", 3))
    assert len(ids) == 3


def test_snapshot_round_trip(tmp_path):
    owner, _, _ = build_system(2)
    user = AuthorizedUser.from_owner(owner)
    path = tmp_path / "user.bin"
    user.save(str(path))
    back = AuthorizedUser.load(str(path))
    assert back == user


def test_previous_snapshot_version_refused():
    owner, _, _ = build_system(1)
    blob = AuthorizedUser.from_owner(owner).snapshot()
    assert blob.startswith(b"DSSEUSR2") and len(blob) == 8 + 4 * 16 + 8
    # DSSEUSR1 prefixed each key with its length and stored the counter
    # bound and the freshness window after the epoch
    v1 = b"DSSEUSR1" + b"".join(
        (16).to_bytes(4, "big") + blob[i : i + 16] for i in range(8, 72, 16)
    )
    v1 += blob[72:] + (2**31).to_bytes(8, "big") + (1200).to_bytes(8, "big")
    with pytest.raises(FormatError, match="not a user snapshot"):
        AuthorizedUser.restore(v1)

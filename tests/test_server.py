import ast
import hmac
import pathlib
import random
import struct
import types

import pytest

import dsse
from dsse import crypto
from dsse.bloom import BLOCK_BYTES, BloomFilter, BloomParams
from dsse.crypto import (
    LAMBDA,
    aggregate_mac,
    chain_label,
    chain_link,
    derived_key,
    xor_bytes,
)
from dsse.errors import (
    FormatError,
    NotFoundError,
    ProtocolError,
    StaleEpochError,
    UsageError,
)
from dsse.harness.scenario import AdversarialServer
from dsse.owner import DataOwner
from dsse.protocol import AddPayload, SearchTokenEnvelope, mask_width, result_mac, verify_result
from dsse.server import ChainEntry, CloudServer, MergedEntry

NOW = 1_700_000_000
PARAMS = BloomParams(2.0**-30, 20_000)


def build(mode="full"):
    owner = DataOwner.generate(mode, PARAMS)
    server = AdversarialServer(mode, PARAMS, group_key=owner.keys.r if mode == "full" else None)
    return owner, server


def ingest(owner, server, n, keywords_for, start=NOW):
    ids = []
    for i in range(n):
        payload = owner.add_file(f"file-{i}".encode(), keywords_for(i), start + i * 600)
        server.add(payload)
        ids.append(payload.file_id)
    return ids


def test_add_grows_table_and_filter():
    owner, server = build()
    kws = [f"a{i}:v" for i in range(15)]
    payload = owner.add_file(b"f", kws, NOW)
    server.add(payload)
    assert len(server.tbl) == 15
    assert server.filters_built["builds"] == 0  # the labels join the generating set
    assert server.bf.n_inserted == 15
    assert server.sigma == payload.sigma
    assert server.t == NOW
    assert server.files[payload.file_id] == payload.ciphertext


def test_duplicate_label_rejected():
    # a stored label under another file; a byte-identical replay is acked
    # (test_replay_of_a_stored_upload_is_a_no_op)
    owner, server = build()
    payload = owner.add_file(b"f", ["w"], NOW)
    server.add(payload)
    other = AddPayload(b"other-file-id-00", payload.ciphertext, payload.entries,
                       payload.sigma, payload.t)
    with pytest.raises(ProtocolError, match="duplicate index label"):
        server.add(other)


def test_duplicate_label_within_payload_rejected():
    owner, server = build()
    payload = owner.add_file(b"f", ["w"], NOW)
    payload.entries = payload.entries * 2
    with pytest.raises(ProtocolError):
        server.add(payload)
    assert len(server.tbl) == 0  # nothing applied


def test_non_monotonic_timestamp_rejected():
    owner, server = build()
    late = owner.add_file(b"f1", ["w"], NOW - 600)  # built first: the owner refuses it later
    server.add(owner.add_file(b"f2", ["w"], NOW))
    with pytest.raises(ProtocolError):
        server.add(late)


def test_a_replayed_older_refresh_is_refused_and_state_kept():
    owner, server = build()
    ingest(owner, server, 2, lambda i: ["w"])
    old = owner.refresh_bloom(NOW + 2 * 600)
    server.refresh(old)
    ingest(owner, server, 1, lambda i: ["w"], start=NOW + 3 * 600)
    blob = server.snapshot()
    assert old.t < server.t
    with pytest.raises(ProtocolError, match=f"non-monotonic timestamp {old.t} < {server.t}"):
        server.refresh(old)
    assert server.snapshot() == blob and server.refreshes["adopted"] == 1


@pytest.mark.parametrize("mode", ["basic", "full"])
def test_an_add_whose_file_id_is_not_16_bytes_is_refused_and_state_kept(mode):
    owner, server = build(mode)
    ingest(owner, server, 1, lambda i: ["w"])
    blob = server.snapshot()
    payload = owner.add_file(b"next", ["w"], NOW + 600)
    for fid in (payload.file_id[:15], payload.file_id + b"\x00", b""):
        with pytest.raises(ProtocolError, match=f"file id is {len(fid)} bytes, expected 16"):
            server.add(AddPayload(fid, payload.ciphertext, payload.entries, payload.sigma, payload.t))
        assert server.snapshot() == blob
    server.add(payload)


def test_a_basic_token_whose_key_is_not_16_bytes_is_refused_and_state_kept():
    owner, server = build("basic")
    ingest(owner, server, 2, lambda i: ["w"])
    blob = server.snapshot()
    token = owner.gen_token("w")
    for body in (token.body[:15], token.body + b"\x00", b""):
        with pytest.raises(ProtocolError, match=f"token body is {len(body)} bytes, expected 16"):
            server.search(SearchTokenEnvelope(token.epoch, body))
        assert server.snapshot() == blob
    assert len(server.search(token)[0]) == 2


@pytest.mark.parametrize("mode", ["basic", "full"])
def test_replay_of_a_stored_upload_is_a_no_op(mode):
    # an owner whose ack was lost sends the same payload again: the newest
    # was refused as a duplicate label, an older one (full mode) as a
    # non-monotonic timestamp, so the owner could not retry
    owner, server = build(mode)
    payloads = [owner.add_file(f"file-{i}".encode(), ["w", f"x:{i}"], NOW + i * 600)
                for i in range(3)]
    for payload in payloads:
        server.add(payload)

    def unchanged_by_replays(order):
        before = (server.snapshot(), dict(server._versions))
        for payload in order:
            server.add(payload)
            assert (server.snapshot(), server._versions) == before

    unchanged_by_replays([payloads[-1], payloads[0]])
    # the search merges every entry it opens, c1..c3; the x:i entries, which
    # no search walks, stay chain entries
    rst, _, _ = server.search(owner.gen_token("w"))
    ids = [payload.file_id for payload in payloads]
    assert rst == ids[::-1]
    w = [chain_label(owner.keys.k_prf, "w", c) for c in (1, 2, 3)]
    assert [type(server.tbl[tau]) for tau in w] == [MergedEntry] * 3
    x = [chain_label(owner.keys.k_prf, f"x:{i}", 1) for i in range(3)]
    assert [type(server.tbl[tau]) for tau in x] == [ChainEntry] * 3
    unchanged_by_replays(payloads)
    # a label merged for another file is not this file's
    before = server.snapshot()
    for merged in (w[0], w[2]):
        entries = [(merged if tau == w[1] else tau, mu) for tau, mu in payloads[1].entries]
        forged = AddPayload(ids[1], payloads[1].ciphertext, entries, payloads[1].sigma, payloads[1].t)
        with pytest.raises(ProtocolError, match="duplicate file id"):
            server.add(forged)
    assert server.snapshot() == before
    assert server.search(owner.gen_token("w"))[0] == rst
    ids += ingest(owner, server, 1, lambda i: ["w"], start=NOW + 1800)
    rst, cts, gamma = server.search(owner.gen_token("w"))
    assert rst == ids[::-1]
    if mode == "full":
        assert owner.verify("w", rst, cts, gamma, NOW + 1860).ok


@pytest.mark.parametrize("change", ["ciphertext", "mu", "tau"])
def test_a_replay_with_one_byte_changed_is_refused(change):
    owner, server = build()
    payload = owner.add_file(b"f", ["w", "x:1"], NOW)
    server.add(payload)
    before = server.snapshot()
    flip = lambda b: bytes([b[0] ^ 0x01]) + b[1:]  # noqa: E731
    (tau, mu), *rest = payload.entries
    ciphertext = flip(payload.ciphertext) if change == "ciphertext" else payload.ciphertext
    entry = (flip(tau), mu) if change == "tau" else (tau, flip(mu)) if change == "mu" else (tau, mu)
    changed = AddPayload(payload.file_id, ciphertext, [entry, *rest], payload.sigma, payload.t)
    with pytest.raises(ProtocolError, match="duplicate file id"):
        server.add(changed)
    assert server.snapshot() == before


def test_after_a_replay_a_delta_carries_each_tau_once():
    owner, server = build()
    ingest(owner, server, 1, lambda i: ["w"])
    _, sigma, t = server.get_bloom()
    late = [owner.add_file(f"late{i}".encode(), ["w", f"x:{i}"], t + 600 * (i + 1))
            for i in range(2)]
    for payload in late + late:
        server.add(payload)
    taus, sigma_now, t_now = server.get_bloom((t, sigma))
    assert taus == [tau for payload in late for tau, _ in payload.entries]
    assert (sigma_now, t_now) == (late[-1].sigma, late[-1].t)


def test_late_upload_refused_by_the_owner_keeps_owner_and_server_in_step():
    # the server refuses a full-mode payload older than its filter, so the
    # owner must refuse to build one: its counters would skip an entry
    owner, server = build()
    ids = ingest(owner, server, 2, lambda i: ["w"])
    before = owner.snapshot()
    with pytest.raises(UsageError):
        owner.add_file(b"late", ["w"], NOW - 600)
    assert owner.snapshot() == before
    ids += ingest(owner, server, 1, lambda i: ["w"], start=NOW + 1200)
    rst, cts, gamma = server.search(owner.gen_token("w"))
    assert rst == ids[::-1]
    assert owner.verify("w", rst, cts, gamma, NOW + 1260).ok


def test_basic_mode_accepts_payload_without_sigma():
    owner, server = build("basic")
    server.add(owner.add_file(b"f", ["w"], NOW))
    assert server.bf is None
    assert server.sigma == b""


def test_full_mode_requires_sigma():
    owner, server = build()
    bare = owner.add_file(b"f", ["w"], NOW)
    bare.sigma = bare.t = None
    with pytest.raises(ProtocolError):
        server.add(bare)


def test_mode_mixing_rejected_by_mask_width():
    # a basic owner's one-lambda masks must not land in a full server's table
    basic_owner, _ = build("basic")
    payload = basic_owner.add_file(b"f", ["w"], NOW)
    payload.sigma, payload.t = b"\x00" * 16, NOW  # smuggle in proof fields
    _, full_server = build("full")
    with pytest.raises(ProtocolError):
        full_server.add(payload)
    full_owner, _ = build("full")
    wide = full_owner.add_file(b"f", ["w"], NOW)
    _, basic_server = build("basic")
    with pytest.raises(ProtocolError):
        basic_server.add(wide)


def test_search_returns_newest_first_with_exact_lookups():
    owner, server = build()
    ids = ingest(owner, server, 5, lambda i: ["w", f"noise:{i}"])
    rst, cts, gamma = server.search(owner.gen_token("w"))
    assert rst == list(reversed(ids))
    assert cts == [server.files[i] for i in rst]
    assert server.last_search_lookups == 5
    assert gamma is not None
    assert gamma == owner.tbl["w"].gamma  # no filter, sigma or timestamp


def test_search_oracle_equivalence_random():
    owner, server = build()
    rng = random.Random(11)
    truth: dict[str, list[bytes]] = {}
    for i in range(120):
        kws = {f"kw:{rng.randint(0, 15)}" for _ in range(4)}
        payload = owner.add_file(f"f{i}".encode(), kws, NOW + i * 600)
        server.add(payload)
        for w in kws:
            truth.setdefault(w, []).append(payload.file_id)
    for w, expect in truth.items():
        rst, _, _ = server.search(owner.gen_token(w))
        assert rst == list(reversed(expect)), w


def test_repeat_search_costs_one_lookup():
    owner, server = build()
    ingest(owner, server, 4, lambda i: ["w"])
    token = owner.gen_token("w")
    first, _, _ = server.search(token)
    assert server.last_search_lookups == 4
    second, cts, gamma = server.search(token)
    assert server.last_search_lookups == 1
    assert second == first
    # merged entry still carries a verifiable gamma
    report = verify_result(owner.keys.k_mac, "w", owner.tbl["w"].cnt, second, cts, gamma)
    assert report.ok


def test_incremental_search_costs_d_plus_one():
    for d in (0, 1, 10):
        owner, server = build()
        ingest(owner, server, 7, lambda i: ["w"])
        server.search(owner.gen_token("w"))
        ingest(owner, server, d, lambda i: ["w"], start=NOW + 7 * 600)
        rst, _, _ = server.search(owner.gen_token("w"))
        assert server.last_search_lookups == d + 1
        assert len(rst) == 7 + d


@pytest.mark.parametrize("mode, per_keyword", [("full", 3), ("basic", 2)])
def test_one_hmac_per_chain_link(mode, per_keyword, monkeypatch):
    # an upload derives each keyword's chain key, then its label and pad in
    # one call, and in full mode tags the file; a one-block filter adds one
    # block tag and sigma. A walk pays one call per entry it reaches.
    calls = []

    def counted(*args):
        calls.append(args)
        return hmac.new(*args)

    monkeypatch.setattr(crypto, "hmac", types.SimpleNamespace(new=counted))
    params = BloomParams(0.01, 100)
    owner = DataOwner.generate(mode, params)
    assert mode == "basic" or owner.bf.n_blocks == 1
    server = CloudServer(mode, params, group_key=owner.keys.r if mode == "full" else None)
    calls.clear()
    for i in range(5):
        keywords = ["w"] + [f"x{i}:{j}" for j in range(i)]
        payload = owner.add_file(b"file", keywords, NOW + i)
        assert len(calls) == per_keyword * len(keywords) + 2 * (mode == "full")
        server.add(payload)
        calls.clear()
    server.search(owner.gen_token("w"))
    assert len(calls) == 5
    calls.clear()
    server.search(owner.gen_token("w"))
    assert len(calls) == 1


def test_unknown_token_not_found():
    owner, server = build()
    ingest(owner, server, 2, lambda i: ["w"])
    with pytest.raises(NotFoundError):
        server.search(owner.token_for_counter("never-added", 1))


def test_stale_epoch_rejected_before_decryption():
    owner, server = build()
    ingest(owner, server, 2, lambda i: ["w"])
    old_token = owner.gen_token("w")
    r, epoch = owner.rotate_group_key()
    server.set_group_key(r, epoch)
    with pytest.raises(StaleEpochError):
        server.search(old_token)
    fresh_token = owner.gen_token("w")
    rst, _, _ = server.search(fresh_token)
    assert len(rst) == 2


def test_epoch_must_increase():
    owner, server = build()
    with pytest.raises(ProtocolError):
        server.set_group_key(b"\x01" * 16, 1)


def test_group_key_present_in_full_mode_and_lambda_bytes():
    # the snapshot writes the group key as 16 raw bytes: a full server has
    # one from the start, and a rotation cannot install another width
    with pytest.raises(UsageError):
        CloudServer("full", PARAMS)
    _, server = build()
    with pytest.raises(ProtocolError, match="group key is 15 bytes"):
        server.set_group_key(b"\x01" * 15, 2)
    assert server.epoch == 1
    server.set_group_key(b"\x01" * 16, 2)
    assert CloudServer.restore(server.snapshot()).r == b"\x01" * 16


def test_refresh_replaces_filter_wholesale():
    owner, server = build()
    ingest(owner, server, 3, lambda i: ["w"])
    tau2 = chain_label(owner.keys.k_prf, "w", 2)
    assert server.bf.verify(tau2)
    payload = owner.refresh_bloom(NOW + 3 * 600)
    server.refresh(payload)
    assert server.bf.serialize() == owner.bf.serialize()
    assert (server.sigma, server.t) == (payload.sigma, payload.t)
    assert server.refreshes == {"adopted": 1, "elements": payload.n}
    # membership elements from before the refresh are no longer in the
    # filter, but the table still answers searches
    assert not server.bf.verify(tau2)
    rst, _, _ = server.search(owner.gen_token("w"))
    assert len(rst) == 3


def test_uploads_a_refresh_and_a_restore_build_no_filter_bits():
    # the server only relays the filter: nothing it does short of sending a
    # whole filter hashes an element into bits
    owner, server = build()
    ingest(owner, server, 20, lambda i: ["w", f"kw:{i % 4}"])
    server.refresh(owner.refresh_bloom(NOW + 20 * 600))
    ingest(owner, server, 5, lambda i: ["w"], start=NOW + 21 * 600)
    back = CloudServer.restore(server.snapshot())
    assert server.filters_built == back.filters_built == {"builds": 0, "elements": 0}
    assert server.refreshes == {"adopted": 1, "elements": len(server.elements) // LAMBDA}


@pytest.mark.parametrize("restored", [False, True], ids=["live", "restored"])
def test_the_first_whole_get_bloom_builds_the_owners_filter_once(restored):
    owner, server = build()
    ingest(owner, server, 6, lambda i: ["w", f"kw:{i % 3}"])
    for refreshed in (False, True):
        if refreshed:
            payload = owner.refresh_bloom(server.t + 600)
            server.refresh(payload)
            ingest(owner, server, 2, lambda i: ["w", "late:1"], start=server.t + 600)
        subject = CloudServer.restore(server.snapshot()) if restored else server
        built = subject.filters_built.copy()
        assert subject.get_bloom()[0] == owner.bf.serialize()
        # the refresh's elements and the labels since, hashed once
        since = len(subject.tbl) - subject.refreshed_at
        assert subject.filters_built == {
            "builds": built["builds"] + 1,
            "elements": built["elements"] + len(subject.elements) // LAMBDA + since,
        }
    assert refreshed and payload.n > 0 and since == 2 * 2


def test_built_bits_follow_each_add_until_a_refresh_drops_them():
    owner, server = build()
    kws = [f"a{i}:v" for i in range(15)]
    ingest(owner, server, 3, lambda i: kws)
    server.get_bloom()
    assert server.filters_built == {"builds": 1, "elements": 3 * 15}
    t = server.t
    for i in range(1, 3):
        server.add(owner.add_file(f"late{i}".encode(), kws, t + 600 * i))
        assert server.bf.n_inserted == (3 + i) * 15
    assert server.get_bloom()[0] == owner.bf.serialize()
    assert server.filters_built == {"builds": 1, "elements": 3 * 15}
    payload = owner.refresh_bloom(t + 1800)
    server.refresh(payload)
    assert server.filters_built["builds"] == 1
    assert server.get_bloom()[0] == owner.bf.serialize()
    assert server.filters_built == {"builds": 2, "elements": 3 * 15 + payload.n}


def test_get_bloom_honest_and_basic_unsupported():
    owner, server = build()
    ingest(owner, server, 1, lambda i: ["w"])
    bf_bytes, sigma, t = server.get_bloom()
    assert (bf_bytes, sigma, t) == (server.bf.serialize(), server.sigma, server.t)
    _, basic_server = build("basic")
    with pytest.raises(UsageError):
        basic_server.get_bloom()


def test_conditional_get_bloom_compares_the_served_pair():
    owner, server = build()
    ingest(owner, server, 2, lambda i: ["w"])
    bf_bytes, sigma, t = server.get_bloom()
    assert server.get_bloom((t, sigma)) == ([], sigma, t)
    assert server.get_bloom((t - 600, sigma)) == (bf_bytes, sigma, t)
    # flip_bloom_bit serves other bytes under the same pair
    server.set_adversary("flip_bloom_bit")
    assert server.get_bloom((t, sigma)) == ([], sigma, t)
    assert server.get_bloom()[0] != bf_bytes
    # stale_bloom keeps answering for its frozen pair after new uploads
    server.set_adversary("stale_bloom")
    ingest(owner, server, 3, lambda i: ["w"], start=NOW + 1200)
    assert (server.t, server.sigma) != (t, sigma)
    assert server.get_bloom((t, sigma)) == ([], sigma, t)
    assert server.get_bloom((server.t, server.sigma)) == (bf_bytes, sigma, t)


def test_arming_stale_bloom_counts_no_fetch():
    # arming froze its answer through get_bloom, which counted a whole
    # filter served although nothing was sent
    owner, server = build()
    ingest(owner, server, 1, lambda i: ["w"])
    bf_bytes, sigma, t = server.bf.serialize(), server.sigma, server.t
    server.set_adversary("stale_bloom")
    assert server.filters_served == {} and server.filter_bytes_served == {}
    ingest(owner, server, 1, lambda i: ["w"], start=NOW + 600)
    assert server.get_bloom() == (bf_bytes, sigma, t)
    assert server.get_bloom((t, sigma)) == ([], sigma, t)


def test_stale_bloom_armed_before_any_bits_are_built_serves_the_owners_filter():
    owner, server = build()
    ingest(owner, server, 2, lambda i: ["w"])
    assert server.filters_built["builds"] == 0
    frozen = owner.bf.serialize(), server.sigma, server.t
    server.set_adversary("stale_bloom")
    assert server.filters_built["builds"] == 1
    ingest(owner, server, 2, lambda i: ["w"], start=NOW + 1200)
    assert server.get_bloom() == frozen


def test_get_bloom_answers_a_logged_version_with_the_taus_added_since():
    owner, server = build()
    ingest(owner, server, 1, lambda i: ["w"])
    bf_bytes, sigma, t = server.get_bloom()
    late = [owner.add_file(f"late{i}".encode(), ["w", f"x:{i}"], t + 600 * (i + 1))
            for i in range(2)]
    for payload in late:
        server.add(payload)
    taus, sigma_now, t_now = server.get_bloom((t, sigma))
    assert taus == [tau for payload in late for tau, _ in payload.entries]
    assert (sigma_now, t_now) == (server.sigma, server.t)
    bf = BloomFilter.deserialize(bf_bytes)
    for tau in taus:
        bf.add(tau)
    assert bf.serialize() == server.bf.serialize()
    # one upload behind: that upload's taus only
    assert server.get_bloom((late[0].t, late[0].sigma))[0] == taus[2:]
    # flip_bloom_bit corrupts the delta it serves: the first bit of its first tau
    server.set_adversary("flip_bloom_bit")
    flipped = server.get_bloom((t, sigma))[0]
    assert flipped[0] == bytes([taus[0][0] ^ 0x01]) + taus[0][1:] and flipped[1:] == taus[1:]


def test_get_bloom_sends_the_whole_filter_for_a_version_it_does_not_log():
    owner, server = build()
    ingest(owner, server, 2, lambda i: ["w"])
    _, sigma, t = server.get_bloom()
    ingest(owner, server, 1, lambda i: ["w"], start=t + 600)
    assert isinstance(server.get_bloom((t, sigma))[0], list)
    whole = (server.bf.serialize(), server.sigma, server.t)
    for forged in ((t, bytes(LAMBDA)), (t + 1, sigma), (t - 600, sigma), (0, b"")):
        assert server.get_bloom(forged) == whole
    # the log is not persisted: a restored server knows no older version
    restored = CloudServer.restore(server.snapshot())
    assert restored.get_bloom((t, sigma)) == whole
    assert restored.get_bloom((server.t, server.sigma)) == ([], server.sigma, server.t)
    # a refresh in between: the whole refreshed filter, then deltas from it
    server.refresh(owner.refresh_bloom(server.t + 600))
    refreshed = (server.bf.serialize(), server.sigma, server.t)
    assert server.get_bloom((t, sigma)) == refreshed
    ingest(owner, server, 1, lambda i: ["v"], start=server.t + 600)
    assert server.get_bloom(refreshed[:0:-1]) == (
        [chain_label(owner.keys.k_prf, "v", 1)], server.sigma, server.t
    )
    assert server.filters_served == {"full": 6, "delta": 2}


def test_a_delta_not_smaller_than_the_filter_is_sent_whole():
    params = BloomParams(2.0**-10, 10)  # one block: 8,200 bytes, room for 512 taus
    owner = DataOwner.generate("full", params)
    server = CloudServer("full", params, group_key=owner.keys.r)
    keywords = [f"w:{j:03}" for j in range(300)]
    versions = []
    for i in range(3):
        server.add(owner.add_file(f"f{i}".encode(), keywords, NOW + 600 * i))
        versions.append((server.t, server.sigma))
    whole = server.bf.serialize()
    assert len(whole) == 8 + BLOCK_BYTES
    assert server.get_bloom(versions[1])[0] == [
        chain_label(owner.keys.k_prf, w, 3) for w in keywords
    ]
    assert server.get_bloom(versions[0])[0] == whole  # 600 taus: 9,600 bytes
    # the log holds no version whose delta is not smaller than the filter
    assert all((len(server.tbl) - at) * LAMBDA < len(whole) for at in server._versions.values())
    assert server.filter_bytes_served == {"delta": 300 * LAMBDA, "full": len(whole)}


def test_a_repeated_version_does_not_outlive_its_taus():
    # the server holds no MAC key, so an ADD may repeat an earlier (t, sigma);
    # the repeat must not keep older versions logged past their taus
    params = BloomParams(2.0**-10, 10)  # room for 512 taus
    owner = DataOwner.generate("full", params)
    server = CloudServer("full", params, group_key=owner.keys.r)
    a, b = (owner.add_file(name, ["w"], NOW) for name in (b"a", b"b"))
    server.add(a)
    server.add(b)

    def entries(tag: int) -> list[tuple[bytes, bytes]]:
        return [(bytes([tag]) + j.to_bytes(15, "big"), b"\x0d" * 32) for j in range(300)]

    server.add(AddPayload(b"C" * 16, b"c", entries(0x0C), a.sigma, a.t))
    server.add(AddPayload(b"D" * 16, b"d", entries(0x0E), b"\x01" * 16, NOW))
    assert server.get_bloom((b.t, b.sigma))[0] == server.bf.serialize()


def test_adversary_validation():
    _, server = build()
    with pytest.raises(UsageError):
        server.set_adversary("nope")


def test_honest_adversarial_server_answers_as_a_cloud_server():
    for mode in ("full", "basic"):
        owner = DataOwner.generate(mode, PARAMS)
        r = owner.keys.r if mode == "full" else None
        servers = (CloudServer(mode, PARAMS, group_key=r),
                   AdversarialServer(mode, PARAMS, group_key=r))

        def both(call):
            plain, armed = (call(s) for s in servers)
            assert plain == armed
            return plain

        for i in range(8):
            payload = owner.add_file(f"f{i}".encode(), [f"kw:{i % 3}", "shared:1"],
                                     NOW + i * 600)
            both(lambda s: s.add(payload))
        for keyword in ("shared:1", "kw:0", "shared:1", "kw:2", "kw:0"):
            token = owner.gen_token(keyword)
            both(lambda s: s.search(token))
        if mode == "full":
            bf_bytes, sigma, t = both(lambda s: s.get_bloom())
            assert both(lambda s: s.get_bloom((t, sigma))) == ([], sigma, t)
            assert both(lambda s: s.get_bloom((t - 600, sigma))) == (bf_bytes, sigma, t)
            refresh = owner.refresh_bloom(t + 600)
            both(lambda s: s.refresh(refresh))
            both(lambda s: s.get_bloom((t, sigma)))
        both(lambda s: s.snapshot())


def test_result_adversaries_rewrite_the_honest_answer():
    owner, server = build()
    ingest(owner, server, 6, lambda i: [f"kw:{i % 2}"])
    other = server.search(owner.gen_token("kw:0"))  # merged, 3 ids
    token = owner.gen_token("kw:1")
    ids, cts, gamma = server.search(token)
    server.set_adversary("drop_result")
    assert server.search(token) == (ids[1:], cts[1:], gamma)
    server.set_adversary("forge_gamma")
    forged = server.search(token)
    assert forged[:2] == (ids, cts) and len(forged[2]) == 16 and forged[2] != gamma
    server.set_adversary("swap_keyword")  # the other merged answer of 3 ids
    assert server.search(token) == other
    server.set_adversary("honest")
    assert server.search(token) == (ids, cts, gamma)
    _, basic = build("basic")
    with pytest.raises(UsageError):
        basic.set_adversary("stale_bloom")
    assert basic.behavior == "honest"


def _imported_modules(path: pathlib.Path, package: tuple[str, ...]):
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parent = ".".join(package[: len(package) - node.level + 1])
                base = f"{parent}.{base}" if base else parent
            yield base
            yield from (f"{base}.{alias.name}" for alias in node.names)


def test_only_the_simulator_can_build_a_cheating_server():
    server = CloudServer("basic")
    assert not hasattr(server, "set_adversary") and not hasattr(server, "behavior")
    root = pathlib.Path(dsse.__file__).parent
    importers = set()
    for path in root.rglob("*.py"):
        rel = path.relative_to(root)
        if rel.parts[0] == "harness":
            continue
        package = ("dsse", *rel.parts[:-1])
        if any(
            m == "dsse.harness" or m.startswith("dsse.harness.")
            for m in _imported_modules(path, package)
        ):
            importers.add(rel.as_posix())
    # the command line is the one front end that drives the simulator
    assert importers == {"cli.py"}


def test_snapshot_round_trip(tmp_path):
    owner, server = build()
    ingest(owner, server, 10, lambda i: [f"kw:{i % 3}", "shared:1"])
    server.search(owner.gen_token("shared:1"))  # leave a merged entry behind
    path = tmp_path / "server.bin"
    server.save(str(path))
    back = CloudServer.load(str(path))
    assert back.mode == server.mode
    assert back.epoch == server.epoch
    assert back.r == server.r
    assert back.sigma == server.sigma and back.t == server.t
    assert back.bf == server.bf
    assert back.files == server.files
    assert set(back.tbl) == set(server.tbl)
    for tau, entry in server.tbl.items():
        restored = back.tbl[tau]
        assert type(restored) is type(entry)
        if isinstance(entry, ChainEntry):
            assert (restored.mu, restored.file_id) == (entry.mu, entry.file_id)
        else:
            assert (restored.ids, restored.gamma) == (entry.ids, entry.gamma)
    rst, _, _ = back.search(owner.gen_token("shared:1"))
    assert server.last_search_lookups >= 1
    assert len(rst) == 10


def merged_lists(server):
    """The distinct id lists the server's merged entries share."""
    lists = {}
    for entry in server.tbl.values():
        if isinstance(entry, MergedEntry):
            lists[id(entry.chain)] = entry.chain
    return list(lists.values())


def test_stored_ids_linear_under_search_after_every_upload():
    owner, server = build("basic")
    for i in range(200):
        ingest(owner, server, 1, lambda _: ["w"], start=NOW + i * 600)
        rst, _, _ = server.search(owner.gen_token("w"))
        assert len(rst) == i + 1
        assert server.last_search_lookups == (1 if i == 0 else 2)
    # one list of 200 ids, where a copy per merge stores 1 + 2 + ... + 200
    assert sum(len(chain) for chain in merged_lists(server)) == 200
    assert sum(e.n for e in server.tbl.values() if isinstance(e, MergedEntry)) == 20_100


def test_old_counter_searches_between_merged_heads():
    owner, server = build()
    ids = ingest(owner, server, 10, lambda i: ["w", f"noise:{i}"])

    def search_at(counter):
        rst, cts, gamma = server.search(owner.token_for_counter("w", counter))
        assert rst == ids[:counter][::-1], counter
        report = verify_result(owner.keys.k_mac, "w", counter, rst, cts, gamma)
        assert report.ok, counter
        return server.last_search_lookups

    assert search_at(3) == 3
    assert search_at(8) == 6  # c8..c4, then the merged c3
    shared = server.tbl[chain_label(owner.keys.k_prf, "w", 8)].chain
    assert search_at(5) == 1  # merged by the walk from c8
    assert search_at(2) == 1  # merged by the walk from c3
    assert search_at(1) == 1 and search_at(1) == 1
    ids += ingest(owner, server, 5, lambda i: ["w"], start=NOW + 10 * 600)
    assert search_at(15) == 8  # c15..c9, then the merged c8
    assert search_at(9) == 1
    for counter in (1, 2, 3, 5, 8, 9, 15):
        assert server.tbl[chain_label(owner.keys.k_prf, "w", counter)].chain is shared
    assert shared == ids
    assert search_at(15) == 1


@pytest.mark.parametrize("mode", ["basic", "full"])
def test_descending_old_counter_searches_store_each_id_once(mode):
    # the first search merges every entry of the chain, so each later one is
    # one lookup on its shared list; a list per walk to the zero key stores
    # 200 + 199 + ... + 1 ids
    owner, server = build(mode)
    ids = ingest(owner, server, 200, lambda i: ["w"])
    for counter in range(200, 0, -1):
        rst, cts, gamma = server.search(owner.token_for_counter("w", counter))
        assert rst == ids[:counter][::-1]
        assert server.last_search_lookups == (200 if counter == 200 else 1)
        if mode == "full":
            assert verify_result(owner.keys.k_mac, "w", counter, rst, cts, gamma).ok
    assert merged_lists(server) == [ids]
    assert len(server.snapshot()) < 20_100 * (4 + 16)  # 20,100 stored ids alone


def test_merge_never_rewrites_a_shared_prefix():
    # a hand-made entry that joins chain "w" at its merged c1 but holds an
    # id the shared list does not continue with: the new head gets a copy
    owner, server = build("basic")
    ids = ingest(owner, server, 3, lambda i: ["w"])
    for counter in (1, 3):
        server.search(owner.token_for_counter("w", counter))
    shared = server.tbl[chain_label(owner.keys.k_prf, "w", 3)].chain
    key = b"\x0b" * 16
    tau, pad = chain_link(key)
    link = derived_key(owner.keys.k_prf, "w", 1)  # the key of merged c1
    server.tbl[tau] = ChainEntry(xor_bytes(link, pad[:16]), b"stranger-id-0000")
    server.files[b"stranger-id-0000"] = b"stranger ciphertext"
    rst, _, _ = server.search(SearchTokenEnvelope(0, key))
    assert rst == [b"stranger-id-0000", ids[0]]
    assert server.tbl[tau].chain is not shared
    assert shared == ids


def test_an_entry_that_opens_to_its_own_key_is_refused_not_walked_forever():
    # anyone who can send an ADD can store an entry whose mask opens to the
    # key it is stored under; a search from that key would walk it forever,
    # holding the server's lock
    _, server = build("basic")
    key = b"\x0b" * 16
    tau, pad = chain_link(key)
    server.add(AddPayload(b"L" * 16, b"loop", [(tau, xor_bytes(key, pad[:16]))]))
    with pytest.raises(ProtocolError, match="loops"):
        server.search(SearchTokenEnvelope(0, key))
    assert isinstance(server.tbl[tau], ChainEntry)


def test_a_table_with_only_heads_merged_still_answers():
    # the shape a server that merged only the head and the chain's bottom
    # saved after searches at counters 3 then 8: merged c1, c3 and c8 on one
    # 8-id list, c2 and c4..c7 still chain entries; DSSESRV7 loads it as is
    owner, server = build()
    ids = ingest(owner, server, 8, lambda i: ["w", f"noise:{i}"])
    tags = [
        result_mac(owner.keys.k_mac, server.files[fid], "w", i)
        for i, fid in enumerate(ids, start=1)
    ]
    shared = list(ids)
    for c in (1, 3, 8):
        gamma = aggregate_mac(tags[:c])
        server.tbl[chain_label(owner.keys.k_prf, "w", c)] = MergedEntry(shared, c, gamma)
    server = CloudServer.restore(server.snapshot())
    shared = server.tbl[chain_label(owner.keys.k_prf, "w", 1)].chain
    for _ in range(2):
        for counter in range(1, 9):
            rst, cts, gamma = server.search(owner.token_for_counter("w", counter))
            assert rst == ids[:counter][::-1], counter
            assert verify_result(owner.keys.k_mac, "w", counter, rst, cts, gamma).ok
    for c in (1, 3, 8):
        assert server.tbl[chain_label(owner.keys.k_prf, "w", c)].chain is shared
    assert shared == ids


def test_snapshot_is_canonical_and_restores_the_sharing():
    owner, server = build()
    ingest(owner, server, 12, lambda i: ["w", f"kw:{i % 3}"])
    for counter in (4, 9, 2, 12, 6):
        server.search(owner.token_for_counter("w", counter))
    server.search(owner.gen_token("kw:1"))
    blob = server.snapshot()
    back = CloudServer.restore(blob)
    assert back.snapshot() == blob
    # one list for "w" (the counter-2 search shares it through the merged
    # bottom c1) and one for "kw:1"
    assert len(merged_lists(back)) == len(merged_lists(server)) == 2
    labels = [chain_label(owner.keys.k_prf, "w", c) for c in (1, 2, 4, 6, 9, 12)]
    shared = back.tbl[labels[0]].chain
    assert all(back.tbl[tau].chain is shared for tau in labels)
    # a search after the restore appends to the same list
    ingest(owner, back, 2, lambda i: ["w"], start=NOW + 12 * 600)
    rst, _, _ = back.search(owner.gen_token("w"))
    assert back.last_search_lookups == 3 and len(rst) == 14
    assert back.tbl[chain_label(owner.keys.k_prf, "w", 14)].chain is shared
    assert len(shared) == 14
    grown = back.snapshot()
    assert grown != blob and CloudServer.restore(grown).snapshot() == grown


def files_bytes(server):
    """Length of the snapshot's file table: a u64 count, then each 16-byte
    id and its length-prefixed ciphertext."""
    return 8 + sum(len(fid) + 4 + len(ct) for fid, ct in server.files.items())


def u32(v):
    return v.to_bytes(4, "big")


def test_restore_refuses_out_of_range_merged_entries():
    owner, server = build("basic")
    ids = ingest(owner, server, 2, lambda i: ["w"])
    server.search(owner.gen_token("w"))
    blob = server.snapshot()
    # magic, mode flag, then the file table: a basic server stores nothing more before it
    lists_at = 8 + 1 + files_bytes(server)
    assert blob[lists_at : lists_at + 12] == (1).to_bytes(8, "big") + (2).to_bytes(4, "big")
    assert blob[lists_at + 12 :].startswith(u32(sorted(ids).index(ids[0])))
    entry_at = blob.index(chain_label(owner.keys.k_prf, "w", 2)) + 16
    assert blob[entry_at : entry_at + 8] == bytes(4) + (2).to_bytes(4, "big")

    def with_fields(index, n):
        fields = index.to_bytes(4, "big") + n.to_bytes(4, "big")
        return blob[:entry_at] + fields + blob[entry_at + 8 :]

    assert CloudServer.restore(with_fields(0, 1)).tbl[
        chain_label(owner.keys.k_prf, "w", 2)
    ].ids == (ids[0],)
    for index, n, error in ((1, 2, "id list 1"), (0, 3, "prefix 3"), (0, 0, "prefix 0")):
        with pytest.raises(FormatError, match=error):
            CloudServer.restore(with_fields(index, n))
    # a list no entry uses is not canonical: a re-snapshot would drop it
    tail_at = lists_at + 8 + 4 + 2 * 4
    unused = blob[:lists_at] + (2).to_bytes(8, "big") + blob[lists_at + 8 : tail_at]
    unused += bytes(4) + blob[tail_at:]
    with pytest.raises(FormatError, match="1 id lists unused"):
        CloudServer.restore(unused)
    with pytest.raises(FormatError, match="id list 0"):
        CloudServer.restore(blob[:lists_at] + bytes(8) + blob[tail_at:])


def test_restore_refuses_out_of_range_file_numbers():
    owner, server = build("basic")
    ids = ingest(owner, server, 2, lambda i: ["w"])
    server.search(owner.gen_token("w"))  # merges c2 and c1 into one list
    ids += ingest(owner, server, 1, lambda i: ["w"], start=NOW + 1200)  # c3 stays a chain entry
    blob = server.snapshot()
    place = sorted(ids).index
    list_at = 8 + 1 + files_bytes(server) + 8 + 4  # the list's first file number
    assert blob[list_at : list_at + 8] == u32(place(ids[0])) + u32(place(ids[1]))
    label = chain_label(owner.keys.k_prf, "w", 3)
    entry_at = blob.index(label) + 16 + 16  # label, mu
    assert blob[entry_at - 16 : entry_at] == server.tbl[label].mu
    assert blob[entry_at : entry_at + 4] == u32(place(ids[2]))

    def with_number(at, i):
        return blob[:at] + u32(i) + blob[at + 4 :]

    for at in (list_at, entry_at):
        other = with_number(at, 2 if blob[at + 3] != 2 else 1)  # another stored file
        assert CloudServer.restore(other).snapshot() == other
        for i in (3, 2**32 - 1):
            with pytest.raises(FormatError, match=f"file {i} out of range") as refused:
                CloudServer.restore(with_number(at, i))
            assert refused.value.offset == at


def test_restore_refuses_a_file_id_cut_to_15_bytes():
    # DSSESR10 length-prefixed each file id: one cut to 15 bytes behind a
    # prefix of 15 restored, and the first SEARCH returning it failed to
    # encode its reply
    owner, server = build("basic")
    ids = ingest(owner, server, 2, lambda i: ["w"])
    blob = server.snapshot()
    fid_at = 8 + 1 + 8  # magic, mode flag, file count
    first = min(ids)
    assert blob[fid_at : fid_at + 16] == first
    for cut in (first[:15], u32(15) + first[:15]):
        with pytest.raises(FormatError):
            CloudServer.restore(blob[:fid_at] + cut + blob[fid_at + 16 :])
    assert server.snapshot() == blob


@pytest.mark.parametrize("mode", ["basic", "full"])
def test_snapshot_names_each_file_once_and_restore_shares_its_id(mode):
    owner, server = build(mode)
    ids = ingest(owner, server, 12, lambda i: ["w", f"kw:{i % 3}"])
    for counter in (4, 9, 2, 12, 6):
        server.search(owner.token_for_counter("w", counter))
    server.search(owner.gen_token("kw:1"))
    blob = server.snapshot()
    assert [blob.count(fid) for fid in ids] == [1] * len(ids)
    back = CloudServer.restore(blob)
    table = {fid: fid for fid in back.files}  # the table's own id objects
    for entry in back.tbl.values():
        named = [entry.file_id] if isinstance(entry, ChainEntry) else entry.chain
        assert all(fid is table[fid] for fid in named)
    assert sum(isinstance(e, ChainEntry) for e in back.tbl.values()) > 0
    assert len(merged_lists(back)) == 2


def test_previous_snapshot_version_refused():
    owner, server = build()
    ingest(owner, server, 3, lambda i: ["w"])
    blob = server.snapshot()
    assert blob.startswith(b"DSSESR11")
    # DSSESR10 flagged each entry as a chain entry or not and as added
    # since the last refresh or not, and length-prefixed file ids and
    # sigma; DSSESRV9 held the filter's bits where DSSESR10 holds the
    # elements of the last refresh; DSSESRV8 held labels and masks from
    # two PRF calls under each chain key, the keys derived over a hashed
    # input; DSSESRV7 held 48-byte masks
    # (the previous label, its key and gamma) under labels that were PRFs of
    # (keyword, counter), and gammas over result tags that named no place;
    # DSSESRV6 wrote the file table last and each file id in full in every
    # entry and id list; DSSESRV5 held an unblocked filter; DSSESRV4 and
    # DSSESRV3 flagged and length-prefixed the fields the mode and LAMBDA
    # fix, and put the filter before the entries; DSSESRV3 also had filter
    # bits from the older index function
    for magic in (b"DSSESR10", b"DSSESRV9", b"DSSESRV8", b"DSSESRV7", b"DSSESRV6", b"DSSESRV5", b"DSSESRV4", b"DSSESRV3"):
        with pytest.raises(FormatError, match="not a server snapshot"):
            CloudServer.restore(magic + blob[8:])
    # DSSESRV2 had no id-list section (a u64 count, zero here) before the entries
    lists_at = 8 + 1 + 16 + 8 + (1 + 16) + 8  # magic, mode, key, epoch, sigma, t
    lists_at += files_bytes(server)
    assert blob[lists_at : lists_at + 8] == bytes(8)
    v2 = b"DSSESRV2" + blob[8:lists_at] + blob[lists_at + 8 :]
    with pytest.raises(FormatError, match="not a server snapshot"):
        CloudServer.restore(v2)


def filter_at(blob, server):
    """Where the snapshot's filter starts: its header (m, k), then u32 n
    and the n elements of the last refresh end the blob."""
    return len(blob) - len(server.elements) - 12


def assert_restored_filter(back, server):
    assert back.bf == server.bf
    assert (back.sigma, back.t) == (server.sigma, server.t)
    assert CloudServer.get_bloom(back) == CloudServer.get_bloom(server)


def test_a_restored_server_builds_the_live_filter_before_any_refresh():
    owner, server = build()
    ingest(owner, server, 6, lambda i: ["w", f"kw:{i % 3}"])
    server.search(owner.gen_token("w"))
    blob = server.snapshot()
    assert server.elements == b"" and server.refreshed_at == 0
    # no bits: the header and no elements, and every label in the runs since
    assert blob[filter_at(blob, server) :] == struct.pack(">III", server.bf.m, server.bf.k, 0)
    back = CloudServer.restore(blob)
    assert_restored_filter(back, server)
    assert back.refreshed_at == 0 and back.snapshot() == blob


def test_a_restored_server_builds_the_live_filter_after_a_refresh_and_uploads():
    owner, server = build()
    ingest(owner, server, 6, lambda i: ["w", f"kw:{i % 3}"])
    payload = owner.refresh_bloom(NOW + 6 * 600)
    server.refresh(payload)
    ingest(owner, server, 3, lambda i: ["w", "late:1"], start=NOW + 7 * 600)
    server.search(owner.gen_token("w"))  # merges labels from both sides of the refresh
    blob = server.snapshot()
    assert server.elements == payload.elements and payload.n > 0
    tail = struct.pack(">III", server.bf.m, server.bf.k, payload.n) + payload.elements
    assert blob[filter_at(blob, server) :] == tail
    back = CloudServer.restore(blob)
    assert_restored_filter(back, server)
    # the labels since the refresh are again the table's suffix
    since = list(server.tbl)[server.refreshed_at :]
    assert len(since) == 3 * 2 and set(list(back.tbl)[back.refreshed_at :]) == set(since)
    assert back.snapshot() == blob
    # and a restored server keeps them apart through its next upload
    ingest(owner, back, 1, lambda i: ["w"], start=NOW + 10 * 600)
    again = CloudServer.restore(back.snapshot())
    assert_restored_filter(again, back)


def test_restore_refuses_more_than_m_over_k_elements_before_hashing_any(monkeypatch):
    owner, server = build()
    ingest(owner, server, 2, lambda i: ["w"])
    blob = server.snapshot()
    count = server.bf.m // server.bf.k + 1
    rng = random.Random(11)
    elements = b"".join(sorted({rng.randbytes(LAMBDA) for _ in range(count)}))
    assert len(elements) == count * LAMBDA
    data = blob[: filter_at(blob, server) + 8] + struct.pack(">I", count) + elements

    def refuse(*args):
        raise AssertionError("a filter was built")

    monkeypatch.setattr(BloomFilter, "empty", classmethod(refuse))
    monkeypatch.setattr(BloomFilter, "add", refuse)
    with pytest.raises(FormatError, match=f"{count} refresh elements exceed m // k"):
        CloudServer.restore(data)


def test_restore_refuses_unsorted_elements():
    owner, server = build()
    ingest(owner, server, 4, lambda i: ["w", f"kw:{i}"])
    server.refresh(owner.refresh_bloom(NOW + 4 * 600))
    ingest(owner, server, 1, lambda i: ["w"], start=NOW + 5 * 600)
    blob = server.snapshot()
    first, second = server.elements[:LAMBDA], server.elements[LAMBDA : 2 * LAMBDA]
    elements_at = len(blob) - len(server.elements)
    for swapped in (second + first, first + first):
        data = blob[:elements_at] + swapped + blob[elements_at + 2 * LAMBDA :]
        with pytest.raises(FormatError, match="not strictly ascending"):
            CloudServer.restore(data)


def split_runs(blob, server):
    """Where a snapshot's four runs start and end, and each run as the list
    of its fixed-width records: chain, then merged, entries before the last
    refresh, then the same two since."""
    full = server.mode == "full"
    widths = (LAMBDA + mask_width(server.mode) + 4, LAMBDA + 8 + (LAMBDA if full else 0)) * 2
    counts = [0] * 4
    for i, entry in enumerate(server.tbl.values()):
        counts[2 * (i >= server.refreshed_at) + isinstance(entry, MergedEntry)] += 1
    end = filter_at(blob, server) if full else len(blob)
    at = start = end - sum(8 + n * w for n, w in zip(counts, widths))
    runs = []
    for n, w in zip(counts, widths):
        assert blob[at : at + 8] == struct.pack(">Q", n)
        runs.append([blob[at + 8 + i * w : at + 8 + (i + 1) * w] for i in range(n)])
        at += 8 + n * w
    return start, end, runs


def join_runs(runs):
    return b"".join(struct.pack(">Q", len(run)) + b"".join(run) for run in runs)


def test_snapshot_writes_four_sorted_runs_split_at_the_last_refresh():
    owner, server = build()
    ingest(owner, server, 4, lambda i: ["w", f"kw:{i}"])
    server.search(owner.gen_token("w"))
    server.refresh(owner.refresh_bloom(NOW + 4 * 600))
    ingest(owner, server, 3, lambda i: ["w", f"late:{i}"], start=NOW + 5 * 600)
    server.search(owner.gen_token("late:1"))
    blob = server.snapshot()
    start, end, runs = split_runs(blob, server)
    assert blob[start:end] == join_runs(runs)
    assert [len(run) for run in runs] == [4, 4, 5, 1]
    labels = list(server.tbl)
    before, since = set(labels[: server.refreshed_at]), set(labels[server.refreshed_at :])
    for run, side in zip(runs, (before, before, since, since)):
        taus = [record[:LAMBDA] for record in run]
        assert taus == sorted(taus) and set(taus) <= side
    back = CloudServer.restore(blob)
    assert back.refreshed_at == server.refreshed_at and set(back.tbl) == set(server.tbl)
    assert set(list(back.tbl)[back.refreshed_at :]) == since
    assert back.snapshot() == blob


def test_restore_refuses_a_label_in_two_runs():
    owner, server = build()
    ingest(owner, server, 2, lambda i: ["w"])
    server.refresh(owner.refresh_bloom(NOW + 2 * 600))
    ingest(owner, server, 1, lambda i: ["w"], start=NOW + 3 * 600)
    blob = server.snapshot()
    start, end, runs = split_runs(blob, server)
    # the chain entry since the refresh, also among those before it
    moved = runs[2][0]
    runs[0] = sorted(runs[0] + [moved])
    data = blob[:start] + join_runs(runs) + blob[end:]
    with pytest.raises(FormatError, match="index label in two runs") as refused:
        CloudServer.restore(data)
    assert refused.value.offset == data.rindex(moved)
    assert server.snapshot() == blob


def test_restore_refuses_an_entry_before_a_basic_servers_refresh():
    # a basic server never refreshes: every label is in the runs since
    owner, server = build("basic")
    ingest(owner, server, 2, lambda i: ["w"])
    server.search(owner.token_for_counter("w", 1))
    blob = server.snapshot()
    start, end, runs = split_runs(blob, server)
    assert [len(run) for run in runs] == [0, 0, 1, 1]
    assert CloudServer.restore(blob).refreshed_at == 0
    for moved in (2, 3):
        shifted = list(runs)
        shifted[moved - 2], shifted[moved] = runs[moved], []
        data = blob[:start] + join_runs(shifted) + blob[end:]
        with pytest.raises(FormatError, match="an entry before a basic server's refresh") as refused:
            CloudServer.restore(data)
        assert refused.value.offset == data.index(runs[moved][0])


def test_restore_refuses_a_sigma_neither_empty_nor_lambda_bytes():
    # a snapshot whose sigma was rewritten to 100,000 bytes restored, and
    # get_bloom() then served that sigma; sigma is now a presence byte and,
    # when present, LAMBDA bytes
    owner, server = build()
    ingest(owner, server, 2, lambda i: ["w"])
    blob = server.snapshot()
    sigma_at = 8 + 1 + LAMBDA + 8  # magic, mode flag, group key, epoch
    assert blob[sigma_at : sigma_at + 1 + LAMBDA] == b"\x01" + server.sigma
    for flag in (2, 0x80, 0xFF):
        data = blob[:sigma_at] + bytes([flag]) + blob[sigma_at + 1 :]
        with pytest.raises(FormatError, match=f"presence flag {flag}") as refused:
            CloudServer.restore(data)
        assert refused.value.offset == sigma_at
    for cut in range(LAMBDA):
        with pytest.raises(FormatError, match="truncated") as refused:
            CloudServer.restore(blob[: sigma_at + 1 + cut])
        assert refused.value.offset == sigma_at + 1
    # before the first upload sigma is absent
    fresh = CloudServer("full", PARAMS, group_key=owner.keys.r)
    empty = fresh.snapshot()
    assert empty[sigma_at] == 0 and CloudServer.restore(empty).sigma == b""
    assert CloudServer.restore(empty).snapshot() == empty


def test_restore_refuses_a_mode_byte_that_disagrees_with_the_state():
    # a basic server has no filter and no group key; flipped to full mode it
    # would restore a server whose get_bloom() fails outside the error types
    owner, server = build("basic")
    ingest(owner, server, 1, lambda i: ["w"])
    blob = server.snapshot()
    assert blob[8] == 0
    with pytest.raises(FormatError, match="truncated|length prefix too large"):
        CloudServer.restore(blob[:8] + b"\x01" + blob[9:])
    owner, server = build("full")
    ingest(owner, server, 1, lambda i: ["w"])
    blob = server.snapshot()
    assert blob[8] == 1
    with pytest.raises(FormatError, match="truncated|length prefix too large"):
        CloudServer.restore(blob[:8] + b"\x00" + blob[9:])


def test_state_contains_no_keyword_bytes():
    owner, server = build()
    keywords = [f"heartbeat:{60 + i}" for i in range(8)]
    for i in range(8):
        server.add(owner.add_file(f"f{i}".encode(), [keywords[i], "steps:1000"], NOW + i * 600))
    blob = server.snapshot()
    for w in keywords + ["steps:1000", "heartbeat", "steps"]:
        assert w.encode("utf-8") not in blob

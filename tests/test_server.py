import random

import pytest

from dsse.bloom import BloomParams
from dsse.errors import (
    FormatError,
    NotFoundError,
    ProtocolError,
    StaleEpochError,
    UsageError,
)
from dsse.owner import DataOwner
from dsse.protocol import Proof, verify_result
from dsse.server import ChainEntry, CloudServer

NOW = 1_700_000_000
PARAMS = BloomParams(2.0**-30, 20_000)


def build(mode="full"):
    owner = DataOwner.generate(mode, PARAMS)
    server = CloudServer(mode, PARAMS, group_key=owner.keys.r if mode == "full" else None)
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
    before = server.bf.n_inserted
    server.add(payload)
    assert len(server.tbl) == 15
    assert server.bf.n_inserted == before + 15
    assert server.sigma == payload.sigma
    assert server.t == NOW
    assert server.files[payload.file_id] == payload.ciphertext


def test_duplicate_label_rejected():
    owner, server = build()
    payload = owner.add_file(b"f", ["w"], NOW)
    server.add(payload)
    with pytest.raises(ProtocolError):
        server.add(payload)


def test_duplicate_label_within_payload_rejected():
    owner, server = build()
    payload = owner.add_file(b"f", ["w"], NOW)
    payload.entries = payload.entries * 2
    with pytest.raises(ProtocolError):
        server.add(payload)
    assert len(server.tbl) == 0  # nothing applied


def test_non_monotonic_timestamp_rejected():
    owner, server = build()
    server.add(owner.add_file(b"f1", ["w"], NOW))
    late = owner.add_file(b"f2", ["w"], NOW - 600)
    with pytest.raises(ProtocolError):
        server.add(late)


def test_basic_mode_accepts_payload_without_sigma():
    owner, server = build("basic")
    server.add(owner.add_file(b"f", ["w"], NOW))
    assert server.bf is None
    assert server.sigma == b""


def test_full_mode_requires_sigma():
    owner, server = build()
    bare = owner.add_file(b"f", ["w"], NOW, emit_filter_mac=False)
    with pytest.raises(ProtocolError):
        server.add(bare)


def test_mode_mixing_rejected_by_mask_width():
    # a basic owner's 2-lambda masks must not land in a full server's table
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
    rst, proof = server.search(owner.gen_token("w"))
    assert rst == list(reversed(ids))
    assert server.last_search_lookups == 5
    assert proof is not None
    assert proof.gamma == owner.tbl["w"].gamma
    assert proof == Proof(owner.tbl["w"].gamma)  # no filter, sigma or timestamp


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
        rst, _ = server.search(owner.gen_token(w))
        assert rst == list(reversed(expect)), w


def test_repeat_search_costs_one_lookup():
    owner, server = build()
    ingest(owner, server, 4, lambda i: ["w"])
    token = owner.gen_token("w")
    first, _ = server.search(token)
    assert server.last_search_lookups == 4
    second, proof = server.search(token)
    assert server.last_search_lookups == 1
    assert second == first
    # merged entry still carries a verifiable gamma
    report = verify_result(
        owner.keys.k_mac, "w", owner.tbl["w"].cnt, second,
        server.ciphertexts_for(second), proof,
    )
    assert report.ok


def test_incremental_search_costs_d_plus_one():
    for d in (0, 1, 10):
        owner, server = build()
        ingest(owner, server, 7, lambda i: ["w"])
        server.search(owner.gen_token("w"))
        ingest(owner, server, d, lambda i: ["w"], start=NOW + 7 * 600)
        rst, _ = server.search(owner.gen_token("w"))
        assert server.last_search_lookups == d + 1
        assert len(rst) == 7 + d


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
    rst, _ = server.search(fresh_token)
    assert len(rst) == 2


def test_epoch_must_increase():
    owner, server = build()
    with pytest.raises(ProtocolError):
        server.set_group_key(b"\x01" * 16, 1)


def test_refresh_replaces_filter_wholesale():
    owner, server = build()
    ingest(owner, server, 3, lambda i: ["w"])
    from dsse.crypto import chain_label

    tau2 = chain_label(owner.keys.k_prf, "w", 2)
    assert server.bf.verify(tau2)
    payload = owner.refresh_bloom(NOW + 3 * 600)
    server.refresh(payload)
    assert server.bf.serialize() == payload.bf_bytes == owner.bf.serialize()
    assert (server.sigma, server.t) == (payload.sigma, payload.t)
    # membership elements from before the refresh are no longer in the
    # filter, but the table still answers searches
    assert not server.bf.verify(tau2)
    rst, _ = server.search(owner.gen_token("w"))
    assert len(rst) == 3


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
    assert server.get_bloom((t, sigma)) is None
    assert server.get_bloom((t - 600, sigma)) == (bf_bytes, sigma, t)
    # flip_bloom_bit serves other bytes under the same pair
    server.set_adversary("flip_bloom_bit")
    assert server.get_bloom((t, sigma)) is None
    assert server.get_bloom()[0] != bf_bytes
    # stale_bloom keeps answering for its frozen pair after new uploads
    server.set_adversary("stale_bloom")
    ingest(owner, server, 3, lambda i: ["w"], start=NOW + 1200)
    assert (server.t, server.sigma) != (t, sigma)
    assert server.get_bloom((t, sigma)) is None
    assert server.get_bloom((server.t, server.sigma)) == (bf_bytes, sigma, t)


def test_adversary_validation():
    _, server = build()
    with pytest.raises(UsageError):
        server.set_adversary("nope")


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
    rst, _ = back.search(owner.gen_token("shared:1"))
    assert server.last_search_lookups >= 1
    assert len(rst) == 10


def test_previous_snapshot_version_refused():
    owner, server = build()
    ingest(owner, server, 3, lambda i: ["w"])
    blob = server.snapshot()
    assert blob.startswith(b"DSSESRV2")
    # the DSSESRV1 layout: the same fields plus a flag byte after the epoch
    header = 8 + 1 + 1 + (4 + 16) + 8  # magic, mode, key flag, key, epoch
    v1 = b"DSSESRV1" + blob[8:header] + b"\x00" + blob[header:]
    with pytest.raises(FormatError, match="not a server snapshot"):
        CloudServer.restore(v1)


def test_state_contains_no_keyword_bytes():
    owner, server = build()
    keywords = [f"heartbeat:{60 + i}" for i in range(8)]
    for i in range(8):
        server.add(owner.add_file(f"f{i}".encode(), [keywords[i], "steps:1000"], NOW + i * 600))
    blob = server.snapshot()
    for w in keywords + ["steps:1000", "heartbeat", "steps"]:
        assert w.encode("utf-8") not in blob

import json
import os

from dsse.bloom import BloomFilter
from dsse.cli import main
from dsse.crypto import chain_label
from dsse.owner import DataOwner
from dsse.protocol import RefreshPayload, filter_mac
from dsse.wire import WireServer
from dsse.server import CloudServer


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gen_keys_ingest_search_verify(tmp_path, capsys):
    st = str(tmp_path / "st")
    code, out, _ = run(["--state-dir", st, "gen-keys", "--capacity", "20000"], capsys)
    assert code == 0 and "initialized full state" in out
    code, out, _ = run(["--state-dir", st, "ingest", "--n", "120", "--seed", "2"], capsys)
    assert code == 0 and "ingested 120 files" in out

    # pick a keyword that certainly exists
    from dsse.harness.phi import synthesize_stream

    phi = next(iter(synthesize_stream(2, 1)))
    keyword = phi.keywords()[0]

    code, out, _ = run(["--state-dir", st, "search", "--keyword", keyword, "--as", "user"], capsys)
    assert code == 0 and "results for" in out
    code, out, _ = run(["--state-dir", st, "verify"], capsys)
    assert code == 0 and "verification: PASS" in out

    code, out, _ = run(["--state-dir", st, "search", "--keyword", keyword, "--as", "owner"], capsys)
    assert code == 0
    code, out, _ = run(["--state-dir", st, "verify"], capsys)
    assert code == 0 and "verification: PASS" in out


def test_refresh_then_user_search(tmp_path, capsys):
    st = str(tmp_path / "st")
    run(["--state-dir", st, "gen-keys", "--capacity", "20000"], capsys)
    run(["--state-dir", st, "ingest", "--n", "60", "--seed", "3"], capsys)
    code, out, _ = run(["--state-dir", st, "refresh"], capsys)
    assert code == 0 and "filter refreshed" in out
    from dsse.harness.phi import synthesize_stream

    keyword = next(iter(synthesize_stream(3, 1))).keywords()[0]
    code, out, _ = run(["--state-dir", st, "search", "--keyword", keyword], capsys)
    assert code == 0
    code, out, _ = run(["--state-dir", st, "verify"], capsys)
    assert code == 0 and "PASS" in out


def test_user_search_refuses_below_a_false_positive(tmp_path, capsys):
    st = str(tmp_path / "st")
    run(["--state-dir", st, "gen-keys", "--capacity", "20000"], capsys)
    run(["--state-dir", st, "ingest", "--n", "30", "--seed", "7"], capsys)
    from dsse.harness.phi import synthesize_stream

    keyword = next(iter(synthesize_stream(7, 1))).keywords()[0]
    # publish a refreshed filter that falsely holds the keyword's next counter
    owner = DataOwner.load(os.path.join(st, "owner.bin"))
    cnt = owner.tbl[keyword].cnt
    t = json.load(open(os.path.join(st, "meta.json")))["last_t"]
    bf = BloomFilter.deserialize(owner.refresh_bloom(t).bf_bytes)
    bf.add(chain_label(owner.keys.k_prf, keyword, cnt + 1))
    planted = bf.serialize()
    server = CloudServer.load(os.path.join(st, "server.bin"))
    server.refresh(RefreshPayload(planted, filter_mac(owner.keys.k_mac, t, planted), t))
    server.save(os.path.join(st, "server.bin"))

    # the guess has no table entry, and no lower counter is searched
    code, out, err = run(["--state-dir", st, "search", "--keyword", keyword], capsys)
    assert code == 1 and "results" not in out and "unknown index label" in err
    assert not os.path.exists(os.path.join(st, "last_search.json"))


def test_rotate_revokes_user(tmp_path, capsys):
    st = str(tmp_path / "st")
    run(["--state-dir", st, "gen-keys", "--users", "u1,u2", "--capacity", "20000"], capsys)
    run(["--state-dir", st, "ingest", "--n", "30", "--seed", "4"], capsys)
    code, out, _ = run(["--state-dir", st, "rotate", "--revoke", "u2"], capsys)
    assert code == 0 and "epoch now 2" in out
    from dsse.harness.phi import synthesize_stream

    keyword = next(iter(synthesize_stream(4, 1))).keywords()[0]
    code, _, err = run(
        ["--state-dir", st, "search", "--keyword", keyword, "--as", "user", "--user", "u2"],
        capsys,
    )
    assert code == 1 and "epoch" in err
    code, _, _ = run(
        ["--state-dir", st, "search", "--keyword", keyword, "--as", "user", "--user", "u1"],
        capsys,
    )
    assert code == 0
    meta = json.load(open(os.path.join(st, "meta.json")))
    assert meta["users"] == ["u1"] and meta["revoked"] == ["u2"]


def test_basic_mode_has_no_proof(tmp_path, capsys):
    st = str(tmp_path / "st")
    run(["--state-dir", st, "gen-keys", "--mode", "basic"], capsys)
    run(["--state-dir", st, "ingest", "--n", "20", "--seed", "5"], capsys)
    from dsse.harness.phi import synthesize_stream

    keyword = next(iter(synthesize_stream(5, 1))).keywords()[0]
    code, out, _ = run(["--state-dir", st, "search", "--keyword", keyword, "--as", "owner"], capsys)
    assert code == 0
    code, _, err = run(["--state-dir", st, "verify"], capsys)
    assert code == 2 and "basic" in err


def test_scenario_command_writes_records(tmp_path, capsys):
    out_path = str(tmp_path / "records.jsonl")
    code, out, _ = run(
        ["scenario", "--adversary", "forge_gamma", "--n", "100", "--queries", "6",
         "--seed", "1", "--out", out_path],
        capsys,
    )
    assert code == 0
    lines = [json.loads(line) for line in open(out_path)]
    assert lines[-1]["verified_false"] == 6


def test_missing_state_message(tmp_path, capsys):
    code, _, err = run(["--state-dir", str(tmp_path / "nope"), "ingest", "--n", "1"], capsys)
    assert code == 1 and "gen-keys" in err


def test_connect_flag_against_live_server(tmp_path, capsys):
    st = str(tmp_path / "st")
    run(["--state-dir", st, "gen-keys", "--capacity", "20000"], capsys)
    run(["--state-dir", st, "ingest", "--n", "20", "--seed", "6"], capsys)
    server = CloudServer.load(os.path.join(st, "server.bin"))
    ws = WireServer(server)
    ws.start()
    try:
        host, port = ws.address
        code, out, _ = run(
            ["--state-dir", st, "ingest", "--n", "10", "--seed", "6",
             "--connect", f"{host}:{port}"],
            capsys,
        )
        assert code == 0 and "ingested 10 files" in out
        from dsse.harness.phi import synthesize_stream

        keyword = next(iter(synthesize_stream(6, 1))).keywords()[0]
        code, out, _ = run(
            ["--state-dir", st, "search", "--keyword", keyword, "--connect",
             f"{host}:{port}"],
            capsys,
        )
        assert code == 0 and "results for" in out
    finally:
        ws.stop()

import json
import os
import re
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import dsse

from dsse.bloom import BloomFilter
from dsse.cli import main
from dsse.crypto import chain_label
from dsse.errors import ProtocolError, TransportError
from dsse.owner import DataOwner
from dsse.protocol import FilterTags, RefreshPayload
from dsse.wire import Client, WireServer
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


def test_owner_transcript_verifies_after_later_uploads(tmp_path, capsys):
    # the owner's answer is checked at the counter it searched, not at the
    # counter the keyword has reached since
    st = str(tmp_path / "st")
    run(["--state-dir", st, "gen-keys", "--capacity", "20000"], capsys)
    run(["--state-dir", st, "ingest", "--n", "50", "--seed", "1"], capsys)
    keyword = "pulse_oxygen:95"
    code, out, _ = run(["--state-dir", st, "search", "--keyword", keyword, "--as", "owner"], capsys)
    assert code == 0 and "(counter 1)" in out
    run(["--state-dir", st, "ingest", "--n", "200", "--seed", "2"], capsys)
    assert DataOwner.load(os.path.join(st, "owner.bin")).tbl[keyword].cnt > 1
    code, out, _ = run(["--state-dir", st, "verify"], capsys)
    assert code == 0 and "verification: PASS" in out, out


def test_refresh_then_user_search(tmp_path, capsys):
    st = str(tmp_path / "st")
    run(["--state-dir", st, "gen-keys", "--capacity", "20000"], capsys)
    run(["--state-dir", st, "ingest", "--n", "60", "--seed", "3"], capsys)
    code, out, _ = run(["--state-dir", st, "refresh"], capsys)
    assert code == 0 and "filter refreshed" in out
    # n, one digit element per decimal digit of each keyword's counter
    owner = DataOwner.load(os.path.join(st, "owner.bin"))
    n = sum(len(str(rec.cnt)) for rec in owner.tbl.values())
    assert f": {n} elements" in out
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
    t = json.loads(Path(st, "meta.json").read_text())["last_t"]
    refresh = owner.refresh_bloom(t)
    planted = sorted([
        *(refresh.elements[i : i + 16] for i in range(0, len(refresh.elements), 16)),
        chain_label(owner.keys.k_prf, keyword, cnt + 1),
    ])
    bf = BloomFilter(owner.bf.m, owner.bf.k)
    for element in planted:
        bf.add(element)
    server = CloudServer.load(os.path.join(st, "server.bin"))
    sigma = FilterTags(owner.keys.k_mac, bf).sigma(t)
    server.refresh(RefreshPayload(b"".join(planted), sigma, t))
    assert server.bf == bf
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
    meta = json.loads(Path(st, "meta.json").read_text())
    assert meta["users"] == ["u1"] and meta["revoked"] == ["u2"]


def test_verify_loads_the_user_the_search_ran_as(tmp_path, capsys):
    st = str(tmp_path / "st")
    run(["--state-dir", st, "gen-keys", "--users", "u1,u2", "--capacity", "20000"], capsys)
    run(["--state-dir", st, "ingest", "--n", "20", "--seed", "4"], capsys)
    from dsse.harness.phi import synthesize_stream

    keyword = next(iter(synthesize_stream(4, 1))).keywords()[0]
    code, _, _ = run(["--state-dir", st, "search", "--keyword", keyword], capsys)
    assert code == 0
    # the default user ran the search, and the transcript says which one
    transcript = json.loads(Path(st, "last_search.json").read_text())
    assert transcript["user"] == "u1"
    for name in ("u1", "u2"):  # no provisioned user is left to fall back on
        code, _, _ = run(["--state-dir", st, "rotate", "--revoke", name], capsys)
        assert code == 0
    code, out, err = run(["--state-dir", st, "verify"], capsys)
    assert code == 0 and "verification: PASS" in out, err


def _refuse(monkeypatch, method):
    def refused(self, *args):
        raise ProtocolError(f"{method} refused")

    monkeypatch.setattr(CloudServer, method, refused)


def _state(st):
    return {name: Path(st, name).read_bytes() for name in ("owner.bin", "meta.json")}


def test_refused_refresh_leaves_the_owner_as_the_server(tmp_path, capsys, monkeypatch):
    # the owner used to be saved with the refreshed filter the server refused,
    # so the next upload published a filter whose MAC users could not check
    st = str(tmp_path / "st")
    run(["--state-dir", st, "gen-keys", "--capacity", "20000"], capsys)
    run(["--state-dir", st, "ingest", "--n", "30", "--seed", "8"], capsys)
    before = _state(st)
    with monkeypatch.context() as patch:
        _refuse(patch, "refresh")
        code, _, err = run(["--state-dir", st, "refresh"], capsys)
    assert code == 1 and "refresh refused" in err
    assert _state(st) == before
    run(["--state-dir", st, "ingest", "--n", "2"], capsys)
    from dsse.harness.phi import synthesize_stream

    keyword = next(iter(synthesize_stream(8, 1))).keywords()[0]
    code, out, err = run(["--state-dir", st, "search", "--keyword", keyword], capsys)
    assert code == 0 and "results for" in out, err


def test_refused_rotate_keeps_the_epoch_and_a_lost_ack_does_not(tmp_path, capsys, monkeypatch):
    st = str(tmp_path / "st")
    run(["--state-dir", st, "gen-keys", "--users", "u1,u2", "--capacity", "20000"], capsys)
    run(["--state-dir", st, "ingest", "--n", "30", "--seed", "9"], capsys)
    from dsse.harness.phi import synthesize_stream

    keyword = next(iter(synthesize_stream(9, 1))).keywords()[0]
    owner_search = ["--state-dir", st, "search", "--keyword", keyword, "--as", "owner"]
    before = _state(st)
    with monkeypatch.context() as patch:
        _refuse(patch, "set_group_key")
        code, _, err = run(["--state-dir", st, "rotate", "--revoke", "u2"], capsys)
    assert code == 1 and "set_group_key refused" in err
    assert _state(st) == before
    code, _, err = run(owner_search, capsys)
    assert code == 0, err

    # the server took the new key but its ack was lost: the owner keeps it too
    rotate = Client.rotate

    def ack_lost(self, *args):
        rotate(self, *args)
        raise TransportError("connection closed mid-frame")

    with monkeypatch.context() as patch:
        patch.setattr(Client, "rotate", ack_lost)
        code, _, err = run(["--state-dir", st, "rotate", "--revoke", "u2"], capsys)
    assert code == 1 and "mid-frame" in err
    assert DataOwner.load(os.path.join(st, "owner.bin")).keys.epoch == 2
    code, _, err = run(owner_search, capsys)
    assert code == 0, err


def test_meta_carries_no_mode_and_an_older_one_still_loads(tmp_path, capsys):
    st = str(tmp_path / "st")
    run(["--state-dir", st, "gen-keys", "--mode", "basic"], capsys)
    meta_path = os.path.join(st, "meta.json")
    meta = json.loads(Path(meta_path).read_text())
    assert "mode" not in meta  # the owner snapshot's flag is the mode
    meta["mode"] = "basic"
    with open(meta_path, "w") as f:
        json.dump(meta, f)
    code, out, _ = run(["--state-dir", st, "ingest", "--n", "3", "--seed", "5"], capsys)
    assert code == 0 and "ingested 3 files" in out


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
    lines = [json.loads(line) for line in Path(out_path).read_text().splitlines()]
    assert lines[-1]["verified_false"] == 6


def test_missing_state_message(tmp_path, capsys):
    code, _, err = run(["--state-dir", str(tmp_path / "nope"), "ingest", "--n", "1"], capsys)
    assert code == 1 and "gen-keys" in err


@pytest.mark.parametrize("argv", [
    ["ingest", "--n", "2", "--connect", "nohostport"],
    ["ingest", "--n", "2", "--connect", "127.0.0.1:x"],
    ["refresh", "--connect", "127.0.0.1:65536"],
    ["search", "--keyword", "heartbeat:60", "--connect", "127.0.0.1:-1"],
    ["rotate", "--revoke", "u1", "--connect", "127.0.0.1:"],
    ["serve", "--listen", "127.0.0.1"],
])
def test_malformed_host_port_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exited:
        main(argv)
    err = capsys.readouterr().err
    assert exited.value.code == 2
    assert err.startswith("usage: dsse ") and "expected HOST:PORT" in err


@pytest.mark.parametrize("argv", [
    ["ingest", "--n", "0"],
    ["scenario", "--n", "0"],
    ["bench", "--add-files", "0"],
    ["scenario", "--mode", "basic", "--adversary", "drop_result"],
])
def test_bad_counts_and_combinations_are_reported(tmp_path, capsys, argv):
    st = str(tmp_path / "st")
    run(["--state-dir", st, "gen-keys", "--capacity", "2000"], capsys)
    code, _, err = run(["--state-dir", st, *argv], capsys)
    assert code == 1 and err.startswith("error: ")


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


def test_serve_saves_the_uploads_on_sigterm(tmp_path, capsys):
    st = str(tmp_path / "st")
    run(["--state-dir", st, "gen-keys", "--capacity", "2000"], capsys)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(dsse.__file__)))
    serve = subprocess.Popen(
        [sys.executable, "-u", "-m", "dsse.cli", "--state-dir", st,
         "serve", "--listen", "127.0.0.1:0"],
        stdout=subprocess.PIPE, text=True, env=env,
    )
    try:
        address = re.search(r" on (\S+) ", serve.stdout.readline()).group(1)
        code, out, _ = run(["--state-dir", st, "ingest", "--n", "3", "--connect", address], capsys)
        assert code == 0 and "ingested 3 files" in out
        serve.send_signal(signal.SIGTERM)
        assert serve.wait(timeout=60) == 0
    finally:
        if serve.poll() is None:
            serve.kill()
            serve.wait()
        serve.stdout.close()
    owner = DataOwner.load(os.path.join(st, "owner.bin"))
    keyword = max(owner.tbl, key=lambda w: owner.tbl[w].cnt)
    code, out, _ = run(["--state-dir", st, "search", "--as", "owner", "--keyword", keyword], capsys)
    assert code == 0 and f"{owner.tbl[keyword].cnt} results" in out

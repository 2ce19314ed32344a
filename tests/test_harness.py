import json

import pytest

from dsse.bloom import BloomFilter
from dsse.crypto import LAMBDA, chain_label
from dsse.errors import NotFoundError, ProtocolError, TransportError, UsageError
from dsse.harness import bench, scenario
from dsse.harness.bench import bench_search_reply_bytes, linear_fit, long_state_run, run_bench
from dsse.harness.oracle import PlaintextOracle
from dsse.harness.phi import (
    ATTRIBUTES,
    DEFAULT_PERIOD,
    KEYWORD_UNIVERSE_SIZE,
    STREAM_START,
    synthesize_stream,
)
from dsse.harness.scenario import (
    ScenarioConfig,
    SimulatedSystem,
    default_bloom_params,
    run_scenario,
)
from dsse.server import Table


def test_stream_is_deterministic():
    a = [phi.readings for phi in synthesize_stream(3, 50)]
    b = [phi.readings for phi in synthesize_stream(3, 50)]
    assert a == b
    c = [phi.readings for phi in synthesize_stream(4, 50)]
    assert a != c


def test_stream_shape_and_ranges():
    bounds = {name: (lo, hi) for name, lo, hi in ATTRIBUTES}
    for i, phi in enumerate(synthesize_stream(1, 200)):
        assert phi.timestamp == STREAM_START + i * DEFAULT_PERIOD
        assert len(phi.readings) == 15
        assert len(phi.keywords()) == 15
        for name, value in phi.readings.items():
            lo, hi = bounds[name]
            assert lo <= value <= hi


def test_twenty_year_stream_span():
    # 1,051,200 files at one per 600 s cover twenty 365-day years
    n = 1_051_200
    span = (n - 1) * DEFAULT_PERIOD
    assert span == 20 * 365 * 24 * 3600 - DEFAULT_PERIOD
    assert KEYWORD_UNIVERSE_SIZE < 30_000  # bounded universe


def test_force_keyword():
    phi = next(iter(synthesize_stream(1, 1)))
    phi.force_keyword("heartbeat:99")
    assert "heartbeat:99" in phi.keywords()
    with pytest.raises(ValueError):
        phi.force_keyword("nonsense:1")


def test_oracle_newest_first():
    oracle = PlaintextOracle()
    oracle.add(b"1", ["a", "b"])
    oracle.add(b"2", ["a"])
    assert oracle.ids_newest_first("a") == [b"2", b"1"]
    assert oracle.ids_newest_first("b") == [b"1"]
    assert oracle.ids_newest_first("c") == []
    assert oracle.count("a") == 2
    assert oracle.keywords_by_count()[1] == ["b"]


def test_oracle_lockstep_sweep():
    system = SimulatedSystem("full", default_bloom_params(60))
    try:
        system.ingest_stream(seed=2, n_files=60)
        import random

        rng = random.Random(0)
        for w in rng.sample(system.oracle.keywords(), 50):
            record = system.owner_query(w)
            assert record.oracle_match
            assert record.verified
    finally:
        system.close()


def test_honest_scenario_report():
    report = run_scenario(ScenarioConfig(mode="full", n_files=150, n_queries=25, seed=5))
    assert not report.failed
    assert report.n_verified_true == 25
    assert report.n_oracle_match == 25
    lines = report.to_jsonl().strip().splitlines()
    records = [json.loads(line) for line in lines]
    assert records[0]["record"] == "config"
    assert records[-1]["record"] == "summary"
    assert sum(1 for r in records if r["record"] == "query") == 25
    # every answered file arrived once whole, and held from then on
    answered = sum(r.n_results for r in report.records)
    sent, held = report.ciphertexts["sent"], report.ciphertexts["held"]
    assert 0 < sent <= 150 and sent + held == answered
    assert (records[-1]["ciphertexts_sent"], records[-1]["ciphertexts_held"]) == (sent, held)
    assert f"ciphertexts received sent={sent} held={held}" in report.table()


def test_basic_scenario_uses_owner_queries():
    report = run_scenario(ScenarioConfig(mode="basic", n_files=100, n_queries=10, seed=5))
    assert not report.failed
    assert all(r.actor == "owner" for r in report.records)
    assert all(r.verified is None for r in report.records)
    assert report.n_oracle_match == 10


def test_scenario_determinism_modulo_timing():
    config = ScenarioConfig(mode="full", n_files=120, n_queries=15, seed=9)
    a = run_scenario(config)
    b = run_scenario(config)
    assert [r.comparable() for r in a.records] == [r.comparable() for r in b.records]


@pytest.mark.parametrize(
    "adversary",
    ["drop_result", "swap_keyword", "stale_bloom", "flip_bloom_bit", "forge_gamma", "swap_stale"],
)
def test_adversarial_scenarios_detected(adversary):
    report = run_scenario(
        ScenarioConfig(mode="full", n_files=150, n_queries=12, adversary=adversary, seed=5)
    )
    assert not report.failed
    assert report.n_verified_false == len(report.records) >= 12 * 0 + 1


def test_full_corpus_guess_after_refresh():
    # counter recovery across the whole keyword universe of a run, with the
    # filter rebuilt mid-stream so most counters come from digit embeddings
    system = SimulatedSystem("full", default_bloom_params(400))
    try:
        system.ingest_stream(seed=31, n_files=300)
        system.client.refresh(system.owner.refresh_bloom(system.now + 1))
        system.now += 1
        for phi in synthesize_stream(32, 100, start_time=system.now + 600):
            system.add_phi(phi)
        user = system.users[0]
        bf = BloomFilter.deserialize(system.client.get_bloom()[0])
        import random

        for w in random.Random(33).sample(system.oracle.keywords(), 300):
            assert user.guess_counter(bf, w) == system.oracle.count(w), w
    finally:
        system.close()


def test_simulated_system_refuses_an_unknown_transport():
    with pytest.raises(UsageError, match="transport"):
        SimulatedSystem("full", transport="tcp")


def test_simulated_system_stops_its_wire_server_when_connect_fails(monkeypatch):
    started = []

    class RecordedWireServer(scenario.WireServer):
        def start(self):
            super().start()
            started.append(self)

    def refuse(cls, host, port):
        raise TransportError("refused")

    monkeypatch.setattr(scenario, "WireServer", RecordedWireServer)
    monkeypatch.setattr(scenario.Client, "connect", classmethod(refuse))
    with pytest.raises(TransportError):
        SimulatedSystem("full", transport="socket")
    [wire_server] = started
    wire_server._thread.join(timeout=10)
    assert not wire_server._thread.is_alive()


def test_scenario_over_socket_matches_in_process():
    cfg_sock = ScenarioConfig(mode="full", n_files=80, n_queries=10, seed=4, transport="socket")
    cfg_local = ScenarioConfig(mode="full", n_files=80, n_queries=10, seed=4)
    a = run_scenario(cfg_sock)
    b = run_scenario(cfg_local)
    assert not a.failed and not b.failed
    keys = [(r.keyword, r.n_results, r.verified, r.lookups) for r in a.records]
    assert keys == [(r.keyword, r.n_results, r.verified, r.lookups) for r in b.records]
    assert a.ciphertexts == b.ciphertexts


def test_recurring_query_lookup_law():
    system = SimulatedSystem("full", default_bloom_params(300))
    try:
        system.ingest_stream(seed=6, n_files=50)
        keyword = system.oracle.keywords_by_count()[
            max(system.oracle.keywords_by_count())
        ][0]
        first = system.owner_query(keyword)
        assert first.lookups == first.n_results
        for d in (0, 1, 10):
            before = system.oracle.count(keyword)
            if d:
                for phi in synthesize_stream(60 + d, d, start_time=system.now + 600):
                    phi.force_keyword(keyword)
                    system.add_phi(phi)
            again = system.owner_query(keyword)
            assert again.lookups == d + 1
            assert again.n_results == before + d
    finally:
        system.close()


def drop_label(server, label):
    """Rebuild the server's table without label's record, as a server that
    lost it would hold it."""
    tbl, n = server.tbl, server.tbl.find(label)
    assert n >= 0
    server.tbl = Table(tbl.width, server.places, server.lists)
    server.tbl.append_run(tbl.records[: n * tbl.size] + tbl.records[(n + 1) * tbl.size :])


def test_user_query_records_faults_instead_of_raising(caplog):
    system = SimulatedSystem("full", default_bloom_params(60))
    try:
        *stream, last = synthesize_stream(12, 61)
        for phi in stream:
            system.add_phi(phi)
        user = system.users[0]
        keyword = system.oracle.keywords_by_count()[max(system.oracle.keywords_by_count())][0]
        assert system.oracle.count(keyword) >= 3
        # a server that lost an interior entry answers with a broken chain; the
        # table is the server's tau log, so the loss comes before the upload
        # whose version the user fetches. The lost label also leaves the
        # filter's generating set: a whole filter is sent before the loss, so
        # the bits it built hold the label and the user's whole fetch passes
        # sigma
        system.client.get_bloom()
        drop_label(system.server, chain_label(system.owner.keys.k_prf, keyword, 2))
        system.add_phi(last)
        absent = system.user_query(user, "heartbeat:1")
        assert (absent.reason, absent.verified, absent.oracle_match) == ("absent", None, True)
        broken = system.user_query(user, keyword)
        assert (broken.reason, broken.verified) == ("fault:ProtocolError", False)
        assert broken.guessed_count is None and broken.n_results == 0
        with pytest.raises(ProtocolError, match="chain broken"):
            user.query(system.client, keyword, system.now + 60)
        assert "internal error serving" not in caplog.text
    finally:
        system.close()


def test_user_query_records_a_withheld_head_as_not_found(monkeypatch):
    system = SimulatedSystem("full", default_bloom_params(60))
    try:
        system.ingest_stream(seed=12, n_files=60)
        keyword = system.oracle.keywords_by_count()[max(system.oracle.keywords_by_count())][0]
        search = system.server.search
        searched = []

        def withhold_head(envelope):
            searched.append(envelope)
            if len(searched) == 1:
                raise NotFoundError("unknown index label in token")
            return search(envelope)

        monkeypatch.setattr(system.server, "search", withhold_head)
        withheld = system.user_query(system.users[0], keyword)
        assert (withheld.reason, withheld.verified) == ("not-found", False)
        assert withheld.n_results == 0 and len(searched) == 1
    finally:
        system.close()


def _upload_one(system: SimulatedSystem, seed: int) -> int:
    """One more PHI upload after the stream; returns its tau count."""
    phi = next(synthesize_stream(seed, 1, start_time=system.now + 600))
    system.add_phi(phi)
    return len(phi.keywords())


@pytest.mark.parametrize("served", ["full", "delta"])
def test_a_refused_filter_is_not_the_base_of_the_next_fetch(served):
    # the client kept a flipped filter under the honest (t, sigma), so every
    # later fetch was answered NOT_MODIFIED, or with a delta on top of it,
    # and refused, long after the server turned honest again
    system = SimulatedSystem("full", default_bloom_params(80))
    try:
        system.ingest_stream(seed=12, n_files=60)
        user = system.users[0]
        keyword = system.oracle.keywords()[0]
        if served == "delta":  # an honest copy held, then one upload
            assert system.user_query(user, keyword).verified
            _upload_one(system, 13)
        system.server.set_adversary("flip_bloom_bit")
        assert system.user_query(user, keyword).reason == "TamperedFilterError"
        assert system.server.filters_served[served] == 1
        system.server.set_adversary("honest")
        for _ in range(2):
            again = system.user_query(user, keyword)
            assert again.verified and again.oracle_match
    finally:
        system.close()


def test_filters_served_count_deltas_after_the_first_fetch():
    system = SimulatedSystem("full", default_bloom_params(80))
    try:
        system.ingest_stream(seed=14, n_files=40)
        user = system.users[0]
        keywords = system.oracle.keywords()
        assert system.user_query(user, keywords[0]).verified
        taus = 0
        for i in range(5):
            taus += _upload_one(system, 15 + i)
            assert system.user_query(user, keywords[i]).verified
        assert system.user_query(user, keywords[5]).verified
        server = system.server
        assert server.filters_served == {"full": 1, "delta": 5, "not_modified": 1}
        assert server.filter_bytes_served == {
            "full": len(server.bf.serialize()), "delta": taus * LAMBDA
        }
    finally:
        system.close()


def test_a_repeated_search_reply_holds_every_ciphertext():
    reply = bench_search_reply_bytes(10)
    # version, kind, status, u32 list, u32 prefix, u32 n = 0 and the clear
    # gamma flag of basic mode: the repeat names the first answer's id list
    assert reply.repeat == 3 + 3 * 4 + 1
    assert reply.first > reply.repeat + 10 * 4
    # after one upload: that id, its set flag and its length-prefixed ciphertext
    assert reply.after_upload == reply.repeat + 16 + 1 + 4 + reply.new_ciphertext


def test_the_refresh_frame_is_its_elements():
    # version and kind, u32 n, n elements of 16 bytes, a 16-byte sigma,
    # u64 t: nothing of the filter's size
    _, frame, n = bench.bench_refresh(n_files=20, repeats=1)
    assert n > 20 and frame == 30 + 16 * n


def test_linear_fit():
    a, b, r2 = linear_fit([1, 2, 3, 4], [10.2, 19.8, 30.1, 39.9])
    assert abs(b - 9.94) < 0.2
    assert r2 > 0.999


def test_bench_smoke():
    report = run_bench(add_files=40, search_chain=20, verify_counts=[10, 20, 40])
    assert all(report.laws.values()), report.laws
    table = report.table()
    assert "add_file" in table and "190" in table  # reference value printed
    assert "verify_bloom_check" in table
    assert "merged_ids_stored" in table and "server_snapshot" in table
    assert "server_restore" in table
    assert "REFRESH frame" in table
    assert "search_reply_repeat" in table and "search_reply_after_upload" in table
    assert "server_restore_full" in table and "server_snapshot_full" in table
    assert report.laws["stored_merged_ids_linear"]
    jsonl = report.to_jsonl().strip().splitlines()
    assert all(json.loads(line) for line in jsonl)


def test_long_state_run_smoke(monkeypatch):
    # tiny slice of the 20-year run: exercises the refresh cadence and the
    # size accounting without the opt-in cost
    owners = []
    generate = bench.DataOwner.generate
    monkeypatch.setattr(
        bench.DataOwner, "generate", lambda *a: owners.append(generate(*a)) or owners[-1]
    )
    sizes = long_state_run(n_files=400, refresh_every=150, seed=3)
    assert sizes.n_files == 400
    assert sizes.n_keywords == len(set(
        kw for phi in synthesize_stream(3, 400) for kw in phi.keywords()
    ))
    assert sizes.bf_bytes > 1000
    # tbl_bytes is the table section of the owner's snapshot: what is left
    # after the magic, mode flag, keys, epoch and t, and before the filter
    # and the 32-byte digest
    blob = owners[0].snapshot()
    assert sizes.tbl_bytes == len(blob) - (8 + 1 + 4 * LAMBDA + 8 + 8) - sizes.bf_bytes - 32

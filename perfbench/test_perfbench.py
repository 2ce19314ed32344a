"""Self-tests of the benchmark: its correctness gate, its output contract and
its agreement with BENCHMARK.json. Each run here uses tiny episodes."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from metrics import END_TO_END, PER_LAYER, SPAN_SOURCES, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TINY = ["--seed", "5", "--seconds", "0", "--scale", "0.03"]


def _run(*args: str, cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc.returncode, proc.stdout.strip().splitlines()


def _bench() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_matches_catalogue():
    bench = _bench()
    assert set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert {w["name"]: w["why"] for w in bench["workloads"]} == WORKLOADS
    assert all(len(why) <= 200 for why in WORKLOADS.values())
    for m in bench["end_to_end"]:
        unit, better, bound, _ = END_TO_END[m["name"]]
        assert (m["unit"], m["better"], m["bound"]) == (unit, better, bound)
    assert max(bench["end_to_end"], key=lambda m: m["bound"])["name"] == "setup_s"
    assert [m["name"] for m in bench["per_layer"]] == list(PER_LAYER)
    for m in bench["per_layer"]:
        assert m["unit"] == PER_LAYER[m["name"]][0]
    assert set(SPAN_SOURCES) <= set(PER_LAYER)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_untraced_run_reports_every_gated_metric(workload):
    code, lines = _run("--workload", workload, "--trace", "0", *TINY)
    assert code == 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {m["name"] for m in _bench()["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    report = json.loads(lines[-2])
    assert report["end_to_end"]["failed_op_share"]["value"] == 0


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_run_times_each_exercised_layer(workload):
    code, lines = _run("--workload", workload, "--trace", "1", *TINY)
    assert code == 0
    metrics = {k: v["value"] for k, v in json.loads(lines[-1])["metrics"].items()}
    assert set(metrics) == set(PER_LAYER)
    exercised = {"crypto", "owner", "server", "wire"}
    if workload != "basic_recurring":
        exercised |= {"bloom", "protocol"}
    if workload == "hsp_query":
        exercised.add("user")
    for layer in ("crypto", "bloom", "protocol", "owner", "server", "user", "wire"):
        self_ms = sum(v for k, v in metrics.items() if k.startswith(layer + ".") and k.endswith("self_ms"))
        assert (self_ms > 0) == (layer in exercised), layer
    if workload == "basic_recurring":
        assert all(v == 0 for k, v in metrics.items() if k.startswith("bloom."))
        assert metrics["protocol.filter_mac.calls"] == metrics["protocol.filter_mac.self_ms"] == 0
        assert metrics["server.merged_ids_stored"] > 0


def test_gate_counts_every_dropped_result():
    code, lines = _run("--workload", "hsp_query", "--trace", "0", "--adversary", "drop_result", *TINY)
    assert code != 0
    result = json.loads(lines[-1])
    ops = json.loads(lines[-2])["ops"]
    assert not result["correct"]
    assert ops["upload"]["attempted"] > 0 and ops["upload"]["failed"] == 0
    for kind in ("user_query", "owner_query"):
        assert ops[kind]["failed"] == ops[kind]["attempted"] > 0
    assert result["failed"] == ops["user_query"]["attempted"] + ops["owner_query"]["attempted"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = _run("--workload", "hsp_query", "--trace", "0", *TINY, cwd=tmp_path)
    assert code != 0
    assert lines == []

#!/usr/bin/env python3
"""Outside-in benchmark of the dsse three-party system.

Run from the repository root:

    python3 perfbench/run.py --workload hsp_query --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --seed 1          # every workload, untraced and traced

With one workload, the second-to-last line of standard output is the full
report (every metric the workload produced, with unit, direction and sample
count, the workload's why, the layer mapping and the environment) and the
last line is {"correct", "attempted", "failed", "metrics"}, holding the
end-to-end metrics BENCHMARK.json lists (--trace 0) or its per-layer metrics
(--trace 1). The exit code is non-zero if any operation failed a check.

Without --workload, each workload runs in its own process, untraced and then
traced, and a table with the tracing overhead (traced minus untraced) is
printed. The program under test is the dsse package in src/ of the same
checkout; without it the benchmark exits non-zero and prints no result.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPANS_DIR = ROOT / ".perfbench_out"

sys.path.insert(0, str(HERE))
from metrics import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402


def _import_program() -> None:
    """Import dsse from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "dsse" / "__init__.py").is_file():
        sys.exit(f"perfbench: {src / 'dsse'} not found; run from a checkout of the repository")
    sys.path.insert(0, str(src))
    import dsse

    if Path(dsse.__file__).resolve().parent != (src / "dsse").resolve():
        sys.exit(f"perfbench: imported dsse from {dsse.__file__}, not from {src}")


def _steady_allocator() -> str:
    """Serve buffers up to 32 MiB from the heap and never trim it.

    With glibc's default dynamic mmap threshold, the filter-sized buffers
    (4 MB per upload on gateway_ingest) come either from the heap or from
    fresh mappings whose pages fault in, depending on heap history: the same
    upload then takes about 7 or about 14 ms, and which one a run gets
    varies from run to run. Fixing the thresholds keeps every run in the
    heap regime. Returns the setting, for the report.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return "default (no glibc mallopt)"
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    m_trim_threshold, m_mmap_threshold = -1, -3
    if mallopt(m_mmap_threshold, 32 << 20) != 1 or mallopt(m_trim_threshold, 1 << 30) != 1:
        return "default (mallopt refused)"
    return "glibc mmap threshold 32 MiB, trim threshold 1 GiB"


def _gated() -> dict:
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def _environment(seed: int, allocator: str) -> dict:
    import cryptography

    commit = "unknown"  # an exported source tree has no .git
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "commit": commit,
        "python": platform.python_version(),
        "cryptography": cryptography.__version__,
        "nproc": os.cpu_count(),
        "seed": seed,
        "allocator": allocator,
        "cpus": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
    }


def run_one(args: argparse.Namespace) -> int:
    allocator = _steady_allocator()
    _import_program()
    import tracing
    import workloads

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    tally = workloads.run(args.workload, args.seed, args.seconds, args.scale, args.adversary, tracer)

    e2e = tally.end_to_end()
    report = {
        "workload": args.workload,
        "why": WORKLOADS[args.workload],
        "trace": args.trace,
        "environment": _environment(args.seed, allocator),
        "end_to_end": {
            name: {"value": value, "unit": END_TO_END[name][0], "better": END_TO_END[name][1],
                   "samples": samples}
            for name, (value, samples) in e2e.items()
        },
        "ops": {
            kind: {"attempted": len(xs), "failed": tally.op_failures[kind]}
            for kind, xs in tally.latencies.items() if xs
        },
        "attempted": tally.attempted,
        "failed": tally.failed,
        "errors": tally.errors,
    }
    gated = _gated()
    if tracer is None:
        metrics = {m["name"]: {"value": e2e[m["name"]][0], "unit": m["unit"]}
                   for m in gated["end_to_end"]}
    else:
        layer = tally.per_layer(tracer)
        report["per_layer"] = {
            name: {"value": layer[name], "unit": PER_LAYER[name][0], "better": "lower",
                   "samples": tally.ops, "moves": PER_LAYER[name][1]}
            for name in PER_LAYER
        }
        metrics = {m["name"]: {"value": layer[m["name"]], "unit": m["unit"]}
                   for m in gated["per_layer"]}
        SPANS_DIR.mkdir(exist_ok=True)
        tracer.write(str(SPANS_DIR / f"spans-{args.workload}.bin"))
    print(json.dumps(report))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0 if tally.failed == 0 else 1


def run_all(args: argparse.Namespace) -> int:
    """Each workload in a fresh process, untraced then traced."""
    status = 0
    reports = []
    for name in WORKLOADS:
        pair = []
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
                   str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                print(f"{name} trace={trace}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                status = 1
            if len(lines) >= 2:
                pair.append(json.loads(lines[-2]))
        if len(pair) == 2:
            reports.append(pair)
            _print_workload(*pair)
    print(json.dumps({"reports": [r for pair in reports for r in pair]}))
    return status


def _print_workload(plain: dict, traced: dict) -> None:
    print(f"\n== {plain['workload']} ({plain['attempted']} attempted, {plain['failed']} failed)")
    print(f"   {plain['why']}")
    print(f"   {plain['environment']}")
    print(f"   {'metric':24} {'value':>14} {'unit':6} {'better':6} {'samples':>7} {'overhead':>12}")
    for name, m in plain["end_to_end"].items():
        t = traced["end_to_end"].get(name)
        overhead = f"{t['value'] - m['value']:+12.4g}" if t else ""
        print(f"   {name:24} {m['value']:14.6g} {m['unit']:6} {m['better']:6} "
              f"{m['samples']:7d} {overhead}")
    print(f"   {'layer metric':34} {'per op':>12} {'unit':6} moves")
    for name, m in traced["per_layer"].items():
        print(f"   {name:34} {m['value']:12.5g} {m['unit']:6} {m['moves']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=_gated()["run_seconds"],
                        help="timed seconds per run; at least 3 episodes run regardless")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiplies episode sizes; the self-tests run tiny episodes")
    parser.add_argument("--adversary", default="honest",
                        help="server misbehaviour armed for the timed phase (gate self-test)")
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())

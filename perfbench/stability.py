#!/usr/bin/env python3
"""Run-to-run spread of every end-to-end metric, one seed per run.

    python3 perfbench/stability.py --workload hsp_query --runs 10 --out a.json
    python3 perfbench/stability.py --workload hsp_query --runs 10 --against a.json

For each metric the workload reports, prints the median over the runs and
the spread: the distance between the first and third quartiles
(statistics.quantiles, n=4) as a share of the median. A spread is steady
when it is below a third of the metric's bound. With --against, also
prints how much worse this set's median is than the earlier set's, as a
share of the earlier median, which must stay within the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from metrics import END_TO_END, WORKLOADS  # noqa: E402


def collect(workload: str, seeds: list[int], seconds: float) -> dict[str, list[float]]:
    values: dict[str, list[float]] = {}
    for seed in seeds:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
        for name, m in json.loads(lines[-2])["end_to_end"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"  seed {seed} done", file=sys.stderr, flush=True)
    return values


def worse_share(name: str, new: float, old: float) -> float:
    """How much worse new is than old, as a share of old (negative: better)."""
    if END_TO_END[name][1] == "higher":
        return (old - new) / old
    return (new - old) / old


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    run_seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
    parser.add_argument("--seconds", type=float, default=run_seconds)
    parser.add_argument("--out", help="write the per-run values here as JSON")
    parser.add_argument("--against", help="values written by an earlier --out")
    args = parser.parse_args()

    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    values = collect(args.workload, seeds, args.seconds)
    if args.out:
        Path(args.out).write_text(json.dumps(values))
    earlier = json.loads(Path(args.against).read_text()) if args.against else {}

    steady = True
    print(f"{args.workload}: {args.runs} runs, seeds {seeds[0]}..{seeds[-1]}")
    print(f"{'metric':22} {'median':>14} {'spread':>8} {'bound':>6} {'vs earlier':>11}")
    for name, xs in values.items():
        med = statistics.median(xs)
        q1, _, q3 = statistics.quantiles(xs, n=4)
        spread = (q3 - q1) / med if med else 0.0
        bound = END_TO_END[name][2]
        row = f"{name:22} {med:14.6g} {spread:8.4f} {bound if bound is not None else '-':>6}"
        if name in earlier and statistics.median(earlier[name]):
            worse = worse_share(name, med, statistics.median(earlier[name]))
            row += f" {worse:+11.4f}"
            if bound is not None and worse > bound:
                steady = False
                row += "  WORSE THAN BOUND"
        if bound is not None and spread >= bound / 3:
            steady = False
            row += "  SPREAD >= BOUND/3"
        print(row)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())

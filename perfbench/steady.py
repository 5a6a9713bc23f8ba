#!/usr/bin/env python3
"""Steadiness mode: repeat workloads and report each metric's spread.

Usage (from the repository root)::

    python3 perfbench/steady.py --workloads fig5_packet,probe_dense,observed \\
        --seeds 1-10 [--repeat 2] [--trace 0] [--seconds 20]

Runs ``perfbench/run.py`` once per (workload, seed, repeat), one run at a
time, and prints for every metric its median, first and third quartiles
(``statistics.quantiles(values, n=4)``) and relative spread, the quartile
distance as a share of the median.  End-to-end metrics also show their
bound from ``BENCHMARK.json`` and whether the spread is under a third of
it.  With ``--repeat 2`` or more, a metric that reads the same on every
repeat of every seed is marked ``exact``: a count that later changes can
be compared without noise.  Exits 1 if any run fails its checks.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 900


def parse_seeds(text: str) -> List[int]:
    seeds: List[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=RUN_TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if proc.returncode != 0 or not result.get("correct"):
        print(proc.stderr, file=sys.stderr)
        raise SystemExit(f"{workload} seed {seed}: run failed (exit {proc.returncode})")
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="defaults to run_seconds in BENCHMARK.json")
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]

    for workload in args.workloads.split(","):
        values: Dict[str, List[float]] = {}
        units: Dict[str, str] = {}
        exact: Dict[str, bool] = {}
        for seed in parse_seeds(args.seeds):
            per_seed: Dict[str, List[float]] = {}
            for _ in range(args.repeat):
                result = run_once(workload, seed, seconds, args.trace)
                if args.trace == 0:
                    print(f"   {workload} seed {seed}: " + "  ".join(
                        f"{name}={metric['value']:.6g}"
                        for name, metric in result["metrics"].items()
                    ), flush=True)
                for name, metric in result["metrics"].items():
                    values.setdefault(name, []).append(metric["value"])
                    units[name] = metric["unit"]
                    per_seed.setdefault(name, []).append(metric["value"])
            for name, seen in per_seed.items():
                exact[name] = exact.get(name, True) and len(set(seen)) == 1
        print(f"== {workload}: {len(values.get(next(iter(values)), []))} runs, "
              f"seeds {args.seeds}, repeat {args.repeat}, trace {args.trace}")
        print(f"{'metric':<34} {'unit':<6} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8}  note")
        for name, seen in values.items():
            median = statistics.median(seen)
            q1, _, q3 = statistics.quantiles(seen, n=4) if len(seen) > 1 else (
                median, median, median)
            spread = (q3 - q1) / abs(median) if median else 0.0
            notes = []
            if args.repeat > 1 and exact[name]:
                notes.append("exact")
            if name in bounds:
                verdict = "ok" if spread < bounds[name] / 3 else "WIDE"
                notes.append(f"bound {bounds[name]} ({verdict})")
            print(f"{name:<34} {units[name]:<6} {median:>12.6g} {q1:>12.6g} "
                  f"{q3:>12.6g} {spread:>8.3f}  {' '.join(notes)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Run bench/run.py on every workload of BENCHMARK.json for several seeds,
one fresh process per run at `run_seconds`, and summarise each metric per
workload.

    python3 bench/sweep.py --seeds 1-10
    python3 bench/sweep.py --seeds 1-2 --trace 1

For each metric it prints the median over runs, the quartile spread
(Q3-Q1)/median as `statistics.quantiles(values, n=4)` gives the quartiles,
and the bound from BENCHMARK.json; then operations attempted and failed,
and whether every run was correct.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(v) for v in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(v) for v in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(med) if med else float("inf")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    seeds = seed_list(args.seeds)
    for workload in (w["name"] for w in spec["workloads"]):
        results = [run_once(workload, seed, spec["run_seconds"], args.trace)
                   for seed in seeds]
        print(f"\n{workload}: {len(results)} runs, seeds {args.seeds}, "
              f"attempted {sum(r['attempted'] for r in results)}, "
              f"failed {sum(r['failed'] for r in results)}, "
              f"all correct {all(r['correct'] for r in results)}")
        print(f"  {'metric':<28} {'unit':<8} {'median':>12} {'spread':>8} {'bound':>6}")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            unit = results[0]["metrics"][name]["unit"]
            sp = spread(values) if len(values) >= 2 else float("nan")
            bound = bounds.get(name)
            print(f"  {name:<28} {unit:<8} {statistics.median(values):>12.6g} "
                  f"{sp:>8.4f} {'' if bound is None else bound:>6}")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())

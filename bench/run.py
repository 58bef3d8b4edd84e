#!/usr/bin/env python3
"""dwpe benchmark: the simulate -> dereverb -> evaluate chain on the shipped
12-node room, one workload per run, in a fresh process.

    python3 bench/run.py --workload single-m12 --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout; it imports `dwpe` from ./src
and writes only under ./.bench_work, which it removes. It prints a table
(metric, unit, median, samples) and the first round's CD and F-SNR per
node, unprocessed and processed, then as its last line one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end ones; with --trace 1 a traced round gives the
per-layer ones. Metric units come from BENCHMARK.json. Exit code 2 means
the checkout has no program to run.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    from workloads import BLAS_THREADS, SCENARIO, WORKLOADS, pin_blas_threads

    pin_blas_threads()

    args = parse_args(argv, WORKLOADS)
    root = Path(__file__).resolve().parent.parent
    for needed in (root / "src" / "dwpe" / "__init__.py", root / SCENARIO):
        if not needed.is_file():
            print(f"bench: {needed} not found; run from a dwpe source checkout",
                  file=sys.stderr)
            return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    sys.path.insert(0, str(root / "src"))
    import chain

    result = chain.run(WORKLOADS[args.workload], args.seed, args.seconds,
                       bool(args.trace), root)
    for err in result["errors"]:
        print(f"CHECK FAILED: {err}", file=sys.stderr)
    print(f"workload={args.workload} seed={args.seed} blas_threads={BLAS_THREADS} "
          f"attempted={result['attempted']} failed={result['failed']}")
    print(f"{'metric':<28} {'unit':<8} {'median':>14} {'samples':>7}")
    metrics = {}
    for name, (value, samples) in result["values"].items():
        unit = units[name]
        print(f"{name:<28} {unit:<8} {value:>14.6g} {samples:>7d}")
        metrics[name] = {"value": value, "unit": unit}
    print(f"{'quality':<14} {'node':>4} {'cd_db':>8} {'fsnr_db':>8}")
    for row in result["rows"]:
        print(f"{row['mode']:<14} {row['node']:>4} {row['cd']:>8.3f} {row['fsnr']:>8.3f}")
    print(json.dumps({
        "correct": not result["errors"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

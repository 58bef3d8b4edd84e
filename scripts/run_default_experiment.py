#!/usr/bin/env python3
"""End-to-end experiment on the shipped 12-node scenario: simulate, run all
three dereverberation modes at report nodes 0, 3 and 6, evaluate each, and
emit the report tables. Single and distributed mode run at the CLI's
defaults; centralized mode is the equal-size reference, filter order 3 on
all 12 channels (36 unknowns per bin, against 37 at a distributed node),
3 iterations. Each mode's metrics.csv lands in <outdir>/<mode>/.

Runs from a source checkout without an install: it imports `dwpe` from
./src. With the default 6 s of speech it takes about 20 s on a shared 2-core
x86-64 machine (9 s at 1.5 s of speech). Pass an output directory and
optionally a clean-speech duration in seconds:

    python scripts/run_default_experiment.py out/experiment 6.0
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from dwpe.cli import main as cli_main


def main() -> int:
    outdir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("out/experiment")
    duration = sys.argv[2] if len(sys.argv) > 2 else "6.0"
    scenario = ROOT / "scenarios" / "simulated_12node.json"
    simdir = outdir / "sim"

    rc = cli_main([
        "simulate", "--scenario", str(scenario), "--duration", duration,
        "--outdir", str(simdir),
    ])
    if rc:
        return rc

    for mode, extra in [
        ("single", []),
        ("distributed", ["--collab-period", "2"]),
        ("centralized", ["--filter-order", "3", "--max-iters", "3"]),
    ]:
        rundir = outdir / mode
        rc = cli_main([
            "dereverb", "--manifest", str(simdir / "manifest.json"),
            "--mode", mode, "--outdir", str(rundir), *extra,
        ])
        if rc:
            return rc
        rc = cli_main([
            "evaluate", "--manifest", str(simdir / "manifest.json"),
            "--run", str(rundir / "run.json"), "--outdir", str(rundir),
        ])
        if rc:
            return rc

    return cli_main([
        "report", "--filter-order", "26", "--node-counts", "6,9,12",
        "--scenario-name", "simulated", "--outdir", str(outdir / "report"),
    ])


if __name__ == "__main__":
    sys.exit(main())

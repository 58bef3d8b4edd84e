#!/usr/bin/env python3
"""Self-test of the benchmark at reduced size (1 s of speech and fewer
rounds; centralized mode keeps 3 s, since below 312 frames its d=312
problem is underdetermined, and scores node 0 only).

    python3 bench/selftest.py

Checks that every metric named in BENCHMARK.json, and no other, is
reported, untraced and traced (run.py prints each with the unit that
BENCHMARK.json gives it); that the output checks reject a corrupted estimate, a
truncated one, a perturbed single-mode estimate (oracle) and a wrong ledger
total; and that bench/run.py exits non-zero without a result line in a
directory that holds only the benchmark. Takes about a minute.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 1

failures: list[str] = []


def expect(condition: bool, message: str) -> None:
    print(f"{'ok  ' if condition else 'FAIL'} {message}")
    if not condition:
        failures.append(message)


def reduced(wl):
    small = {"single": dict(duration_s=1.0, iterations=2),
             "distributed": dict(duration_s=1.0, iterations=4),
             "centralized": dict(report_nodes=(0,))}[wl.mode]
    return dataclasses.replace(wl, **small)


def check_reports(spec: dict, chain, workloads) -> None:
    for key, trace in (("end_to_end", False), ("per_layer", True)):
        wanted = [m["name"] for m in spec[key]]
        for wl in workloads.WORKLOADS.values():
            result = chain.run(reduced(wl), SEED, 0.0, trace, ROOT)
            expect(sorted(result["values"]) == sorted(wanted),
                   f"{wl.name} trace={int(trace)}: every {key} metric reported")
            expect(not result["errors"] and result["failed"] == 0
                   and result["attempted"] > 0,
                   f"{wl.name} trace={int(trace)}: reduced run passes its checks "
                   f"{result['errors']}")


def check_rejections(chain, checks, workloads) -> None:
    import numpy as np
    from scipy.io import wavfile

    workdir = ROOT / ".bench_work" / f"selftest-{time.time_ns()}"
    try:
        for name in ("single-m12", "distributed-m12"):
            wl = reduced(workloads.WORKLOADS[name])
            ch = chain.Chain(wl, SEED, ROOT, workdir / name)
            ch.setup()
            rnd = ch.round("0")
            simdir = ch.simdir("main")
            bad, errors = checks.check_round(wl, simdir, rnd.rundir, rnd.rows)
            expect(not bad and not errors, f"{name}: untouched outputs pass")

            ledger = rnd.rundir / "transmissions.csv"
            clean_ledger = ledger.read_text()
            ledger.write_text(clean_ledger + f"1,{wl.mode},1,0,1\n")
            _, errors = checks.check_round(wl, simdir, rnd.rundir, rnd.rows)
            expect(any("ledger" in e for e in errors), f"{name}: wrong ledger total rejected")
            ledger.write_text(clean_ledger)

            path = rnd.rundir / "estimate_node00.wav"
            rate, data = wavfile.read(path)
            corrupted = data.copy()
            corrupted[len(data) // 2] = np.nan
            wavfile.write(path, rate, corrupted)
            bad, _ = checks.check_round(wl, simdir, rnd.rundir, rnd.rows)
            expect(bad == {0}, f"{name}: non-finite estimate fails its node")
            wavfile.write(path, rate, data[:-1])
            bad, _ = checks.check_round(wl, simdir, rnd.rundir, rnd.rows)
            expect(bad == {0}, f"{name}: truncated estimate fails its node")

            if wl.mode == "single":
                wavfile.write(path, rate, data)
                expect(checks.check_oracle(wl, simdir, rnd.rundir, 0) is None,
                       f"{name}: estimate matches the independent oracle")
                nudged = data.copy()
                nudged[len(data) // 2] += np.float32(1e-4)
                wavfile.write(path, rate, nudged)
                expect(checks.check_oracle(wl, simdir, rnd.rundir, 0) is not None,
                       f"{name}: perturbed estimate fails the oracle")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def check_empty_checkout() -> None:
    bare = ROOT / ".bench_work" / f"bare-{time.time_ns()}"
    try:
        shutil.copytree(ROOT / "bench", bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "single-m12", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180, check=False,
        )
        expect(proc.returncode != 0 and "{" not in proc.stdout,
               f"bare checkout: exit {proc.returncode}, no result line")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    import workloads

    workloads.pin_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    import chain
    import checks

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect({w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS),
           "BENCHMARK.json names every workload")
    check_reports(spec, chain, workloads)
    check_rejections(chain, checks, workloads)
    check_empty_checkout()
    print(f"\n{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

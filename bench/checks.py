"""Output checks made apart from the program.

They read what `cli.dereverb` and `cli.evaluate` wrote and hold it against
closed forms and properties worked out here, not by the program's own
counting code. Per-node checks decide which operations failed; run-wide
checks (ledger, determinism, oracle) decide whether the run is correct.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np
from scipy.io import wavfile

from workloads import DELAY, FILTER_ORDER, NUM_NODES, Workload
import wpe_oracle

NUM_BINS = wpe_oracle.FRAME_LEN // 2 + 1


def num_frames(num_samples: int) -> int:
    return 1 + math.ceil((num_samples - wpe_oracle.FRAME_LEN) / wpe_oracle.HOP)


def expected_ledger_total(wl: Workload, num_samples: int) -> int:
    """Complex scalars the run must have sent, from M, L, N, K and rounds."""
    per_frame_bin = num_frames(num_samples) * NUM_BINS
    if wl.mode == "distributed":
        broadcast_rounds = wl.iterations // wl.collab_period
        return broadcast_rounds * NUM_NODES * (NUM_NODES - 1) * per_frame_bin
    if wl.mode == "centralized":
        return len(wl.report_nodes) * (NUM_NODES - 1) * FILTER_ORDER * per_frame_bin
    return 0


def ledger_total(rundir: Path) -> int:
    with open(rundir / "transmissions.csv", newline="") as fh:
        return sum(int(row["units"]) for row in csv.DictReader(fh))


def read_wav(path: Path) -> np.ndarray:
    _, data = wavfile.read(path)
    return np.asarray(data, dtype=np.float64)


def check_round(wl: Workload, simdir: Path, rundir: Path,
                rows: list[dict]) -> tuple[set[int], list[str]]:
    """Failed report nodes and run-wide errors of one dereverb+evaluate.

    A node fails when its estimate is missing, non-finite, not as long as
    its observation, or when its processed F-SNR does not beat the
    unprocessed F-SNR.
    """
    manifest = json.loads((simdir / "manifest.json").read_text())
    run_info = json.loads((rundir / "run.json").read_text())
    failed: set[int] = set()
    errors: list[str] = []
    fsnr = {(r["mode"], r["node"]): r["fsnr"] for r in rows}
    obs_len = read_wav(simdir / manifest["observations"][0]).size
    for node in wl.report_nodes:
        name = run_info["estimates"].get(str(node))
        if name is None or not (rundir / name).exists():
            failed.add(node)
            continue
        estimate = read_wav(rundir / name)
        if estimate.size != obs_len or not np.all(np.isfinite(estimate)):
            failed.add(node)
        elif not fsnr.get((wl.mode, node), -math.inf) > fsnr.get(("unprocessed", node), math.inf):
            failed.add(node)
    expected = expected_ledger_total(wl, obs_len)
    total = ledger_total(rundir)
    if total != expected:
        errors.append(f"ledger total {total} != closed form {expected}")
    return failed, errors


def same_estimates(wl: Workload, dir_a: Path, dir_b: Path) -> bool:
    """True when both runs wrote byte-identical estimate files."""
    for node in wl.report_nodes:
        name = f"estimate_node{node:02d}.wav"
        if (dir_a / name).read_bytes() != (dir_b / name).read_bytes():
            return False
    return True


def check_oracle(wl: Workload, simdir: Path, rundir: Path, node: int) -> str | None:
    """Compare one single-mode estimate with the independent oracle.

    The estimate is stored as float32, so it may differ from the float64
    oracle by float32 rounding: two units in the last place at the
    signal's peak.
    """
    manifest = json.loads((simdir / "manifest.json").read_text())
    run_info = json.loads((rundir / "run.json").read_text())
    observation = read_wav(simdir / manifest["observations"][node])
    want = wpe_oracle.single_channel_wpe(
        observation, int(run_info["lags"][node]), DELAY, FILTER_ORDER, wl.iterations,
    )
    got = read_wav(rundir / run_info["estimates"][str(node)])
    tol = 2.0 ** -23 * float(np.max(np.abs(want)))
    err = float(np.max(np.abs(got - want)))
    if not err <= tol:
        return f"oracle mismatch at node {node}: max error {err:.3e} > {tol:.3e}"
    return None

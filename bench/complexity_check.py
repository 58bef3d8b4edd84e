#!/usr/bin/env python3
"""Measured distributed/centralized accumulation cost beside the closed form.

For M = 6, 9, 12 nodes of the shipped room it times one call of
`wpe.normal_equations_all_bins` at the distributed dimension L+M-1 (the
local stream plus M-1 compressed order-1 streams) and one at the
centralized dimension M*L, and prints the measured time ratio beside
`complexity.beta_report(M, L).beta_mul`. A reference command: no bound
gates it.

    python3 bench/complexity_check.py

Input: 3 s of `speech_like(seed=1)`; each time is the median of 3 calls.
"""

from __future__ import annotations

import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DURATION_S = 3.0
SEED = 1
REPEATS = 3


def main() -> int:
    from workloads import DELAY, FILTER_ORDER, SCENARIO, pin_blas_threads

    pin_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    from dwpe import complexity, dsp, netsim, room, signals, wpe

    scenario = room.scenario_from_file(ROOT / SCENARIO)
    clean = signals.speech_like(DURATION_S, scenario.sample_rate, seed=SEED)
    observations = [
        room.render_observation(clean, scenario.sample_rate,
                                room.image_method_rir(scenario, i))
        for i in range(scenario.num_nodes)
    ]
    aligned, _ = netsim.synchronize(observations, 0)
    specs = [dsp.stft(x, dsp.WindowSpec(), scenario.sample_rate).data for x in aligned]
    ref = specs[0]
    sigma = wpe.update_psd(ref, wpe.resolve_psd_floor(ref, None)).values

    def timed(streams) -> float:
        times = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            wpe.normal_equations_all_bins(streams, ref, sigma)
            times.append(time.perf_counter() - t0)
        return statistics.median(times)

    print(f"input: {DURATION_S} s speech_like(seed={SEED}), "
          f"{ref.shape[0]} frames x {ref.shape[1]} bins, L={FILTER_ORDER}, "
          f"median of {REPEATS}, 1 BLAS thread")
    print(f"{'M':>3} {'d_dist':>6} {'d_cent':>6} {'t_dist_s':>10} {'t_cent_s':>10} "
          f"{'measured':>9} {'beta_mul':>9}")
    for m in (6, 9, 12):
        local = (specs[0], FILTER_ORDER, DELAY)
        distributed = [local] + [(specs[j], 1, 0) for j in range(1, m)]
        centralized = [(specs[j], FILTER_ORDER, DELAY) for j in range(m)]
        t_dist, t_cent = timed(distributed), timed(centralized)
        beta = complexity.beta_report(m, FILTER_ORDER).beta_mul
        print(f"{m:>3} {wpe.streams_dim(distributed):>6} {wpe.streams_dim(centralized):>6} "
              f"{t_dist:>10.4f} {t_cent:>10.4f} {t_dist / t_cent:>9.4f} {beta:>9.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

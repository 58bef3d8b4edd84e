"""Benchmark workloads: the shipped 12-node room in each dereverberation mode.

Every workload fixes its iteration (or round) count and sets
convergence_tol=0, so every run does the same work whatever the seed. The
seed only permutes the blocks of the clean utterance (`chain.clean_speech`).

Every workload processes 3 s of speech (372 STFT frames x 257 bins). That
is shorter than a 4 s sizing run because a full measurement, about 70 runs
of 30 s, has to fit in an hour; it is still longer than the 312 unknowns
per bin that centralized mode solves for at M=12 (2 s gives 247 frames and
a processed CD near its 10 dB clamp). For the same reason distributed mode
runs 6 rounds (3 broadcasts) rather than 12. Centralized mode runs one
iteration at each of the CLI's default report nodes 0, 3 and 6: three
d=312 solves, as costly as three iterations at one node; scoring a single
node made `evaluate_s` a 0.2 s phase whose run-to-run spread was 0.31.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

SCENARIO = "scenarios/simulated_12node.json"

# One BLAS thread (no more than nproc): on a shared 2-core host it is
# steadier than two, and only the centralized d=312 solve gains from two.
BLAS_THREADS = "1"
NUM_NODES = 12
FILTER_ORDER = 26
DELAY = 4


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str
    duration_s: float
    iterations: int           # solver iterations, or rounds in distributed mode
    report_nodes: tuple[int, ...]
    evaluations: int          # cli.evaluate calls per round, see below
    collab_period: int = 2


ALL_NODES = tuple(range(NUM_NODES))

# Evaluation is interpreter-bound, and the shared host's speed for such code
# wanders by 20-40 % over tens of seconds, far more than it does for the
# BLAS-bound dereverb. Each round therefore scores its estimates more than
# once where the phase is short, so `evaluate_s` is a median over more
# time. The counts aim at two whole rounds in a 30 s run; a centralized
# round is about half the run, so some runs fit only one.

WORKLOADS = {
    w.name: w
    for w in (
        # many small d=37 per-node solves over 11 compressed streams; the
        # only workload with danse compression and netsim delivery
        Workload("distributed-m12", "distributed", 3.0, 6, ALL_NODES, 1),
        # d=312: largest accumulation, per-bin d^3 solve and memory peak
        Workload("centralized-m12", "centralized", 3.0, 1, (0, 3, 6), 3),
        # 12 independent d=26 solves, no traffic, smallest memory; scoring
        # 24 signals makes evaluation a large share
        Workload("single-m12", "single", 3.0, 6, ALL_NODES, 2),
    )
}


def pin_blas_threads() -> None:
    """Fix the BLAS thread count; call before numpy is first imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS

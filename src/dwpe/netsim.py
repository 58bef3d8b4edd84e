"""Deterministic round-based simulator for a fully-connected node network.

Rounds are synchronous barriers: a round is one map from each broadcasting
node to its payload, so a node sends at most one payload per round; delivery
hands each node the payloads of all other senders by sender id, and no loss
or latency is modeled. The transmission ledger counts complex scalars, the
unit the published transmission figures use.

Each node has its own compute, so map_nodes runs a set of node jobs at the
same time and returns once all have finished: the barrier of a distributed
round, the per-node work of single mode, and the scoring of each node.
Centralized mode, whose one run serves every report node, maps that run's
frequency-bin blocks on it instead; no pool job maps again, so pools never
nest. The jobs spend their
time in numpy and BLAS calls that release the GIL, so they overlap on
separate cores. The pool has min(jobs, usable CPUs // BLAS threads) workers, at
least 1 (worker_count): the BLAS thread count is the first integer among
OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS, and all usable
CPUs when none is set, so an unpinned BLAS, which already fills the cores,
gets one worker.
"""

from __future__ import annotations

import csv
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError

MODES = ("single", "centralized", "distributed")

BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def worker_count(num_jobs: int) -> int:
    """Threads that run num_jobs node jobs: min(num_jobs, usable CPUs //
    BLAS threads), at least 1 (see the module docstring)."""
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        usable = os.cpu_count() or 1
    blas = usable
    for name in BLAS_THREAD_VARIABLES:
        value = os.environ.get(name, "").strip()
        if value.isdigit():
            blas = int(value)
            break
    return max(1, min(num_jobs, usable // max(blas, 1)))


def map_nodes(fn, items) -> list:
    """[fn(item) for item in items], run on worker_count(len(items))
    threads, results in input order: the nodes of a single-mode run, a
    distributed round or a scoring (pipeline.score), or the bin blocks of a
    centralized solve (wpe.solve_weights). A job must not call map_nodes itself. The jobs must
    share no mutable state; then the results do not depend on the number of
    workers. If a job raises, the jobs not yet started are cancelled and the
    first error in input order propagates once the pool's threads have
    finished."""
    items = list(items)
    with ThreadPoolExecutor(max_workers=worker_count(len(items))) as pool:
        return list(pool.map(fn, items))


@dataclass
class TransmissionLedger:
    """Running account of everything sent over the simulated network."""

    mode: str
    rows: list[tuple[int, str, int, int, int]] = field(default_factory=list)

    def record(self, round_index: int, sender: int, recipient: int, units: int) -> None:
        self.rows.append((round_index, self.mode, sender, recipient, units))

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["round", "mode", "from", "to", "units"])
            writer.writerows(self.rows)


def deliver_round(payloads: dict[int, np.ndarray], round_index: int, num_nodes: int,
                  ledger: TransmissionLedger) -> dict[int, dict[int, np.ndarray]]:
    """Deliver one broadcast round, given as each sender's payload.

    Every payload reaches every other node once, and the ledger gets one row
    per (sender, recipient) pair, senders ascending, then recipients
    ascending. Returns each node's received payloads by sender, ascending;
    neither depends on the order of `payloads`.
    """
    for sender in payloads:
        if not (0 <= sender < num_nodes):
            raise InvalidInputError(f"sender {sender} out of range")
    received: dict[int, dict[int, np.ndarray]] = {i: {} for i in range(num_nodes)}
    for sender in sorted(payloads):
        for recipient in (i for i in range(num_nodes) if i != sender):
            received[recipient][sender] = payloads[sender]
            ledger.record(round_index, sender, recipient, payloads[sender].size)
    return received


def count_transmissions(mode: str, num_nodes: int, filter_order: int = 1) -> int:
    """Complex scalars moved per frame per frequency bin in each mode.

    Centralized mode ships every non-reference node's length-L delayed
    vector to the reference; distributed mode moves one compressed scalar
    per neighbor; single-channel moves nothing.
    """
    if num_nodes < 1:
        raise InvalidInputError(f"num_nodes must be >= 1, got {num_nodes}")
    if mode == "single":
        return 0
    if mode == "centralized":
        if filter_order < 1:
            raise InvalidInputError(f"filter_order must be >= 1, got {filter_order}")
        return (num_nodes - 1) * filter_order
    if mode == "distributed":
        return num_nodes - 1
    raise InvalidInputError(f"unknown mode {mode!r}; expected one of {MODES}")


def transmission_reduction(num_nodes: int, filter_order: int) -> float:
    """Fractional saving of distributed over centralized transmission."""
    cent = count_transmissions("centralized", num_nodes, filter_order)
    dist = count_transmissions("distributed", num_nodes)
    if cent == 0:
        raise InvalidInputError("no centralized transmission to reduce (M=1)")
    return 1.0 - dist / cent


def gcc_phat_lag(sig_a: np.ndarray, sig_b: np.ndarray, max_lag: int) -> int:
    """Integer lag maximizing the phase-transform cross-correlation.

    Positive lag means sig_b lags sig_a (sig_b looks like sig_a delayed).
    An all-zero signal, either one, has no delay to measure and gets lag 0.
    """
    a = np.asarray(sig_a, dtype=np.float64)
    b = np.asarray(sig_b, dtype=np.float64)
    if a.size == 0 or b.size == 0:
        raise InvalidInputError("signals must be non-empty")
    if max_lag < 0 or max_lag >= min(a.size, b.size):
        raise InvalidInputError(
            f"max_lag {max_lag} must be in [0, {min(a.size, b.size)})"
        )
    if not np.any(a) or not np.any(b):
        return 0
    n = a.size + b.size
    spec_a = np.fft.rfft(a, n=n)
    spec_b = np.fft.rfft(b, n=n)
    cross = spec_b * spec_a.conj()
    mag = np.abs(cross)
    guard = 1e-12 * mag.max()
    phat = np.where(mag > guard, cross / np.maximum(mag, guard), 0.0)
    cc = np.fft.irfft(phat, n=n)
    lags = np.concatenate([np.arange(-max_lag, 0), np.arange(0, max_lag + 1)])
    window = np.concatenate([cc[-max_lag:] if max_lag else cc[:0], cc[: max_lag + 1]])
    return int(lags[int(np.argmax(window))])


def synchronize(observations: list[np.ndarray],
                reference: int) -> tuple[list[np.ndarray], list[int]]:
    """Align signals to a reference node by their GCC-PHAT lags.

    Each signal is shifted by its measured lag (zero-padded at the displaced
    edge) so that all direct paths line up with the reference. Lags are
    searched up to min(2000, n - 1) samples either way, n the reference
    length. A silent signal, or every signal when the reference is silent,
    gets lag 0 (gcc_phat_lag), so a dead microphone stays in the run as an
    all-zero node.
    """
    if not observations:
        raise InvalidInputError("at least one signal required")
    if not (0 <= reference < len(observations)):
        raise InvalidInputError(f"reference {reference} out of range")
    ref = np.asarray(observations[reference], dtype=np.float64)
    max_lag = min(2000, ref.size - 1)
    lags = [0 if i == reference else gcc_phat_lag(ref, sig, max_lag)
            for i, sig in enumerate(observations)]
    aligned = apply_lags(observations, lags)
    return aligned, lags


def apply_lags(observations: list[np.ndarray], lags: list[int]) -> list[np.ndarray]:
    """Shift each signal left by its lag (right for negative lags)."""
    if len(observations) != len(lags):
        raise InvalidInputError("one lag per signal required")
    out = []
    for sig, lag in zip(observations, lags):
        sig = np.asarray(sig, dtype=np.float64)
        shifted = np.zeros_like(sig)
        if lag >= 0:
            if lag < sig.size:
                shifted[: sig.size - lag] = sig[lag:]
        else:
            if -lag < sig.size:
                shifted[-lag:] = sig[: sig.size + lag]
        out.append(shifted)
    return out

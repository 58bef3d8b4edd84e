"""One in-memory dereverberation run, the same for every mode, and its score.

`run` synchronizes the observations to the reference node, transforms them,
dereverberates in the configured mode and returns the time-domain estimates
of the report nodes, in their order, with the run's ledger and diagnostics.
Every mode treats a silent observation like any other: it gets lag 0, and
the run goes on. `score` rates those
estimates and the unprocessed observations by cepstral distance and
frequency-weighted segmental SNR against each node's clean-plus-early
reference, one node per pool job. Neither reads nor writes a file;
`dwpe.cli` wraps them in WAV/JSON/CSV I/O.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass, field

import numpy as np

from . import danse, metrics, netsim, room, wpe
from .dsp import Spectrogram, WindowSpec, istft, stft
from .errors import (ConfigurationError, InvalidInputError, NumericalError, SolverError,
                     UndefinedMetricError)

# STFT framing of every dereverberation run; part of the fingerprint.
STFT_WINDOW = WindowSpec()


@dataclass
class RunConfig:
    """Everything a dereverberation run depends on."""

    scenario_path: str
    mode: str
    params: wpe.WpeParams = field(default_factory=wpe.WpeParams)
    collab_period: int = 2
    report_nodes: tuple[int, ...] = room.DEFAULT_REPORT_NODES
    outdir: str = "out"
    seed: int = 0
    ref_channel: int = 0

    def __post_init__(self):
        if self.mode not in netsim.MODES:
            raise ConfigurationError(
                f"unknown mode {self.mode!r}; expected {netsim.MODES}"
            )
        if self.mode == "distributed" and self.collab_period < 1:
            raise ConfigurationError(
                f"collab_period must be >= 1 for distributed mode, got {self.collab_period}"
            )
        if not self.report_nodes:
            raise ConfigurationError("at least one report node required")
        if len(set(self.report_nodes)) != len(self.report_nodes):
            raise ConfigurationError(f"duplicate report nodes in {self.report_nodes}")

    def run_params(self) -> dict:
        """Every solver setting of the run: all WpeParams fields plus the
        collaboration period. Recorded in run.json and fingerprinted."""
        return {**asdict(self.params), "collab_period": self.collab_period}

    def fingerprint(self) -> str:
        blob = json.dumps(
            {
                **self.run_params(),
                "scenario": os.path.basename(self.scenario_path),
                "mode": self.mode,
                "frame_len": STFT_WINDOW.frame_len,
                "hop": STFT_WINDOW.hop,
                "seed": self.seed,
                "ref": self.ref_channel,
            },
            sort_keys=True,
        )
        return hashlib.sha1(blob.encode()).hexdigest()[:12]


@dataclass
class RunResult:
    """What one run produced. estimates holds the report nodes in report
    order; psd_floors and traces hold every node that solved: the report
    nodes, or every node in distributed mode, where all nodes run their
    rounds. In centralized mode the report nodes share one trace, their
    one run's."""

    estimates: dict[int, np.ndarray]  # time domain, as long as the observations
    lags: list[int]
    ledger: netsim.TransmissionLedger
    psd_floors: dict[int, float]
    traces: dict[int, wpe.WpeTrace]
    num_frames: int
    unknowns: int  # the most unknowns per bin any node solved

    @property
    def converged(self) -> bool:
        """Every node that solved converged in its last round."""
        return all(trace.converged for trace in self.traces.values())

    @property
    def rounds_run(self) -> int:
        return max(trace.iterations for trace in self.traces.values())

    @property
    def frames_per_unknown(self) -> float:
        return self.num_frames / self.unknowns


def run(observations: list[np.ndarray], sample_rate: int,
        config: RunConfig) -> RunResult:
    """Synchronize, transform and dereverberate in the configured mode.

    Every mode estimates the report nodes; distributed mode runs and traces
    every node but transforms back only the report nodes. Each estimate is
    trimmed to the observation length.
    A delay of at least the STFT frame count is rejected before any solve.
    """
    num_nodes = len(observations)
    for node in config.report_nodes:
        if not (0 <= node < num_nodes):
            raise InvalidInputError(f"report node {node} out of range for {num_nodes} nodes")
    params = config.params
    aligned, lags = netsim.synchronize(observations, config.ref_channel)
    total_len = aligned[0].size
    n_frames, n_bins = STFT_WINDOW.num_frames(total_len), STFT_WINDOW.num_bins
    if params.delay >= n_frames:
        raise ConfigurationError(
            f"delay {params.delay} leaves nothing to predict: the signal has "
            f"{n_frames} STFT frames, and the delay must be below that")

    def to_time(node: int, desired: np.ndarray) -> np.ndarray | None:
        """The node's time-domain estimate; None off the report nodes."""
        if node not in config.report_nodes:
            return None
        return istft(Spectrogram(desired, sample_rate, STFT_WINDOW))[:total_len]

    def finish(node: int, state) -> tuple:
        """The estimate (to_time), trace, PSD floor and unknowns per bin of
        the node's final state, a one-target wpe.WpeResult or a
        danse.NodeState."""
        return (to_time(node, state.desired), state.trace, state.psd_floor,
                state.weights.shape[1])

    def solve(nodes: tuple[int, ...], channels: list[np.ndarray], targets,
              workers: int = 1, map_jobs=map) -> wpe.WpeResult:
        """One WPE run of `targets` for the report nodes `nodes`, which its
        errors name; the run maps its bin blocks with map_jobs on `workers`
        workers."""
        try:
            return wpe.run_wpe(channels, targets, params, workers, map_jobs)
        except (SolverError, NumericalError) as exc:
            named = ", ".join(map(str, nodes))
            raise type(exc)(f"node{'s' * (len(nodes) > 1)} {named}: {exc}") from exc

    ledger = netsim.TransmissionLedger(mode=config.mode)
    if config.mode == "single":
        # one job per report node takes it from signal to estimate, so only
        # the pool workers' spectrograms are live, and no other node is
        # transformed
        done = netsim.map_nodes(
            lambda node: finish(node, solve(
                (node,), [stft(aligned[node], STFT_WINDOW, sample_rate).data], 0)),
            config.report_nodes)
        outputs = dict(zip(config.report_nodes, done))
    else:
        specs = [stft(sig, STFT_WINDOW, sample_rate).data for sig in aligned]
        del aligned  # not needed past the transform; frees M signals before the solves
        if config.mode == "distributed":
            dist = danse.run_distributed(specs, params, collab_period=config.collab_period)
            ledger = dist.ledger
            outputs = {state.node_id: finish(state.node_id, state) for state in dist.nodes}
        else:
            # one MIMO-WPE run estimates every report node from the same
            # gathered streams: one shared PSD, one Gram and one solve per
            # bin block with a right-hand side per node, its bin blocks
            # mapped on the node pool. Each node shares the run's trace
            nodes = config.report_nodes
            result = solve(nodes, specs, nodes, netsim.worker_count(n_bins), netsim.map_nodes)
            outputs = {}
            for node, desired, floor in zip(nodes, result.desired, result.psd_floor):
                outputs[node] = (to_time(node, desired), result.trace, floor,
                                 result.weights.shape[1])
                # every other node ships its delayed-vector stream to this one
                for sender in (i for i in range(num_nodes) if i != node):
                    ledger.record(0, sender, node, params.filter_order * n_frames * n_bins)
    estimates = {node: outputs[node][0] for node in config.report_nodes}
    traces, psd_floors, unknowns = (
        {node: out[i] for node, out in outputs.items()} for i in (1, 2, 3))
    return RunResult(estimates, lags, ledger, psd_floors, traces, n_frames,
                     max(unknowns.values()))


def score(clean: np.ndarray, rirs, observations, estimates: dict[int, np.ndarray],
          lags: list[int], early_boundary: int, sample_rate: int
          ) -> dict[int, tuple[tuple[float, float], tuple[float, float]]]:
    """(CD, F-SNR) of the lag-aligned observation and of the estimate, in
    that order, for every node of `estimates`, in its order.

    rirs (room.ImpulseResponse), observations and lags are indexed by node.
    A node's reference is the clean signal through the first
    `early_boundary` taps of its RIR (room.early_reference), shifted by the
    node's lag like its observation, since `run` estimates from the
    synchronized observations. Each pair is scored over the shorter of the
    reference and the scored signal. Each node is one `netsim.map_nodes`
    job, which scores both signals against one `metrics.Reference` of its
    reference (one per scored length). A metric error names the node and
    the signal; the first failing node's, in node order, propagates.
    """
    def node_scores(node: int) -> tuple[tuple[float, float], tuple[float, float]]:
        early = room.early_reference(clean, rirs[node], early_boundary)
        reference, observation = netsim.apply_lags(
            [early, observations[node]], [lags[node]] * 2)
        halves: dict[int, metrics.Reference] = {}  # by scored length

        def pair(name: str, signal: np.ndarray) -> tuple[float, float]:
            n = min(reference.size, signal.size)
            try:
                if n not in halves:
                    halves[n] = metrics.Reference(reference[:n], sample_rate)
                return (metrics.cepstral_distance(halves[n], signal[:n], sample_rate),
                        metrics.fw_segmental_snr(halves[n], signal[:n], sample_rate))
            except (InvalidInputError, UndefinedMetricError) as exc:
                raise type(exc)(f"node {node} {name}: {exc}") from exc

        return pair("observation", observation), pair("estimate", estimates[node])

    return dict(zip(estimates, netsim.map_nodes(node_scores, estimates)))

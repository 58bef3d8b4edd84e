"""Command-line front door: simulate, dereverb, evaluate, report.

All outputs are deterministic functions of (config, seed). Every CSV row
carries the scenario name, mode and a parameter fingerprint. Exit codes:
0 success, 2 configuration/input error, 3 I/O error, 4 numerical failure.

The output directory can be overridden with the DWPE_OUTDIR environment
variable when --outdir is not given.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np
from scipy.io import wavfile

from . import complexity, danse, netsim, room, wpe
from .dsp import Spectrogram, WindowSpec, istft, stft
from .errors import (
    ConfigurationError,
    DwpeError,
    InvalidInputError,
    NumericalError,
    SolverError,
)
from .metrics import cepstral_distance, fw_segmental_snr
from .signals import speech_like

# STFT framing of every dereverberation run; part of the fingerprint.
STFT_WINDOW = WindowSpec()

# Frames per unknown below which dereverb warns: a per-bin fit this close
# to square absorbs the desired speech into the prediction.
MIN_FRAMES_PER_UNKNOWN = 2.0


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
                "window_kind": STFT_WINDOW.window_kind,
                "seed": self.seed,
                "ref": self.ref_channel,
            },
            sort_keys=True,
        )
        return hashlib.sha1(blob.encode()).hexdigest()[:12]


def read_wav(path) -> tuple[int, np.ndarray]:
    rate, data = wavfile.read(path)
    if data.ndim != 1:
        raise InvalidInputError(f"{path}: expected mono audio, got shape {data.shape}")
    if data.dtype == np.int16:
        data = data.astype(np.float64) / 32768.0
    elif data.dtype == np.int32:
        data = data.astype(np.float64) / 2147483648.0
    else:
        data = data.astype(np.float64)
    return int(rate), data


def write_wav(path, rate: int, data: np.ndarray) -> None:
    wavfile.write(path, rate, np.asarray(data, dtype=np.float32))


def _resolve_outdir(given: str | None, fallback: str) -> Path:
    out = Path(given or os.environ.get("DWPE_OUTDIR") or fallback)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def simulate(scenario: room.RoomScenario, clean: np.ndarray, outdir: Path,
             seed: int = 0, scenario_path: str = "") -> dict:
    """Render one reverberant observation per node and dump the RIRs.

    Returns the manifest dictionary (also written to manifest.json).
    """
    fs = scenario.sample_rate
    obs_paths, rir_paths = [], []
    t60_estimates = []
    for i in range(scenario.num_nodes):
        rir = room.image_method_rir(scenario, i)
        observation = room.render_observation(clean, fs, rir)
        obs_name = f"observation_{i:02d}.wav"
        rir_name = f"rir_{i:02d}.wav"
        write_wav(outdir / obs_name, fs, observation)
        write_wav(outdir / rir_name, fs, rir.taps)
        obs_paths.append(obs_name)
        rir_paths.append(rir_name)
        t60_estimates.append(room.estimate_t60(rir))
    write_wav(outdir / "clean.wav", fs, clean)
    manifest = {
        "scenario_name": scenario.name,
        "scenario_path": str(scenario_path),
        "num_nodes": scenario.num_nodes,
        "sample_rate": fs,
        "clean": "clean.wav",
        "observations": obs_paths,
        "rirs": rir_paths,
        "t60_target": scenario.t60,
        "t60_estimate": float(np.mean(t60_estimates)),
        "seed": seed,
    }
    (outdir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    return manifest


def cmd_simulate(args) -> int:
    outdir = _resolve_outdir(args.outdir, "out/simulate")
    scenario = room.scenario_from_file(args.scenario)
    if args.clean:
        rate, clean = read_wav(args.clean)
        if rate != scenario.sample_rate:
            raise InvalidInputError(
                f"clean audio at {rate} Hz but scenario expects {scenario.sample_rate} Hz"
            )
    else:
        clean = speech_like(args.duration, scenario.sample_rate, seed=args.seed)
    simulate(scenario, clean, outdir, seed=args.seed, scenario_path=args.scenario)
    print(f"wrote {scenario.num_nodes} observations to {outdir}")
    return 0


# ---------------------------------------------------------------------------
# dereverb
# ---------------------------------------------------------------------------

def _load_observations(manifest: dict, manifest_dir: Path) -> tuple[int, list[np.ndarray]]:
    fs = int(manifest["sample_rate"])
    signals = []
    for name in manifest["observations"]:
        rate, data = read_wav(manifest_dir / name)
        if rate != fs:
            raise InvalidInputError(f"{name}: sample rate {rate} != manifest {fs}")
        signals.append(data)
    return fs, signals


def dereverb(config: RunConfig, manifest: dict, manifest_dir: Path,
             outdir: Path) -> dict:
    """Synchronize, transform, dereverberate in the configured mode, and
    write per-node estimates plus trace and transmission ledger."""
    fs, observations = _load_observations(manifest, manifest_dir)
    num_nodes = len(observations)
    for node in config.report_nodes:
        if not (0 <= node < num_nodes):
            raise InvalidInputError(f"report node {node} out of range for {num_nodes} nodes")
    aligned, lags = netsim.synchronize(observations, config.ref_channel)
    specs = [stft(sig, STFT_WINDOW, fs) for sig in aligned]
    n_frames, n_bins = specs[0].num_frames, specs[0].num_bins
    total_len = aligned[0].size
    # unknowns per bin of one solve, which fits them to n_frames frames
    unknowns = {
        "single": config.params.filter_order,
        "centralized": complexity.centralized_filter_dimension(
            num_nodes, config.params.filter_order),
        "distributed": complexity.distributed_filter_dimension(
            num_nodes, config.params.filter_order),
    }[config.mode]
    frames_per_unknown = n_frames / unknowns
    if frames_per_unknown < MIN_FRAMES_PER_UNKNOWN:
        print(
            f"warning: {config.mode} mode fits {unknowns} unknowns per bin to "
            f"{n_frames} frames ({frames_per_unknown:.2f} frames per unknown); "
            f"the prediction may absorb the desired speech",
            file=sys.stderr,
        )

    estimates: dict[int, str] = {}
    psd_floors: dict[str, float] = {}
    run_info: dict = {
        "mode": config.mode,
        "scenario_name": manifest["scenario_name"],
        "num_nodes": num_nodes,
        "sample_rate": fs,
        "lags": lags,
        "report_nodes": list(config.report_nodes),
        "params": config.run_params(),
        "window": {"frame_len": STFT_WINDOW.frame_len, "hop": STFT_WINDOW.hop},
        "fingerprint": config.fingerprint(),
        "frames_per_unknown": frames_per_unknown,
    }

    def emit(node: int, desired: Spectrogram) -> None:
        estimate = istft(desired)[:total_len]
        name = f"estimate_node{node:02d}.wav"
        write_wav(outdir / name, fs, estimate)
        estimates[node] = name

    def run_node(channels, ref, node, gram=None):
        try:
            return wpe.run_wpe(channels, ref, config.params, gram)
        except (SolverError, NumericalError) as exc:
            raise type(exc)(f"node {node}: {exc}") from exc

    if config.mode == "single":
        ledger = netsim.TransmissionLedger(mode="single")
        converged = []
        for node in config.report_nodes:
            result = run_node([specs[node]], 0, node)
            emit(node, result.desired)
            psd_floors[str(node)] = result.psd_floor
            converged.append(result.trace.converged)
        run_info["converged"] = all(converged)
    elif config.mode == "centralized":
        ledger = netsim.TransmissionLedger(mode="centralized")
        converged = []
        # every report node predicts from the same gathered streams, so they
        # share one Gram C; only g follows the reference
        gram = wpe.GramCache()
        for node in config.report_nodes:
            result = run_node(specs, node, node, gram)
            emit(node, result.desired)
            psd_floors[str(node)] = result.psd_floor
            converged.append(result.trace.converged)
            for sender in range(num_nodes):
                if sender != node:
                    ledger.record(0, sender, node,
                                  config.params.filter_order * n_frames * n_bins)
        run_info["converged"] = all(converged)
    else:
        result = danse.run_distributed(
            specs, config.params, collab_period=config.collab_period,
        )
        ledger = result.ledger
        for node in range(num_nodes):
            emit(node, result.desired[node])
            psd_floors[str(node)] = result.nodes[node].psd_floor
        result.trace.to_csv(outdir / "convergence.csv")
        run_info["rounds_run"] = result.rounds_run
        run_info["converged"] = result.converged

    if not run_info["converged"]:
        print(
            f"warning: {config.mode} run did not reach the convergence "
            f"tolerance within max_iters; outputs written anyway",
            file=sys.stderr,
        )

    ledger.to_csv(outdir / "transmissions.csv")
    run_info["per_frame_bin_transmissions"] = netsim.count_transmissions(
        config.mode, num_nodes, config.params.filter_order
    )
    run_info["estimates"] = {str(k): v for k, v in estimates.items()}
    run_info["psd_floors"] = psd_floors
    (outdir / "run.json").write_text(json.dumps(run_info, indent=2) + "\n")
    return run_info


def _params_from_args(args) -> wpe.WpeParams:
    max_iters = args.max_iters
    if max_iters is None:
        max_iters = 24 if args.mode == "distributed" else 6
    return wpe.WpeParams(
        delay=args.delay,
        filter_order=args.filter_order,
        psd_floor=args.psd_floor,
        max_iters=max_iters,
        convergence_tol=args.convergence_tol,
    )


def cmd_dereverb(args) -> int:
    outdir = _resolve_outdir(args.outdir, "out/dereverb")
    manifest_path = Path(args.manifest)
    manifest = json.loads(manifest_path.read_text())
    if args.nodes is None:
        num_nodes = int(manifest["num_nodes"])
        nodes = tuple(n for n in room.DEFAULT_REPORT_NODES if n < num_nodes) or (0,)
    else:
        nodes = tuple(int(v) for v in args.nodes.split(","))
    config = RunConfig(
        scenario_path=manifest.get("scenario_path", ""),
        mode=args.mode,
        params=_params_from_args(args),
        collab_period=args.collab_period,
        report_nodes=nodes,
        outdir=str(outdir),
        seed=args.seed,
        ref_channel=args.ref,
    )
    info = dereverb(config, manifest, manifest_path.parent, outdir)
    print(f"mode={info['mode']} estimates={len(info['estimates'])} outdir={outdir}")
    return 0


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

def evaluate(manifest: dict, manifest_dir: Path, run_info: dict, run_dir: Path,
             outdir: Path, early_boundary: int | None = None) -> list[dict]:
    """Score unprocessed observations and the run's estimates against the
    clean-plus-early-reflections reference of every reported node."""
    fs, observations = _load_observations(manifest, manifest_dir)
    _, clean = read_wav(manifest_dir / manifest["clean"])
    lags = run_info["lags"]
    if early_boundary is None:
        early_boundary = run_info["params"]["delay"] * run_info["window"]["hop"]

    references = []
    for name in manifest["rirs"]:
        _, taps = read_wav(manifest_dir / name)
        rir = room.ImpulseResponse(taps=np.asarray(taps, dtype=np.float64), sample_rate=fs)
        if early_boundary < len(rir):
            early, _ = room.split_early_late(rir, early_boundary)
        else:
            early = rir  # RIR shorter than the boundary: all of it is early
        references.append(room.render_observation(clean, fs, early))
    references = netsim.apply_lags(references, lags)
    aligned_obs = netsim.apply_lags(observations, lags)

    nodes = sorted(int(k) for k in run_info["estimates"])
    rows = []

    def score(mode: str, node: int, estimate: np.ndarray) -> dict:
        ref = references[node]
        n = min(ref.size, estimate.size)
        if n == 0:
            raise InvalidInputError(f"node {node}: empty signals after alignment")
        return {
            "scenario": manifest["scenario_name"],
            "mode": mode,
            "node": node,
            "cd": cepstral_distance(ref[:n], estimate[:n], fs),
            "fsnr": fw_segmental_snr(ref[:n], estimate[:n], fs),
            "fingerprint": run_info["fingerprint"],
        }

    for node in nodes:
        rows.append(score("unprocessed", node, aligned_obs[node]))
    for node in nodes:
        _, estimate = read_wav(run_dir / run_info["estimates"][str(node)])
        rows.append(score(run_info["mode"], node, estimate))

    for mode in ("unprocessed", run_info["mode"]):
        mode_rows = [r for r in rows if r["mode"] == mode]
        rows.append({
            "scenario": manifest["scenario_name"],
            "mode": mode,
            "node": "mean",
            "cd": float(np.mean([r["cd"] for r in mode_rows])),
            "fsnr": float(np.mean([r["fsnr"] for r in mode_rows])),
            "fingerprint": run_info["fingerprint"],
        })

    with open(outdir / "metrics.csv", "w", newline="") as fh:
        writer = csv.DictWriter(
            fh, fieldnames=["scenario", "mode", "node", "cd", "fsnr", "fingerprint"]
        )
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
    return rows


def cmd_evaluate(args) -> int:
    outdir = _resolve_outdir(args.outdir, "out/evaluate")
    manifest_path = Path(args.manifest)
    manifest = json.loads(manifest_path.read_text())
    run_path = Path(args.run)
    run_info = json.loads(run_path.read_text())
    boundary = None
    if args.early_ms is not None:
        boundary = int(round(args.early_ms * manifest["sample_rate"] / 1000.0))
    rows = evaluate(manifest, manifest_path.parent, run_info, run_path.parent,
                    outdir, early_boundary=boundary)
    for row in rows:
        print(f"{row['mode']:>12} node {row['node']}: "
              f"CD {row['cd']:.3f} dB, F-SNR {row['fsnr']:.3f} dB")
    return 0


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def report_tables(outdir: Path, filter_order: int, node_counts: list[int],
                  scenario: str) -> None:
    """Closed-form transmission and complexity tables (no audio needed)."""
    with open(outdir / "transmissions_table.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["scenario", "num_nodes", "filter_order", "mode",
                         "per_frame_bin_transmissions"])
        for m in node_counts:
            for mode in netsim.MODES:
                writer.writerow([
                    scenario, m, filter_order, mode,
                    netsim.count_transmissions(mode, m, filter_order),
                ])
    with open(outdir / "reductions.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["scenario", "num_nodes", "filter_order",
                         "reduction_percent"])
        for m in node_counts:
            writer.writerow([
                scenario, m, filter_order,
                repr(100.0 * netsim.transmission_reduction(m, filter_order)),
            ])
    complexity.beta_table_csv(outdir / "betas.csv", filter_order, node_counts,
                              scenario=scenario)


def cmd_report(args) -> int:
    outdir = _resolve_outdir(args.outdir, "out/report")
    node_counts = [int(v) for v in args.node_counts.split(",")]
    report_tables(outdir, args.filter_order, node_counts, args.scenario_name)
    if args.run:
        run_dir = Path(args.run).parent
        trace = run_dir / "convergence.csv"
        if trace.exists():
            (outdir / "convergence.csv").write_text(trace.read_text())
    print(f"wrote closed-form tables to {outdir}")
    return 0


# ---------------------------------------------------------------------------
# parser / entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dwpe",
        description="Centralized and distributed WPE dereverberation over a "
                    "simulated microphone-node network",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="render reverberant observations")
    sim.add_argument("--scenario", required=True, help="scenario JSON file")
    sim.add_argument("--clean", default=None, help="clean WAV (default: synthetic)")
    sim.add_argument("--duration", type=float, default=8.0,
                     help="synthetic clean duration in seconds")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--outdir", default=None)
    sim.set_defaults(func=cmd_simulate)

    der = sub.add_parser("dereverb", help="run a dereverberation mode")
    der.add_argument("--manifest", required=True, help="manifest.json from simulate")
    der.add_argument("--mode", required=True, choices=netsim.MODES)
    der.add_argument("--filter-order", type=int, default=26)
    der.add_argument("--delay", type=int, default=4)
    der.add_argument("--psd-floor", type=float, default=None)
    der.add_argument("--max-iters", type=int, default=None,
                     help="default 6 (single/centralized) or 24 (distributed)")
    der.add_argument("--convergence-tol", type=float, default=1e-4)
    der.add_argument("--collab-period", type=int, default=2)
    der.add_argument("--nodes", default=None,
                     help="report nodes, comma separated (default: 0,3,6 "
                          "clipped to the network size)")
    der.add_argument("--ref", type=int, default=0, help="synchronization reference node")
    der.add_argument("--seed", type=int, default=0)
    der.add_argument("--outdir", default=None)
    der.set_defaults(func=cmd_dereverb)

    ev = sub.add_parser("evaluate", help="score estimates against references")
    ev.add_argument("--manifest", required=True)
    ev.add_argument("--run", required=True, help="run.json from dereverb")
    ev.add_argument("--early-ms", type=float, default=None,
                    help="early/late RIR boundary in ms (default: delay * hop)")
    ev.add_argument("--outdir", default=None)
    ev.set_defaults(func=cmd_evaluate)

    rep = sub.add_parser("report", help="closed-form transmission/complexity tables")
    rep.add_argument("--filter-order", type=int, required=True)
    rep.add_argument("--node-counts", required=True, help="e.g. 6,9,12")
    rep.add_argument("--scenario-name", default="scenario")
    rep.add_argument("--run", default=None, help="run.json to pull convergence from")
    rep.add_argument("--outdir", default=None)
    rep.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SolverError, NumericalError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 3
    except DwpeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front door: simulate, dereverb, evaluate, report.

The verbs are file I/O around the library: `dereverb` reads the simulated
observation WAVs, runs `pipeline.run` and writes its estimates, run.json,
the transmission ledger and the convergence trace; `evaluate` reads them
back with the simulated observations, RIRs and clean source, runs
`pipeline.score` and writes metrics.csv.

All outputs are deterministic functions of (config, seed); `dereverb`
fingerprints the seed that `simulate` recorded in the manifest. Every CSV row
carries the scenario name, mode and a parameter fingerprint. Exit codes:
0 success, 2 configuration/input error, 3 I/O error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np
from scipy.io import wavfile

from . import complexity, netsim, pipeline, room, wpe
from .errors import ConfigurationError, DwpeError, InvalidInputError, NumericalError, SolverError
from .pipeline import STFT_WINDOW, RunConfig
from .signals import speech_like

# Frames per unknown below which dereverb warns: a per-bin fit this close
# to square absorbs the desired speech into the prediction.
MIN_FRAMES_PER_UNKNOWN = 2.0


def read_wav(path) -> tuple[int, np.ndarray]:
    """Sample rate and mono samples as float64, integer PCM scaled to full
    scale 1; a non-finite sample is an input error naming the file."""
    rate, data = wavfile.read(path)
    if data.ndim != 1:
        raise InvalidInputError(f"{path}: expected mono audio, got shape {data.shape}")
    if data.dtype == np.uint8:  # 8-bit PCM is unsigned, centred on 128
        data = (data.astype(np.float64) - 128.0) / 128.0
    elif data.dtype == np.int16:
        data = data.astype(np.float64) / 32768.0
    elif data.dtype == np.int32:
        data = data.astype(np.float64) / 2147483648.0
    else:
        data = data.astype(np.float64)
    if not np.all(np.isfinite(data)):
        raise InvalidInputError(f"{path}: contains non-finite samples")
    return int(rate), data


def write_wav(path, rate: int, data: np.ndarray) -> None:
    wavfile.write(path, rate, np.asarray(data, dtype=np.float32))


def _resolve_outdir(given: str | None, fallback: str) -> Path:
    out = Path(given or fallback)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# What the verbs read from manifest.json and run.json, by kind: a
# description for the error message and its check.
INT = ("an integer", _is_int)
STR = ("a string", lambda v: isinstance(v, str))
NAMES = ("a list of strings",
         lambda v: isinstance(v, list) and all(isinstance(x, str) for x in v))
INTS = ("a list of integers", lambda v: isinstance(v, list) and all(map(_is_int, v)))
NAME_MAP = ("an object of strings",
            lambda v: isinstance(v, dict) and all(isinstance(x, str) for x in v.values()))


def _read_json(path: Path, schema: dict[str, tuple]) -> dict:
    """The JSON object in `path`, with every dotted key of `schema` present
    and of its kind."""
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigurationError(f"{path} must hold a JSON object")
    for key, (kind, check) in schema.items():
        value = data
        for part in key.split("."):
            if not isinstance(value, dict) or part not in value:
                raise ConfigurationError(f"{path} missing key {key!r}")
            value = value[part]
        if not check(value):
            raise ConfigurationError(
                f"{path}: {key!r} must be {kind}, got {type(value).__name__}")
    return data


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def simulate(scenario: room.RoomScenario, clean: np.ndarray, outdir: Path,
             seed: int = 0, scenario_path: str = "") -> dict:
    """Render one reverberant observation per node and dump the RIRs.

    Each node is one `netsim.map_nodes` job: its RIR, its observation, both
    WAVs and its T60 estimate. Returns the manifest dictionary (also
    written to manifest.json).
    """
    fs = scenario.sample_rate

    def node_setup(node: int) -> float:
        rir = room.image_method_rir(scenario, node)
        write_wav(outdir / f"observation_{node:02d}.wav", fs,
                  room.render_observation(clean, fs, rir))
        write_wav(outdir / f"rir_{node:02d}.wav", fs, rir.taps)
        return room.estimate_t60(rir)

    nodes = range(scenario.num_nodes)
    t60_estimates = netsim.map_nodes(node_setup, nodes)
    write_wav(outdir / "clean.wav", fs, clean)
    manifest = {
        "scenario_name": scenario.name,
        "scenario_path": str(scenario_path),
        "num_nodes": scenario.num_nodes,
        "sample_rate": fs,
        "clean": "clean.wav",
        "observations": [f"observation_{i:02d}.wav" for i in nodes],
        "rirs": [f"rir_{i:02d}.wav" for i in nodes],
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
    fs = manifest["sample_rate"]
    signals = []
    for name in manifest["observations"]:
        rate, data = read_wav(manifest_dir / name)
        if rate != fs:
            raise InvalidInputError(f"{name}: sample rate {rate} != manifest {fs}")
        signals.append(data)
    return fs, signals


def dereverb(config: RunConfig, manifest: dict, manifest_dir: Path,
             outdir: Path) -> dict:
    """Run `pipeline.run` on the manifest's observations and write per-node
    estimates plus run inventory, transmission ledger and the per-node,
    per-round convergence trace."""
    fs, observations = _load_observations(manifest, manifest_dir)
    result = pipeline.run(observations, fs, config)
    if result.frames_per_unknown < MIN_FRAMES_PER_UNKNOWN:
        print(
            f"warning: {config.mode} mode fits {result.unknowns} unknowns per bin to "
            f"{result.num_frames} frames ({result.frames_per_unknown:.2f} frames per "
            f"unknown); the prediction may absorb the desired speech",
            file=sys.stderr,
        )
    if config.params.convergence_tol > 0 and not result.converged:
        print(
            f"warning: {config.mode} run did not reach the convergence "
            f"tolerance within max_iters; outputs written anyway",
            file=sys.stderr,
        )

    estimates = {}
    for node, estimate in result.estimates.items():
        estimates[str(node)] = f"estimate_node{node:02d}.wav"
        write_wav(outdir / estimates[str(node)], fs, estimate)
    result.ledger.to_csv(outdir / "transmissions.csv")
    with open(outdir / "convergence.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["node", "round", "change", "cost"])
        for node, trace in result.traces.items():
            for round_index, (change, cost) in enumerate(zip(trace.change, trace.cost), 1):
                writer.writerow([node, round_index, repr(change), repr(cost)])
    run_info = {
        "mode": config.mode,
        "scenario_name": manifest["scenario_name"],
        "num_nodes": len(observations),
        "sample_rate": fs,
        "lags": result.lags,
        "report_nodes": list(result.estimates),
        "params": config.run_params(),
        "window": {"frame_len": STFT_WINDOW.frame_len, "hop": STFT_WINDOW.hop},
        "fingerprint": config.fingerprint(),
        "frames_per_unknown": result.frames_per_unknown,
        "rounds_run": result.rounds_run,
        "converged": result.converged,
        "per_frame_bin_transmissions": netsim.count_transmissions(
            config.mode, len(observations), config.params.filter_order),
        "estimates": estimates,
        "psd_floors": {str(node): v for node, v in result.psd_floors.items()},
    }
    (outdir / "run.json").write_text(json.dumps(run_info, indent=2) + "\n")
    return run_info


def _int_list(text: str, flag: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError:
        raise ConfigurationError(
            f"{flag} expects comma-separated integers, got {text!r}") from None


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
    manifest = _read_json(manifest_path, {"num_nodes": INT, "sample_rate": INT,
                                          "observations": NAMES, "scenario_name": STR,
                                          "seed": INT, "scenario_path": STR})
    num_nodes = manifest["num_nodes"]
    if len(manifest["observations"]) != num_nodes:
        raise ConfigurationError(f"{manifest_path}: one observation per node required")
    if args.nodes is None:
        nodes = tuple(n for n in room.DEFAULT_REPORT_NODES if n < num_nodes) or (0,)
    else:
        nodes = _int_list(args.nodes, "--nodes")
    config = RunConfig(
        scenario_path=manifest["scenario_path"],
        mode=args.mode,
        params=_params_from_args(args),
        collab_period=args.collab_period,
        report_nodes=nodes,
        outdir=str(outdir),
        seed=manifest["seed"],
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
    """Read a run's estimates with their observations, RIRs and clean source,
    score them with `pipeline.score` and write metrics.csv: one row per node
    for the unprocessed observations, one per node for the estimates, then
    the mean of each."""
    fs, observations = _load_observations(manifest, manifest_dir)
    _, clean = read_wav(manifest_dir / manifest["clean"])
    if early_boundary is None:
        early_boundary = run_info["params"]["delay"] * run_info["window"]["hop"]
    nodes = sorted(int(k) for k in run_info["estimates"])
    rirs = {node: room.ImpulseResponse(read_wav(manifest_dir / manifest["rirs"][node])[1], fs)
            for node in nodes}
    estimates = {node: read_wav(run_dir / run_info["estimates"][str(node)])[1]
                 for node in nodes}
    scores = pipeline.score(clean, rirs, observations, estimates, run_info["lags"],
                            early_boundary, fs)

    def row(mode: str, node, cd: float, fsnr: float) -> dict:
        return {"scenario": manifest["scenario_name"], "mode": mode, "node": node,
                "cd": cd, "fsnr": fsnr, "fingerprint": run_info["fingerprint"]}

    modes = ("unprocessed", run_info["mode"])
    rows = [row(mode, node, *pairs[i]) for i, mode in enumerate(modes)
            for node, pairs in scores.items()]
    for i, mode in enumerate(modes):
        cds, fsnrs = zip(*(pairs[i] for pairs in scores.values()))
        rows.append(row(mode, "mean", float(np.mean(cds)), float(np.mean(fsnrs))))

    with open(outdir / "metrics.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, ["scenario", "mode", "node", "cd", "fsnr", "fingerprint"])
        writer.writeheader()
        writer.writerows(rows)
    return rows


def cmd_evaluate(args) -> int:
    outdir = _resolve_outdir(args.outdir, "out/evaluate")
    manifest_path = Path(args.manifest)
    manifest = _read_json(manifest_path, {"sample_rate": INT, "observations": NAMES,
                                          "clean": STR, "rirs": NAMES, "scenario_name": STR})
    run_path = Path(args.run)
    run_info = _read_json(run_path, {"mode": STR, "lags": INTS, "params.delay": INT,
                                     "window.hop": INT, "estimates": NAME_MAP,
                                     "fingerprint": STR})
    num_nodes = len(manifest["observations"])
    if len(manifest["rirs"]) != num_nodes:
        raise ConfigurationError(f"{manifest_path}: one RIR per observation required")
    if len(run_info["lags"]) != num_nodes:
        raise ConfigurationError(f"{run_path}: one lag per observation required")
    unknown = sorted(set(run_info["estimates"]) - {str(node) for node in range(num_nodes)})
    if unknown:
        raise ConfigurationError(f"{run_path}: estimates for unknown nodes {unknown}")
    boundary = None
    if args.early_ms is not None:
        if not np.isfinite(args.early_ms):
            raise ConfigurationError(f"--early-ms must be finite, got {args.early_ms}")
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
    """Closed-form transmission, reduction and beta tables (no audio needed).

    Every row is built before any file is opened, so a node count or filter
    order the closed forms reject leaves no partial table behind. Betas are
    per node; every node runs its own solve, so the network-wide distributed
    count is num_nodes times the per-node one (the *_network columns).
    """
    def beta_row(m: int) -> list:
        rep = complexity.beta_report(m, filter_order)
        per_node = (rep.beta_mul, rep.beta_div, rep.beta_solve)
        return [scenario, m, filter_order, *map(repr, per_node),
                *(repr(v * m) for v in per_node)]

    tables = {
        "transmissions_table.csv": (
            ["scenario", "num_nodes", "filter_order", "mode",
             "per_frame_bin_transmissions"],
            [[scenario, m, filter_order, mode,
              netsim.count_transmissions(mode, m, filter_order)]
             for m in node_counts for mode in netsim.MODES]),
        "reductions.csv": (
            ["scenario", "num_nodes", "filter_order", "reduction_percent"],
            [[scenario, m, filter_order,
              repr(100.0 * netsim.transmission_reduction(m, filter_order))]
             for m in node_counts]),
        "betas.csv": (
            ["scenario", "num_nodes", "filter_order",
             "beta_mul", "beta_div", "beta_solve",
             "beta_mul_network", "beta_div_network", "beta_solve_network"],
            [beta_row(m) for m in node_counts]),
    }
    for name, (header, rows) in tables.items():
        with open(outdir / name, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)


def cmd_report(args) -> int:
    outdir = _resolve_outdir(args.outdir, "out/report")
    node_counts = list(_int_list(args.node_counts, "--node-counts"))
    report_tables(outdir, args.filter_order, node_counts, args.scenario_name)
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
                     help="report nodes, estimated and written in every mode, comma "
                          "separated (default: 0,3,6 clipped to the network size)")
    der.add_argument("--ref", type=int, default=0, help="synchronization reference node")
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

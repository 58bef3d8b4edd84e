"""One benchmark run: simulate -> dereverb -> evaluate through `dwpe.cli`.

The verbs are called in-process. Set-up (clean speech plus `cli.simulate`)
runs SETUP_REPEATS times and reports its median. Then whole rounds of
one `cli.dereverb` and the workload's count of `cli.evaluate` calls repeat
while they fit in the run's seconds, each into its own directory; a round
is started only when the previous round's length still fits, and at least
one round always runs.
The output checks run after the last timed round, once the peak RSS has
been read, so they cannot set it.

The traced run instead makes one untraced round and one traced round
(set-up included), reports the per-layer metrics of the traced one, and
writes its spans once, to .bench_work/spans-<workload>-seed<n>.json.
"""

from __future__ import annotations

import resource
import shutil
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from dwpe import cli, room, signals, wpe

import checks
import layers
from workloads import DELAY, FILTER_ORDER, SCENARIO, Workload

SETUP_REPEATS = 15
# A phase span opens and closes inside the clock readings around its verb.
PHASE_CLOCK_TOLERANCE_S = 1e-3

# The clean input of a run is one fixed utterance, speech_like(seed=11),
# cut into 250 ms blocks that the run's seed permutes; each block fades in
# and out over 5 ms so the joins do not click. Every seed so gives another
# signal with the same content. Independent utterances per seed differ in
# how many pauses they draw, which moved the CD/F-SNR work and the quality
# figures by 10-20 % between seeds; permuted blocks keep the active frames
# within 1 %.
BASE_UTTERANCE_SEED = 11
BLOCK_S = 0.25
FADE_S = 0.005


def clean_speech(duration_s: float, sample_rate: int, seed: int) -> np.ndarray:
    base = signals.speech_like(duration_s, sample_rate, seed=BASE_UTTERANCE_SEED)
    block, fade = int(BLOCK_S * sample_rate), int(FADE_S * sample_rate)
    ramp = np.ones(block)
    ramp[:fade] = 0.5 - 0.5 * np.cos(np.pi * np.arange(fade) / fade)
    ramp[-fade:] = ramp[:fade][::-1]
    n_blocks = base.size // block
    blocks = base[: n_blocks * block].reshape(n_blocks, block) * ramp
    return blocks[np.random.default_rng(seed).permutation(n_blocks)].ravel()


@dataclass
class Round:
    rundir: Path
    dereverb_s: float
    evaluate_s: list[float]
    rows: list[dict]
    rows_repeat: bool  # every evaluation of the round gave the same rows


class Chain:
    """The three CLI verbs for one workload and seed, under one work dir."""

    def __init__(self, wl: Workload, seed: int, root: Path, workdir: Path):
        self.wl = wl
        self.seed = seed
        self.scenario_path = str(root / SCENARIO)
        self.scenario = room.scenario_from_file(self.scenario_path)
        self.workdir = workdir
        self.manifest: dict = {}
        self.tracer: layers.Tracer | None = None

    def phase(self, name: str):
        """Root span of one verb in a traced round; nothing otherwise."""
        if self.tracer is None:
            return nullcontext()
        return self.tracer.span(f"phase.{name}")

    def simdir(self, tag: str) -> Path:
        path = self.workdir / f"sim-{tag}"
        path.mkdir(parents=True, exist_ok=True)
        return path

    def setup(self, tag: str = "main") -> float:
        simdir = self.simdir(tag)
        t0 = time.perf_counter()
        with self.phase("setup"):
            clean = clean_speech(self.wl.duration_s, self.scenario.sample_rate,
                                 self.seed)
            self.manifest = cli.simulate(self.scenario, clean, simdir, seed=self.seed,
                                         scenario_path=self.scenario_path)
        return time.perf_counter() - t0

    def round(self, tag: str, sim_tag: str = "main", evaluations: int = 1) -> Round:
        simdir, rundir = self.simdir(sim_tag), self.workdir / f"run-{tag}"
        rundir.mkdir(parents=True, exist_ok=True)
        params = wpe.WpeParams(delay=DELAY, filter_order=FILTER_ORDER,
                               max_iters=self.wl.iterations, convergence_tol=0.0)
        config = cli.RunConfig(
            scenario_path=self.scenario_path, mode=self.wl.mode, params=params,
            collab_period=self.wl.collab_period, report_nodes=self.wl.report_nodes,
            outdir=str(rundir), seed=self.seed,
        )
        t0 = time.perf_counter()
        with self.phase("dereverb"):
            info = cli.dereverb(config, self.manifest, simdir, rundir)
        dereverb_s = time.perf_counter() - t0
        evaluate_s, all_rows = [], []
        for _ in range(evaluations):
            t0 = time.perf_counter()
            with self.phase("evaluate"):
                all_rows.append(cli.evaluate(self.manifest, simdir, info, rundir, rundir))
            evaluate_s.append(time.perf_counter() - t0)
        return Round(rundir, dereverb_s, evaluate_s, all_rows[0],
                     all(rows == all_rows[0] for rows in all_rows))


def quality(wl: Workload, rows: list[dict]) -> tuple[float, float]:
    """Mean F-SNR gain and mean processed CD over the reported nodes."""
    by_key = {(r["mode"], r["node"]): r for r in rows}
    gains = [by_key[(wl.mode, n)]["fsnr"] - by_key[("unprocessed", n)]["fsnr"]
             for n in wl.report_nodes]
    cds = [by_key[(wl.mode, n)]["cd"] for n in wl.report_nodes]
    return float(np.mean(gains)), float(np.mean(cds))


def check_rounds(chain: Chain, rounds: list[Round]) -> tuple[int, list[str]]:
    """Failed operations and run-wide errors over all rounds."""
    wl, simdir = chain.wl, chain.simdir("main")
    failed, errors = 0, []
    for rnd in rounds:
        bad, errs = checks.check_round(wl, simdir, rnd.rundir, rnd.rows)
        failed += len(bad)
        errors += errs
        if not checks.same_estimates(wl, rounds[0].rundir, rnd.rundir):
            errors.append(f"{rnd.rundir.name}: estimates differ from the first round")
        if not rnd.rows_repeat:
            errors.append(f"{rnd.rundir.name}: evaluations of one round disagree")
    if wl.mode == "single":
        node = wl.report_nodes[chain.seed % len(wl.report_nodes)]
        err = checks.check_oracle(wl, simdir, rounds[0].rundir, node)
        if err:
            errors.append(err)
    return failed, errors


def measure(wl: Workload, seed: int, seconds: float, root: Path,
            workdir: Path) -> dict:
    chain = Chain(wl, seed, root, workdir)
    setup_times = [chain.setup() for _ in range(SETUP_REPEATS)]
    rounds: list[Round] = []
    start = time.perf_counter()
    while True:
        rounds.append(chain.round(str(len(rounds)), evaluations=wl.evaluations))
        last = rounds[-1].dereverb_s + sum(rounds[-1].evaluate_s)
        if time.perf_counter() - start + last > seconds:
            break
    evaluate_times = [t for r in rounds for t in r.evaluate_s]
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux
    failed, errors = check_rounds(chain, rounds)
    gain, cd = quality(wl, rounds[0].rows)
    values = {
        "setup_s": (statistics.median(setup_times), len(setup_times)),
        "dereverb_s": (statistics.median(r.dereverb_s for r in rounds), len(rounds)),
        "evaluate_s": (statistics.median(evaluate_times), len(evaluate_times)),
        "peak_rss_mb": (rss, 1),
        "fsnr_gain_db": (gain, len(rounds)),
        "cd_db": (cd, len(rounds)),
    }
    return {
        "errors": errors,
        "attempted": len(rounds) * len(wl.report_nodes),
        "failed": failed,
        "values": values,
        "rows": rounds[0].rows,
    }


def measure_traced(wl: Workload, seed: int, root: Path, workdir: Path) -> dict:
    chain = Chain(wl, seed, root, workdir)
    untraced = chain.setup("main")
    plain = chain.round("plain", "main")
    untraced += plain.dereverb_s + sum(plain.evaluate_s)
    chain.tracer = layers.Tracer()
    with layers.install(chain.tracer):
        setup_s = chain.setup("traced")
        traced = chain.round("traced", "traced")
    chain.tracer.write(root / ".bench_work" / f"spans-{wl.name}-seed{seed}.json")
    metrics, phases, errors = layers.layer_metrics(chain.tracer)
    metrics["trace.overhead_s"] = sum(phases.values()) - untraced
    # The phase spans must cover what the untraced clock around each verb saw.
    clock = {"setup": setup_s, "dereverb": traced.dereverb_s,
             "evaluate": sum(traced.evaluate_s)}
    for phase, outside in clock.items():
        if not 0.0 <= outside - phases[phase] < PHASE_CLOCK_TOLERANCE_S:
            errors.append(f"phase.{phase}: span took {phases[phase]!r} s, "
                          f"the clock around it {outside!r} s")
    failed, check_errors = check_rounds(chain, [plain, traced])
    return {
        "errors": errors + check_errors,
        "attempted": 2 * len(wl.report_nodes),
        "failed": failed,
        "values": {k: (v, 1) for k, v in metrics.items()},
        "rows": traced.rows,
    }


def run(wl: Workload, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    workdir = root / ".bench_work" / f"{wl.name}-seed{seed}-{time.time_ns()}"
    workdir.mkdir(parents=True)
    try:
        if trace:
            return measure_traced(wl, seed, root, workdir)
        return measure(wl, seed, seconds, root, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

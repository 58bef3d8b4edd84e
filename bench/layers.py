"""Traced run: spans around every layer's public functions, from outside.

`install` replaces each listed function with a timing wrapper under every
name a dwpe module looks it up by: `dwpe.danse` imports the wpe kernels by
name and `dwpe.cli` imports `stft`, `istft`, `cepstral_distance` and
`fw_segmental_snr` by name, so every module global bound to the function is
rebound, not only the defining module's. No file under src/ changes.

Each span records name, start, end and parent; spans stay in memory until
the traced round ends and are then written once as JSON. A layer's self
time is its spans' durations minus their children's, so per phase the self
times of all spans add up to the phase by construction.
Accumulate and solve calls also record their tracemalloc peak: tracing
runs only inside those calls, because tracing every small allocation would
slow the Python-heavy layers (CD, RIR filtering) many times over.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    end: float = 0.0
    peak_bytes: int = 0


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    _stack: list[int] = field(default_factory=list)

    @contextmanager
    def span(self, name: str, memory: bool = False):
        if memory:
            tracemalloc.start()
        idx = len(self.spans)
        self.spans.append(Span(name, 0.0, self._stack[-1] if self._stack else None))
        self._stack.append(idx)
        self.spans[idx].start = time.perf_counter()
        try:
            yield self.spans[idx]
        finally:
            self.spans[idx].end = time.perf_counter()
            self._stack.pop()
            if memory:
                self.spans[idx].peak_bytes = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()

    def self_times(self) -> list[float]:
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own

    def write(self, path: Path) -> None:
        path.write_text(json.dumps([asdict(s) for s in self.spans]) + "\n")


# --- what each wrapped call adds to the layer counters -------------------

def _on_accumulate(counts, args, result):
    streams, ref_data = args[0], args[1]
    n_frames, n_bins = ref_data.shape
    d = sum(order for _, order, _ in streams)
    counts["wpe.accumulate_calls"] += 1
    # multiplies as complexity.count_accumulation_ops counts them: N d^2 per bin
    counts["wpe.accumulate_muls"] += n_bins * n_frames * d * d
    # Z and q as complex multiply-adds, 8 real flops each
    counts["wpe.accumulate_gflop"] += 8.0 * n_bins * n_frames * (d * d + d) / 1e9


def _on_run_wpe(counts, args, result):
    counts["wpe.iterations"] += result.trace.iterations


def _on_node_round(counts, args, result):
    counts["danse.node_rounds"] += 1
    counts["wpe.iterations"] += 1


def _on_deliver(counts, args, result):
    counts["netsim.messages"] += len(args[0])


# (module, function, span name, traces memory, counter hook)
LAYER_FUNCTIONS = [
    ("dwpe.wpe", "normal_equations_all_bins", "wpe.accumulate", True, _on_accumulate),
    ("dwpe.wpe", "solve_all_bins", "wpe.solve", True, None),
    ("dwpe.wpe", "predict_all_bins", "wpe.predict", False, None),
    ("dwpe.wpe", "update_psd", "wpe.psd", False, None),
    ("dwpe.wpe", "run_wpe", "wpe.run", False, _on_run_wpe),
    ("dwpe.danse", "compress_all_frames", "danse.compress", False, None),
    ("dwpe.danse", "node_round", "danse.node_round", False, _on_node_round),
    ("dwpe.danse", "run_distributed", "danse.run", False, None),
    ("dwpe.netsim", "synchronize", "netsim.sync", False, None),
    ("dwpe.netsim", "apply_lags", "netsim.sync", False, None),
    ("dwpe.netsim", "deliver_round", "netsim.deliver", False, _on_deliver),
    ("dwpe.dsp", "stft", "dsp.stft", False, None),
    ("dwpe.dsp", "istft", "dsp.istft", False, None),
    ("dwpe.room", "image_method_rir", "room.rir", False, None),
    ("dwpe.room", "render_observation", "room.render", False, None),
    ("dwpe.signals", "speech_like", "signals.speech", False, None),
    ("dwpe.metrics", "cepstral_distance", "metrics.cd", False, None),
    ("dwpe.metrics", "fw_segmental_snr", "metrics.fsnr", False, None),
    ("dwpe.cli", "read_wav", "cli.wav_io", False, None),
    ("dwpe.cli", "write_wav", "cli.wav_io", False, None),
]

# per-layer metric -> span name whose self time it sums
SELF_TIME_METRICS = {
    "wpe.accumulate_s": "wpe.accumulate",
    "wpe.solve_s": "wpe.solve",
    "wpe.predict_s": "wpe.predict",
    "wpe.psd_s": "wpe.psd",
    "wpe.run_self_s": "wpe.run",
    "danse.compress_s": "danse.compress",
    "danse.node_round_self_s": "danse.node_round",
    "danse.run_self_s": "danse.run",
    "netsim.sync_s": "netsim.sync",
    "netsim.deliver_s": "netsim.deliver",
    "dsp.stft_s": "dsp.stft",
    "dsp.istft_s": "dsp.istft",
    "room.rir_s": "room.rir",
    "room.render_s": "room.render",
    "signals.speech_s": "signals.speech",
    "metrics.cd_s": "metrics.cd",
    "metrics.fsnr_s": "metrics.fsnr",
    "cli.wav_io_s": "cli.wav_io",
}

PHASES = ("setup", "dereverb", "evaluate")


def _wrap(tracer: Tracer, fn, name: str, memory: bool, hook):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name, memory):
            result = fn(*args, **kwargs)
        if hook is not None:
            hook(tracer.counts, args, result)
        return result
    return wrapper


@contextmanager
def install(tracer: Tracer):
    """Trace every LAYER_FUNCTIONS entry while the block runs."""
    from dwpe import netsim

    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "dwpe" or n.startswith("dwpe."))]
    patched = []  # (owner, attribute, original)
    for module_name, attr, name, memory, hook in LAYER_FUNCTIONS:
        original = getattr(sys.modules[module_name], attr)
        wrapper = _wrap(tracer, original, name, memory, hook)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    patched.append((module, key, original))
                    setattr(module, key, wrapper)

    record = netsim.TransmissionLedger.record

    def counted_record(ledger, round_index, sender, recipient, units):
        tracer.counts["netsim.tx_units"] += units
        return record(ledger, round_index, sender, recipient, units)

    patched.append((netsim.TransmissionLedger, "record", record))
    netsim.TransmissionLedger.record = counted_record
    try:
        yield tracer
    finally:
        for owner, key, original in reversed(patched):
            setattr(owner, key, original)


def layer_metrics(tracer: Tracer) -> tuple[dict[str, float], dict[str, float], list[str]]:
    """Per-layer metrics, traced phase times, and span-tree errors.

    Phase spans are roots named "phase.<name>"; `cli.self_s` is the part
    of the phases no child span covers, so per phase the self times add up
    to the phase time by construction. A layer span outside every phase
    would be left out of that sum, so it is an error.
    """
    own = tracer.self_times()
    by_name: dict[str, float] = defaultdict(float)
    phase_time: dict[str, float] = defaultdict(float)
    errors = []
    for idx, span in enumerate(tracer.spans):
        by_name[span.name] += own[idx]
        if span.parent is None:
            phase_time[span.name] += span.end - span.start
            if span.name not in {f"phase.{p}" for p in PHASES}:
                errors.append(f"{span.name} ran outside every phase")

    metrics = {key: by_name.get(span, 0.0) for key, span in SELF_TIME_METRICS.items()}
    metrics["cli.self_s"] = sum(by_name.get(f"phase.{p}", 0.0) for p in PHASES)
    counts = tracer.counts
    for key in ("wpe.accumulate_calls", "wpe.accumulate_gflop", "wpe.iterations",
                "danse.node_rounds", "netsim.messages", "netsim.tx_units"):
        metrics[key] = counts.get(key, 0.0)
    acc = metrics["wpe.accumulate_s"]
    metrics["wpe.accumulate_gflop_per_s"] = metrics["wpe.accumulate_gflop"] / acc if acc else 0.0
    muls = counts.get("wpe.accumulate_muls", 0.0)
    metrics["wpe.accumulate_ns_per_mul"] = 1e9 * acc / muls if muls else 0.0
    for key, span_name in (("wpe.accumulate_peak_mb", "wpe.accumulate"),
                           ("wpe.solve_peak_mb", "wpe.solve")):
        metrics[key] = max((s.peak_bytes for s in tracer.spans if s.name == span_name),
                           default=0) / 2**20
    phases = {p: phase_time.get(f"phase.{p}", 0.0) for p in PHASES}
    return metrics, phases, errors

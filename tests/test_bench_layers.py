"""The traced benchmark (bench/layers.py) wraps library functions by module
and name and reads some of their results. A rename or deletion in the
library fails here instead of only when the benchmark is run with
tracing."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from dwpe import pipeline, room, wpe
from dwpe.signals import speech_like

LAYERS = Path(__file__).resolve().parents[1] / "bench" / "layers.py"


@pytest.fixture
def layers(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ untouched
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_traced_layer_functions_exist(layers):
    assert layers.LAYER_FUNCTIONS
    missing = [
        f"{module}.{name}" for module, name, *_ in layers.LAYER_FUNCTIONS
        if not callable(getattr(importlib.import_module(module), name, None))
    ]
    assert not missing, f"bench/layers.py traces missing functions: {missing}"


@pytest.mark.parametrize("mode", ["single", "centralized", "distributed"])
def test_traced_iterations_match_run_traces(layers, small_scenario, mode):
    fs = small_scenario.sample_rate
    clean = speech_like(1.0, fs, seed=0)
    observations = [room.render_observation(clean, fs, room.image_method_rir(small_scenario, i))
                    for i in range(small_scenario.num_nodes)]
    params = wpe.WpeParams(delay=2, filter_order=6, max_iters=2, convergence_tol=0.0)
    config = pipeline.RunConfig("small.json", mode, params=params, report_nodes=(0, 2))
    with layers.install(layers.Tracer()) as tracer:
        result = pipeline.run(observations, fs, config)
    rounds = sum(trace.iterations for trace in result.traces.values())
    assert rounds == params.max_iters * len(result.estimates)
    assert tracer.counts["wpe.iterations"] == rounds
    if mode == "distributed":
        assert tracer.counts["danse.node_rounds"] == rounds

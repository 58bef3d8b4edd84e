"""The traced benchmark (bench/layers.py) wraps library functions by module
and name and reads some of their results. A rename or deletion in the
library fails here instead of only when the benchmark is run with
tracing."""

import ast
import importlib
import importlib.util
import inspect
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
    # install() patches modules already loaded, as the benchmark's chain has
    # loaded every traced one; a test run alone has not
    for module_name, *_ in module.LAYER_FUNCTIONS:
        importlib.import_module(module_name)
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
    runs = {id(trace): trace for trace in result.traces.values()}  # one trace per run
    # one centralized run estimates, and traces, every report node
    assert len(runs) == (1 if mode == "centralized" else len(result.traces))
    rounds = sum(trace.iterations for trace in runs.values())
    assert rounds == params.max_iters * len(runs)
    assert tracer.counts["wpe.iterations"] == rounds
    if mode == "distributed":
        assert tracer.counts["danse.node_rounds"] == rounds


def dwpe_references():
    """(file, 'module.attr', ast.Call or None) for every attribute of a dwpe
    module that bench/*.py and scripts/*.py name, through `from dwpe import
    m` or `from dwpe.m import attr`; the call is given where it is called."""
    root = LAYERS.parents[1]
    for path in sorted([*root.glob("bench/*.py"), *root.glob("scripts/*.py")]):
        tree = ast.parse(path.read_text())
        modules, names = {}, {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "dwpe":
                modules.update({a.asname or a.name: f"dwpe.{a.name}" for a in node.names})
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("dwpe."):
                names.update({a.asname or a.name: f"{node.module}.{a.name}" for a in node.names})
        calls = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in modules):
                yield path.name, f"{modules[node.value.id]}.{node.attr}", calls.get(id(node))
            elif isinstance(node, ast.Name) and node.id in names:
                yield path.name, names[node.id], calls.get(id(node))


def test_bench_and_scripts_call_existing_library_names():
    references = list(dwpe_references())
    assert len(references) >= 20  # the parser still finds the benchmark's calls
    broken = []
    for file, name, call in references:
        module, attr = name.rsplit(".", 1)
        target = getattr(importlib.import_module(module), attr, None)
        if target is None:
            broken.append(f"{file}: {name} does not exist")
        elif call is not None and not any(isinstance(a, ast.Starred) for a in call.args) \
                and all(k.arg is not None for k in call.keywords):
            try:
                inspect.signature(target).bind(*call.args, **{k.arg: k for k in call.keywords})
            except TypeError as exc:
                broken.append(f"{file}:{call.lineno}: {name}: {exc}")
    assert not broken, broken

"""The traced benchmark (bench/layers.py) wraps library functions by module
and name. A rename or deletion in the library fails here instead of only
when the benchmark is run with tracing."""

import importlib
import importlib.util
import sys
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "bench" / "layers.py"


def test_traced_layer_functions_exist(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ untouched
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, layers)
    spec.loader.exec_module(layers)
    assert layers.LAYER_FUNCTIONS
    missing = [
        f"{module}.{name}" for module, name, *_ in layers.LAYER_FUNCTIONS
        if not callable(getattr(importlib.import_module(module), name, None))
    ]
    assert not missing, f"bench/layers.py traces missing functions: {missing}"

import os

import numpy as np
import pytest

from dwpe import pipeline, room, wpe
from dwpe.errors import InvalidInputError
from dwpe.signals import speech_like

PARAMS = wpe.WpeParams(delay=2, filter_order=6, max_iters=2)


@pytest.fixture(scope="module")
def observations(small_scenario):
    fs = small_scenario.sample_rate
    clean = speech_like(1.0, fs, seed=0)
    return [room.render_observation(clean, fs, room.image_method_rir(small_scenario, i))
            for i in range(small_scenario.num_nodes)]


@pytest.mark.parametrize("mode, nodes", [
    ("single", [0, 2]), ("centralized", [0, 2]), ("distributed", [0, 1, 2]),
])
def test_run_writes_nothing(observations, tmp_path, monkeypatch, mode, nodes):
    monkeypatch.chdir(tmp_path)
    config = pipeline.RunConfig("small.json", mode, params=PARAMS, report_nodes=(0, 2))
    result = pipeline.run(observations, 16000, config)
    assert os.listdir(tmp_path) == []
    assert list(result.estimates) == nodes
    assert list(result.psd_floors) == nodes
    for node, estimate in result.estimates.items():
        assert estimate.shape == observations[node].shape
        assert np.all(np.isfinite(estimate))
    assert list(result.traces) == nodes
    for trace in result.traces.values():
        assert len(trace.change) == len(trace.cost) == result.rounds_run


@pytest.mark.parametrize("mode", ["single", "centralized", "distributed"])
def test_run_rejects_out_of_range_report_node(observations, mode):
    config = pipeline.RunConfig("small.json", mode, params=PARAMS, report_nodes=(0, 3))
    with pytest.raises(InvalidInputError):
        pipeline.run(observations, 16000, config)

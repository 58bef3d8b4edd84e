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


def test_score_shifts_the_reference_by_the_lag():
    # a pure-delay RIR: the observation is the clean signal k samples late,
    # so the observation aligned by lag k and an estimate synchronized by it
    # both equal the reference shifted by k
    fs, k = 16000, 37
    clean = speech_like(1.0, fs, seed=0)
    taps = np.zeros(k + 1)
    taps[k] = 1.0
    rir = room.ImpulseResponse(taps=taps, sample_rate=fs)
    observation = room.render_observation(clean, fs, rir)
    estimate = np.zeros_like(observation)
    estimate[:-k] = observation[k:]
    scores = pipeline.score(clean, [rir], [observation], {0: estimate}, [k], 512, fs)
    assert scores == {0: ((0.0, 35.0), (0.0, 35.0))}

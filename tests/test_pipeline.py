import os
import threading

import numpy as np
import pytest

from dwpe import danse, metrics, netsim, pipeline, room, wpe
from dwpe.errors import ConfigurationError, InvalidInputError, SolverError, UndefinedMetricError
from dwpe.signals import speech_like

PARAMS = wpe.WpeParams(delay=2, filter_order=6, max_iters=2)


@pytest.fixture(scope="module")
def clean():
    return speech_like(1.0, 16000, seed=0)


@pytest.fixture(scope="module")
def rirs(small_scenario):
    return [room.image_method_rir(small_scenario, i) for i in range(small_scenario.num_nodes)]


@pytest.fixture(scope="module")
def observations(clean, rirs):
    return [room.render_observation(clean, 16000, rir) for rir in rirs]


# nodes: the nodes that solve, which distributed mode runs all of
@pytest.mark.parametrize("mode, nodes", [
    ("single", [2, 0]), ("centralized", [2, 0]), ("distributed", [0, 1, 2]),
])
def test_run_writes_nothing(observations, tmp_path, monkeypatch, mode, nodes):
    monkeypatch.chdir(tmp_path)
    config = pipeline.RunConfig("small.json", mode, params=PARAMS, report_nodes=(2, 0))
    result = pipeline.run(observations, 16000, config)
    assert os.listdir(tmp_path) == []
    # every mode estimates exactly the report nodes, in report order
    assert list(result.estimates) == [2, 0]
    assert list(result.psd_floors) == nodes
    for node, estimate in result.estimates.items():
        assert estimate.shape == observations[node].shape
        assert np.all(np.isfinite(estimate))
    assert list(result.traces) == nodes
    for trace in result.traces.values():
        assert len(trace.change) == len(trace.cost) == result.rounds_run


@pytest.mark.parametrize("mode", netsim.MODES)
def test_run_completes_with_a_silent_node(observations, mode):
    # a dead microphone gets lag 0, and every mode runs on; the silent node
    # estimates silence. Four rounds let distributed nodes use the others'
    # broadcasts of round 2
    params = wpe.WpeParams(delay=2, filter_order=6, max_iters=4, convergence_tol=0.0)
    config = pipeline.RunConfig("small.json", mode, params=params, report_nodes=(2, 1, 0))
    silenced = [observations[0], np.zeros_like(observations[1]), observations[2]]
    result = pipeline.run(silenced, 16000, config)
    assert result.lags[1] == 0
    assert list(result.estimates) == [2, 1, 0]
    assert not np.any(result.estimates[1])
    for node in (0, 2):
        assert np.all(np.isfinite(result.estimates[node])) and np.any(result.estimates[node])
    if mode == "single":
        # no single-mode node reads another: the others are the unsilenced run's
        unsilenced = pipeline.run(observations, 16000, config)
        for node in (0, 2):
            assert result.estimates[node].tobytes() == unsilenced.estimates[node].tobytes()


@pytest.mark.parametrize("mode", ["single", "centralized", "distributed"])
def test_run_rejects_out_of_range_report_node(observations, mode):
    config = pipeline.RunConfig("small.json", mode, params=PARAMS, report_nodes=(0, 3))
    with pytest.raises(InvalidInputError):
        pipeline.run(observations, 16000, config)


@pytest.mark.parametrize("mode", netsim.MODES)
def test_run_rejects_a_delay_past_the_frames_before_any_solve(observations, monkeypatch,
                                                            mode):
    def no_solve(*args, **kwargs):
        raise AssertionError("a solve started")

    monkeypatch.setattr(wpe, "run_wpe", no_solve)
    monkeypatch.setattr(danse, "run_distributed", no_solve)
    n_frames = pipeline.STFT_WINDOW.num_frames(observations[0].size)
    params = wpe.WpeParams(delay=n_frames, filter_order=6, max_iters=2)
    config = pipeline.RunConfig("small.json", mode, params=params, report_nodes=(0, 2))
    with pytest.raises(ConfigurationError, match=f"delay {n_frames} .* {n_frames} STFT frames"):
        pipeline.run(observations, 16000, config)


def single_run(observations, report_nodes=(0, 1, 2)):
    config = pipeline.RunConfig("small.json", "single", params=PARAMS,
                                report_nodes=report_nodes)
    return pipeline.run(observations, 16000, config)


def test_single_mode_same_bytes_for_any_worker_count(observations, monkeypatch):
    runs = []
    for workers in (1, 2):
        monkeypatch.setattr(netsim, "worker_count", lambda num_jobs, w=workers: w)
        runs.append(single_run(observations))
    serial, pooled = runs
    assert list(pooled.estimates) == [0, 1, 2]
    for node, estimate in serial.estimates.items():
        np.testing.assert_array_equal(pooled.estimates[node], estimate)
    assert pooled.traces == serial.traces  # change and cost, float for float
    assert pooled.psd_floors == serial.psd_floors
    assert pooled.unknowns == serial.unknowns


def test_centralized_run_same_bytes_for_any_worker_count(observations, monkeypatch):
    # d = 18: 64-bin blocks serially and 32-bin blocks on two workers, and
    # about 200 cells per gather
    monkeypatch.setattr(wpe, "SOLVE_BLOCK_BYTES", 64 * 16 * 18 * 18)
    monkeypatch.setattr(wpe, "GATHER_BYTES", 200 * 16 * 18)
    mapped = []  # blocks per pool call
    map_nodes = netsim.map_nodes

    def recording(fn, items):
        items = list(items)
        mapped.append(len(items))
        return map_nodes(fn, items)

    monkeypatch.setattr(netsim, "map_nodes", recording)
    config = pipeline.RunConfig("small.json", "centralized", params=PARAMS,
                                report_nodes=(2, 0))
    runs, blocks = [], []
    for workers in (1, 2):
        monkeypatch.setattr(netsim, "worker_count", lambda num_jobs, w=workers: w)
        mapped.clear()
        runs.append(pipeline.run(observations, 16000, config))
        blocks.append(sorted(set(mapped)))
    serial, pooled = runs
    # every solve of the one run for both nodes maps its 257 bins on the pool
    assert blocks == [[5], [9]]
    assert len(mapped) == PARAMS.max_iters
    assert list(pooled.estimates) == [2, 0]
    for node, estimate in serial.estimates.items():
        np.testing.assert_array_equal(pooled.estimates[node], estimate)
    assert pooled.traces == serial.traces  # change and cost, float for float
    assert pooled.ledger.rows == serial.ledger.rows
    assert pooled.psd_floors == serial.psd_floors


def test_centralized_work_does_not_grow_with_the_report_nodes(observations, monkeypatch):
    # one run serves every report node: three make as many Gram builds and
    # block solves as one, and their order only orders the estimates
    counts = {}
    build, solve = wpe.Gram.build, wpe.solve_all_bins

    def counting_build(*args):
        counts["builds"] += 1
        return build(*args)

    def counting_solve(*args, **kwargs):
        counts["solves"] += 1
        return solve(*args, **kwargs)

    monkeypatch.setattr(wpe.Gram, "build", counting_build)
    monkeypatch.setattr(wpe, "solve_all_bins", counting_solve)
    work, runs = [], {}
    for nodes in [(0,), (0, 1, 2), (2, 1, 0)]:
        counts.update(builds=0, solves=0)
        config = pipeline.RunConfig("small.json", "centralized", params=PARAMS,
                                    report_nodes=nodes)
        runs[nodes] = pipeline.run(observations, 16000, config)
        work.append(dict(counts))
    assert work[0]["builds"] == 1 and work[0]["solves"] >= PARAMS.max_iters
    assert work[0] == work[1] == work[2]
    forward, backward = runs[(0, 1, 2)], runs[(2, 1, 0)]
    assert list(backward.estimates) == [2, 1, 0]
    for node, estimate in forward.estimates.items():
        error = np.max(np.abs(backward.estimates[node] - estimate))
        assert error <= 1e-9 * np.max(np.abs(estimate))


def test_single_mode_runs_report_nodes_concurrently(observations, monkeypatch):
    # each job waits for the other before solving: with one worker at a
    # time the barrier would time out
    barrier = threading.Barrier(2, timeout=30)
    run_wpe = wpe.run_wpe

    def meeting(*args, **kwargs):
        barrier.wait()
        return run_wpe(*args, **kwargs)

    monkeypatch.setattr(netsim, "worker_count", lambda num_jobs: 2)
    monkeypatch.setattr(wpe, "run_wpe", meeting)
    result = single_run(observations, report_nodes=(2, 0))
    assert list(result.estimates) == [2, 0]


def test_single_mode_transforms_only_the_report_nodes(observations, monkeypatch):
    transformed = []
    stft = pipeline.stft

    def counting(signal, *args):
        transformed.append(signal.size)
        return stft(signal, *args)

    monkeypatch.setattr(pipeline, "stft", counting)
    single_run(observations, report_nodes=(1,))
    assert len(transformed) == 1


def test_single_node_error_propagates_and_no_worker_outlives_the_run(observations,
                                                                    monkeypatch):
    monkeypatch.setattr(netsim, "worker_count", lambda num_jobs: 2)
    aligned, _ = netsim.synchronize(observations, 0)
    failing_data = pipeline.stft(aligned[2], pipeline.STFT_WINDOW, 16000).data
    run_wpe = wpe.run_wpe

    def failing_at_node_2(channels, *args):
        if np.array_equal(channels[0], failing_data):
            raise SolverError("singular system at bin 0")
        return run_wpe(channels, *args)

    before = threading.active_count()
    single_run(observations)
    assert threading.active_count() == before
    monkeypatch.setattr(wpe, "run_wpe", failing_at_node_2)
    with pytest.raises(SolverError, match="node 2: .*bin 0"):
        single_run(observations)
    assert threading.active_count() == before


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


@pytest.fixture(scope="module")
def single_result(observations):
    return single_run(observations)


def score(clean, rirs, observations, estimates, lags):
    return pipeline.score(clean, rirs, observations, estimates, lags, 512, 16000)


def test_score_equals_each_pairs_metrics(clean, rirs, observations, single_result):
    expected = {}
    for node, estimate in single_result.estimates.items():
        early = room.early_reference(clean, rirs[node], 512)
        lag = single_result.lags[node]
        reference, observation = netsim.apply_lags([early, observations[node]], [lag] * 2)
        pairs = []
        for signal in (observation, estimate):
            n = min(reference.size, signal.size)
            pairs.append((metrics.cepstral_distance(reference[:n], signal[:n], 16000),
                          metrics.fw_segmental_snr(reference[:n], signal[:n], 16000)))
        expected[node] = tuple(pairs)
    scores = score(clean, rirs, observations, single_result.estimates, single_result.lags)
    assert list(scores) == [0, 1, 2]
    assert scores == expected  # float for float


def test_score_same_values_for_any_worker_count(clean, rirs, observations, single_result,
                                               monkeypatch):
    runs = []
    for workers in (1, 2):
        monkeypatch.setattr(netsim, "worker_count", lambda num_jobs, w=workers: w)
        estimates = {node: single_result.estimates[node] for node in (2, 0, 1)}
        runs.append(score(clean, rirs, observations, estimates, single_result.lags))
    serial, pooled = runs
    assert list(pooled) == [2, 0, 1]
    assert pooled == serial


def test_score_forms_one_reference_half_per_node(clean, rirs, observations, single_result,
                                                 monkeypatch):
    # the active-frame mask is part of the reference half: both signals and
    # both measures of a node share it
    masks = []
    active_frames = metrics._active_frames

    def counting(frames):
        masks.append(frames.shape)
        return active_frames(frames)

    monkeypatch.setattr(metrics, "_active_frames", counting)
    score(clean, rirs, observations, single_result.estimates, single_result.lags)
    assert len(masks) == 3


def test_score_errors_name_the_first_failing_node(clean, rirs, observations, single_result,
                                                  monkeypatch):
    monkeypatch.setattr(netsim, "worker_count", lambda num_jobs: 2)
    estimates = dict(single_result.estimates)
    estimates[1] = np.zeros_like(estimates[1])
    estimates[2] = np.zeros_like(estimates[2])
    with pytest.raises(UndefinedMetricError,
                       match="^node 1 estimate: no usable active frames for cepstral distance$"):
        score(clean, rirs, observations, estimates, single_result.lags)
    broken = list(observations)
    broken[2] = observations[2].copy()
    broken[2][4000] = np.nan
    with pytest.raises(InvalidInputError,
                       match="^node 2 observation: estimate has non-finite samples$"):
        score(clean, rirs, broken, single_result.estimates, single_result.lags)

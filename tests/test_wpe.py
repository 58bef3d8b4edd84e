import sys
import threading
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dwpe import netsim, room, wpe
from dwpe.dsp import WindowSpec, stft
from dwpe.errors import InvalidInputError, NumericalError, SolverError
from dwpe.signals import speech_like
from dwpe.wpe import (
    Gram,
    WpeParams,
    WpeTrace,
    check_observations,
    gather_cells,
    lag_windows,
    normal_equations_all_bins,
    predict_all_bins,
    resolve_psd_floor,
    run_wpe,
    solve_all_bins,
    solve_weights,
    update_psd,
    weighted_cost,
)

from oracles import gaussian_elimination_solve, normal_equations_direct, stacked_by_loop


def random_spectrogram(rng, frames=10, bins=8):
    return rng.standard_normal((frames, bins)) + 1j * rng.standard_normal((frames, bins))


def test_params_validation():
    with pytest.raises(InvalidInputError):
        WpeParams(delay=0)
    with pytest.raises(InvalidInputError):
        WpeParams(filter_order=0)
    with pytest.raises(InvalidInputError):
        WpeParams(psd_floor=0.0)
    with pytest.raises(InvalidInputError):
        WpeParams(max_iters=0)


@pytest.mark.parametrize("name, value", [
    ("psd_floor", np.nan), ("psd_floor", np.inf),
    ("convergence_tol", np.nan), ("convergence_tol", np.inf), ("convergence_tol", -1e-4),
])
def test_params_reject_non_finite_and_negative_settings(name, value):
    with pytest.raises(InvalidInputError, match=f"{name} must .*got {value}$"):
        WpeParams(**{name: value})


def delayed_vectors(spec, params, frames, bins):
    """Delayed observation vectors of single-stream cells as (cells, order)
    rows, from both kernels that build them; they must agree exactly."""
    stream = (spec, params.filter_order, params.delay)
    frames, bins = np.asarray(frames), np.asarray(bins)
    gathered = gather_cells([stream], frames, bins).T
    windows = lag_windows(*stream)
    np.testing.assert_array_equal(gathered, windows[bins, frames])
    return gathered


def test_delayed_vector_all_zero_before_signal(rng):
    spec = random_spectrogram(rng)
    params = WpeParams(delay=3, filter_order=4)
    # n < delay: every index is pre-signal
    assert np.all(delayed_vectors(spec, params, [0, 1, 2], [2, 2, 2]) == 0)


def test_delayed_vector_order_one(rng):
    spec = random_spectrogram(rng)
    params = WpeParams(delay=2, filter_order=1)
    vec = delayed_vectors(spec, params, [7], [3])
    assert vec.shape == (1, 1)
    assert vec[0, 0] == spec[5, 3]


def test_delayed_vector_explicit_case(rng):
    spec = random_spectrogram(rng, frames=10)
    params = WpeParams(delay=2, filter_order=3)
    vec = delayed_vectors(spec, params, [8], [1])
    expected = np.array([spec[6, 1], spec[5, 1], spec[4, 1]])
    np.testing.assert_array_equal(vec[0], expected)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(0, 9), k=st.integers(0, 7), delay=st.integers(1, 4),
       order=st.integers(1, 5), seed=st.integers(0, 999))
def test_delayed_vector_indexing_property(n, k, delay, order, seed):
    rng = np.random.default_rng(seed)
    spec = random_spectrogram(rng)
    params = WpeParams(delay=delay, filter_order=order)
    vec = delayed_vectors(spec, params, [n], [k])[0]
    for i in range(order):
        src = n - delay - i
        expected = spec[src, k] if src >= 0 else 0.0
        assert vec[i] == expected


def test_predict_desired_zero_weights(rng):
    spec = random_spectrogram(rng)
    late = predict_all_bins([(spec, 2, 1)], np.zeros((spec.shape[1], 2)))
    np.testing.assert_array_equal(spec - late, spec)


def test_predict_desired_zero_stacked(rng):
    weights = rng.standard_normal((8, 2)) + 1j * rng.standard_normal((8, 2))
    late = predict_all_bins([(np.zeros((10, 8), dtype=complex), 2, 1)], weights)
    assert np.all(late == 0)


def test_predict_desired_hand_expanded():
    # one bin, frames [0, 3, 1+4j, 0], delay 1, two lags: the delayed
    # vector is [3, 0] at frame 2 and [1+4j, 3] at frame 3
    data = np.array([[0.0], [3.0], [1 + 4j], [0.0]], dtype=complex)
    weights = np.array([[1 + 1j, 2 - 1j]])
    late = predict_all_bins([(data, 2, 1)], weights)
    # w^H x = conj(1+1j)*x0 + conj(2-1j)*x1
    assert late[2, 0] == pytest.approx((1 - 1j) * 3)
    assert late[3, 0] == pytest.approx((1 - 1j) * (1 + 4j) + (2 + 1j) * 3)
    assert late[0, 0] == 0 and late[1, 0] == 0


@pytest.mark.parametrize("layout", [
    [(3, 2), (3, 1), (3, 4)],  # centralized-like: three order-3 streams
    [(4, 3), (1, 0), (1, 0)],  # distributed-like: local block, two payloads
    [(2, 12), (3, 2)],  # delay >= N: the first stream predicts nothing
    [(5, 8), (1, 11)],  # delay + order > N
], ids=["centralized", "distributed", "delay-past-end", "window-past-start"])
def test_predict_matches_per_cell_oracle(rng, layout):
    frames, bins = 12, 6
    streams = [(random_spectrogram(rng, frames, bins), order, delay)
               for order, delay in layout]
    d = sum(order for order, _ in layout)
    weights = rng.standard_normal((bins, d)) + 1j * rng.standard_normal((bins, d))
    late = predict_all_bins(streams, weights)
    assert late.shape == (frames, bins) and late.flags.c_contiguous
    expected = np.empty((frames, bins), dtype=complex)
    for k in range(bins):
        stacked = stacked_by_loop(streams, k)
        for n in range(frames):
            expected[n, k] = np.vdot(weights[k], stacked[n])
    np.testing.assert_allclose(late, expected, rtol=0,
                               atol=1e-12 * np.abs(expected).max())


def test_predict_rejects_extra_weight_columns(rng):
    spec = random_spectrogram(rng)
    with pytest.raises(InvalidInputError, match=r"weights must be \(K, d\) = \(8, 2\), got \(8, 3\)"):
        predict_all_bins([(spec, 2, 1)], np.zeros((8, 3), dtype=complex))


def test_predict_rejects_missing_weight_columns(rng):
    spec = random_spectrogram(rng)
    with pytest.raises(InvalidInputError, match=r"weights must be .*got \(8, 2\)"):
        predict_all_bins([(spec, 2, 1), (spec, 1, 0)], np.zeros((8, 2), dtype=complex))


def test_predict_rejects_a_longer_stream(rng):
    streams = [(random_spectrogram(rng, 10), 2, 1), (random_spectrogram(rng, 12), 1, 0)]
    with pytest.raises(InvalidInputError, match="stream shapes differ"):
        predict_all_bins(streams, np.zeros((8, 3), dtype=complex))


def test_update_psd_above_floor():
    psd = update_psd(np.array([[np.sqrt(0.5)]]), 1e-4)
    assert psd.values[0, 0] == pytest.approx(0.5)


def test_update_psd_floor_active():
    psd = update_psd(np.zeros((3, 4)), 1e-4)
    assert np.all(psd.values == 1e-4)


def test_update_psd_rejects_a_non_positive_floor():
    for floor in (0.0, -1e-4, np.nan):
        with pytest.raises(InvalidInputError, match="psd floor must be positive"):
            update_psd(np.ones((3, 4)), floor)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 999), floor=st.floats(1e-6, 1.0))
def test_update_psd_elementwise_property(seed, floor):
    rng = np.random.default_rng(seed)
    desired = rng.standard_normal((5, 6)) + 1j * rng.standard_normal((5, 6))
    psd = update_psd(desired, floor)
    for n in range(5):
        for k in range(6):
            expected = max(abs(desired[n, k]) ** 2, floor)
            assert psd.values[n, k] == pytest.approx(expected, rel=1e-14)
    assert psd.values.min() >= floor


def random_streams(rng, frames, bins):
    a = rng.standard_normal((frames, bins)) + 1j * rng.standard_normal((frames, bins))
    b = rng.standard_normal((frames, bins)) + 1j * rng.standard_normal((frames, bins))
    return [(a, 3, 2), (b, 1, 0)], a


def test_accumulate_rank_one_basis():
    # one frame, one bin, whose stacked vector is the basis vector e0 of C^3
    streams = [(np.ones((1, 1), dtype=complex), 1, 0),
               (np.zeros((1, 1), dtype=complex), 2, 0)]
    Z, q = normal_equations_all_bins(streams, np.array([[2 + 1j]]), np.ones((1, 1)))
    expected_Z = np.zeros((3, 3))
    expected_Z[0, 0] = 1.0
    np.testing.assert_allclose(Z[0], expected_Z)
    np.testing.assert_allclose(q[0, :, 0], [2 - 1j, 0, 0])


def test_accumulate_sigma_scaling(rng):
    streams, ref = random_streams(rng, 12, 3)
    sigma = rng.random((12, 3)) + 0.5
    Z1, q1 = normal_equations_all_bins(streams, ref, sigma)
    Z2, q2 = normal_equations_all_bins(streams, ref, 3.0 * sigma)
    np.testing.assert_allclose(Z2, Z1 / 3.0, rtol=1e-12)
    np.testing.assert_allclose(q2, q1 / 3.0, rtol=1e-12)
    w1 = solve_all_bins(Z1, q1, ridge_scale=0.0)
    w2 = solve_all_bins(Z2, q2, ridge_scale=0.0)
    np.testing.assert_allclose(w1, w2, rtol=1e-9)


def test_accumulate_matches_double_loop(rng):
    streams, ref = random_streams(rng, 7, 2)
    sigma = rng.random((7, 2)) + 0.2
    Z, q = normal_equations_all_bins(streams, ref, sigma)
    for k in range(2):
        Z_ref, q_ref = normal_equations_direct(stacked_by_loop(streams, k),
                                               ref[:, k], sigma[:, k])
        np.testing.assert_allclose(Z[k], Z_ref, rtol=1e-12)
        np.testing.assert_allclose(q[k, :, 0], q_ref, rtol=1e-12)
        # Hermitian by construction
        np.testing.assert_allclose(Z[k], Z[k].conj().T, rtol=1e-12)


def test_accumulate_nonfinite_raises(rng):
    streams, ref = random_streams(rng, 6, 2)
    bad = streams[1][0].copy()
    bad[1, 0] = np.inf
    with np.errstate(invalid="ignore"), pytest.raises(NumericalError):
        normal_equations_all_bins([streams[0], (bad, 1, 0)], ref, np.ones((6, 2)))


def worst_relative_error(streams, ref, sigma, bins):
    """Worst per-bin relative error of the split kernel's Z and q against
    the double-loop oracle."""
    Z, q = normal_equations_all_bins(streams, ref, sigma)
    worst = 0.0
    for k in bins:
        Z_ref, q_ref = normal_equations_direct(stacked_by_loop(streams, k),
                                               ref[:, k], sigma[:, k])
        worst = max(worst,
                    np.linalg.norm(Z[k] - Z_ref) / np.linalg.norm(Z_ref),
                    np.linalg.norm(q[k, :, 0] - q_ref) / np.linalg.norm(q_ref))
    return worst


def test_split_kernel_matches_oracle_mostly_floored(rng):
    streams, ref = random_streams(rng, 60, 6)
    sigma = np.ones((60, 6))
    active = rng.random((60, 6)) < 0.15
    sigma[active] = 10.0 ** rng.uniform(0.0, 3.0, active.sum())
    assert np.mean(sigma == 1.0) >= 0.8
    assert worst_relative_error(streams, ref, sigma, range(6)) <= 1e-13


def test_split_kernel_matches_oracle_without_floored_cells(rng):
    # no cell at the split constant and six decades of dynamic range: the
    # subtraction cancels hardest here
    streams, ref = random_streams(rng, 60, 6)
    sigma = 10.0 ** rng.uniform(-3.0, 3.0, (60, 6))
    assert worst_relative_error(streams, ref, sigma, range(6)) <= 1e-12


def test_split_kernel_matches_oracle_on_shipped_room(shipped_scenario):
    scen = shipped_scenario
    clean = speech_like(1.0, scen.sample_rate, seed=11)
    specs = [
        stft(room.render_observation(clean, scen.sample_rate,
                                     room.image_method_rir(scen, i)),
             WindowSpec(), scen.sample_rate).data
        for i in (0, 1)
    ]
    ref = specs[0]
    sigma = update_psd(ref, resolve_psd_floor(ref, None)).values
    assert np.mean(sigma == sigma.min()) >= 0.8
    streams = [(ref, 26, 4), (specs[1], 1, 0)]
    assert worst_relative_error(streams, ref, sigma, (10, 40, 80, 160)) <= 1e-12


def test_split_kernel_reuses_gram_for_same_arrays(rng):
    # one Gram serves every PSD of its streams and reference
    streams, ref = random_streams(rng, 30, 4)
    gram = Gram.build(streams, [ref])
    sigma = np.maximum(np.abs(ref) ** 2, 0.5)
    for scale in (1.0, 2.0):
        Z, q = normal_equations_all_bins(streams, ref, scale * sigma, gram)
        Z_fresh, q_fresh = normal_equations_all_bins(streams, ref, scale * sigma)
        np.testing.assert_array_equal(Z, Z_fresh)
        np.testing.assert_array_equal(q, q_fresh)


def test_gram_of_T_targets_is_each_targets_one_target_gram(rng):
    # one pass over the streams serves three references: C's generators are
    # a one-target build's, and column t of g is target t's alone
    streams, ref = random_streams(rng, 30, 4)
    refs = [ref, streams[1][0], random_spectrogram(rng, 30, 4)]
    sigma = np.maximum(np.abs(ref) ** 2, 0.5)
    gram = Gram.build(streams, refs)
    assert gram.g.shape == (4, 4, 3) and len(gram.refs) == 3
    Z, q = normal_equations_all_bins(streams, ref, sigma, gram)
    for t, target in enumerate(refs):
        alone = Gram.build(streams, [target])
        assert alone.g.shape == (4, 4, 1)
        for name in ("cols", "last"):
            assert getattr(gram, name).tobytes() == getattr(alone, name).tobytes()
        np.testing.assert_array_equal(gram.g[..., t], alone.g[..., 0])
        Z_alone, q_alone = normal_equations_all_bins(streams, target, sigma, alone)
        np.testing.assert_array_equal(Z, Z_alone)
        # the unfloored cells' correction is one product for all columns
        np.testing.assert_allclose(q[..., t], q_alone[..., 0], rtol=1e-13)


def test_mimo_weights_match_the_per_element_shared_psd_solve(rng, monkeypatch):
    # three channels, all three targets, one iteration: every target is
    # weighted by the mean of the three floored PSDs, and each target's
    # weights solve that system bin by bin
    monkeypatch.setattr(wpe, "RIDGE_SCALE", 0.0)
    specs = [random_spectrogram(rng, 40, 5) for _ in range(3)]
    params = WpeParams(delay=2, filter_order=2, max_iters=1)
    result = run_wpe(specs, (0, 1, 2), params)
    assert result.weights.shape == (5, 6, 3) and len(result.desired) == 3
    floors = [resolve_psd_floor(spec, None) for spec in specs]
    assert result.psd_floor == floors
    sigma = np.mean([np.maximum(np.abs(spec) ** 2, floor)
                     for spec, floor in zip(specs, floors)], axis=0)
    streams = [(spec, 2, 2) for spec in specs]
    for k in range(5):
        stacked = stacked_by_loop(streams, k)
        for t, target in enumerate(specs):
            Z, q = normal_equations_direct(stacked, target[:, k], sigma[:, k])
            want = gaussian_elimination_solve(Z, q)
            np.testing.assert_allclose(result.weights[k, :, t], want, rtol=1e-10, atol=1e-12)
            late = stacked @ want.conj()
            np.testing.assert_allclose(result.desired[t][:, k], target[:, k] - late,
                                       rtol=1e-10, atol=1e-12)


def test_gram_arrays_reject_writes(rng):
    streams, ref = random_streams(rng, 30, 4)
    gram = Gram.build(streams, [ref])
    for array in (gram.cols, gram.last, gram.g):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0
    with pytest.raises(FrozenInstanceError):
        gram.g = np.zeros_like(gram.g)


def test_one_gram_read_by_two_threads_gives_the_serial_bytes(rng):
    streams, ref = random_streams(rng, 200, 33)
    gram = Gram.build(streams, [ref])
    sigmas = [np.maximum(np.abs(ref) ** 2, floor) for floor in (0.5, 1.0, 2.0, 4.0)]
    serial = [normal_equations_all_bins(streams, ref, sigma, gram) for sigma in sigmas]
    start = threading.Barrier(2)

    def reader(order):
        start.wait()  # both threads read the Gram at once
        return {i: normal_equations_all_bins(streams, ref, sigmas[i], gram)
                for _ in range(5) for i in order}

    with ThreadPoolExecutor(max_workers=2) as pool:
        results = list(pool.map(reader, [range(4), range(3, -1, -1)]))
    for result in results:
        for i, (Z, q) in result.items():
            np.testing.assert_array_equal(Z, serial[i][0])
            np.testing.assert_array_equal(q, serial[i][1])


@pytest.mark.parametrize("frames, shape", [
    # the distributed shape: a local order-26 stream plus order-1 neighbours
    (60, [(26, 4), (1, 0), (1, 0), (1, 0)]),
    # fewer frames than delay + order: the deepest lags never see the signal
    (9, [(8, 4), (3, 2)]),
    # a delay-0 stream of order > 1 beside a delayed one
    (40, [(5, 0), (4, 3)]),
    # a run of equal orders, then an order-1 stream among longer ones
    (200, [(12, 2)] * 3 + [(1, 0), (3, 1)]),
    # only order-1 streams: the recursion takes no step
    (10, [(1, 0), (1, 2)]),
])
def test_shift_built_gram_matches_direct(rng, frames, shape):
    K = 5
    streams = [(rng.standard_normal((frames, K)) + 1j * rng.standard_normal((frames, K)),
                order, delay) for order, delay in shape]
    gram = Gram.build(streams, [streams[0][0]])
    C = gram.expand(slice(0, K))
    C_scaled = gram.expand(slice(0, K), 3.0)
    out = np.full_like(C, np.nan)  # every entry must be written
    assert gram.expand(slice(0, K), 3.0, out=out) is out
    np.testing.assert_array_equal(out, C_scaled)
    for k in range(K):
        stacked = stacked_by_loop(streams, k)
        C_ref = stacked.T @ stacked.conj()
        assert np.linalg.norm(C[k] - C_ref) <= 1e-13 * np.linalg.norm(C_ref)
        assert (np.linalg.norm(C_scaled[k] - C_ref / 3.0)
                <= 1e-13 * np.linalg.norm(C_ref / 3.0))


def blocked_system(rng, K, d, frames=120):
    """K bins of d/24 order-24 streams with 85 % of the cells floored."""
    streams = [(rng.standard_normal((frames, K)) + 1j * rng.standard_normal((frames, K)),
                24, 2) for _ in range(d // 24)]
    ref = streams[0][0]
    sigma = np.ones((frames, K))
    active = rng.random((frames, K)) < 0.15
    sigma[active] = 10.0 ** rng.uniform(0.0, 2.0, active.sum())
    return streams, ref, sigma


def pool_of_two(monkeypatch):
    """netsim.map_nodes on two threads, and the threads each job ran on."""
    monkeypatch.setattr(netsim, "worker_count", lambda num_jobs: 2)
    threads = set()

    def map_jobs(fn, items):
        def recorded(item):
            threads.add(threading.get_ident())
            return fn(item)
        return netsim.map_nodes(recorded, items)

    return map_jobs, threads


@pytest.mark.parametrize("prox_scale", [0.0, 0.1])
def test_blocked_solve_equals_one_block(rng, monkeypatch, prox_scale):
    monkeypatch.setattr(wpe, "PROX_SCALE", prox_scale)
    streams, ref, sigma = blocked_system(rng, 11, 48)
    sigma *= 1.0 + np.arange(11)  # only the first block holds min(sigma)
    prox_to = rng.standard_normal((11, 48, 1)) + 1j * rng.standard_normal((11, 48, 1))
    gram = Gram.build(streams, [ref])
    full = solve_weights(streams, sigma, gram, prox_to)
    Z, q = normal_equations_all_bins(streams, ref, sigma, gram)
    assert Z.shape[0] == 11  # the default budget holds every bin at once
    np.testing.assert_array_equal(full, solve_all_bins(Z, q, wpe.RIDGE_SCALE, prox_to))
    # 3 bins per block, the last one short
    monkeypatch.setattr(wpe, "SOLVE_BLOCK_BYTES", 3 * 16 * 48 * 48)
    blocked = solve_weights(streams, sigma, gram, prox_to)
    np.testing.assert_array_equal(blocked, full)
    # two workers: blocks of 1 bin (half the budget), mapped on the pool
    map_jobs, threads = pool_of_two(monkeypatch)
    pooled = solve_weights(streams, sigma, gram, prox_to,
                           workers=2, map_jobs=map_jobs)
    np.testing.assert_array_equal(pooled, full)
    assert threading.get_ident() not in threads


def test_block_workers_reuse_one_Z_buffer_each(rng, monkeypatch):
    streams, ref, sigma = blocked_system(rng, 12, 48)
    gram = Gram.build(streams, [ref])
    buffers = set()
    normal_equations = wpe.normal_equations_all_bins

    def recording(*args, out):
        buffers.add(out.base.ctypes.data if out.base is not None else out.ctypes.data)
        return normal_equations(*args, out=out)

    monkeypatch.setattr(wpe, "normal_equations_all_bins", recording)
    monkeypatch.setattr(wpe, "SOLVE_BLOCK_BYTES", 4 * 16 * 48 * 48)
    map_jobs, _ = pool_of_two(monkeypatch)
    solve_weights(streams, sigma, gram, workers=2, map_jobs=map_jobs)
    assert len(buffers) == 2  # six 2-bin blocks in one buffer per worker


def test_blocked_solve_allocates_less_than_half_of_Z(rng, monkeypatch):
    K, d = 64, 96
    streams, ref, sigma = blocked_system(rng, K, d)
    gram = Gram.build(streams, [ref])
    monkeypatch.setattr(wpe, "SOLVE_BLOCK_BYTES", 4 * 16 * d * d)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        solve_weights(streams, sigma, gram)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < K * d * d * 16 / 2


def test_block_workers_never_share_a_Z_buffer_under_thread_stress(rng, monkeypatch):
    # 3 buffers for 8 threads and 24 one-bin blocks, switching threads often:
    # a buffer two blocks filled at once would change their weights
    streams, ref, sigma = blocked_system(rng, 24, 48, frames=60)
    gram = Gram.build(streams, [ref])
    serial = solve_weights(streams, sigma, gram)
    monkeypatch.setattr(wpe, "SOLVE_BLOCK_BYTES", 3 * 16 * 48 * 48)

    def map_jobs(fn, items):
        with ThreadPoolExecutor(max_workers=8) as pool:
            return list(pool.map(fn, items, timeout=60))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            pooled = solve_weights(streams, sigma, gram, workers=3,
                                   map_jobs=map_jobs)
            np.testing.assert_array_equal(pooled, serial)
    finally:
        sys.setswitchinterval(interval)


def test_blocked_solve_names_the_full_band_bin(rng, monkeypatch):
    streams, ref, _ = blocked_system(rng, 6, 24)
    sigma = np.ones(ref.shape)  # all floored: Z = C
    gram = Gram.build(streams, [ref])
    # all-ones lag-0 columns and a zero last frame expand to an all-ones
    # Gram: rank one with a nonzero trace. Bins 4 and 5, in the second
    # half of the band, are singular
    cols, last = gram.cols.copy(), gram.last.copy()
    cols[4:] = 1.0
    last[4:] = 0.0
    gram = replace(gram, cols=cols, last=last)
    # 2-bin blocks serially, 1-bin blocks on two workers; either way the
    # first failing block in band order names its bin
    monkeypatch.setattr(wpe, "SOLVE_BLOCK_BYTES", 2 * 16 * 24 * 24)
    monkeypatch.setattr(wpe, "RIDGE_SCALE", 0.0)
    map_jobs, _ = pool_of_two(monkeypatch)
    for workers in (1, 2):
        with pytest.raises(SolverError, match="bin 4 "):
            solve_weights(streams, sigma, gram, workers=workers, map_jobs=map_jobs)


@pytest.mark.parametrize("bins", [slice(0, 9), slice(3, 8)])
def test_grouped_cell_gather_equals_one_group(rng, monkeypatch, bins):
    # bins with 10 % to 90 % of their cells unfloored, and one all floored
    streams, ref, _ = blocked_system(rng, 9, 48, frames=60)
    sigma = np.where(rng.random((60, 9)) < np.linspace(0.1, 0.9, 9),
                     1.0 + rng.random((60, 9)), 1.0)
    sigma[:, 5] = 1.0
    gram = Gram.build(streams, [ref])
    monkeypatch.setattr(wpe, "GATHER_BYTES", 16 * 48 * 60 * 9)
    Z, q = normal_equations_all_bins(streams, ref, sigma, gram, bins)
    gathered = []
    gather = wpe.gather_cells

    def counting(streams, frames, cell_bins):
        gathered.append((np.unique(cell_bins).size, frames.size))
        return gather(streams, frames, cell_bins)

    monkeypatch.setattr(wpe, "gather_cells", counting)
    # one bin's worth of cells (60) per group, and one cell: a bin each
    for cells in (60, 1):
        monkeypatch.setattr(wpe, "GATHER_BYTES", 16 * 48 * cells)
        gathered.clear()
        Z_grouped, q_grouped = normal_equations_all_bins(streams, ref, sigma, gram, bins)
        np.testing.assert_array_equal(Z_grouped, Z)
        np.testing.assert_array_equal(q_grouped, q)
        assert len(gathered) > 1
        assert all(size <= cells or group_bins == 1 for group_bins, size in gathered)


def test_cell_gather_transient_stays_within_its_budget(rng, monkeypatch):
    # every cell but the minimum's is unfloored: one gather of them all
    # would be 8 budgets
    K, d, frames = 32, 96, 400
    streams, ref, _ = blocked_system(rng, K, d, frames=frames)
    sigma = 1.0 + rng.random((frames, K))
    gram = Gram.build(streams, [ref])
    out = np.empty((K, d, d), dtype=np.complex128)
    budget = 16 * d * 4 * frames  # four bins' cells
    peaks = []
    for gather_bytes in (budget, 8 * budget):
        monkeypatch.setattr(wpe, "GATHER_BYTES", gather_bytes)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            normal_equations_all_bins(streams, ref, sigma, gram, out=out)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    bounded, unbounded = peaks
    assert bounded < 2 * budget
    assert unbounded > 8 * budget


def test_gram_holds_less_than_a_quarter_of_C(rng):
    K, d = 64, 96
    streams, ref, _ = blocked_system(rng, K, d)
    gram = Gram.build(streams, [ref])
    held = gram.cols.nbytes + gram.last.nbytes + gram.g.nbytes
    assert held < K * d * d * 16 / 4


def test_gram_keeps_no_stream_alive(rng):
    streams, ref = random_streams(rng, 30, 4)
    other = streams[1][0].copy()
    gram = Gram.build([streams[0], (other, 1, 0)], [ref])
    dead = weakref.ref(other)
    del other
    assert dead() is None and gram.orders == (3, 1)


def test_lag_windows_match_the_loop_oracle(rng):
    # fewer frames than delay + order: the deepest lags lie wholly before
    # the signal; (order 1, delay 0) needs no pad and views its stream
    for order, delay in [(8, 4), (3, 2), (1, 0)]:
        data = rng.standard_normal((9, 5)) + 1j * rng.standard_normal((9, 5))
        windows = lag_windows(data, order, delay)
        assert windows.shape == (5, 9, order) and not windows.flags.writeable
        for k in range(5):
            np.testing.assert_array_equal(windows[k], stacked_by_loop([(data, order, delay)], k))
        assert np.shares_memory(windows, data) == (delay + order == 1)


@pytest.mark.parametrize("d", [24, 96])
def test_gram_stacking_stays_within_its_block_budget(rng, monkeypatch, d):
    # two chunks of frames; one block of all 16 bins stacks 8 budgets at
    # d = 96 and 2 at d = 24. The streams' padded copies, 0.4 budgets at
    # d = 96, come on top
    K, frames = 16, 600
    streams, ref, _ = blocked_system(rng, K, d, frames=frames)
    budget = 16 * 96 * wpe.CHUNK_FRAMES * 2
    grams, peaks = [], []
    for block_bytes in (budget, 8 * budget):
        monkeypatch.setattr(wpe, "GRAM_BLOCK_BYTES", block_bytes)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            grams.append(Gram.build(streams, [ref]))
            held, peak = tracemalloc.get_traced_memory()
            peaks.append(peak - held)
        finally:
            tracemalloc.stop()
    bounded, one_block = peaks
    assert bounded < 2 * budget
    assert one_block > (7 if d == 96 else 1.5) * budget
    # block size changes no bin's operations
    for name in ("cols", "last", "g"):
        assert getattr(grams[0], name).tobytes() == getattr(grams[1], name).tobytes()


def test_solve_identity():
    q = np.array([[1 + 2j, 3 - 1j, 0.5j]])
    w = solve_all_bins(np.eye(3)[None], q, ridge_scale=0.0)
    np.testing.assert_allclose(w, q, rtol=1e-12)


def test_solve_scalar_diag():
    w = solve_all_bins(np.array([[[2.0]]]), np.array([[4.0]]), ridge_scale=0.0)
    np.testing.assert_allclose(w, [[2.0]])


def test_solve_matches_elimination_oracle(rng):
    B = rng.standard_normal((3, 4, 4)) + 1j * rng.standard_normal((3, 4, 4))
    Z = B @ B.conj().transpose(0, 2, 1) + 0.5 * np.eye(4)
    q = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    w = solve_all_bins(Z, q, ridge_scale=0.0)
    for k in range(3):
        np.testing.assert_allclose(w[k], gaussian_elimination_solve(Z[k], q[k]),
                                   rtol=1e-10)


def test_solve_singular_raises():
    # rank one with a nonzero trace, so the bin is solved, not skipped as silent
    Z = np.ones((1, 2, 2))
    q = np.array([[1.0, 0.0]])
    with pytest.raises(SolverError, match="bin 0"):
        solve_all_bins(Z, q, ridge_scale=0.0)


def random_psd_systems(rng, K, d):
    B = rng.standard_normal((K, d, d)) + 1j * rng.standard_normal((K, d, d))
    Z = B @ B.conj().transpose(0, 2, 1) + d * np.eye(d)
    q = rng.standard_normal((K, d)) + 1j * rng.standard_normal((K, d))
    return Z, q


def test_solve_allocates_less_than_half_of_Z(rng):
    # the ridge goes onto Z's diagonal in place: no (K, d, d) copy, not even
    # of the live bins when one is silent
    Z, q = random_psd_systems(rng, 32, 96)
    Z[5] = 0.0
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        solve_all_bins(Z, q, ridge_scale=1e-8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < Z.nbytes / 2


def test_solve_mixed_silent_and_live_bins(rng):
    Z, q = random_psd_systems(rng, 5, 4)
    Z[[1, 3]] = 0.0
    prox_to = rng.standard_normal((5, 4)) + 1j * rng.standard_normal((5, 4))
    q_before = q.copy()
    for pull in (None, prox_to):
        w = solve_all_bins(Z.copy(), q, ridge_scale=1e-3, prox_to=pull)
        np.testing.assert_array_equal(w[[1, 3]], 0.0)
        prox_scale = 0.0 if pull is None else wpe.PROX_SCALE
        for k in (0, 2, 4):
            shift = np.trace(Z[k]).real / 4
            A = Z[k] + (1e-3 + prox_scale) * shift * np.eye(4)
            expected = gaussian_elimination_solve(A, q[k] + prox_scale * shift * prox_to[k])
            np.testing.assert_allclose(w[k], expected, rtol=1e-10)
    np.testing.assert_array_equal(q, q_before)  # only Z is consumed


def test_resolve_psd_floor():
    data = np.full((4, 4), 2.0, dtype=complex)  # mean power 4
    assert resolve_psd_floor(data, None) == pytest.approx(0.05 * 4.0)
    assert resolve_psd_floor(data, 0.123) == 0.123
    assert resolve_psd_floor(np.zeros((2, 2)), None) > 0


def make_reverb_pair(rng, frames=300, order=3, delay=2, K=8):
    """Reference channel carrying synthetic late reverberation plus a helper
    channel, built to satisfy the prediction model exactly."""
    desired = (0.4 + rng.random((frames, 1))) * (
        rng.standard_normal((frames, K)) + 1j * rng.standard_normal((frames, K))
    )
    other = rng.standard_normal((frames, K)) + 1j * rng.standard_normal((frames, K))
    true_w = rng.standard_normal((K, 2 * order)) + 1j * rng.standard_normal((K, 2 * order))
    true_w *= 0.55 / np.linalg.norm(true_w, axis=1, keepdims=True)
    ref = np.zeros((frames, K), dtype=complex)
    for n in range(frames):
        stacked = np.zeros((K, 2 * order), dtype=complex)
        for i in range(order):
            src = n - delay - i
            if src >= 0:
                stacked[:, i] = ref[src]
                stacked[:, order + i] = other[src]
        ref[n] = desired[n] + np.sum(true_w.conj() * stacked, axis=1)
    return ref, other, desired


def test_run_wpe_anechoic_passthrough(rng):
    # white input has no late structure: output stays close to input
    window = WindowSpec(frame_len=16, hop=4)
    x = rng.standard_normal(2000)
    spec = stft(x, window).data
    params = WpeParams(delay=3, filter_order=3, max_iters=4, convergence_tol=1e-8)
    result = run_wpe([spec], [0], params)
    rel = np.linalg.norm(result.desired[0] - spec) / np.linalg.norm(spec)
    assert rel < 0.25
    assert np.linalg.norm(result.weights) < 1.0


def test_run_wpe_model_matched_two_channel(rng):
    ref, other, desired = make_reverb_pair(rng, frames=600)
    params = WpeParams(delay=2, filter_order=3, max_iters=5, convergence_tol=0.0,
                       psd_floor=0.1 * float(np.mean(np.abs(desired) ** 2)))
    result = run_wpe([ref, other], [0], params)
    before = np.linalg.norm(ref - desired)
    after = np.linalg.norm(result.desired[0] - desired)
    assert 20 * np.log10(before / after) >= 10.0


def test_run_wpe_cost_non_increasing(rng):
    ref, other, _ = make_reverb_pair(rng, frames=400)
    params = WpeParams(delay=2, filter_order=3, max_iters=6, convergence_tol=0.0)
    result = run_wpe([ref, other], [0], params)
    costs = np.array(result.trace.cost)
    assert np.all(np.diff(costs) <= 1e-6 * np.abs(costs[:-1]))


def test_run_wpe_deterministic(rng):
    ref, other, _ = make_reverb_pair(rng, frames=200)
    params = WpeParams(delay=2, filter_order=3, max_iters=3, convergence_tol=0.0)
    w1 = run_wpe([ref, other], [0], params).weights
    w2 = run_wpe([ref, other], [0], params).weights
    np.testing.assert_array_equal(w1, w2)


def test_run_wpe_wls_optimality(rng):
    # perturbing the solved weights never decreases the weighted quadratic
    # cost evaluated with the sigma that solve used (one iteration: the
    # floored reference power)
    ref, other, _ = make_reverb_pair(rng, frames=300)
    params = WpeParams(delay=2, filter_order=3, max_iters=1, convergence_tol=0.0)
    result = run_wpe([ref, other], [0], params)
    sigma = update_psd(ref, result.psd_floor[0]).values
    streams = [(ref, 3, 2), (other, 3, 2)]
    weights = result.weights[..., 0]
    base_cost = float(np.sum(np.abs(ref - predict_all_bins(streams, weights)) ** 2 / sigma))
    worst = 0.0
    for _ in range(5):
        delta = 1e-4 * (rng.standard_normal(weights.shape)
                        + 1j * rng.standard_normal(weights.shape))
        cost = float(np.sum(np.abs(ref - predict_all_bins(streams, weights + delta)) ** 2 / sigma))
        worst = min(worst, cost - base_cost)
    assert worst >= -1e-6 * base_cost


def test_run_wpe_validates_inputs(rng):
    spec = random_spectrogram(rng)
    with pytest.raises(InvalidInputError):
        run_wpe([], [0], WpeParams())
    with pytest.raises(InvalidInputError):
        run_wpe([spec], [3], WpeParams())
    with pytest.raises(InvalidInputError, match="target channel 3 out of range"):
        run_wpe([spec, spec], (1, 3), WpeParams())
    with pytest.raises(InvalidInputError, match="at least one target"):
        run_wpe([spec], (), WpeParams())
    other = random_spectrogram(rng, frames=11)
    with pytest.raises(InvalidInputError):
        run_wpe([spec, other], [0], WpeParams())


@pytest.mark.parametrize("bad, message", [
    (np.ones(8, dtype=complex), r"observation 1 must be a non-empty 2-D .*got shape \(8,\)"),
    (np.ones((0, 8), dtype=complex), r"observation 1 must be a non-empty 2-D"),
    (np.full((10, 8), np.nan + 0j), "observation 1 contains non-finite entries"),
    (np.full((10, 8), np.inf), "observation 1 contains non-finite entries"),
], ids=["1-D", "no frames", "nan", "real inf"])
def test_check_observations_rejects_non_spectrogram_arrays(rng, bad, message):
    with pytest.raises(InvalidInputError, match=message):
        check_observations([random_spectrogram(rng), bad])


def test_check_observations_coerces_real_and_does_not_copy_complex(rng):
    spec = random_spectrogram(rng)
    real = spec.real.copy()
    checked = check_observations([spec, real])
    assert checked[0] is spec
    assert checked[1].dtype == np.complex128
    np.testing.assert_array_equal(checked[1], real)


def test_weighted_cost_formula(rng):
    desired = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    sigma = rng.random((3, 2)) + 0.5
    expected = float(np.sum(np.abs(desired) ** 2 / sigma + np.log(np.pi * sigma)))
    assert weighted_cost(desired, sigma) == pytest.approx(expected)


def test_trace_record_identical_rounds():
    d = np.ones((4, 5), dtype=complex)
    trace = WpeTrace()
    assert trace.record(d, d.copy(), np.ones(d.shape), tol=1e-4)
    assert trace.change == [0.0]


def test_trace_record_scalar_scaling():
    prev = np.full((3, 3), 2.0 + 0j)
    trace = WpeTrace()
    assert not trace.record(prev, 1.1 * prev, np.ones(prev.shape), tol=1e-4)
    assert trace.change == [pytest.approx(0.1)]


def test_trace_record_geometric_sequence(rng):
    target = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
    err_dir = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
    estimates = [target + 2.0 ** (-k) * err_dir for k in range(1, 6)]
    trace = WpeTrace()
    for previous, desired in zip(estimates, estimates[1:]):
        trace.record(previous, desired, np.ones(target.shape), tol=0.0)
    ratios = np.divide(trace.change[1:], trace.change[:-1])
    scale_fix = np.linalg.norm(estimates[1]) / np.linalg.norm(estimates[2])
    assert ratios.size == 3
    for r in ratios:
        assert r == pytest.approx(0.5, rel=0.2 * scale_fix)


def test_trace_record_zero_previous_converges():
    # an all-zero previous estimate has no relative change: the round counts
    # as change 0.0 and converged, even at a zero tolerance
    trace = WpeTrace()
    assert trace.record(np.zeros((2, 2)), np.ones((2, 2)), np.ones((2, 2)), tol=0.0)
    assert trace.change == [0.0]

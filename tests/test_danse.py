import threading
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dwpe import danse, netsim, wpe
from dwpe.danse import (
    NodeState,
    compress_all_frames,
    node_round,
    run_distributed,
)
from dwpe.errors import InvalidInputError, SolverError
from dwpe.wpe import (
    Gram,
    WpeParams,
    gather_cells,
    lag_windows,
    predict_all_bins,
    run_wpe,
    solve_weights,
    streams_dim,
    update_psd,
)

from oracles import normal_equations_direct, stacked_by_loop

BINS = 8


def random_spec(rng, frames=12):
    return rng.standard_normal((frames, BINS)) + 1j * rng.standard_normal((frames, BINS))


def make_network(rng, num_nodes=2, frames=12, **param_overrides):
    defaults = dict(delay=2, filter_order=3, max_iters=8, convergence_tol=0.0)
    defaults.update(param_overrides)
    params = WpeParams(**defaults)
    specs = [random_spec(rng, frames) for _ in range(num_nodes)]
    nodes = [
        NodeState(node_id=i, observation=s, params=params)
        for i, s in enumerate(specs)
    ]
    return params, specs, nodes


def test_compress_frame_zero_compressor(rng):
    spec = random_spec(rng)
    params = WpeParams(delay=2, filter_order=3)
    out = compress_all_frames(spec, np.zeros((BINS, 3)), params)
    assert np.all(out == 0)


def test_compress_frame_basis_selects_element(rng):
    # compressor e0 in every bin picks the first delayed frame, n - delay
    spec = random_spec(rng)
    params = WpeParams(delay=2, filter_order=3)
    e0 = np.zeros((BINS, 3))
    e0[:, 0] = 1.0
    out = compress_all_frames(spec, e0, params)
    for n, k in ((2, 0), (7, 4), (11, 7)):
        assert out[n, k] == pytest.approx(spec[n - 2, k])


def test_compress_frame_hand_inner_product():
    # one bin, delay 1, four lags: at frame 4 the delayed vector is x(3..0)
    params = WpeParams(delay=1, filter_order=4)
    data = np.array([[1j], [4.0], [1 + 1j], [2 - 1j], [0.0]])
    comp = np.array([[1 + 1j, 2 - 1j, 0.5j, 3.0]])
    vec = np.array([2 - 1j, 1 + 1j, 4.0, 1j])
    expected = np.sum(np.conj(comp[0]) * vec)
    assert compress_all_frames(data, comp, params)[4, 0] == pytest.approx(expected)


def test_compress_all_frames_matches_scalar_op(rng):
    spec = random_spec(rng)
    params = WpeParams(delay=2, filter_order=3)
    compressor = rng.standard_normal((BINS, 3)) \
        + 1j * rng.standard_normal((BINS, 3))
    out = compress_all_frames(spec, compressor, params)
    for k in (0, 5):
        stacked = stacked_by_loop([(spec, 3, 2)], k)
        for n in (0, 4, 11):
            assert out[n, k] == pytest.approx(np.vdot(compressor[k], stacked[n]))


def test_assemble_extended_length(rng):
    params, specs, nodes = make_network(rng)
    node = nodes[0]
    assert len(node.streams()) == 1  # no inbox yet: local block only
    node.receive({1: specs[1]})
    (local, order, delay), (cross, *cross_shape) = node.streams()
    assert local is specs[0] and (order, delay) == (3, 2)
    assert cross is specs[1] and cross_shape == [1, 0]
    assert streams_dim(node.streams()) == params.filter_order + 1


def test_inbox_is_written_only_by_receive(rng):
    _, specs, nodes = make_network(rng, num_nodes=3)
    node = nodes[0]
    node.receive({1: specs[1]})
    with pytest.raises(TypeError):
        node.inbox[2] = specs[2]
    delivered = {2: specs[2]}
    node.receive(delivered)  # a round replaces the whole inbox
    assert list(node.inbox) == [2]  # sender 1's older payload is gone
    delivered[1] = specs[1]  # the inbox is a copy of what was delivered
    assert list(node.inbox) == [2] and node.inbox[2] is specs[2]


def test_assemble_extended_order_markers(rng):
    # one round delivered in sender order 3, 1, 2: distinct markers confirm
    # ascending neighbor order after the local block
    _, specs, nodes = make_network(rng, num_nodes=4)
    node = nodes[0]
    node.receive({j: np.full_like(specs[0], marker)
                  for j, marker in ((3, 33j), (1, 11j), (2, 22j))})
    vec = gather_cells(node.streams(), np.array([5]), np.array([1]))[:, 0]
    np.testing.assert_array_equal(vec, [specs[0][3, 1], specs[0][2, 1],
                                        specs[0][1, 1], 11j, 22j, 33j])
    windows = [lag_windows(*stream)[1, 5] for stream in node.streams()]
    np.testing.assert_array_equal(np.concatenate(windows), vec)


def test_local_predict_zero_weights_returns_observation(rng):
    _, specs, nodes = make_network(rng)
    node = nodes[0]
    node.receive({1: specs[1]})
    late = predict_all_bins(node.streams(), np.zeros((BINS, 4)))
    np.testing.assert_array_equal(specs[0] - late, specs[0])


def test_local_predict_single_node_matches_predict_desired(rng):
    _, specs, nodes = make_network(rng, num_nodes=1)
    node = nodes[0]
    node_round(node, 1, collab_period=2)
    assert np.linalg.norm(node.weights) > 0
    stacked = stacked_by_loop(node.streams(), 2)
    for n in (0, 6, 11):
        expected = specs[0][n, 2] - np.vdot(node.weights[2], stacked[n])
        assert node.desired[n, 2] == pytest.approx(expected)


def test_local_predict_matches_explicit_compressed_path(rng):
    params, specs, nodes = make_network(rng, num_nodes=2)
    node = nodes[0]
    g = rng.standard_normal((BINS, 3)) + 1j * rng.standard_normal((BINS, 3))
    node.receive({1: compress_all_frames(specs[1], g, params)})
    node_round(node, 1, collab_period=2)
    assert np.linalg.norm(node.weights[:, 3:]) > 0
    k = 4
    local = stacked_by_loop([(specs[0], 3, 2)], k)
    neighbor = stacked_by_loop([(specs[1], 3, 2)], k)
    for n in (3, 7, 11):
        extended = np.concatenate([local[n], [np.vdot(g[k], neighbor[n])]])
        expected = specs[0][n, k] - np.vdot(node.weights[k], extended)
        assert node.desired[n, k] == pytest.approx(expected)


# The local_solve tests check the node's per-bin solve, which runs inside
# node_round on the node's streams() and its Gram.

def test_local_solve_single_node_reduces_to_centralized(rng):
    params, specs, nodes = make_network(rng, num_nodes=1, frames=20)
    node = nodes[0]
    node_round(node, 1, collab_period=2)
    assert node.weights.shape == (BINS, 3)
    result = run_wpe(specs, [0], WpeParams(delay=2, filter_order=3, max_iters=1,
                                           convergence_tol=0.0,
                                           psd_floor=node.psd_floor))
    np.testing.assert_array_equal(node.weights, result.weights[..., 0])
    np.testing.assert_array_equal(node.desired, result.desired[0])


def test_local_solve_matches_double_loop_oracle(rng, monkeypatch):
    # the first round with an inbox takes the full step (RELAXATION_DECAY ** 0),
    # so the weights are the solved ones
    monkeypatch.setattr(wpe, "RIDGE_SCALE", 0.0)
    monkeypatch.setattr(wpe, "PROX_SCALE", 0.0)
    params, specs, nodes = make_network(rng, num_nodes=2, frames=6,
                                        filter_order=2, delay=1)
    node = nodes[0]
    g = rng.standard_normal((BINS, 2)) + 1j * rng.standard_normal((BINS, 2))
    node.receive({1: compress_all_frames(specs[1], g, params)})
    psd = update_psd(node.desired, node.psd_floor)
    node_round(node, 1, collab_period=2)
    k = 3
    stacked = stacked_by_loop(node.streams(), k)
    Z, q = normal_equations_direct(stacked, specs[0][:, k], psd.values[:, k])
    w = np.linalg.solve(Z, q)
    got = node.weights[k]
    assert got.shape == (3,)
    assert np.linalg.norm(Z @ got - q) <= 1e-10 * np.linalg.norm(q)
    np.testing.assert_allclose(got, w, rtol=1e-8)


def test_local_solve_sigma_scale_invariance(rng):
    params, specs, nodes = make_network(rng, num_nodes=2, frames=10)
    node = nodes[0]
    g = rng.standard_normal((BINS, 3)) + 1j * rng.standard_normal((BINS, 3))
    node.receive({1: compress_all_frames(specs[1], g, params)})
    sigma = np.abs(rng.standard_normal((10, BINS))) + 0.3
    gram = Gram.build(node.streams(), [specs[0]])

    def solve(scale):
        return solve_weights(node.streams(), scale * sigma, gram)

    np.testing.assert_allclose(solve(1.0), solve(4.0), rtol=1e-9)


def test_local_solve_rebuilds_gram_for_new_inbox(rng):
    params, specs, nodes = make_network(rng, num_nodes=3, frames=20)
    node = nodes[0]

    def payload(j):
        g = rng.standard_normal((BINS, 3)) + 1j * rng.standard_normal((BINS, 3))
        return compress_all_frames(specs[j], g, params)

    node.receive({1: payload(1), 2: payload(2)})
    node_round(node, 1, collab_period=5)
    gram = node.gram
    node.receive({})  # a round without broadcasts
    node_round(node, 2, collab_period=5)
    assert node.gram is gram  # same streams: the Gram is kept
    node.receive({1: payload(1), 2: payload(2)})  # the next broadcast round
    assert node.gram is None  # new streams: the Gram is dropped
    fresh = NodeState(node_id=0, observation=specs[0], params=params)
    fresh.receive(node.inbox)
    fresh.weights, fresh.desired = node.weights.copy(), node.desired.copy()
    node_round(node, 3, collab_period=5)
    assert node.gram is not gram
    node_round(fresh, 3, collab_period=5)
    np.testing.assert_array_equal(node.weights, fresh.weights)
    np.testing.assert_array_equal(node.desired, fresh.desired)


def test_all_zero_inbox_degenerates_to_local_weights(rng, monkeypatch):
    monkeypatch.setattr(wpe, "PROX_SCALE", 0.0)
    params, specs, nodes = make_network(rng, num_nodes=2, frames=20)
    node = nodes[0]
    node.receive({1: np.zeros_like(specs[0])})
    node_round(node, 1, collab_period=2)
    np.testing.assert_allclose(node.weights[:, 3:], 0, atol=1e-20)
    single = run_wpe([specs[0]], [0], WpeParams(delay=2, filter_order=3, max_iters=1,
                                                convergence_tol=0.0,
                                                psd_floor=node.psd_floor))
    np.testing.assert_allclose(node.weights[:, :3], single.weights[..., 0], rtol=1e-5,
                               atol=1e-9)


def test_node_round_damped_update(rng, monkeypatch):
    # after the first inbox the weights move a step mu = RELAXATION_DECAY **
    # (r - 1) from the previous ones toward the solve, which is pulled toward
    # the previous ones
    monkeypatch.setattr(danse, "RELAXATION_DECAY", 0.5)
    params, specs, nodes = make_network(rng, num_nodes=2, frames=20)
    node = nodes[0]
    node_round(node, 1, collab_period=2)
    assert node.weights.shape == (BINS, 3)
    g = rng.standard_normal((BINS, 3)) + 1j * rng.standard_normal((BINS, 3))
    node.receive({1: compress_all_frames(specs[1], g, params)})
    for r in (2, 3):
        w_prev = node.weights
        if r == 2:  # widened once, with zero cross weights
            w_prev = np.pad(w_prev, ((0, 0), (0, 1)))
        psd = update_psd(node.desired, node.psd_floor)
        solved = solve_weights(node.streams(), psd.values,
                               Gram.build(node.streams(), [specs[0]]), w_prev[..., None])[..., 0]
        mu = 0.5 ** (r - 1)
        node_round(node, r, collab_period=2)
        assert not np.allclose(solved, w_prev)
        np.testing.assert_array_equal(node.weights, (1.0 - mu) * w_prev + mu * solved)


def test_node_round_broadcast_schedule(rng):
    _, _, nodes = make_network(rng)
    node = nodes[0]
    sent = []
    for round_index in range(1, 7):
        payload = node_round(node, round_index, collab_period=2)
        sent.append(payload is not None)
    assert sent == [False, True, False, True, False, True]


def test_node_round_collab_one_always_broadcasts(rng):
    _, _, nodes = make_network(rng)
    node = nodes[0]
    assert all(
        node_round(node, r, collab_period=1) is not None for r in range(1, 4)
    )


def test_node_round_broadcast_equals_weights(rng):
    params, specs, nodes = make_network(rng)
    node = nodes[0]
    node.receive({1: specs[1]})
    payload = node_round(node, 2, collab_period=2)
    # the compressor is the local filter of the broadcast round
    np.testing.assert_array_equal(
        payload, compress_all_frames(specs[0], node.weights[:, :3], params)
    )
    # the payload is the local block of the prediction the round subtracted
    cross = predict_all_bins(node.streams()[1:], node.weights[:, 3:])
    np.testing.assert_allclose(node.desired, specs[0] - payload - cross,
                               rtol=1e-12, atol=1e-12)


def test_stale_inbox_fixed_point(rng, monkeypatch):
    # with frozen inbox and converged weights, another round changes nothing
    monkeypatch.setattr(wpe, "PROX_SCALE", 0.0)
    monkeypatch.setattr(danse, "RELAXATION_DECAY", 1.0)
    params, specs, nodes = make_network(rng, num_nodes=2, frames=20,
                                        psd_floor=10.0)
    node = nodes[0]
    node.receive({1: compress_all_frames(
        specs[1],
        rng.standard_normal((BINS, 3)) + 0j,
        params,
    )})
    # huge floor makes sigma constant: one solve reaches the fixed point
    node_round(node, 1, collab_period=5)
    desired_a = node.desired.copy()
    node_round(node, 2, collab_period=5)
    np.testing.assert_allclose(node.desired, desired_a, rtol=1e-9, atol=1e-12)


def test_run_distributed_m1_identical_to_single(rng):
    spec = random_spec(rng, frames=30)
    params = WpeParams(delay=2, filter_order=3, max_iters=5, convergence_tol=1e-7)
    single = run_wpe([spec], [0], params)
    dist = run_distributed([spec], params, collab_period=2)
    np.testing.assert_array_equal(single.desired[0], dist.nodes[0].desired)
    assert dist.nodes[0].trace == single.trace


@pytest.mark.parametrize("collab_period", [1, 2, 3])
def test_run_distributed_ledger_and_inbox(rng, collab_period):
    params, specs, _ = make_network(rng, num_nodes=3, frames=16)
    result = run_distributed(specs, replace(params, max_iters=6),
                             collab_period=collab_period)
    # broadcasts land on the multiples of collab_period only
    rows = result.ledger.rows
    broadcasts = list(range(collab_period, 7, collab_period))
    assert sorted({r[0] for r in rows}) == broadcasts
    # every broadcast round moves one scalar per (n, k) per directed pair
    per_round = 3 * 2 * 16 * BINS
    assert sum(r[4] for r in rows if r[0] == collab_period) == per_round
    assert sum(r[4] for r in rows) == len(broadcasts) * per_round
    nodes = result.nodes
    for node in nodes:
        assert sorted(node.inbox) == [j for j in range(3) if j != node.node_id]
    # one array per sender, shared by its recipients: M payloads, not M(M-1)
    for sender in range(3):
        held = [node.inbox[sender] for node in nodes if node.node_id != sender]
        assert all(payload is held[0] for payload in held)


def test_run_distributed_compressor_snapshot_consistency(rng):
    # a neighbor's inbox entry equals the sender's local filter at its
    # broadcast round applied to the sender's signal, even after further
    # local rounds (runs are deterministic, so round 2 is replayed)
    params, specs, _ = make_network(rng, num_nodes=2, frames=16)
    at_broadcast = run_distributed(specs, replace(params, max_iters=2), collab_period=2)
    result = run_distributed(specs, replace(params, max_iters=3), collab_period=2)
    broadcast_weights = at_broadcast.nodes[1].weights[:, :3]
    assert not np.array_equal(result.nodes[1].weights[:, :3], broadcast_weights)
    expected = compress_all_frames(specs[1], broadcast_weights, params)
    np.testing.assert_array_equal(result.nodes[0].inbox[1], expected)


def test_run_distributed_trace_rounds_start_at_one(rng):
    # round 1 is recorded against the observation, as in run_wpe
    params, specs, _ = make_network(rng, num_nodes=2, frames=16)
    result = run_distributed(specs, replace(params, max_iters=5), collab_period=2)
    for node in result.nodes:
        assert len(node.trace.change) == len(node.trace.cost) == 5
        assert node.trace.change[0] > 0
        assert not node.trace.converged


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**16), num_nodes=st.integers(1, 4))
def test_run_distributed_deterministic(seed, num_nodes):
    rng = np.random.default_rng(seed)
    params = WpeParams(delay=1, filter_order=2, max_iters=3, convergence_tol=0.0)
    specs = [random_spec(rng, 10) for _ in range(num_nodes)]
    a = run_distributed(specs, params, collab_period=2)
    b = run_distributed(specs, params, collab_period=2)
    for na, nb in zip(a.nodes, b.nodes):
        np.testing.assert_array_equal(na.desired, nb.desired)


def test_distributed_solve_dimension(rng):
    params, specs, _ = make_network(rng, num_nodes=3, frames=16)
    result = run_distributed(specs, replace(params, max_iters=3), collab_period=1)
    node = result.nodes[0]
    assert node.weights.shape == (BINS, params.filter_order + 2)
    # some cross weight is actually in use after the first broadcast
    assert np.linalg.norm(node.weights[:, params.filter_order:]) > 0


def test_silent_observation_gives_silent_output(rng):
    # an all-zero previous estimate has no relative change: it counts as
    # converged, not raise, even at tolerance 0, in run_wpe and in every
    # node of a distributed run alike
    silent = np.zeros((16, BINS), dtype=complex)
    for tol in (1e-4, 0.0):
        params = WpeParams(delay=2, filter_order=3, max_iters=4, convergence_tol=tol)
        single = run_wpe([silent], [0], params)
        assert single.trace.converged and single.trace.iterations == 1
        assert np.all(single.desired[0] == 0)
        alone = run_distributed([silent], params, collab_period=2).nodes[0]
        assert alone.trace.converged and alone.trace.iterations == 1
        assert alone.trace == single.trace
        assert np.all(alone.desired == 0)
        pair = run_distributed([silent, random_spec(rng, 16)], params, collab_period=2)
        assert [node.trace.iterations for node in pair.nodes] == [4, 4]
        assert pair.nodes[0].trace.converged and not pair.nodes[1].trace.converged
        assert np.all(pair.nodes[0].desired == 0)


def test_run_distributed_same_bytes_for_any_worker_count(rng, monkeypatch):
    params, specs, _ = make_network(rng, num_nodes=4, frames=16, max_iters=5)
    runs = []
    for workers in (1, 3):
        monkeypatch.setattr(netsim, "worker_count", lambda num_nodes, w=workers: w)
        runs.append(run_distributed(specs, params, collab_period=2))
    serial, pooled = runs
    assert serial.ledger.rows == pooled.ledger.rows
    for a, b in zip(serial.nodes, pooled.nodes):
        np.testing.assert_array_equal(a.desired, b.desired)
        np.testing.assert_array_equal(a.weights, b.weights)
        assert a.trace == b.trace  # change and cost, float for float


@pytest.mark.parametrize("cpus, env, num_nodes, expected", [
    (2, {}, 12, 1),                                  # unpinned BLAS fills the cores
    (2, {"OPENBLAS_NUM_THREADS": "1"}, 12, 2),
    (2, {"OPENBLAS_NUM_THREADS": "2"}, 12, 1),
    (8, {"OPENBLAS_NUM_THREADS": "1"}, 3, 3),        # never more than M
    (8, {"OMP_NUM_THREADS": "2"}, 12, 4),
    (8, {"OPENBLAS_NUM_THREADS": "x", "MKL_NUM_THREADS": "4"}, 12, 2),  # first integer
    (1, {"OPENBLAS_NUM_THREADS": "1"}, 12, 1),
])
def test_worker_count_rule(monkeypatch, cpus, env, num_nodes, expected):
    for name in netsim.BLAS_THREAD_VARIABLES:
        monkeypatch.delenv(name, raising=False)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    monkeypatch.setattr(netsim.os, "sched_getaffinity", lambda pid: set(range(cpus)),
                        raising=False)
    assert netsim.worker_count(num_nodes) == expected
    # where the affinity call does not exist, the CPU count stands in
    monkeypatch.delattr(netsim.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(netsim.os, "cpu_count", lambda: cpus)
    assert netsim.worker_count(num_nodes) == expected


def test_node_error_propagates_and_no_worker_outlives_the_run(rng, monkeypatch):
    params, specs, _ = make_network(rng, num_nodes=4, frames=16, max_iters=3)
    monkeypatch.setattr(netsim, "worker_count", lambda num_nodes: 3)
    solve = danse.solve_weights

    def failing_at_node_2(streams, sigma, gram, *args):
        if gram.refs[0] is specs[2]:
            raise SolverError("singular system at bin 0")
        return solve(streams, sigma, gram, *args)

    before = threading.active_count()
    run_distributed(specs, params, collab_period=2)
    assert threading.active_count() == before
    monkeypatch.setattr(danse, "solve_weights", failing_at_node_2)
    with pytest.raises(SolverError, match="node 2: .*bin 0"):
        run_distributed(specs, params, collab_period=2)
    assert threading.active_count() == before


@pytest.mark.parametrize("case", ["no observations", "shapes differ", "non-finite",
                                  "collab_period 0"])
def test_run_distributed_rejects_bad_inputs_before_the_pool(rng, monkeypatch, case):
    params, specs, _ = make_network(rng, num_nodes=2, frames=16)
    observations, collab_period = {
        "no observations": ([], 2),
        "shapes differ": ([specs[0], random_spec(rng, 17)], 2),
        "non-finite": ([specs[0], np.full_like(specs[1], np.nan)], 2),
        "collab_period 0": (specs, 0),
    }[case]

    def no_pool(*args, **kwargs):
        raise AssertionError("the pool started")

    monkeypatch.setattr(netsim, "ThreadPoolExecutor", no_pool)
    before = threading.active_count()
    with pytest.raises(InvalidInputError):
        run_distributed(observations, params, collab_period=collab_period)
    assert threading.active_count() == before


def test_replaced_payloads_are_freed_and_unchanged_inboxes_reuse_the_gram(rng, monkeypatch):
    # collab_period=1: the payloads of round r replace those of round r-1 at
    # the end of round r, so none of round r-1's may be alive in round r+1
    params, specs, _ = make_network(rng, num_nodes=3, frames=16, max_iters=5)
    monkeypatch.setattr(netsim, "worker_count", lambda num_nodes: 1)
    original = danse.node_round
    sent: dict[int, list] = {}

    def tracking(node, round_index, collab_period):
        assert all(ref() is None for r, refs in sent.items() if r <= round_index - 2
                   for ref in refs)
        payload = original(node, round_index, collab_period)
        sent.setdefault(round_index, []).append(weakref.ref(payload))
        return payload

    monkeypatch.setattr(danse, "node_round", tracking)
    run_distributed(specs, params, collab_period=1)
    assert len(sent) == 5

    # collab_period=2: rounds 1-2 and 3-4 solve over the same arrays, and
    # round 3 over new payloads
    grams: dict[int, list] = {}

    def recording(node, round_index, collab_period):
        payload = original(node, round_index, collab_period)
        grams.setdefault(node.node_id, []).append(node.gram.cols)
        return payload

    monkeypatch.setattr(danse, "node_round", recording)
    run_distributed(specs, replace(params, max_iters=4), collab_period=2)
    for cols in grams.values():
        assert cols[1] is cols[0] and cols[2] is not cols[1] and cols[3] is cols[2]

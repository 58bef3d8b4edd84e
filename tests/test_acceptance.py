"""Acceptance suite: one test per criterion, each printing a pass line, and
beside criterion 8 a check that the equal-size centralized reference leads
distributed mode.

The end-to-end criteria run the shipped 12-node scenario with the published
parameter set (filter order 26, prediction delay 4, collaboration period 2
for the quality run). Shorter utterances than the stated runtime-target
length are used; all asserted margins and tolerances are the stated ones.
"""

import time

import numpy as np
import pytest

from dwpe import danse, dsp, netsim, pipeline, room, signals, wpe
from dwpe.complexity import (
    beta_report,
    centralized_filter_dimension,
    distributed_filter_dimension,
)

from oracles import gaussian_elimination_solve

FS = 16000
REPORT_NODES = (0, 3, 6)
SCENARIO = "scenarios/simulated_12node.json"


def ok(num, message):
    print(f"ACCEPTANCE {num:2d} PASS: {message}")


@pytest.fixture(scope="module")
def rirs(shipped_scenario):
    return [room.image_method_rir(shipped_scenario, i)
            for i in range(shipped_scenario.num_nodes)]


def observe(rirs, clean):
    return [room.render_observation(clean, FS, r) for r in rirs]


def test_criterion_1_transmission_accounting():
    expected = {
        ("centralized", 6, 26): 130, ("centralized", 9, 26): 208,
        ("centralized", 12, 26): 286, ("centralized", 4, 40): 120,
        ("centralized", 6, 40): 200, ("centralized", 8, 40): 280,
        ("distributed", 6, 26): 5, ("distributed", 9, 26): 8,
        ("distributed", 12, 26): 11, ("distributed", 4, 40): 3,
        ("distributed", 6, 40): 5, ("distributed", 8, 40): 7,
    }
    for (mode, m, order), value in expected.items():
        assert netsim.count_transmissions(mode, m, order) == value
    # reduction ratios to 4 significant figures
    sim_pct = 100.0 * netsim.transmission_reduction(12, 26)
    real_pct = 100.0 * netsim.transmission_reduction(8, 40)
    assert round(sim_pct, 2) == 96.15
    assert round(real_pct, 2) == 97.50
    ok(1, f"all 8 published T values exact; reductions {sim_pct:.2f}% / {real_pct:.1f}%")


def test_criterion_2_filter_dimensions():
    assert [distributed_filter_dimension(m, 26) for m in (6, 9, 12)] == [31, 34, 37]
    assert [distributed_filter_dimension(m, 40) for m in (4, 6, 8)] == [43, 45, 47]
    assert [centralized_filter_dimension(m, 26) for m in (6, 9, 12)] == [156, 234, 312]
    ok(2, "distributed per-node dimensions reproduce the published filter-length column")


def test_criterion_3_beta_agreement():
    printed = {
        (6, 26): (0.042, 0.205, 0.009), (9, 26): (0.022, 0.150, 0.003),
        (12, 26): (0.015, 0.122, 0.002), (4, 40): (0.076, 0.275, 0.021),
        (6, 40): (0.037, 0.192, 0.007), (8, 40): (0.023, 0.150, 0.003),
    }
    for (m, order), (bmul, bdiv, bsolve) in printed.items():
        rep = beta_report(m, order)
        # beta_solve at the printed rounding (half a unit in the last digit)
        assert abs(rep.beta_solve - bsolve) <= 0.0005 + 1e-12
        # beta_mul / beta_div on properties: < 1, same order of magnitude
        for got, ref in ((rep.beta_mul, bmul), (rep.beta_div, bdiv)):
            assert 0.0 < got < 1.0
            assert 0.3 < got / ref < 3.0
    for order in (26, 40):
        reps = [beta_report(m, order) for m in range(2, 13)]
        for a, b in zip(reps, reps[1:]):
            assert b.beta_mul <= a.beta_mul
            assert b.beta_div <= a.beta_div
            assert b.beta_solve <= a.beta_solve
    ok(3, "beta_solve matches printed digits; beta_mul/div in (0,1), right magnitude, monotone")


def test_criterion_4_solver_oracle_equivalence():
    rng = np.random.default_rng(2024)
    t0 = time.time()
    for trial in range(200):
        dim = int(rng.integers(2, 13))
        B = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        Z = B @ B.conj().T + 0.1 * np.eye(dim)
        q = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        w = wpe.solve_all_bins(Z[None], q[None], ridge_scale=0.0)[0]
        w_ref = gaussian_elimination_solve(Z, q)
        assert np.linalg.norm(w - w_ref) <= 1e-10 * np.linalg.norm(w_ref)
    ok(4, f"200 random Hermitian solves match the elimination oracle ({time.time()-t0:.2f}s)")


def test_criterion_5_stft_fidelity():
    rng = np.random.default_rng(77)
    window = dsp.WindowSpec(frame_len=512, hop=128)  # 32 ms / 75% at 16 kHz
    t0 = time.time()
    for trial in range(50):
        length = int(rng.integers(4096, 12000))
        x = rng.standard_normal(length)
        y = dsp.istft(dsp.stft(x, window, FS))
        lo, hi = window.frame_len, length - window.frame_len
        err = np.linalg.norm(y[lo:hi] - x[lo:hi]) / np.linalg.norm(x[lo:hi])
        assert err <= 1e-8
    ok(5, f"50 random roundtrips within 1e-8 relative ({time.time()-t0:.2f}s)")


def model_matched_instance(num_frames=4000, seed=3, order=4, delay=2):
    rng = np.random.default_rng(seed)
    K = 8
    env = 0.3 + rng.random((num_frames, 1)) * 1.5
    desired = env * (rng.standard_normal((num_frames, K))
                     + 1j * rng.standard_normal((num_frames, K))) / np.sqrt(2)
    other = 0.8 * (rng.standard_normal((num_frames, K))
                   + 1j * rng.standard_normal((num_frames, K)))
    true_w = rng.standard_normal((K, 2 * order)) + 1j * rng.standard_normal((K, 2 * order))
    true_w *= 0.6 / np.linalg.norm(true_w, axis=1, keepdims=True)
    ref = np.zeros((num_frames, K), dtype=complex)
    for n in range(num_frames):
        stacked = np.zeros((K, 2 * order), dtype=complex)
        for i in range(order):
            src = n - delay - i
            if src >= 0:
                stacked[:, i] = ref[src]
                stacked[:, order + i] = other[src]
        ref[n] = desired[n] + np.sum(true_w.conj() * stacked, axis=1)
    return ref, other, desired


def test_criterion_6_model_matched_exactness():
    t0 = time.time()
    ref, other, desired = model_matched_instance()
    params = wpe.WpeParams(
        delay=2, filter_order=4, max_iters=5, convergence_tol=0.0,
        psd_floor=0.1 * float(np.mean(np.abs(desired) ** 2)),
    )
    result = wpe.run_wpe([ref, other], [0], params)
    before = np.linalg.norm(ref - desired)
    after = np.linalg.norm(result.desired[0] - desired)
    reduction_db = 20.0 * np.log10(before / after)
    assert reduction_db >= 20.0
    costs = np.array(result.trace.cost)
    assert np.all(np.diff(costs) <= 1e-6 * np.abs(costs[:-1]))
    ok(6, f"model-matched residual reduced {reduction_db:.1f} dB in 5 iterations, "
          f"cost non-increasing ({time.time()-t0:.1f}s)")


def test_criterion_7_single_node_reduction():
    t0 = time.time()
    clean = signals.speech_like(2.0, FS, seed=5)
    spec = dsp.stft(clean, dsp.WindowSpec(), FS).data
    params = wpe.WpeParams(delay=4, filter_order=12, max_iters=6, convergence_tol=1e-6)
    single = wpe.run_wpe([spec], [0], params)
    dist = danse.run_distributed([spec], params, collab_period=2)
    assert single.trace.iterations == dist.nodes[0].trace.iterations
    assert np.array_equal(single.desired[0], dist.nodes[0].desired)
    ok(7, f"M=1 distributed output is elementwise identical to single-channel "
          f"({time.time()-t0:.1f}s)")


@pytest.fixture(scope="module")
def quality_runs(rirs):
    """A function that runs one mode on criterion 8's input at the report
    nodes and scores it, and criterion 8's scored single and distributed
    runs, which the centralized check beside it shares."""
    clean = signals.speech_like(6.0, FS, seed=7)
    observations = observe(rirs, clean)
    boundary = 4 * pipeline.STFT_WINDOW.hop

    def run(mode, params):
        config = pipeline.RunConfig(SCENARIO, mode, params=params, report_nodes=REPORT_NODES)
        result = pipeline.run(observations, FS, config)
        return result, pipeline.score(clean, rirs, observations, result.estimates,
                                      result.lags, boundary, FS)

    t0 = time.time()
    _, single_scores = run("single", wpe.WpeParams(delay=4, filter_order=26, max_iters=30,
                                                   convergence_tol=1e-3))
    _, dist_scores = run("distributed", wpe.WpeParams(delay=4, filter_order=26, max_iters=24,
                                                      convergence_tol=0.0))
    return run, single_scores, dist_scores, time.time() - t0


def test_criterion_8_directional_quality(quality_runs):
    _, single_scores, dist_scores, elapsed = quality_runs
    for node in REPORT_NODES:
        (cd_u, fsnr_u), (cd_s, fsnr_s) = single_scores[node]
        _, (cd_d, fsnr_d) = dist_scores[node]
        assert fsnr_d > fsnr_s + 0.2, f"node {node}: F-SNR dist {fsnr_d} vs single {fsnr_s}"
        assert fsnr_s > fsnr_u + 0.2, f"node {node}: F-SNR single {fsnr_s} vs unproc {fsnr_u}"
        assert cd_d < cd_s - 0.1, f"node {node}: CD dist {cd_d} vs single {cd_s}"
        assert cd_s < cd_u - 0.1, f"node {node}: CD single {cd_s} vs unproc {cd_u}"
    ok(8, f"per-node quality ordering distributed > single > unprocessed with "
          f"required margins ({elapsed:.0f}s)")


def test_centralized_reference_beats_distributed(quality_runs):
    # the honest centralized reference: filter order 3 on all 12 channels,
    # d = 36 unknowns per bin, no more than distributed's L + M - 1 = 37.
    # On this input it led distributed by at least 0.50 dB CD and 3.00 dB
    # F-SNR per node; the margins are half of that
    run, single_scores, dist_scores, _ = quality_runs
    cent, cent_scores = run("centralized", wpe.WpeParams(delay=4, filter_order=3, max_iters=3))
    assert cent.unknowns == 36
    for node in REPORT_NODES:
        _, (cd_c, fsnr_c) = cent_scores[node]
        _, (cd_d, fsnr_d) = dist_scores[node]
        _, (cd_s, fsnr_s) = single_scores[node]
        assert fsnr_c > fsnr_d + 1.5, f"node {node}: F-SNR cent {fsnr_c} vs dist {fsnr_d}"
        assert cd_c < cd_d - 0.25, f"node {node}: CD cent {cd_c} vs dist {cd_d}"
        assert fsnr_d > fsnr_s and cd_d < cd_s, f"node {node}: dist not above single"
    print("centralized L=3 > distributed > single at nodes", REPORT_NODES)


def test_criterion_9_convergence_traces(rirs, monkeypatch):
    t0 = time.time()
    monkeypatch.setattr(danse, "RELAXATION_DECAY", 0.85)
    clean = signals.speech_like(4.0, FS, seed=11)
    params = wpe.WpeParams(delay=4, filter_order=26, max_iters=30,
                           convergence_tol=0.0)
    for m in (6, 9, 12):
        # distributed mode runs and traces every node whatever it reports;
        # report node 0 is in range for all m
        config = pipeline.RunConfig(SCENARIO, "distributed", params=params,
                                    collab_period=1, report_nodes=(0,))
        result = pipeline.run(observe(rirs[:m], clean), FS, config)
        for node in range(m):
            errors = np.asarray(result.traces[node].change)
            rounds = np.arange(1, errors.size + 1)
            below = errors < 1e-3
            assert np.any(below), f"M={m} node {node} never reached 1e-3"
            assert rounds[int(np.argmax(below))] <= 30
            tail = errors[-10:]
            assert np.all(np.diff(tail) <= 1e-15), f"M={m} node {node} tail not monotone"
    ok(9, f"convergence below 1e-3 within 30 rounds, monotone final 10 rounds, "
          f"M in 6/9/12 ({time.time()-t0:.0f}s)")


def test_criterion_10_gcc_phat_synchronization():
    t0 = time.time()
    rng = np.random.default_rng(123)
    base = rng.standard_normal(48000)
    for shift in (-2000, -641, -3, 0, 2, 17, 555, 2000):
        delayed = np.zeros_like(base)
        if shift >= 0:
            delayed[shift:] = base[: base.size - shift]
        else:
            delayed[:shift] = base[-shift:]
        assert netsim.gcc_phat_lag(base, delayed, 2000) == shift
        noise = rng.standard_normal(base.size)
        noisy = delayed + noise * (np.linalg.norm(delayed) / np.linalg.norm(noise)) * 10 ** (-1.0)
        assert netsim.gcc_phat_lag(base, noisy, 2000) == shift
    ok(10, f"integer delays up to +-2000 samples recovered exactly, clean and at "
           f"20 dB SNR ({time.time()-t0:.1f}s)")

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dwpe.errors import InvalidInputError
from dwpe.netsim import (
    TransmissionLedger,
    apply_lags,
    count_transmissions,
    deliver_round,
    gcc_phat_lag,
    synchronize,
    transmission_reduction,
)

from oracles import cross_correlation_argmax


def test_deliver_two_nodes_one_broadcast():
    payload = np.ones(4)
    received = deliver_round({0: payload}, 1, 2, TransmissionLedger(mode="distributed"))
    assert received == {0: {}, 1: {0: payload}}


def test_deliver_all_broadcast_twelve_nodes():
    payloads = {i: np.full(2, i) for i in range(12)}
    received = deliver_round(payloads, 1, 12, TransmissionLedger(mode="distributed"))
    for node, box in received.items():
        assert list(box) == [j for j in range(12) if j != node]
        assert all(box[j] is payloads[j] for j in box)


def test_deliver_orders_by_sender_regardless_of_submission():
    ledger = TransmissionLedger(mode="distributed")
    received = deliver_round({i: np.ones(1) for i in (3, 0, 2, 1)}, 1, 4, ledger)
    for node in range(4):
        assert list(received[node]) == [j for j in range(4) if j != node]
    assert [(r[2], r[3]) for r in ledger.rows] == [
        (s, t) for s in range(4) for t in range(4) if s != t]


@settings(max_examples=20, deadline=None)
@given(perm=st.permutations(list(range(5))), silent=st.sets(st.integers(0, 4)))
def test_deliver_permutation_invariant(perm, silent):
    # ledger rows and inboxes do not depend on the map's insertion order,
    # also when some nodes send nothing in the round
    senders = [i for i in perm if i not in silent]
    ledger, reference_ledger = (TransmissionLedger(mode="distributed") for _ in range(2))
    received = deliver_round({i: np.full(2, i) for i in senders}, 3, 5, ledger)
    reference = deliver_round({i: np.full(2, i) for i in sorted(senders)}, 3, 5,
                              reference_ledger)
    assert ledger.rows == reference_ledger.rows
    for node in range(5):
        assert list(received[node]) == list(reference[node])
        for sender, payload in received[node].items():
            np.testing.assert_array_equal(payload, reference[node][sender])


@pytest.mark.parametrize("sender", [-1, 3])
def test_deliver_sender_out_of_range(sender):
    ledger = TransmissionLedger(mode="distributed")
    with pytest.raises(InvalidInputError, match="out of range"):
        deliver_round({0: np.ones(1), sender: np.ones(1)}, 1, 3, ledger)
    assert ledger.rows == []  # nothing is delivered from a rejected round


def test_ledger_counts_units(tmp_path):
    ledger = TransmissionLedger(mode="distributed")
    deliver_round({i: np.ones((5, 2)) for i in range(3)}, 2, 3, ledger)
    # 3 senders x 2 receivers x 10 scalars
    assert [r[0] for r in ledger.rows] == [2] * 6
    assert [r[4] for r in ledger.rows] == [10] * 6
    path = tmp_path / "ledger.csv"
    ledger.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "round,mode,from,to,units"
    assert lines[1] == "2,distributed,0,1,10"
    assert len(lines) == 7


TABLE_T = [
    # (num_nodes, filter_order, centralized, distributed)
    (6, 26, 130, 5),
    (9, 26, 208, 8),
    (12, 26, 286, 11),
    (4, 40, 120, 3),
    (6, 40, 200, 5),
    (8, 40, 280, 7),
]


@pytest.mark.parametrize("m,order,cent,dist", TABLE_T)
def test_count_transmissions_published_values(m, order, cent, dist):
    assert count_transmissions("centralized", m, order) == cent
    assert count_transmissions("distributed", m) == dist
    assert count_transmissions("single", m, order) == 0


def test_count_transmissions_unknown_mode():
    with pytest.raises(InvalidInputError):
        count_transmissions("mesh", 4, 8)


def test_transmission_reduction_values():
    assert transmission_reduction(12, 26) == pytest.approx(1 - 11 / 286)
    assert transmission_reduction(8, 40) == pytest.approx(1 - 7 / 280)


def test_gcc_phat_identical_signals(rng):
    x = rng.standard_normal(4000)
    assert gcc_phat_lag(x, x, 100) == 0


def test_gcc_phat_constructed_shift(rng):
    x = rng.standard_normal(4000)
    b = np.zeros_like(x)
    b[5:] = x[:-5]
    assert gcc_phat_lag(x, b, 50) == 5
    assert gcc_phat_lag(x, b, 50) == cross_correlation_argmax(x, b, 50)


def test_gcc_phat_noisy_shift(rng):
    x = rng.standard_normal(8000)
    b = np.zeros_like(x)
    b[17:] = x[:-17]
    noise = rng.standard_normal(8000)
    noisy = b + noise * (np.linalg.norm(b) / np.linalg.norm(noise)) * 10 ** (-20 / 20)
    assert gcc_phat_lag(x, noisy, 60) == 17
    assert cross_correlation_argmax(x, noisy, 60) == 17


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**16), d=st.integers(-30, 30))
def test_gcc_phat_shift_equivariance(seed, d):
    r = np.random.default_rng(seed)
    x = r.standard_normal(2000)
    shifted = np.zeros_like(x)
    if d >= 0:
        shifted[d:] = x[: len(x) - d]
    else:
        shifted[:d] = x[-d:]
    assert gcc_phat_lag(x, shifted, 40) == d


def test_gcc_phat_all_zero_signal_gets_lag_zero(rng):
    # the shifted signal measures 7; an all-zero one, as either argument or
    # both, measures nothing and gets 0
    x = rng.standard_normal(100)
    shifted, silent = np.roll(x, 7), np.zeros(100)
    assert gcc_phat_lag(x, shifted, 10) == 7
    for a, b in [(silent, shifted), (x, silent), (silent, silent)]:
        assert gcc_phat_lag(a, b, 10) == 0


def test_gcc_phat_max_lag_validation(rng):
    x = rng.standard_normal(100)
    with pytest.raises(InvalidInputError):
        gcc_phat_lag(x, x, 100)


def test_synchronize_identical_signals(rng):
    x = rng.standard_normal(3000)
    aligned, lags = synchronize([x, x.copy(), x.copy()], reference=0)
    assert lags == [0, 0, 0]
    for sig in aligned:
        np.testing.assert_array_equal(sig, x)


def test_synchronize_recovers_known_delays(rng):
    x = rng.standard_normal(6000)
    delays = [0, 40, 173]
    observations = []
    for d in delays:
        sig = np.zeros_like(x)
        sig[d:] = x[: len(x) - d]
        observations.append(sig)
    aligned, lags = synchronize(observations, reference=0)
    assert lags == delays
    for sig in aligned:
        np.testing.assert_allclose(sig[: len(x) - 200], x[: len(x) - 200], atol=1e-12)


def test_synchronize_reference_is_identity(rng):
    x = rng.standard_normal(2000)
    aligned, lags = synchronize([x], reference=0)
    assert lags == [0]
    np.testing.assert_array_equal(aligned[0], x)


def test_synchronize_all_zero_signal_gets_lag_zero(rng):
    x = rng.standard_normal(2000)
    delayed = np.zeros_like(x)
    delayed[40:] = x[:-40]
    silent = np.zeros_like(x)
    aligned, lags = synchronize([x, silent, delayed], reference=0)
    assert lags == [0, 0, 40]
    np.testing.assert_array_equal(aligned[1], silent)
    # an all-zero reference leaves every signal where it is
    aligned, lags = synchronize([silent, x, delayed], reference=0)
    assert lags == [0, 0, 0]
    for sig, out in zip([silent, x, delayed], aligned):
        np.testing.assert_array_equal(out, sig)


def test_apply_lags_negative(rng):
    x = rng.standard_normal(100)
    out = apply_lags([x], [-10])
    np.testing.assert_array_equal(out[0][10:], x[:90])
    assert np.all(out[0][:10] == 0)


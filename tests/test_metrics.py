import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dwpe import room
from dwpe.errors import InvalidInputError, UndefinedMetricError
from dwpe.metrics import (
    FSNR_CLAMP,
    MEL_BANDS,
    Reference,
    _mel_filterbank,
    cepstral_distance,
    fw_segmental_snr,
)
from dwpe.signals import speech_like

from oracles import cepstral_distance_by_loop, fw_segmental_snr_by_loop, mel_band_powers


@pytest.fixture(scope="module")
def utterance():
    return speech_like(1.2, 16000, seed=42)


def test_cd_identical_is_zero(utterance):
    assert cepstral_distance(utterance, utterance.copy()) == pytest.approx(0.0, abs=1e-12)


def test_cd_gain_invariance(utterance):
    assert cepstral_distance(utterance, 2.0 * utterance) == pytest.approx(0.0, abs=1e-9)


def test_cd_positive_for_distorted(utterance, rng):
    noisy = utterance + 0.3 * rng.standard_normal(utterance.size) * np.std(utterance)
    cd = cepstral_distance(utterance, noisy)
    assert 0.0 < cd <= 10.0


def test_cd_silent_reference_undefined():
    with pytest.raises(UndefinedMetricError):
        cepstral_distance(np.zeros(16000), np.ones(16000))


def test_cd_length_mismatch(utterance):
    with pytest.raises(InvalidInputError):
        cepstral_distance(utterance, utterance[:-1])


@pytest.fixture(scope="module")
def noisy_pair():
    x = speech_like(1.0, seed=1)
    return x, x + 0.05 * np.random.default_rng(0).standard_normal(x.size)


@pytest.mark.parametrize("measure", [cepstral_distance, fw_segmental_snr])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_samples_are_rejected_by_name(noisy_pair, measure, bad):
    # unchecked, NaN error power made an infinite band SNR that F-SNR clamped
    # to 35 dB, and CD returned nan
    x, y = noisy_pair
    broken = y.copy()
    broken[2000:12000:400] = bad
    with pytest.raises(InvalidInputError, match="^estimate has non-finite samples$"):
        measure(x, broken)
    with pytest.raises(InvalidInputError, match="^reference has non-finite samples$"):
        measure(broken, x)
    with pytest.raises(InvalidInputError, match="^reference has non-finite samples$"):
        Reference(broken)


def test_reference_half_scores_like_the_signal(noisy_pair):
    # one half serves any number of signals, each value bit for bit the
    # value of the pair
    x, y = noisy_pair
    half = Reference(x)
    for estimate in (y, 0.5 * y, np.roll(y, 80)):
        assert cepstral_distance(half, estimate) == cepstral_distance(x, estimate)
        assert fw_segmental_snr(half, estimate) == fw_segmental_snr(x, estimate)
    with pytest.raises(InvalidInputError, match="framed at 16000 Hz, scored at 8000 Hz"):
        cepstral_distance(half, y, 8000)
    with pytest.raises(InvalidInputError, match="equal-length"):
        fw_segmental_snr(half, y[:-1])


def test_cd_too_short():
    with pytest.raises(UndefinedMetricError):
        cepstral_distance(np.ones(100), np.ones(100))


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**16), gain=st.floats(0.1, 5.0))
def test_cd_clamped_and_nonnegative(seed, gain):
    r = np.random.default_rng(seed)
    ref = speech_like(0.6, 16000, seed=seed)
    est = gain * ref + 0.5 * r.standard_normal(ref.size) * np.std(ref)
    cd = cepstral_distance(ref, est)
    assert 0.0 <= cd <= 10.0


def test_fsnr_identical_hits_clamp_max(utterance):
    assert fw_segmental_snr(utterance, utterance.copy()) == pytest.approx(FSNR_CLAMP[1])


def test_fsnr_zero_db_noise_per_band(rng):
    # stationary white reference with equal-power independent white noise:
    # every band sees ~0 dB, so the mean lands near 0
    ref = rng.standard_normal(16000) * 0.25
    noise = rng.standard_normal(16000)
    noise *= np.linalg.norm(ref) / np.linalg.norm(noise)
    est = ref + noise
    got = fw_segmental_snr(ref, est)
    assert abs(got) < 1.5


def test_fsnr_band_powers_match_direct_dft(rng):
    # the filterbank applied to an FFT power spectrum equals the direct
    # quadratic-form computation
    frame = rng.standard_normal(64)
    bank = _mel_filterbank(6, 64, 16000)
    direct = mel_band_powers(frame, bank, 64)
    fftpow = bank @ (np.abs(np.fft.rfft(frame, n=64)) ** 2)
    np.testing.assert_allclose(fftpow, direct, rtol=1e-10)


def test_fsnr_clamps_low(utterance, rng):
    est = 20.0 * rng.standard_normal(utterance.size) * max(np.std(utterance), 1e-9)
    got = fw_segmental_snr(utterance, est)
    assert FSNR_CLAMP[0] <= got <= FSNR_CLAMP[1]


def test_fsnr_silent_reference_undefined():
    with pytest.raises(UndefinedMetricError):
        fw_segmental_snr(np.zeros(16000), np.ones(16000))


def test_metrics_alignment_symmetry(utterance, rng):
    # shifting both inputs together leaves both metrics unchanged
    est = utterance + 0.1 * rng.standard_normal(utterance.size) * np.std(utterance)
    shift = 160
    ref_s = utterance[shift:]
    est_s = est[shift:]
    assert cepstral_distance(ref_s, est_s) == pytest.approx(
        cepstral_distance(utterance[: ref_s.size + shift][shift:], est[: est_s.size + shift][shift:])
    )
    assert fw_segmental_snr(ref_s, est_s) == pytest.approx(fw_segmental_snr(ref_s, est_s))


@pytest.fixture(scope="module")
def reverberant_pair(shipped_scenario):
    """Early-reflection reference and reverberant observation of the
    shipped room's node 0."""
    scen = shipped_scenario
    clean = speech_like(2.0, scen.sample_rate, seed=11)
    rir = room.image_method_rir(scen, 0)
    reference = room.early_reference(clean, rir, 512)
    observation = room.render_observation(clean, scen.sample_rate, rir)
    n = min(reference.size, observation.size)
    return reference[:n], observation[:n]


def test_cd_matches_per_frame_loop(reverberant_pair):
    reference, observation = reverberant_pair
    assert cepstral_distance(reference, observation) == pytest.approx(
        cepstral_distance_by_loop(reference, observation), abs=1e-6)
    # a silenced stretch makes the estimate's LPC fit degenerate in active
    # frames, which both skip
    gapped = observation.copy()
    gapped[8000:12000] = 0.0
    assert cepstral_distance(reference, gapped) == pytest.approx(
        cepstral_distance_by_loop(reference, gapped), abs=1e-6)


def test_fsnr_matches_per_frame_loop(reverberant_pair):
    reference, observation = reverberant_pair
    bank = _mel_filterbank(MEL_BANDS, 512, 16000)
    assert fw_segmental_snr(reference, observation) == pytest.approx(
        fw_segmental_snr_by_loop(reference, observation, bank), abs=1e-9)
    # frames where the estimate is exact have zero error power in every band
    patched = observation.copy()
    patched[8000:12000] = reference[8000:12000]
    assert fw_segmental_snr(reference, patched) == pytest.approx(
        fw_segmental_snr_by_loop(reference, patched, bank), abs=1e-9)


def test_mel_filterbank_shape_and_coverage():
    bank = _mel_filterbank(MEL_BANDS, 512, 16000)
    assert bank.shape == (MEL_BANDS, 257)
    assert np.all(bank >= 0)
    # interior bins are covered by at least one band
    assert np.all(bank[:, 5:250].sum(axis=0) > 0)


import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.fft import next_fast_len
from scipy.signal import butter, fftconvolve, lfilter

from dwpe.dsp import (
    Spectrogram,
    WindowSpec,
    _five_smooth_length,
    fft_convolve,
    iir_filter,
    istft,
    stft,
)
from dwpe.errors import ConfigurationError, InvalidInputError
from dwpe.signals import _butter_highpass, _resonator

from oracles import dft_direct, overlap_add_reconstruct


def test_window_spec_rejects_bad_hop():
    with pytest.raises(ConfigurationError):
        WindowSpec(frame_len=512, hop=0)
    with pytest.raises(ConfigurationError):
        WindowSpec(frame_len=512, hop=513)


def test_window_spec_rejects_non_cola_hop():
    # hop == frame_len leaves gaps in the overlap-add of a Hann pair
    with pytest.raises(ConfigurationError):
        WindowSpec(frame_len=512, hop=512)
    with pytest.raises(ConfigurationError):
        WindowSpec(frame_len=512, hop=384)


@pytest.mark.parametrize("hop", [128, 256])
def test_cola_valid_hops(hop):
    spec = WindowSpec(frame_len=512, hop=hop)
    assert spec.num_bins == 257


def test_stft_empty_signal_rejected(default_window):
    with pytest.raises(InvalidInputError):
        stft(np.array([]), default_window)


def test_stft_short_signal_rejected(default_window):
    with pytest.raises(InvalidInputError):
        stft(np.zeros(100), default_window)


def test_stft_zero_signal_is_zero(default_window):
    spec = stft(np.zeros(16000), default_window)
    assert np.all(spec.data == 0)
    assert spec.data.shape[1] == 257


def test_stft_frame_count_deterministic(small_window):
    # exact multiple: no padding frame; one extra sample adds one frame
    n_exact = small_window.frame_len + 5 * small_window.hop
    assert stft(np.ones(n_exact), small_window).data.shape[0] == 6
    assert stft(np.ones(n_exact + 1), small_window).data.shape[0] == 7


def test_stft_matches_direct_dft(small_window, rng):
    x = rng.standard_normal(64)
    spec = stft(x, small_window)
    window = small_window.analysis_window()
    for n in (0, 3):
        frame = x[n * small_window.hop : n * small_window.hop + small_window.frame_len]
        expected = dft_direct(frame * window)
        np.testing.assert_allclose(spec.data[n], expected, atol=1e-10)


def test_sinusoid_peaks_at_its_bin():
    spec_cfg = WindowSpec(frame_len=512, hop=128)
    fs = 16000
    m = 40  # exact bin center: f = m*fs/frame_len
    t = np.arange(4 * 512)
    x = np.sin(2 * np.pi * (m * fs / 512) * t / fs)
    spec = stft(x, spec_cfg, fs)
    mags = np.abs(spec.data)
    for n in range(1, spec.data.shape[0] - 1):
        assert int(np.argmax(mags[n])) == m


def test_roundtrip_interior_exact(default_window, rng):
    x = rng.standard_normal(16000)
    y = istft(stft(x, default_window))
    lo, hi = default_window.frame_len, 16000 - default_window.frame_len
    err = np.linalg.norm(y[lo:hi] - x[lo:hi]) / np.linalg.norm(x[lo:hi])
    assert err <= 1e-8


def test_roundtrip_matches_overlap_add_oracle(small_window, rng):
    x = rng.standard_normal(200)
    spec = stft(x, small_window)
    frames_td = np.fft.irfft(spec.data, n=small_window.frame_len, axis=1)
    expected = overlap_add_reconstruct(
        frames_td, small_window.analysis_window(),
        small_window.synthesis_window(), small_window.hop,
    )
    got = istft(spec)
    np.testing.assert_allclose(got, expected, atol=1e-12)


def test_istft_zero_spectrogram(small_window):
    spec = Spectrogram(np.zeros((5, small_window.num_bins)), 16000, small_window)
    assert np.all(istft(spec) == 0)


def test_istft_output_length(small_window):
    spec = Spectrogram(np.ones((7, small_window.num_bins)), 16000, small_window)
    expected = 6 * small_window.hop + small_window.frame_len
    assert istft(spec).size == expected


def test_single_nonzero_frame_is_local(small_window, rng):
    data = np.zeros((9, small_window.num_bins), dtype=complex)
    data[4] = rng.standard_normal(small_window.num_bins)
    out = istft(Spectrogram(data, 16000, small_window))
    span = slice(4 * small_window.hop, 4 * small_window.hop + small_window.frame_len)
    outside = np.concatenate([out[: span.start], out[span.stop :]])
    assert np.all(outside == 0)
    assert np.any(out[span] != 0)


def test_spectrogram_rejects_bad_bins(small_window):
    with pytest.raises(InvalidInputError):
        Spectrogram(np.zeros((4, small_window.num_bins + 1)), 16000, small_window)


def test_spectrogram_rejects_nonfinite(small_window):
    data = np.zeros((4, small_window.num_bins), dtype=complex)
    data[0, 0] = np.nan
    with pytest.raises(InvalidInputError):
        Spectrogram(data, 16000, small_window)


@settings(max_examples=25, deadline=None)
@given(
    a=st.floats(-3, 3, allow_nan=False),
    b=st.floats(-3, 3, allow_nan=False),
    seed=st.integers(0, 2**16),
)
def test_linearity(a, b, seed):
    window = WindowSpec(frame_len=16, hop=4)
    r = np.random.default_rng(seed)
    x = r.standard_normal(80)
    y = r.standard_normal(80)
    lhs = stft(a * x + b * y, window).data
    rhs = a * stft(x, window).data + b * stft(y, window).data
    np.testing.assert_allclose(lhs, rhs, atol=1e-12 * (1 + abs(a) + abs(b)))


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**16))
def test_roundtrip_property(seed):
    window = WindowSpec(frame_len=32, hop=8)
    x = np.random.default_rng(seed).standard_normal(400)
    y = istft(stft(x, window))
    lo, hi = window.frame_len, 400 - window.frame_len
    assert np.linalg.norm(y[lo:hi] - x[lo:hi]) <= 1e-8 * np.linalg.norm(x[lo:hi])


def test_parseval_per_frame(small_window, rng):
    # one-sided spectrum energy (doubled off DC/Nyquist) equals
    # frame_len times the windowed-frame energy
    x = rng.standard_normal(120)
    spec = stft(x, small_window)
    window = small_window.analysis_window()
    n = 2
    frame = x[n * small_window.hop : n * small_window.hop + small_window.frame_len] * window
    doubling = np.full(small_window.num_bins, 2.0)
    doubling[0] = doubling[-1] = 1.0
    lhs = np.sum(doubling * np.abs(spec.data[n]) ** 2)
    rhs = small_window.frame_len * np.sum(frame**2)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-10)


# The simulation's filters replace scipy.signal, which the package does not
# import; the tests use it as the oracle.

def test_iir_filter_matches_lfilter():
    x = np.random.default_rng(3).standard_normal(48000)
    # one formant section, on a speech segment's length
    b, a = _resonator(700.0, 80.0, 16000)
    want = lfilter(b, a, x[:2880])
    np.testing.assert_allclose(iir_filter(b, a, x[:2880]), want,
                               rtol=0, atol=1e-13 * np.abs(want).max())
    # the 70 Hz fourth-order high-pass of speech_like: its poles sit at
    # |z| = 0.98, so the two recursions' roundings part by up to 1e-10
    b, a = butter(4, 70.0 / 8000.0, btype="highpass")
    want = lfilter(b, a, x)
    np.testing.assert_allclose(iir_filter(b, a, x), want,
                               rtol=0, atol=1e-8 * np.abs(want).max())
    # a leading coefficient other than 1 normalizes both sides
    want = lfilter([0.5, 0.25], [2.0, -1.0], x[:64])
    np.testing.assert_allclose(iir_filter([0.5, 0.25], [2.0, -1.0], x[:64]), want,
                               rtol=1e-14, atol=0)


@pytest.mark.parametrize("order", [1, 2, 4, 8])
@pytest.mark.parametrize("cutoff, fs", [(70.0, 16000), (70.0, 8000), (500.0, 44100)])
def test_butter_highpass_design_is_scipy_butter(order, cutoff, fs):
    b, a = _butter_highpass(order, cutoff, fs)
    want_b, want_a = butter(order, cutoff / (fs / 2.0), btype="highpass")
    # the same steps in the same order: the coefficients are the same floats
    np.testing.assert_array_equal(b, want_b)
    np.testing.assert_array_equal(a, want_a)


def test_fft_convolve_matches_fftconvolve():
    rng = np.random.default_rng(4)
    x = rng.standard_normal(48000)
    h = rng.standard_normal(8192) * np.exp(-np.arange(8192) / 1500.0)
    want = fftconvolve(x, h)
    np.testing.assert_allclose(fft_convolve(x, h), want,
                               rtol=0, atol=1e-12 * np.abs(want).max())
    np.testing.assert_allclose(fft_convolve(x[:5], h[:3]), np.convolve(x[:5], h[:3]),
                               rtol=0, atol=1e-14)
    for n in [*range(1, 300), 56191, 2**20 + 1]:
        assert _five_smooth_length(n) == next_fast_len(n, real=True), n

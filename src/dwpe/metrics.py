"""Objective dereverberation quality measures.

Cepstral distance and frequency-weighted segmental SNR follow the usual
reverberation-evaluation conventions: 25 ms frames with 10 ms hop, LPC order
12 at 16 kHz, active frames selected by a -40 dB energy threshold relative to
the loudest reference frame. The reference signal is the clean source
convolved with the early part of the RIR; `pipeline.score`, their one caller
in the package, builds it and aligns it to the scored node.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInputError, UndefinedMetricError

LPC_ORDER = 12
FRAME_SECONDS = 0.025
HOP_SECONDS = 0.010
ACTIVE_THRESHOLD_DB = -40.0
CD_CLAMP = (0.0, 10.0)
FSNR_CLAMP = (-10.0, 35.0)
MEL_BANDS = 23
FSNR_WEIGHT_EXPONENT = 0.2


def _frame_signal(x: np.ndarray, frame_len: int, hop: int) -> np.ndarray:
    if x.size < frame_len:
        raise UndefinedMetricError(
            f"signal of {x.size} samples shorter than one {frame_len}-sample metric frame"
        )
    n_frames = 1 + (x.size - frame_len) // hop
    idx = np.arange(frame_len)[None, :] + hop * np.arange(n_frames)[:, None]
    return x[idx]


def _active_frames(ref_frames: np.ndarray) -> np.ndarray:
    energy = np.sum(ref_frames ** 2, axis=1)
    peak = energy.max()
    if peak <= 0:
        raise UndefinedMetricError("reference is silent; metrics undefined")
    return energy >= peak * 10.0 ** (ACTIVE_THRESHOLD_DB / 10.0)


def _check_pair(reference: np.ndarray, estimate: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    reference = np.asarray(reference, dtype=np.float64)
    estimate = np.asarray(estimate, dtype=np.float64)
    if reference.shape != estimate.shape or reference.ndim != 1:
        raise InvalidInputError(
            f"reference/estimate must be equal-length 1-D, got "
            f"{reference.shape} and {estimate.shape}"
        )
    return reference, estimate


def _lpc(frames: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Levinson-Durbin LPC coefficients a[1..order] of every row of
    `frames`, shape (n, order), and a mask of the rows that are not
    degenerate (zero energy, or a prediction error that reaches zero)."""
    n, length = frames.shape
    r = np.stack([np.einsum("ij,ij->i", frames[:, : length - k], frames[:, k:])
                  for k in range(order + 1)], axis=1)
    a = np.zeros((n, order + 1))
    a[:, 0] = 1.0
    err = r[:, 0].copy()
    usable = np.ones(n, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for i in range(1, order + 1):
            usable &= ~(err <= 0)
            acc = r[:, i] + np.sum(a[:, 1:i] * r[:, i - 1 : 0 : -1], axis=1)
            k = -acc / err
            a[:, 1:i] += k[:, None] * a[:, i - 1 : 0 : -1]
            a[:, i] = k
            err *= 1.0 - k * k
    return a[:, 1:], usable


def _lpc_cepstrum(a: np.ndarray) -> np.ndarray:
    """Cepstrum c[1..order] of the all-pole models with denominators
    1 + sum a, one per row of a (n, order)."""
    n, order = a.shape
    c = np.zeros((n, order + 1))
    for m in range(1, order + 1):
        j = np.arange(1, m)
        c[:, m] = -(a[:, m - 1] + np.sum((j / m) * c[:, 1:m] * a[:, m - 1 - j], axis=1))
    return c[:, 1:]


def cepstral_distance(reference: np.ndarray, estimate: np.ndarray,
                      sample_rate: int = 16000) -> float:
    """Mean LPC-cepstrum distance in dB over active frames (lower is better).

    The zeroth cepstral coefficient is excluded, so the measure is invariant
    to a global gain on either signal. Frames where either LPC fit is
    degenerate are skipped.
    """
    reference, estimate = _check_pair(reference, estimate)
    frame_len = int(round(FRAME_SECONDS * sample_rate))
    hop = int(round(HOP_SECONDS * sample_rate))
    window = np.hanning(frame_len)
    ref_frames = _frame_signal(reference, frame_len, hop)
    est_frames = _frame_signal(estimate, frame_len, hop)
    active = _active_frames(ref_frames)
    a_ref, ok_ref = _lpc(ref_frames[active] * window, LPC_ORDER)
    a_est, ok_est = _lpc(est_frames[active] * window, LPC_ORDER)
    usable = ok_ref & ok_est
    if not np.any(usable):
        raise UndefinedMetricError("no usable active frames for cepstral distance")
    diff = _lpc_cepstrum(a_ref[usable]) - _lpc_cepstrum(a_est[usable])
    dist = 10.0 / np.log(10.0) * np.sqrt(2.0 * np.sum(diff ** 2, axis=1))
    return float(np.mean(np.clip(dist, *CD_CLAMP)))


def _mel_filterbank(num_bands: int, n_fft: int, sample_rate: int) -> np.ndarray:
    def to_mel(f):
        return 2595.0 * np.log10(1.0 + f / 700.0)

    def from_mel(m):
        return 700.0 * (10.0 ** (m / 2595.0) - 1.0)

    edges_mel = np.linspace(to_mel(0.0), to_mel(sample_rate / 2.0), num_bands + 2)
    edges_hz = from_mel(edges_mel)
    bin_freqs = np.fft.rfftfreq(n_fft, d=1.0 / sample_rate)
    bank = np.zeros((num_bands, bin_freqs.size))
    for b in range(num_bands):
        lo, mid, hi = edges_hz[b : b + 3]
        rising = (bin_freqs - lo) / max(mid - lo, 1e-12)
        falling = (hi - bin_freqs) / max(hi - mid, 1e-12)
        bank[b] = np.clip(np.minimum(rising, falling), 0.0, 1.0)
    return bank


def fw_segmental_snr(reference: np.ndarray, estimate: np.ndarray,
                     sample_rate: int = 16000) -> float:
    """Mel-band-weighted segmental SNR in dB over active frames (higher is
    better); each frame clamped to [-10, 35] dB.

    Band weights are the reference band powers raised to 0.2; the error term
    is the band power of the time-domain difference signal.
    """
    reference, estimate = _check_pair(reference, estimate)
    frame_len = int(round(FRAME_SECONDS * sample_rate))
    hop = int(round(HOP_SECONDS * sample_rate))
    n_fft = int(2 ** np.ceil(np.log2(frame_len)))
    window = np.hanning(frame_len)
    bank = _mel_filterbank(MEL_BANDS, n_fft, sample_rate)
    ref_frames = _frame_signal(reference, frame_len, hop)
    err_frames = _frame_signal(reference - estimate, frame_len, hop)
    active = _active_frames(ref_frames)
    ref_power = (np.abs(np.fft.rfft(ref_frames[active] * window, n=n_fft, axis=1)) ** 2) @ bank.T
    err_power = (np.abs(np.fft.rfft(err_frames[active] * window, n=n_fft, axis=1)) ** 2) @ bank.T
    usable = ref_power > 0
    kept = np.any(usable, axis=1)
    if not np.any(kept):
        raise UndefinedMetricError("no usable active frames for fw-segmental SNR")
    ref_power, err_power, usable = ref_power[kept], err_power[kept], usable[kept]
    weights = np.where(usable, ref_power, 0.0) ** FSNR_WEIGHT_EXPONENT
    with np.errstate(divide="ignore", invalid="ignore"):
        band_snr = np.where(err_power > 0, 10.0 * np.log10(ref_power / err_power), np.inf)
        weighted = np.where(usable, weights * band_snr, 0.0)
    frame_snr = np.sum(weighted, axis=1) / np.sum(weights, axis=1)
    return float(np.mean(np.clip(frame_snr, *FSNR_CLAMP)))

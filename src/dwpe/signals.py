"""Synthetic speech-like test material.

The repository ships no recorded speech; tests and the default pipeline use a
deterministic surrogate instead: pitch-pulsed, formant-filtered excitation
with syllable-rate energy modulation and pauses. That gives the nonstationary,
spectrally colored temporal structure the dereverberation stack needs without
any dataset dependency.
"""

from __future__ import annotations

import numpy as np

from .dsp import iir_filter
from .errors import InvalidInputError


def _resonator(freq: float, bandwidth: float, fs: float):
    """Second-order all-pole resonator coefficients."""
    r = np.exp(-np.pi * bandwidth / fs)
    theta = 2.0 * np.pi * freq / fs
    a = [1.0, -2.0 * r * np.cos(theta), r * r]
    return [1.0 - r], a


def _butter_highpass(order: int, cutoff: float, fs: float):
    """Digital Butterworth high-pass (b, a) with its -3 dB point at cutoff
    Hz: the analog low-pass prototype's poles, turned high-pass at the
    bilinear-prewarped cutoff, then mapped by the bilinear transform (all
    zeros land at z = 1), as scipy.signal.butter designs it."""
    prototype = -np.exp(1j * np.pi * np.arange(1 - order, order, 2) / (2 * order))
    # bilinear transform at a normalized sample rate of 2: s = 4 (z - 1) / (z + 1)
    warped = 4.0 * np.tan(np.pi * (cutoff / (fs / 2.0)) / 2.0)
    poles = warped / prototype
    z_poles = (4.0 + poles) / (4.0 - poles)
    gain = np.real(1.0 / np.prod(-prototype)) * np.real(4.0 ** order / np.prod(4.0 - poles))
    return gain * np.poly(np.ones(order)), np.poly(z_poles).real


def speech_like(duration: float, sample_rate: int = 16000, seed: int = 0) -> np.ndarray:
    """Deterministic speech-like signal of the given duration in seconds.

    Built from ~180 ms segments, each either a pause or a voiced burst with
    its own pitch and three formants, cross-faded and peak-normalized to 0.5.
    """
    if not 0 < duration < np.inf:
        raise InvalidInputError(f"duration must be positive and finite, got {duration}")
    # the most float64 samples whose byte count numpy can index
    max_samples = np.iinfo(np.intp).max // 8
    if duration * sample_rate > max_samples:
        raise InvalidInputError(
            f"duration must give at most {max_samples} samples at {sample_rate} Hz, "
            f"got {duration}")
    if seed < 0:
        raise InvalidInputError(f"seed must be a non-negative integer, got {seed}")
    rng = np.random.default_rng(seed)
    fs = sample_rate
    total = int(round(duration * fs))
    seg_len = int(0.18 * fs)
    fade = int(0.010 * fs)
    out = np.zeros(total + seg_len)

    pos = 0
    while pos < total:
        n = min(seg_len, total + seg_len - pos)
        is_pause = rng.random() < 0.15
        if not is_pause:
            f0 = rng.uniform(90.0, 220.0)
            # glottal-style pulse train with mild period jitter plus breath noise
            periods = []
            t = 0.0
            while t < n:
                periods.append(int(t))
                t += fs / (f0 * rng.uniform(0.97, 1.03))
            exc = np.zeros(n)
            exc[np.asarray(periods, dtype=int)] = 1.0
            exc += 0.05 * rng.standard_normal(n)
            seg = exc
            for freq, bw in (
                (rng.uniform(300.0, 900.0), rng.uniform(60.0, 110.0)),
                (rng.uniform(900.0, 2200.0), rng.uniform(90.0, 150.0)),
                (rng.uniform(2300.0, 3200.0), rng.uniform(130.0, 220.0)),
            ):
                b, a = _resonator(freq, bw, fs)
                seg = iir_filter(b, a, seg)
            # syllabic amplitude arc
            env = rng.uniform(0.4, 1.0) * np.sin(np.pi * (np.arange(n) + 0.5) / n) ** 0.5
            seg = seg * env
            ramp = np.ones(n)
            edge = min(fade, n // 2)
            ramp[:edge] = np.linspace(0.0, 1.0, edge)
            ramp[n - edge:] = np.linspace(1.0, 0.0, edge)
            out[pos : pos + n] += seg * ramp
        pos += n - fade

    out = out[:total]
    # AC coupling, as any recorded speech would have
    out = iir_filter(*_butter_highpass(4, 70.0, fs), out)
    peak = np.max(np.abs(out))
    if peak > 0:
        out *= 0.5 / peak
    return out

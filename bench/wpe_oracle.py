"""Independent single-channel WPE, written from the method's definition.

Imports nothing from dwpe. It re-derives, from one node's observation WAV
and the lag recorded in run.json, what `dwpe dereverb --mode single` must
write for that node:

1. shift the observation left by its GCC-PHAT lag (zero fill);
2. STFT: 512-sample frames, hop 128, square-root periodic Hann analysis
   window, trailing partial frame zero-padded;
3. `iterations` passes of: PSD = max(|desired|^2, eps) with
   eps = 0.05 * mean |Y|^2; per bin solve (Z + ridge I) w = q with
   Z = sum x x^H / PSD, q = sum x conj(y) / PSD, ridge = 1e-8 trace(Z) / L;
   desired = y - w^H x, where x holds frames n-delay .. n-delay-L+1;
4. weighted overlap-add ISTFT divided by the overlap-added Hann window,
   cut to the observation length.
"""

from __future__ import annotations

import numpy as np

FRAME_LEN = 512
HOP = 128
PSD_FLOOR_FRACTION = 0.05
RIDGE_SCALE = 1e-8
COLA_TOL = 1e-10


def _hann(n: int) -> np.ndarray:
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)


def shift_left(x: np.ndarray, lag: int) -> np.ndarray:
    out = np.zeros_like(x)
    if lag >= 0:
        out[: max(0, x.size - lag)] = x[lag:]
    else:
        out[-lag:] = x[: x.size + lag]
    return out


def stft(x: np.ndarray) -> np.ndarray:
    n_frames = 1 + int(np.ceil((x.size - FRAME_LEN) / HOP))
    padded = np.zeros((n_frames - 1) * HOP + FRAME_LEN)
    padded[: x.size] = x
    window = np.sqrt(_hann(FRAME_LEN))
    frames = np.stack([padded[m * HOP : m * HOP + FRAME_LEN] for m in range(n_frames)])
    return np.fft.rfft(frames * window, axis=1)


def istft(spec: np.ndarray, length: int) -> np.ndarray:
    n_frames = spec.shape[0]
    window = np.sqrt(_hann(FRAME_LEN))
    total = (n_frames - 1) * HOP + FRAME_LEN
    out = np.zeros(total)
    den = np.zeros(total)
    frames = np.fft.irfft(spec, n=FRAME_LEN, axis=1)
    for m in range(n_frames):
        out[m * HOP : m * HOP + FRAME_LEN] += frames[m] * window
        den[m * HOP : m * HOP + FRAME_LEN] += window * window
    live = den > COLA_TOL * den.max()
    out = np.where(live, out / np.where(live, den, 1.0), 0.0)
    return out[:length]


def delayed(spec: np.ndarray, delay: int, order: int) -> np.ndarray:
    """(K, N, order) tensor: element [k, n, i] = spec[n - delay - i, k]."""
    n_frames, n_bins = spec.shape
    out = np.zeros((n_bins, n_frames, order), dtype=np.complex128)
    for i in range(order):
        shift = delay + i
        if shift < n_frames:
            out[:, shift:, i] = spec[: n_frames - shift, :].T
    return out


def single_channel_wpe(observation: np.ndarray, lag: int, delay: int,
                       order: int, iterations: int) -> np.ndarray:
    """Time-domain estimate for one node, as the program should write it."""
    y = stft(shift_left(np.asarray(observation, dtype=np.float64), lag))
    eps = PSD_FLOOR_FRACTION * float(np.mean(np.abs(y) ** 2))
    X = delayed(y, delay, order)                      # (K, N, L)
    yk = y.T                                          # (K, N)
    desired = y.copy()
    for _ in range(iterations):
        psd = np.maximum(np.abs(desired) ** 2, eps).T  # (K, N)
        Z = np.einsum("kni,knj,kn->kij", X, X.conj(), 1.0 / psd)
        q = np.einsum("kni,kn,kn->ki", X, yk.conj(), 1.0 / psd)
        trace = np.einsum("kii->k", Z).real
        w = np.zeros((y.shape[1], order), dtype=np.complex128)
        for k in np.flatnonzero(trace > 0):
            A = Z[k] + RIDGE_SCALE * trace[k] / order * np.eye(order)
            w[k] = np.linalg.solve(A, q[k])
        late = np.einsum("kni,ki->kn", X, w.conj())
        desired = (yk - late).T
    return istft(desired, observation.size)

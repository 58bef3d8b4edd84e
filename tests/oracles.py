"""Independent reference implementations used to check the library.

Everything here is deliberately naive (plain loops, textbook formulas) and
shares no code with the package under test.
"""

import numpy as np


def convolve_direct(x: np.ndarray, h: np.ndarray) -> np.ndarray:
    """O(n*m) convolution sum."""
    out = np.zeros(len(x) + len(h) - 1)
    for i, xi in enumerate(x):
        for j, hj in enumerate(h):
            out[i + j] += xi * hj
    return out


def dft_direct(frame: np.ndarray) -> np.ndarray:
    """One-sided DFT by explicit summation."""
    n = len(frame)
    bins = n // 2 + 1
    out = np.zeros(bins, dtype=complex)
    for k in range(bins):
        for t in range(n):
            out[k] += frame[t] * np.exp(-2j * np.pi * k * t / n)
    return out


def overlap_add_reconstruct(frames_td: np.ndarray, analysis: np.ndarray,
                            synthesis: np.ndarray, hop: int) -> np.ndarray:
    """Direct weighted-overlap-add of already-inverse-transformed frames."""
    n_frames, frame_len = frames_td.shape
    total = (n_frames - 1) * hop + frame_len
    num = np.zeros(total)
    den = np.zeros(total)
    prod = analysis * synthesis
    for m in range(n_frames):
        num[m * hop : m * hop + frame_len] += frames_td[m] * synthesis
        den[m * hop : m * hop + frame_len] += prod
    out = np.zeros(total)
    nz = den > 1e-12 * den.max()
    out[nz] = num[nz] / den[nz]
    return out


def gaussian_elimination_solve(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Complex linear solve by Gaussian elimination with partial pivoting."""
    A = np.array(A, dtype=complex)
    b = np.array(b, dtype=complex)
    n = A.shape[0]
    for col in range(n):
        pivot = col + int(np.argmax(np.abs(A[col:, col])))
        if abs(A[pivot, col]) == 0:
            raise ZeroDivisionError("singular matrix")
        if pivot != col:
            A[[col, pivot]] = A[[pivot, col]]
            b[[col, pivot]] = b[[pivot, col]]
        for row in range(col + 1, n):
            f = A[row, col] / A[col, col]
            A[row, col:] -= f * A[col, col:]
            b[row] -= f * b[col]
    x = np.zeros(n, dtype=complex)
    for row in range(n - 1, -1, -1):
        x[row] = (b[row] - np.dot(A[row, row + 1 :], x[row + 1 :])) / A[row, row]
    return x


def stacked_by_loop(streams, k: int) -> np.ndarray:
    """(N, d) stacked observation of bin k, element by element: row n holds,
    stream after stream, data[n - delay - lag, k] for lag = 0 .. order-1,
    with zeros before the signal starts."""
    n_frames = streams[0][0].shape[0]
    columns = []
    for data, order, delay in streams:
        for lag in range(order):
            col = np.zeros(n_frames, dtype=complex)
            for n in range(n_frames):
                if n - delay - lag >= 0:
                    col[n] = data[n - delay - lag, k]
            columns.append(col)
    return np.stack(columns, axis=1)


def normal_equations_direct(stacked: np.ndarray, refs: np.ndarray,
                            sigma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Double-loop accumulation of the weighted normal equations."""
    n_frames, dim = stacked.shape
    Z = np.zeros((dim, dim), dtype=complex)
    q = np.zeros(dim, dtype=complex)
    for n in range(n_frames):
        for a in range(dim):
            for b in range(dim):
                Z[a, b] += stacked[n, a] * np.conj(stacked[n, b]) / sigma[n]
            q[a] += stacked[n, a] * np.conj(refs[n]) / sigma[n]
    return Z, q


def schroeder_t60(taps: np.ndarray, sample_rate: int) -> float:
    """Energy-decay-curve T60 from a -5..-25 dB linear fit."""
    energy = np.asarray(taps, dtype=float) ** 2
    edc = np.cumsum(energy[::-1])[::-1] / energy.sum()
    edc_db = 10.0 * np.log10(np.maximum(edc, 1e-300))
    i_hi = int(np.argmax(edc_db <= -5.0))
    i_lo = int(np.argmax(edc_db <= -25.0))
    return 3.0 * (i_lo - i_hi) / sample_rate


def image_highpass_direct(taps: np.ndarray, sample_rate: int,
                          cutoff_hz: float = 100.0) -> np.ndarray:
    """Per-sample loop of the image-method RIR high-pass (two poles, then
    two zeros), as in its original description."""
    w = 2.0 * np.pi * cutoff_hz / sample_rate
    r1 = np.exp(-w)
    b1 = 2.0 * r1 * np.cos(w)
    b2 = -r1 * r1
    a1 = -(1.0 + r1)
    out = np.zeros_like(taps)
    y1 = y2 = 0.0
    for n in range(taps.size):
        y0 = b1 * y1 + b2 * y2 + taps[n]
        out[n] = y0 + a1 * y1 + r1 * y2
        y2 = y1
        y1 = y0
    return out


def cross_correlation_argmax(a: np.ndarray, b: np.ndarray, max_lag: int) -> int:
    """Lag of max plain cross-correlation, positive when b lags a."""
    best_lag, best_val = 0, -np.inf
    for lag in range(-max_lag, max_lag + 1):
        if lag >= 0:
            v = float(np.dot(b[lag:], a[: len(a) - lag]))
        else:
            v = float(np.dot(a[-lag:], b[: len(b) + lag]))
        if v > best_val:
            best_val, best_lag = v, lag
    return best_lag


def mel_band_powers(frame: np.ndarray, bank: np.ndarray, n_fft: int) -> np.ndarray:
    """Band powers via explicit DFT magnitude accumulation."""
    spec = np.zeros(n_fft // 2 + 1, dtype=complex)
    for k in range(n_fft // 2 + 1):
        for t, x in enumerate(frame):
            spec[k] += x * np.exp(-2j * np.pi * k * t / n_fft)
    power = np.abs(spec) ** 2
    return bank @ power


def _metric_frames(x: np.ndarray, frame_len: int, hop: int) -> list:
    return [x[start : start + frame_len]
            for start in range(0, x.size - frame_len + 1, hop)]


def _active_by_loop(ref_frames: list, threshold_db: float) -> list:
    energies = [float(np.sum(f ** 2)) for f in ref_frames]
    peak = max(energies)
    return [e >= peak * 10.0 ** (threshold_db / 10.0) for e in energies]


def lpc_by_loop(frame: np.ndarray, order: int):
    """Levinson-Durbin LPC coefficients a[1..order] of one frame; None for
    a degenerate frame."""
    r = np.array([np.dot(frame[: frame.size - k], frame[k:]) for k in range(order + 1)])
    if r[0] <= 0:
        return None
    a = np.zeros(order + 1)
    a[0] = 1.0
    err = r[0]
    for i in range(1, order + 1):
        if err <= 0:
            return None
        acc = r[i] + np.dot(a[1:i], r[i - 1 : 0 : -1])
        k = -acc / err
        new = a.copy()
        for j in range(1, i):
            new[j] = a[j] + k * a[i - j]
        new[i] = k
        a = new
        err *= 1.0 - k * k
    return a[1:]


def lpc_cepstrum_by_loop(a: np.ndarray, order: int) -> np.ndarray:
    """Cepstrum c[1..order] of the all-pole model with denominator 1 + sum a."""
    c = np.zeros(order + 1)
    for m in range(1, order + 1):
        acc = a[m - 1] if m <= a.size else 0.0
        for j in range(1, m):
            am = a[m - j - 1] if (m - j) <= a.size else 0.0
            acc += (j / m) * c[j] * am
        c[m] = -acc
    return c[1:]


def cepstral_distance_by_loop(reference: np.ndarray, estimate: np.ndarray,
                              frame_len: int = 400, hop: int = 160,
                              order: int = 12, threshold_db: float = -40.0,
                              clamp=(0.0, 10.0)) -> float:
    """Mean LPC-cepstrum distance in dB, one active frame at a time; frames
    where either LPC fit is degenerate are skipped. Defaults are the 16 kHz
    conventions: 25 ms frames, 10 ms hop, order 12, -40 dB activity."""
    window = np.hanning(frame_len)
    ref_frames = _metric_frames(reference, frame_len, hop)
    est_frames = _metric_frames(estimate, frame_len, hop)
    active = _active_by_loop(ref_frames, threshold_db)
    values = []
    for rf, ef, act in zip(ref_frames, est_frames, active):
        if not act:
            continue
        a_ref = lpc_by_loop(rf * window, order)
        a_est = lpc_by_loop(ef * window, order)
        if a_ref is None or a_est is None:
            continue
        c_ref = lpc_cepstrum_by_loop(a_ref, order)
        c_est = lpc_cepstrum_by_loop(a_est, order)
        dist = 10.0 / np.log(10.0) * np.sqrt(2.0 * np.sum((c_ref - c_est) ** 2))
        values.append(min(max(dist, clamp[0]), clamp[1]))
    return float(np.mean(values))


def fw_segmental_snr_by_loop(reference: np.ndarray, estimate: np.ndarray,
                             bank: np.ndarray, frame_len: int = 400,
                             hop: int = 160, n_fft: int = 512,
                             threshold_db: float = -40.0, exponent: float = 0.2,
                             clamp=(-10.0, 35.0)) -> float:
    """Mel-band-weighted segmental SNR in dB, one active frame at a time,
    with the band filterbank `bank` (bands, n_fft // 2 + 1)."""
    window = np.hanning(frame_len)
    ref_frames = _metric_frames(reference, frame_len, hop)
    err_frames = _metric_frames(reference - estimate, frame_len, hop)
    active = _active_by_loop(ref_frames, threshold_db)
    values = []
    for rf, ef, act in zip(ref_frames, err_frames, active):
        if not act:
            continue
        ref_power = bank @ (np.abs(np.fft.rfft(rf * window, n=n_fft)) ** 2)
        err_power = bank @ (np.abs(np.fft.rfft(ef * window, n=n_fft)) ** 2)
        num = den = 0.0
        for rp, ep in zip(ref_power, err_power):
            if rp <= 0:
                continue
            snr = 10.0 * np.log10(rp / ep) if ep > 0 else np.inf
            num += rp ** exponent * snr
            den += rp ** exponent
        if den == 0.0:
            continue
        values.append(min(max(num / den, clamp[0]), clamp[1]))
    return float(np.mean(values))

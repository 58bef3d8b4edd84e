"""Time-frequency analysis and synthesis shared by all algorithm modules,
and the two time-domain filters of the simulation: a direct-form IIR
filter and a linear FFT convolution.

Framing follows the weighted-overlap-add (WOLA) convention: the analysis and
synthesis windows are each the square root of the nominal window, so their
product is the nominal window and the pair is constant-overlap-add (COLA) at
the configured hop. The DFT length equals the frame length and only the
one-sided spectrum of the real input is stored.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dtbtrs

from .errors import ConfigurationError, InvalidInputError, NumericalError

# Relative deviation allowed for the overlap-added window product on the
# interior before a window/hop pair is rejected as non-COLA.
COLA_TOL = 1e-10


def _nominal_window(frame_len: int) -> np.ndarray:
    # periodic Hann, the DFT-even variant
    t = np.arange(frame_len)
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * t / frame_len)


@dataclass(frozen=True)
class WindowSpec:
    """STFT framing of a periodic Hann window: frame length and hop.

    The default 512/128 at 16 kHz is the 32 ms frame with 75% overlap used
    throughout the pipeline.
    """

    frame_len: int = 512
    hop: int = 128

    def __post_init__(self):
        if self.frame_len < 1:
            raise ConfigurationError(f"frame_len must be >= 1, got {self.frame_len}")
        if not (0 < self.hop <= self.frame_len):
            raise ConfigurationError(
                f"hop must satisfy 0 < hop <= frame_len, got hop={self.hop}, "
                f"frame_len={self.frame_len}"
            )
        _validate_cola(self)

    @property
    def num_bins(self) -> int:
        return self.frame_len // 2 + 1

    def analysis_window(self) -> np.ndarray:
        return np.sqrt(_nominal_window(self.frame_len))

    def synthesis_window(self) -> np.ndarray:
        return np.sqrt(_nominal_window(self.frame_len))

    def num_frames(self, num_samples: int) -> int:
        """Frame count for a signal of the given length (trailing partial
        frame zero-padded, so the count is deterministic)."""
        if num_samples < self.frame_len:
            raise InvalidInputError(
                f"signal length {num_samples} shorter than frame_len {self.frame_len}"
            )
        return 1 + int(np.ceil((num_samples - self.frame_len) / self.hop))


def _ola_product(spec: WindowSpec, num_frames: int) -> np.ndarray:
    """Direct overlap-add of the analysis*synthesis window product."""
    prod = spec.analysis_window() * spec.synthesis_window()
    total = (num_frames - 1) * spec.hop + spec.frame_len
    acc = np.zeros(total)
    for m in range(num_frames):
        acc[m * spec.hop : m * spec.hop + spec.frame_len] += prod
    return acc


def _validate_cola(spec: WindowSpec) -> None:
    # Interior samples (one full frame in from each edge) must see a constant
    # overlap-added window product.
    frames = 3 * (spec.frame_len // spec.hop) + 3
    acc = _ola_product(spec, frames)
    interior = acc[spec.frame_len : -spec.frame_len]
    if interior.size == 0 or interior.max() <= 0:
        raise ConfigurationError("window/hop pair leaves no constant interior")
    dev = (interior.max() - interior.min()) / interior.max()
    if dev > COLA_TOL:
        raise ConfigurationError(
            f"window/hop pair is not COLA: relative deviation {dev:.3e} "
            f"(frame_len={spec.frame_len}, hop={spec.hop})"
        )


@dataclass
class Spectrogram:
    """Complex time-frequency representation of one channel.

    data is (num_frames, num_bins) with the one-sided spectrum of the real
    input along the second axis.
    """

    data: np.ndarray
    sample_rate: int
    window: WindowSpec = field(default_factory=WindowSpec)

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.complex128)
        if self.data.ndim != 2 or self.data.shape[0] < 1:
            raise InvalidInputError(
                f"spectrogram data must be 2-D with at least one frame, "
                f"got shape {self.data.shape}"
            )
        if self.data.shape[1] != self.window.num_bins:
            raise InvalidInputError(
                f"spectrogram has {self.data.shape[1]} bins but frame_len "
                f"{self.window.frame_len} implies {self.window.num_bins}"
            )
        if not np.all(np.isfinite(self.data)):
            raise InvalidInputError("spectrogram contains non-finite entries")


def stft(signal: np.ndarray, spec: WindowSpec | None = None,
         sample_rate: int = 16000) -> Spectrogram:
    """Short-time Fourier transform of a real signal.

    Frame n holds the one-sided DFT of the windowed samples
    [n*hop, n*hop + frame_len); the trailing partial frame is zero-padded.
    """
    spec = spec or WindowSpec()
    x = np.asarray(signal, dtype=np.float64)
    if x.ndim != 1 or x.size == 0:
        raise InvalidInputError("stft expects a non-empty 1-D signal")
    n_frames = spec.num_frames(x.size)
    padded_len = (n_frames - 1) * spec.hop + spec.frame_len
    if padded_len > x.size:
        x = np.concatenate([x, np.zeros(padded_len - x.size)])
    window = spec.analysis_window()
    idx = np.arange(spec.frame_len)[None, :] + spec.hop * np.arange(n_frames)[:, None]
    frames = x[idx] * window[None, :]
    data = np.fft.rfft(frames, n=spec.frame_len, axis=1)
    return Spectrogram(data=data, sample_rate=sample_rate, window=spec)


def istft(spectrogram: Spectrogram) -> np.ndarray:
    """Weighted-overlap-add synthesis; output length (N-1)*hop + frame_len.

    Reconstruction divides by the overlap-added window product, so interior
    samples of an stft->istft roundtrip match the input to floating-point
    accuracy; edge samples where the product vanishes are returned as zero.
    """
    spec = spectrogram.window
    data = spectrogram.data
    frames = np.fft.irfft(data, n=spec.frame_len, axis=1)
    window = spec.synthesis_window()
    n_frames = data.shape[0]
    total = (n_frames - 1) * spec.hop + spec.frame_len
    out = np.zeros(total)
    for m in range(n_frames):
        out[m * spec.hop : m * spec.hop + spec.frame_len] += frames[m] * window
    den = _ola_product(spec, n_frames)
    live = den > COLA_TOL * den.max()
    out[live] /= den[live]
    out[~live] = 0.0
    return out


def iir_filter(b, a, x: np.ndarray) -> np.ndarray:
    """Zero-state IIR filter of a 1-D signal: y with
    sum_k a[k] y[n-k] = sum_k b[k] x[n-k], the recursion of
    scipy.signal.lfilter.

    The recursion is the lower-triangular banded system A y = B x, with A
    and B the Toeplitz matrices of a and b cut to the signal length; B x
    is a truncated convolution and the solve one LAPACK banded forward
    substitution.
    """
    a0 = a[0]
    b = np.asarray(b, dtype=np.float64) / a0
    a = np.asarray(a, dtype=np.float64) / a0
    x = np.asarray(x, dtype=np.float64)
    n = x.size
    # LAPACK band storage of A: row k holds the k-th subdiagonal, a[k]
    band = np.tile(a, (n, 1)).T
    y, info = dtbtrs(band, np.convolve(x, b)[:n, None], uplo="L", overwrite_b=1)
    if info != 0:
        raise NumericalError(f"IIR recursion failed: LAPACK dtbtrs returned info {info}")
    return y[:, 0]


def _five_smooth_length(n: int) -> int:
    """Smallest 2^i 3^j 5^k >= n: a length the real FFT does fast."""
    best = 2 * n
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            m = p35
            while m < n:
                m *= 2
            best = min(best, m)
            p35 *= 3
        p5 *= 5
    return best


def fft_convolve(x: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Full linear convolution of two real 1-D signals through real FFTs
    of the smallest 5-smooth length that holds it."""
    n = x.size + h.size - 1
    nfft = _five_smooth_length(n)
    return np.fft.irfft(np.fft.rfft(x, nfft) * np.fft.rfft(h, nfft), nfft)[:n]

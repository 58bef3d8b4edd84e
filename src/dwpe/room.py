"""Room impulse response synthesis and reverberant observation rendering.

RIRs come from the rigid-shoebox image source model with uniform wall
reflection coefficients derived from the target reverberation time through
Sabine's formula. Fractional-sample arrival times are rounded to the nearest
sample; the speed of sound is fixed at 343 m/s.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

import numpy as np

from .dsp import fft_convolve, iir_filter
from .errors import ConfigurationError, InvalidInputError

SPEED_OF_SOUND = 343.0
# x-lattice indices per accumulation block of image_method_rir
IMAGE_BLOCK = 8


@dataclass
class RoomScenario:
    """Geometry and acoustics of one simulated room.

    Every microphone is its own network node, so len(mic_positions) is the
    node count M. The fields are also the schema of a scenario file (see
    `scenario_from_file`).
    """

    room_dims: tuple[float, float, float]
    source_pos: tuple[float, float, float]
    mic_positions: list[tuple[float, float, float]]
    t60: float
    sample_rate: int = 16000
    rir_length: int = 8192
    name: str = "scenario"

    def __post_init__(self):
        self.room_dims = tuple(float(v) for v in self.room_dims)
        self.source_pos = tuple(float(v) for v in self.source_pos)
        self.mic_positions = [tuple(float(v) for v in p) for p in self.mic_positions]
        for label, values in [("room_dims", self.room_dims), ("source_pos", self.source_pos)] + [
            (f"mic_positions[{i}]", p) for i, p in enumerate(self.mic_positions)
        ]:
            if not np.all(np.isfinite(values)):
                raise ConfigurationError(f"{label} must be finite, got {values}")
        if len(self.room_dims) != 3 or any(v <= 0 for v in self.room_dims):
            raise ConfigurationError(f"room_dims must be 3 positive lengths, got {self.room_dims}")
        for label, pos in [("source", self.source_pos)] + [
            (f"mic {i}", p) for i, p in enumerate(self.mic_positions)
        ]:
            if len(pos) != 3 or not all(0 < pos[d] < self.room_dims[d] for d in range(3)):
                raise ConfigurationError(
                    f"{label} position {pos} not strictly inside room {self.room_dims}"
                )
        for i, pos in enumerate(self.mic_positions):
            if pos == self.source_pos:
                raise ConfigurationError(
                    f"mic {i} is at the source position {pos}: its direct path has no length"
                )
        if len(self.mic_positions) < 1:
            raise ConfigurationError("scenario needs at least one microphone")
        if not 0 < self.t60 < np.inf:
            raise ConfigurationError(f"t60 must be positive and finite, got {self.t60}")
        for key in ("sample_rate", "rir_length"):
            value = getattr(self, key)
            if isinstance(value, bool) or not isinstance(value, int) or value <= 0:
                raise ConfigurationError(f"{key} must be a positive integer, got {value!r}")
        if self.rir_length < self.sample_rate * self.t60 / 2:
            raise ConfigurationError(
                f"rir_length {self.rir_length} too short to capture the decay "
                f"(need >= {self.sample_rate * self.t60 / 2:.0f} samples)"
            )

    @property
    def num_nodes(self) -> int:
        return len(self.mic_positions)


@dataclass
class ImpulseResponse:
    taps: np.ndarray
    sample_rate: int

    def __post_init__(self):
        self.taps = np.asarray(self.taps, dtype=np.float64)
        if self.taps.ndim != 1 or self.taps.size == 0:
            raise InvalidInputError("impulse response must be a non-empty 1-D array")
        if not np.all(np.isfinite(self.taps)):
            raise InvalidInputError("impulse response contains non-finite taps")


def reflection_coefficient(scenario: RoomScenario) -> float:
    """Uniform wall reflection coefficient from Sabine's formula.

    alpha = 0.161 V / (S t60); walls get beta = sqrt(1 - alpha).
    """
    lx, ly, lz = scenario.room_dims
    volume = lx * ly * lz
    surface = 2.0 * (lx * ly + lx * lz + ly * lz)
    alpha = 0.161 * volume / (surface * scenario.t60)
    if alpha > 1.0:
        raise ConfigurationError(
            f"t60={scenario.t60}s unreachable for this room: Sabine absorption "
            f"{alpha:.3f} exceeds 1"
        )
    return float(np.sqrt(1.0 - alpha))


def _image_highpass(taps: np.ndarray, sample_rate: int,
                    cutoff_hz: float = 100.0) -> np.ndarray:
    """Second-order high-pass traditionally applied to image-source RIRs.

    The all-positive image amplitudes otherwise accumulate into a large
    nonphysical response at DC; this is the classic companion filter of the
    image method, as in its original description: a two-pole recursion
    y[n] = b1 y[n-1] + b2 y[n-2] + x[n] followed by the two-zero section
    out[n] = y[n] + a1 y[n-1] + r1 y[n-2].
    """
    w = 2.0 * np.pi * cutoff_hz / sample_rate
    r1 = np.exp(-w)
    b1 = 2.0 * r1 * np.cos(w)
    b2 = -r1 * r1
    a1 = -(1.0 + r1)
    return iir_filter([1.0, a1, r1], [1.0, -b1, -b2], taps)


def _within(halves: list[tuple[np.ndarray, np.ndarray]], radius: float
            ) -> tuple[np.ndarray, np.ndarray]:
    """Coordinates and orders of one axis's images with |coord| <= radius,
    in lattice order. Each parity half ascends in m, so its images within
    the radius are one slice."""
    coords, orders = [], []
    for c, o in halves:
        lo, hi = np.searchsorted(c, -radius), np.searchsorted(c, radius, side="right")
        coords.append(c[lo:hi])
        orders.append(o[lo:hi])
    return np.concatenate(coords), np.concatenate(orders)


def image_method_rir(scenario: RoomScenario, mic_index: int) -> ImpulseResponse:
    """Image-source RIR between the scenario source and one microphone.

    Deterministic given the scenario: every image within the distance the
    configured RIR length can represent contributes beta^order / (4 pi d)
    at its nearest-sample arrival time. The lattice is walked in blocks of
    IMAGE_BLOCK x indices, each broadcast only over the y and z indices
    that can still reach that distance, so memory is bounded by one block;
    the taps are accumulated in lattice order, the same adds as over the
    full image cube. The standard 100 Hz image-method high-pass removes the
    model's nonphysical DC build-up.
    """
    if not (0 <= mic_index < scenario.num_nodes):
        raise InvalidInputError(
            f"mic_index {mic_index} out of range for {scenario.num_nodes} mics"
        )
    beta = reflection_coefficient(scenario)
    fs = scenario.sample_rate
    n_taps = scenario.rir_length
    dims = np.asarray(scenario.room_dims)
    src = np.asarray(scenario.source_pos)
    mic = np.asarray(scenario.mic_positions[mic_index])
    max_dist = SPEED_OF_SOUND * n_taps / fs

    # Per-axis image coordinates relative to the mic and their reflection
    # orders, for lattice index m and source parity q in {0, 1}:
    #   coord = (1 - 2q) * src + 2 m L - mic,  order = |m - q| + |m|
    # Each axis lists the q = 0 half, then the q = 1 half, m ascending.
    halves, max_order = [], 0
    for axis in range(3):
        n_img = int(np.ceil(max_dist / (2.0 * dims[axis])))
        m = np.arange(-n_img, n_img + 1)
        halves.append([((1 - 2 * q) * src[axis] + 2.0 * m * dims[axis] - mic[axis],
                        np.abs(m - q) + np.abs(m)) for q in (0, 1)])
        max_order += 2 * n_img + 1  # at m = -n_img, q = 1
    gain_of_order = beta ** np.arange(max_order + 1)

    # Pruning is by the radius max_dist itself. A kept image arrives before
    # tap n_taps - 1/2, at least half a sample (about 1 cm) inside that
    # radius, so no rounding in the bounds below can drop one; the mask
    # still decides which images count.
    taps = np.zeros(n_taps)
    cx, ox = _within(halves[0], max_dist)
    for start in range(0, cx.size, IMAGE_BLOCK):
        bx, box = cx[start:start + IMAGE_BLOCK], ox[start:start + IMAGE_BLOCK]
        reach = np.sqrt(max_dist ** 2 - np.min(np.abs(bx)) ** 2)
        cy, oy = _within(halves[1], reach)
        cz, oz = _within(halves[2], reach)
        dist = np.sqrt(
            bx[:, None, None] ** 2 + cy[None, :, None] ** 2 + cz[None, None, :] ** 2
        ).ravel()
        sample = np.rint(dist * fs / SPEED_OF_SOUND).astype(np.int64)
        keep = (sample < n_taps) & (dist > 0)
        order = (box[:, None, None] + oy[None, :, None] + oz[None, None, :]).ravel()[keep]
        # in-order adds into zeroed taps, as np.bincount makes them
        np.add.at(taps, sample[keep], gain_of_order[order] / (4.0 * np.pi * dist[keep]))
    return ImpulseResponse(taps=_image_highpass(taps, fs), sample_rate=fs)


def render_observation(clean: np.ndarray, sample_rate: int,
                       rir: ImpulseResponse) -> np.ndarray:
    """Reverberant observation: linear convolution of the clean signal with
    the RIR, truncated to the clean-signal length for alignment."""
    clean = np.asarray(clean, dtype=np.float64)
    if clean.size == 0:
        raise InvalidInputError("clean signal is empty")
    if sample_rate != rir.sample_rate:
        raise InvalidInputError(
            f"sample-rate mismatch: signal {sample_rate} Hz vs RIR {rir.sample_rate} Hz"
        )
    return fft_convolve(clean, rir.taps)[: clean.size]


def early_reference(clean: np.ndarray, rir: ImpulseResponse, boundary: int) -> np.ndarray:
    """Clean signal convolved with the RIR's first `boundary` taps: the
    target dereverberation is scored against. An RIR no longer than the
    boundary is early throughout."""
    if boundary <= 0:
        raise InvalidInputError(f"boundary {boundary} out of range: must be at least 1 tap")
    taps = rir.taps.copy()
    taps[boundary:] = 0.0
    return render_observation(clean, rir.sample_rate,
                              ImpulseResponse(taps=taps, sample_rate=rir.sample_rate))


def estimate_t60(rir: ImpulseResponse) -> float:
    """Reverberation time from the Schroeder energy-decay curve.

    Fits the decay between the -5 dB and -25 dB points and extrapolates to
    -60 dB. Intended for reporting and sanity checks, not calibration.
    """
    energy = rir.taps ** 2
    total = energy.sum()
    if total <= 0:
        raise InvalidInputError("cannot estimate T60 of an all-zero RIR")
    edc = np.cumsum(energy[::-1])[::-1] / total
    with np.errstate(divide="ignore"):
        edc_db = 10.0 * np.log10(np.maximum(edc, 1e-300))
    idx_hi = int(np.argmax(edc_db <= -5.0))
    idx_lo = int(np.argmax(edc_db <= -25.0))
    if idx_lo <= idx_hi:
        raise InvalidInputError("RIR too short for a -5..-25 dB decay fit")
    t_hi = idx_hi / rir.sample_rate
    t_lo = idx_lo / rir.sample_rate
    return 3.0 * (t_lo - t_hi)


def scenario_from_file(path) -> RoomScenario:
    """Load a scenario from its JSON description.

    The keys are the `RoomScenario` fields: unknown keys are errors, those
    without a default are required, and `name` defaults to the file stem.
    """
    try:
        raw = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"scenario file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigurationError(f"scenario file {path} must hold a JSON object")
    schema = fields(RoomScenario)
    unknown = set(raw) - {f.name for f in schema}
    if unknown:
        raise ConfigurationError(
            f"unknown scenario keys in {path}: {sorted(unknown)}"
        )
    missing = {f.name for f in schema if f.default is MISSING} - set(raw)
    if missing:
        raise ConfigurationError(f"scenario file {path} missing keys: {sorted(missing)}")
    try:
        return RoomScenario(**{"name": Path(path).stem, **raw})
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"scenario file {path} has a malformed value: {exc}") from exc


# Reporting nodes used by the experiment harness: one per array of the
# shipped scenario, scenarios/simulated_12node.json (arrays 1, 2 and 3).
DEFAULT_REPORT_NODES = (0, 3, 6)

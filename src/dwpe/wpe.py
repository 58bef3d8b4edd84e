"""Single-channel and centralized multichannel WPE dereverberation.

Late reverberation at frame n is predicted linearly from delayed frames
n - delay .. n - delay - filter_order + 1 of every channel and subtracted
from a reference channel. The prediction weights minimize the PSD-weighted
squared residual, alternating a closed-form per-bin weight solve with an
update of the desired-signal PSD estimate (floored elementwise).

A run may dereverberate several target channels at once (MIMO WPE:
Yoshioka & Nakatani, IEEE TASLP 2012; NARA-WPE). Every target is then
weighted by one PSD, the mean of the targets' floored estimates, so the
weighted normal equations Z are the same for all of them: each bin block
forms one Z and solves it once with one right-hand side per target, and
each target subtracts its own prediction. Every run takes a sequence of
targets and keeps the target axis; one target is single-target WPE,
operation for operation.

Each job has one batched kernel: lag_windows and gather_cells build delayed
observation vectors, normal_equations_all_bins forms the weighted normal
equations of a bin block, solve_all_bins solves them, solve_weights runs
the two block by block, and predict_all_bins returns the late reverberation
that callers subtract from the reference. The distributed module runs the
same kernels, so the single-node network degenerates to exactly this code
path. Per-element references live in the tests.

lag_windows is the one layout of a stream's stacked rows: a read-only
(K, N, order) view whose [k, n, a] is frame n - delay - a of bin k, zero
before the signal, over one zero-padded, bin-major (K, N + delay + order -
1) copy of the stream's array (the array itself when there is no pad).
Gram.build concatenates the streams' transposed windows, one bin block and
frame chunk at a time, into the rows it multiplies, and predict_all_bins
multiplies them by the weights, so both read the stacked vector the same
way. gather_cells reads single cells of it straight from the stream arrays.

The weighted normal equations are split around c = min(sigma), which is
the PSD floor whenever any cell is floored:

    Z = C/c - sum_{sigma > c} x x^H (1/c - 1/sigma)
    q = g/c - sum_{sigma > c} x conj(ref) (1/c - 1/sigma)

C = sum x x^H and g = sum x conj(ref) are unweighted: C depends only on the
stream arrays and g also on the reference arrays, one column per target.
Both form one immutable Gram, built by whoever sets up or changes the
streams. Each call then
touches only the unfloored cells, which on speech are a small share of the
time-frequency plane: the per-call cost scales with their number,
O(nnz d^2), instead of O(N K d^2).

The stacked rows are delayed copies of S streams, so C is the
covariance-method matrix of linear prediction and follows from its S lag-0
columns and the last stacked frame. Row (i, a) is stream i at lag a, so for
a, b >= 1

    C[(i,a),(j,b)] = C[(i,a-1),(j,b-1)] - x_(i,a-1)[N-1] conj(x_(j,b-1)[N-1])

(the frame before the signal is zero). A Gram therefore keeps only these
generators, (K, d, S) columns and a (K, d) frame instead of the (K, d, d)
matrix: 17 MB instead of 400 MB at centralized M=12 (d = 312). A build costs
O(N K d S) instead of O(N K d^2), plus O(N K d) per target for g. It
happens once per run_wpe, so once per centralized dereverb whatever the
number of report nodes, and, in distributed mode, whenever a node's inbox
changes (at each broadcast). Gram.expand runs the
recursion, one lag at a time, for the bin block of each Z.

solve_weights forms and solves Z one bin block at a time, sized by
SOLVE_BLOCK_BYTES, and solve_all_bins consumes each block (the ridge goes
onto its diagonal in place); at d <= 37 every bin fits in one block. The
blocks are independent, so a caller may map them over worker threads with
a mapper it passes in (centralized mode uses the node pool; this module
keeps none). Each worker forms its blocks in one Z buffer that it reuses,
and the blocks shrink with the worker count, so only the generators and
SOLVE_BLOCK_BYTES of Z are live. The other large transients are bounded
too: Gram.build stacks GRAM_BLOCK_BYTES of observations at a time, beside
its streams' padded copies (as large as the stream arrays), and
normal_equations_all_bins gathers GATHER_BYTES of unfloored cells at a
time. Worker threads allocate from their own malloc arenas, which keep
what is freed into them, so a transient a worker does not bound stays
resident. Per bin, neither blocking, grouping nor the worker count changes
an operation, so the weights do not depend on them.

predict_all_bins forms w^H x without stacking the rows. A stream of order
> 1 is one per-bin matmul of its lag windows over all bins by its
conjugated weights, in row order. Only one padded copy (1.6 MB at N = 372,
K = 257) is live at a time, so the 12 streams of centralized mode cost no
more transient memory than one. An order-1 stream, such as a distributed
payload, is one scaled, shifted add; stacking those was slower.

The subtraction cancels most where unfloored cells with sigma >> c carry
most of the energy. With the default floor (PSD_FLOOR_FRACTION) Z agrees
with direct accumulation to about 4e-14 relative and q to about 2e-13 in
the worst bin of the shipped scenario; a floor nine decades below the peak
power leaves about 1e-9 in Z and 1e-8 in q.
"""

from __future__ import annotations

import math
import queue
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InvalidInputError, NumericalError, SolverError

# Frames per accumulation chunk; fixed so operation order (and therefore
# floating-point results) never depends on signal length or caller.
CHUNK_FRAMES = 512

# Frequency bins per block when building the unweighted Gram: as many as fit
# GRAM_BLOCK_BYTES of stacked observations (bins, d, CHUNK_FRAMES), and at
# least one. That is 2 bins at d = 312, 17 at d = 37 and 24 at d = 26.
GRAM_BLOCK_BYTES = 5 * 2**20

# Bytes of weighted normal equations Z (bins, d, d) live at a time in
# solve_weights, shared by its block workers: one block of all bins at
# d <= 37 (K = 257), 21 bins at d = 312 solved serially, or two blocks of
# 10 bins on two workers.
SOLVE_BLOCK_BYTES = 32 * 2**20

# Bytes of the stacked vectors (d, cells) of unfloored cells that
# normal_equations_all_bins gathers at a time, in groups of whole bins (a
# bin with more cells is gathered alone): 525 cells at d = 312, where a
# whole block's cells made up to 30 MB, and 4430 at d = 37. A fixed 500
# cells made about 60 groups per distributed node round and slowed it.
GATHER_BYTES = 5 * 2**19  # 2.5 MiB

# Relative residual above which a per-bin solve is considered failed.
SOLVE_RESIDUAL_TOL = 1e-8

# Per-bin ridge of every weight solve, as a fraction of trace(Z)/d.
RIDGE_SCALE = 1e-8

# Strength of the proximal pull of solve_all_bins toward prox_to, as a
# fraction of trace(Z)/d: directions Z barely constrains stay near prox_to.
PROX_SCALE = 0.03


@dataclass(frozen=True)
class WpeParams:
    """Prediction-filter configuration shared by all dereverberation modes.

    psd_floor=None resolves at run time to a fraction of the mean observed
    power of each target channel (see resolve_psd_floor). The solve's
    ridge (RIDGE_SCALE), the distributed proximal pull (PROX_SCALE) and
    step (danse.RELAXATION_DECAY) are module constants, not settings.
    """

    delay: int = 4
    filter_order: int = 26
    psd_floor: float | None = None
    max_iters: int = 6
    convergence_tol: float = 1e-4

    def __post_init__(self):
        if self.delay < 1:
            raise InvalidInputError(f"delay must be >= 1 frame, got {self.delay}")
        if self.filter_order < 1:
            raise InvalidInputError(f"filter_order must be >= 1, got {self.filter_order}")
        if self.psd_floor is not None and not 0 < self.psd_floor < np.inf:
            raise InvalidInputError(
                f"psd_floor must be positive and finite, got {self.psd_floor}")
        if self.max_iters < 1:
            raise InvalidInputError(f"max_iters must be >= 1, got {self.max_iters}")
        if not 0 <= self.convergence_tol < np.inf:
            raise InvalidInputError(
                f"convergence_tol must be >= 0 and finite, got {self.convergence_tol}")


@dataclass
class PsdEstimate:
    """Desired-signal power estimate, strictly positive via the floor
    (update_psd)."""

    values: np.ndarray


# Default PSD floor as a fraction of the mean observed power. Large enough
# that near-silent time-frequency cells get a flat weighting instead of
# dominating the normal equations, which is what makes the alternating
# updates contract at a useful rate.
PSD_FLOOR_FRACTION = 0.05


def resolve_psd_floor(data: np.ndarray, psd_floor: float | None) -> float:
    """Explicit floor if given, else PSD_FLOOR_FRACTION of the mean power.

    An all-zero observation gets an arbitrary positive floor; the pipeline
    then produces all-zero output regardless of its value.
    """
    if psd_floor is not None:
        return float(psd_floor)
    mean_power = float(np.mean(np.abs(data) ** 2))
    return PSD_FLOOR_FRACTION * mean_power if mean_power > 0 else 1.0


def update_psd(desired: np.ndarray, floor: float) -> PsdEstimate:
    """Elementwise max(|desired|^2, floor), the floor positive."""
    if not floor > 0:
        raise InvalidInputError(f"psd floor must be positive, got {floor}")
    power = np.abs(np.asarray(desired)) ** 2
    return PsdEstimate(values=np.maximum(power, floor))


# ---------------------------------------------------------------------------
# Batched kernels over all bins. A "stream" is (data (N, K), order, delay):
# `order` stacked rows of `data` delayed by delay, delay+1, ... frames. The
# full stacked observation for a bin is the row-major concatenation of all
# streams. Shared by the centralized and distributed paths.
# ---------------------------------------------------------------------------

Stream = tuple[np.ndarray, int, int]


def streams_dim(streams: list[Stream]) -> int:
    return sum(order for _, order, _ in streams)


def lag_windows(data: np.ndarray, order: int, delay: int) -> np.ndarray:
    """The stacked rows of the stream (data, order, delay): a read-only
    (K, N, order) view with [k, n, a] = data[n - delay - a, k], zero before
    the signal. It reads one zero-padded, bin-major copy of data, or data
    itself when delay + order - 1 == 0."""
    N, K = data.shape
    pad = delay + order - 1
    columns = data.T
    if pad:
        padded = np.zeros((K, N + pad), dtype=np.complex128)
        padded[:, pad:] = columns
        columns = padded
    # window n holds frames n - delay - order + 1 .. n - delay; reversed,
    # lag a is frame n - delay - a
    return sliding_window_view(columns, order, axis=1)[:, :N, ::-1]


def gather_cells(streams: list[Stream], frames: np.ndarray,
                 bins: np.ndarray) -> np.ndarray:
    """Stacked observation vectors of the cells (frames[i], bins[i]) as the
    columns of a (d, cells) array; pre-signal frames are zeros. Reads the
    stream arrays in place, without a padded copy."""
    out = np.empty((streams_dim(streams), frames.size), dtype=np.complex128)
    row = 0
    for data, order, delay in streams:
        K = data.shape[1]
        shifts = np.arange(delay, delay + order)[:, None]
        rows = out[row : row + order]
        # all lags of the stream at once; pre-signal cells clip to index 0
        # and are zeroed after
        np.take(data.ravel(), frames * K + bins - shifts * K, out=rows, mode="clip")
        rows[frames < shifts] = 0.0
        row += order
    return out


@dataclass(frozen=True)
class Gram:
    """Unweighted normal equations of one stream set and its targets.
    `refs` are the T targets' (N, K) reference arrays, held, not copied.
    g = sum_n x_n conj(ref_n) is kept in full, shape (K, d, T), one column
    per target. C = sum_n x_n x_n^H, the same for every target, is kept as
    the generators of its shift structure: its S lag-0 columns `cols`,
    shape (K, d, S), and the last stacked frame `last`, shape (K, d), from
    which expand() rebuilds one bin block. `orders` are the streams'.

    The arrays are read-only and no stream array is held, so threads share
    a Gram freely and it keeps no replaced stream alive. Stream and
    reference arrays must not be modified in place while their Gram is in
    use.
    """

    cols: np.ndarray
    last: np.ndarray
    g: np.ndarray
    orders: tuple[int, ...]
    refs: tuple[np.ndarray, ...]

    def __post_init__(self):
        for array in (self.cols, self.last, self.g):
            array.flags.writeable = False

    @classmethod
    def build(cls, streams: list[Stream], refs: list[np.ndarray]) -> Gram:
        """The Gram of streams and the targets' references `refs`, a
        sequence of T (N, K) arrays, in one pass over bin blocks
        (GRAM_BLOCK_BYTES) and frame chunks of the streams' lag windows,
        which are formed once per build. C's generators are the products
        with the S lag-0 rows and the last chunk's final frame; each
        target's column of g is the product with its reference, target
        after target, so it is a one-target build's g byte for byte."""
        targets = tuple(refs)
        N, K = targets[0].shape
        d = streams_dim(streams)
        cols = np.zeros((K, d, len(streams)), dtype=np.complex128)
        last = np.empty((K, d), dtype=np.complex128)
        heads = np.cumsum([0] + [order for _, order, _ in streams[:-1]])
        g = np.zeros((K, d, len(targets)), dtype=np.complex128)
        step = max(1, GRAM_BLOCK_BYTES // (16 * d * CHUNK_FRAMES))
        windows = [lag_windows(*stream) for stream in streams]
        for k0 in range(0, K, step):
            bins = slice(k0, min(k0 + step, K))
            for start in range(0, N, CHUNK_FRAMES):
                stop = min(start + CHUNK_FRAMES, N)
                X = np.concatenate([w[bins, start:stop].transpose(0, 2, 1) for w in windows],
                                   axis=1)  # (bins, d, n)
                cols[bins] += X @ X[:, heads].conj().transpose(0, 2, 1)
                for t, ref in enumerate(targets):
                    g[bins, :, t] += (X @ ref[start:stop, bins].conj().T[:, :, None])[..., 0]
            last[bins] = X[:, :, -1]  # the last chunk ends at frame N-1
        return cls(cols, last, g, tuple(order for _, order, _ in streams), targets)

    def expand(self, bins: slice, divisor: float = 1.0,
               out: np.ndarray | None = None) -> np.ndarray:
        """C / divisor for the bins [bins.start, bins.stop), shape
        (bins, d, d), from the generators in O(d^2) per bin. Given `out`,
        writes every entry of it instead of allocating.

        Head rows (i,0) and head columns are the lag-0 columns; every other
        row (i,a) follows from row (i,a-1) by the shift recursion of the
        module docstring, one lag of all streams at a time.
        """
        cols = self.cols[bins] / divisor
        last = self.last[bins]
        tail = last[:, None, :-1].conj() / divisor  # column q reads frame q-1
        orders = np.array(self.orders)
        heads = np.cumsum(orders) - orders
        nb, d, _ = cols.shape
        C = np.empty((nb, d, d), dtype=np.complex128) if out is None else out
        C[:, heads, :] = cols.conj().transpose(0, 2, 1)
        C[:, :, heads] = cols
        for lag in range(1, orders.max()):
            rows = heads[orders > lag] + lag
            C[:, rows, 1:] = C[:, rows - 1, :-1] - last[:, rows - 1, None] * tail
            C[:, rows[:, None], heads] = cols[:, rows]
        return C


def normal_equations_all_bins(streams: list[Stream], ref_data: np.ndarray,
                              sigma: np.ndarray, gram: Gram | None = None,
                              bins: slice | None = None,
                              out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """PSD-weighted normal equations of the bins [bins.start, bins.stop)
    (default all), split around c = min(sigma) over all bins.

    Z = C/c minus a correction over the cells with sigma > c, each weighted
    by 1/c - 1/sigma in [0, 1/c); q likewise (see the module docstring).
    `gram` is the Gram of these streams, and every target of it shares
    sigma, so Z serves them all; q has one column per target, read from the
    Gram's references. ref_data is read only when no Gram is given: a
    throwaway Gram of the one reference ref_data is built. The cells are
    gathered GATHER_BYTES at a time. Each bin's Z and q do not depend on
    which other bins share the call.

    Returns Z of shape (bins, d, d), written into `out` when given, and q
    of shape (bins, d, T), the Gram's g over the bins.
    """
    if gram is None:
        gram = Gram.build(streams, [ref_data])
    if bins is None:
        bins = slice(0, gram.g.shape[0])
    c = float(sigma.min())
    Z = gram.expand(bins, c, out=out)
    q = gram.g[bins] / c
    # active cells sorted by bin, then frame; x x^H w = (x sqrt(w)) (x sqrt(w))^H
    rel, frames = np.nonzero(sigma[:, bins].T > c)
    cell_bins = rel + bins.start
    s = sigma[frames, cell_bins]
    root = np.sqrt((s - c) / (c * s))
    ref_cells = np.stack([ref[frames, cell_bins] for ref in gram.refs], axis=-1)
    ref_scaled = ref_cells.conj() * root[:, None]
    bounds = np.searchsorted(rel, np.arange(Z.shape[0] + 1))
    group_cells = GATHER_BYTES // (16 * Z.shape[1])
    k0 = 0
    while k0 < Z.shape[0]:
        # whole bins from k0 on, group_cells cells or the one bin k0
        k1 = max(k0 + 1, int(np.searchsorted(bounds, bounds[k0] + group_cells, "right")) - 1)
        group = slice(bounds[k0], bounds[k1])
        X = gather_cells(streams, frames[group], cell_bins[group])
        X *= root[group]
        ref_group = ref_scaled[group]
        for k in range(k0, k1):
            cells = slice(bounds[k] - group.start, bounds[k + 1] - group.start)
            if cells.start < cells.stop:
                Z[k] -= X[:, cells] @ X[:, cells].conj().T
                q[k] -= X[:, cells] @ ref_group[cells]
        del X  # not held while the next group is gathered
        k0 = k1
    if not (np.all(np.isfinite(Z)) and np.all(np.isfinite(q))):
        raise NumericalError("normal-equation accumulation produced non-finite values")
    return Z, q


def solve_all_bins(Z: np.ndarray, q: np.ndarray, ridge_scale: float,
                   prox_to: np.ndarray | None = None,
                   first_bin: int = 0) -> np.ndarray:
    """Solve every bin's system with per-bin ridge ridge_scale*trace(Z)/d.

    q is (K, d), one right-hand side per bin, or (K, d, T), T of them, all
    solved with one factorization of the bin's Z. Given prox_to, of q's
    shape, the solve is proximally regularized toward it:
    (Z + (ridge + lam) I) w = q + lam prox_to with lam = PROX_SCALE*trace/d.
    A bin whose accumulation is identically zero (a silent bin) gets a unit
    ridge and a zero right-hand side, so zero weights. Returns weights of
    q's shape. Errors name bins counted from first_bin, the index of Z's
    first bin in the full band.

    Z is consumed: the ridge is added to its diagonal in place and the
    solve runs on Z itself, so no (K, d, d) copy is ever made.
    """
    K, d = Z.shape[:2]
    trace = np.real(np.einsum("kii->k", Z))
    live = trace > 0
    ridge = ridge_scale * trace / d
    rhs = q.reshape(K, d, -1)  # one column per right-hand side
    if prox_to is not None:
        lam = PROX_SCALE * trace / d
        ridge = ridge + lam
        rhs = rhs + lam[:, None, None] * prox_to.reshape(rhs.shape)
    ridge[~live] = 1.0
    rhs = np.where(live[:, None, None], rhs, 0.0)
    diagonal = np.einsum("kii->ki", Z)  # a writable view
    diagonal += ridge[:, None]
    try:
        w = np.linalg.solve(Z, rhs)
    except np.linalg.LinAlgError as exc:
        conds = np.linalg.cond(Z)
        worst = int(np.argmax(conds))
        raise SolverError(
            f"singular system at bin {first_bin + worst} "
            f"(condition ~ {conds[worst]:.3e})"
        ) from exc
    relative = np.linalg.norm(Z @ w - rhs, axis=1) / np.maximum(np.linalg.norm(rhs, axis=1),
                                                                1e-300)
    bad = ~np.isfinite(w).all(axis=1) | (relative > SOLVE_RESIDUAL_TOL)
    if np.any(bad):
        first = int(np.argmax(bad.any(axis=1)))
        raise SolverError(
            f"ill-conditioned solve at bin {first_bin + first}: relative residual "
            f"{float(relative[first].max()):.3e}"
        )
    return w.reshape(q.shape)


def solve_weights(streams: list[Stream], sigma: np.ndarray, gram: Gram,
                  prox_to: np.ndarray | None = None, workers: int = 1,
                  map_jobs=map) -> np.ndarray:
    """Prediction weights of the PSD-weighted normal equations, with the
    ridge RIDGE_SCALE and, given prox_to of their shape, the pull of
    solve_all_bins: one column per target of `gram`, (K, d, T) like its g.

    Forms and solves Z one bin block at a time, once for every target. The
    blocks are the jobs of map_jobs(fn, items), which returns fn's results
    in input order (map runs them serially; netsim.map_nodes on its pool);
    with `workers` workers, each block is at most a 1/workers share of the
    band and of SOLVE_BLOCK_BYTES. Each worker forms its blocks in one reused Z buffer,
    so beside the Gram only `workers` blocks are live. Errors are the first
    failing block's in input order, as in a serial run. The weights equal
    a single full-band block's byte for byte.
    """
    K = gram.g.shape[0]
    d = streams_dim(streams)
    step = max(1, min(SOLVE_BLOCK_BYTES // (16 * d * d * workers),  # 16 bytes per entry
                      -(-K // workers)))
    buffers = queue.SimpleQueue()  # the Z buffers no block is using
    for _ in range(workers):
        buffers.put(np.empty((min(step, K), d, d), dtype=np.complex128))

    def solve_block(k0: int) -> np.ndarray:
        bins = slice(k0, min(k0 + step, K))
        Z = buffers.get()
        try:
            # with a Gram the kernel reads no reference; bench/layers.py
            # reads this one's (N, K) shape
            Zb, q = normal_equations_all_bins(streams, gram.refs[0], sigma, gram, bins,
                                              out=Z[: bins.stop - k0])
            return solve_all_bins(Zb, q, RIDGE_SCALE,
                                  None if prox_to is None else prox_to[bins],
                                  first_bin=k0)
        finally:
            buffers.put(Z)  # consumed by the solve; the next block overwrites it

    return np.concatenate(list(map_jobs(solve_block, range(0, K, step))))


def predict_all_bins(streams: list[Stream], weights: np.ndarray) -> np.ndarray:
    """Predicted late reverberation w^H x for all frames and bins; the
    desired-signal estimate is the reference minus this.

    weights is (K, d) in stream row order: stream after stream, each
    stream's lags as lag_windows lays them out. Every stream array has the
    first one's (N, K) shape. Returns a C-contiguous (N, K) array, formed
    one stream at a time as the module docstring describes.
    """
    N, K = streams[0][0].shape
    shapes = {data.shape for data, _, _ in streams}
    if shapes != {(N, K)}:
        raise InvalidInputError(f"stream shapes differ: {sorted(shapes)}")
    if weights.shape != (K, streams_dim(streams)):
        raise InvalidInputError(
            f"weights must be (K, d) = {(K, streams_dim(streams))}, got {weights.shape}")
    late = np.zeros((K, N), dtype=np.complex128)
    row = 0
    for data, order, delay in streams:
        w = weights[:, row : row + order]
        if order == 1:
            if delay < N:
                late[:, delay:] += data[: N - delay].T * w.conj()
        else:
            windows = lag_windows(data, order, delay)
            late += (windows @ w[:, :, None].conj())[..., 0]
            del windows  # one padded copy live at a time
        row += order
    return np.ascontiguousarray(late.T)


def weighted_cost(desired: np.ndarray, sigma: np.ndarray) -> float:
    """Maximum-likelihood cost: sum |desired|^2/sigma + log(pi sigma)."""
    return float(np.sum(np.abs(desired) ** 2 / sigma + np.log(np.pi * sigma)))


def shared_psd(desired: list[np.ndarray], floors: list[float]) -> np.ndarray:
    """The one PSD every target is weighted by: the mean of the targets'
    floored PSDs (update_psd), summed in place in target order. One target
    gets its own floored PSD."""
    sigma = update_psd(desired[0], floors[0]).values
    for estimate, floor in zip(desired[1:], floors[1:]):
        sigma += update_psd(estimate, floor).values
    sigma /= len(desired)
    return sigma


@dataclass
class WpeTrace:
    """One run's rounds, one entry per round: the relative change of its
    desired estimates (round 1 against the observations) and the weighted
    cost of the new estimates at the PSD the round solved with, summed over
    the targets. converged holds for the last recorded round."""

    change: list[float] = field(default_factory=list)
    cost: list[float] = field(default_factory=list)
    converged: bool = False

    @property
    def iterations(self) -> int:
        return len(self.change)

    def record(self, previous: list[np.ndarray], desired: list[np.ndarray],
               sigma: np.ndarray, tol: float) -> bool:
        """Append one round of the targets' estimates, one array each in
        the same order; return whether the run converged in it. The one stop
        rule of every mode: a run has converged in a round when its previous
        estimates were all zero or their relative change (Frobenius, over
        all targets) is below tol, and a run stops after the first round in
        which all its nodes have."""
        norm = math.hypot(*(float(np.linalg.norm(p)) for p in previous))
        moved = math.hypot(*(float(np.linalg.norm(d - p)) for p, d in zip(previous, desired)))
        change = moved / norm if norm else 0.0
        self.change.append(change)
        self.cost.append(sum(weighted_cost(d, sigma) for d in desired))
        self.converged = not norm or change < tol
        return self.converged


@dataclass
class WpeResult:
    """A run's T targets' estimates, one (N, K) array each, their
    (K, M*filter_order, T) weights and their T PSD floors, in target
    order."""

    desired: list[np.ndarray]
    trace: WpeTrace
    weights: np.ndarray
    psd_floor: list[float]


def check_observations(observations: list[np.ndarray]) -> list[np.ndarray]:
    """The observations as complex128 (frames, bins) arrays, without a copy
    of complex128 input. Raises unless there is at least one, each is 2-D
    with at least one frame and one bin, all share one shape and every
    entry is finite."""
    if not observations:
        raise InvalidInputError("at least one observation channel required")
    checked = [np.asarray(obs, dtype=np.complex128) for obs in observations]
    for i, data in enumerate(checked):
        if data.ndim != 2 or 0 in data.shape:
            raise InvalidInputError(
                f"observation {i} must be a non-empty 2-D (frames, bins) array, "
                f"got shape {data.shape}")
        if not np.all(np.isfinite(data)):
            raise InvalidInputError(f"observation {i} contains non-finite entries")
    shapes = {data.shape for data in checked}
    if len(shapes) != 1:
        raise InvalidInputError(f"observation shapes differ: {sorted(shapes)}")
    return checked


def run_wpe(observations: list[np.ndarray], targets: list[int], params: WpeParams,
            workers: int = 1, map_jobs=map) -> WpeResult:
    """Batch WPE over M observation channels, each an (N, K) spectrogram
    array (see check_observations), of the target channels `targets`, a
    sequence of T channel indices (MIMO WPE).

    Every target is weighted by one PSD (shared_psd), so one Gram and one Z
    per bin block serve them all: each solve has T right-hand sides, and
    each target subtracts its own prediction, one target at a time. One
    target is single-target WPE. Alternates the PSD update with the per-bin
    closed-form weight solve and the desired-signal re-prediction. Stops
    after max_iters rounds or the first round in which the run converged
    (WpeTrace.record): its previous estimates were all zero or changed by
    less than convergence_tol (relative Frobenius). M = 1 is the
    single-channel variant. `workers` and `map_jobs` map each solve's bin
    blocks (see solve_weights).
    """
    observations = check_observations(observations)
    channels = list(targets)
    if not channels:
        raise InvalidInputError("at least one target channel required")
    for channel in channels:
        if not 0 <= channel < len(observations):
            raise InvalidInputError(
                f"target channel {channel} out of range for {len(observations)} channels")
    refs = [observations[channel] for channel in channels]
    streams: list[Stream] = [
        (data, params.filter_order, params.delay) for data in observations
    ]
    floors = [resolve_psd_floor(ref, params.psd_floor) for ref in refs]
    desired = refs
    trace = WpeTrace()
    gram = Gram.build(streams, refs)
    for _ in range(params.max_iters):
        sigma = shared_psd(desired, floors)
        weights = solve_weights(streams, sigma, gram, workers=workers, map_jobs=map_jobs)
        previous, desired = desired, [ref - predict_all_bins(streams, weights[..., t])
                                      for t, ref in enumerate(refs)]
        if trace.record(previous, desired, sigma, params.convergence_tol):
            break
        del previous  # not held through the next round's solve
    return WpeResult(desired, trace, weights, floors)

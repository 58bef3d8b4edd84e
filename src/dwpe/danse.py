"""Per-node distributed WPE with compressed cross-node data.

Each node predicts its own late reverberation from its local delayed frames
plus one compressed scalar stream per neighbor. The compressor a node
broadcasts is its own local prediction filter at the broadcast round,
refreshed every collab_period rounds. Every node broadcasts on the same
rounds, and a round's broadcasts are one {sender: payload} map delivered
whole to every other node. NodeState.receive is the only writer of a node's
read-only inbox: the inbox becomes the last broadcast round's payloads, and
the node's Gram is dropped, which the next round rebuilds for the new
streams. Compression is applied to the same delayed frames the local
prediction uses, so both blocks of the extended observation share one time
support, and the payload a node broadcasts is the local block of the late
reverberation it has just predicted: node_round computes it once and both
subtracts and sends it. All prediction runs through wpe.predict_all_bins.
Signals here are (frames, bins) spectrogram arrays; the framing that made
them is dsp's and pipeline's concern.

A single-node network runs exactly the single-channel code path of the wpe
module: same kernels, same operation order, the same trace and stop rule,
bit-identical output.

Nodes update simultaneously: round r at every node reads only what round
r-1 delivered. run_distributed therefore runs a round's node updates
through netsim.map_nodes, the package's one node pool, and delivers after
all of them have finished. Node rounds share no mutable state: each writes
only its own NodeState, and no payload array or Gram is changed after it is
made. So the result does not depend on the number of workers, and a pool
with one worker is the serial run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .errors import InvalidInputError, NumericalError, SolverError
from .netsim import TransmissionLedger, deliver_round, map_nodes
from .wpe import (
    Gram,
    Stream,
    WpeParams,
    WpeTrace,
    check_observations,
    predict_all_bins,
    resolve_psd_floor,
    solve_weights,
    update_psd,
)

# Decay of the step of a node's weight update once it uses cross-node data:
# round r moves RELAXATION_DECAY ** (r - 1) of the way to its solve (the
# full step in round 1). Simultaneous network-wide updates need the damping
# to settle (rS-DANSE, Bertrand & Moonen 2010).
RELAXATION_DECAY = 0.9


@dataclass
class NodeState:
    """Everything one node owns: its observation, an (N, K) complex
    spectrogram array; its filter, inbox, estimate and trace; and the
    unweighted Gram of its current streams (None until node_round builds it,
    and again after receive changes the streams).

    weights is the node's one filter in the row order of streams(): the
    filter_order local taps, then one weight per inbox sender in ascending id
    order once cross-node data has arrived.
    """

    node_id: int
    observation: np.ndarray
    params: WpeParams
    weights: np.ndarray = field(init=False)
    inbox: MappingProxyType = field(init=False, default_factory=lambda: MappingProxyType({}))
    desired: np.ndarray = field(init=False)
    psd_floor: float = field(init=False)
    gram: Gram | None = field(init=False, default=None)
    trace: WpeTrace = field(init=False, default_factory=WpeTrace)

    def __post_init__(self):
        K = self.observation.shape[1]
        self.weights = np.zeros((K, self.params.filter_order), dtype=np.complex128)
        # zero-initialized filters make the first desired estimate the observation
        self.desired = self.observation
        self.psd_floor = resolve_psd_floor(self.observation, self.params.psd_floor)

    def receive(self, payloads: dict[int, np.ndarray]) -> None:
        """Make one broadcast round's {sender: payload} map the inbox, a
        read-only copy, and drop the Gram of the old streams. A round
        without broadcasts delivers {} and changes nothing."""
        if payloads:
            self.inbox, self.gram = MappingProxyType(dict(payloads)), None

    def streams(self) -> list[Stream]:
        """Extended observation as kernel streams: local delayed block first,
        then one compressed stream per inbox sender in ascending id order."""
        local: Stream = (self.observation, self.params.filter_order, self.params.delay)
        return [local] + [(self.inbox[j], 1, 0) for j in sorted(self.inbox)]


def compress_all_frames(data: np.ndarray, compressor: np.ndarray,
                        params: WpeParams) -> np.ndarray:
    """Compressed scalar stream of one channel: the compressor applied to the
    delayed frames at every (frame, bin), i.e. the channel's local-block
    late-reverberation prediction. data is (N, K); compressor is
    (K, filter_order)."""
    return predict_all_bins([(data, params.filter_order, params.delay)], compressor)


def node_round(node: NodeState, round_index: int,
               collab_period: int) -> np.ndarray | None:
    """One full local round: PSD update, weight solve, desired re-prediction
    recorded in the node's trace; on every collab_period-th round also
    return the compressed payload to broadcast. The payload is the local
    block of the late-reverberation prediction the round has just made: the
    compressor is the local filter of this round, applied to the same
    delayed frames.

    The per-bin solve has dimension filter_order + (M-1) once cross-node data
    has arrived; the first such round widens the filter once with zero cross
    weights. Before that the cross block is unidentifiable, so only the local
    system is solved and taken as is.

    With cross-node data the solve is proximally regularized toward the
    current weights, (Z + lam I) w = q + lam w_prev with lam from
    wpe.PROX_SCALE: directions Z barely constrains stay where they were
    instead of wandering with every new compressor snapshot, while any fixed
    point still satisfies Z w = q. The weights then move toward the solution
    with the step RELAXATION_DECAY ** max(0, round_index - 1); simultaneous
    exact updates across the network need not settle, while the damped
    update keeps the fixed point unchanged.
    """
    psd = update_psd(node.desired, node.psd_floor)
    streams = node.streams()
    data, L = node.observation, node.params.filter_order
    cross = len(streams) > 1
    if cross and node.weights.shape[1] == L:
        node.weights = np.pad(node.weights, ((0, 0), (0, len(streams) - 1)))
    if node.gram is None:
        node.gram = Gram.build(streams, [data])
    try:
        # one target, the node's own channel; without cross-node data there
        # is no proximal pull (prox_to=None)
        solved = solve_weights(streams, psd.values, node.gram,
                               node.weights[..., None] if cross else None)[..., 0]
    except (SolverError, NumericalError) as exc:
        raise type(exc)(f"node {node.node_id}: {exc}") from exc
    if cross:
        mu = RELAXATION_DECAY ** max(0, round_index - 1)
        node.weights = (1.0 - mu) * node.weights + mu * solved
    else:
        node.weights = solved
    local_late = compress_all_frames(data, node.weights[:, :L], node.params)
    late = (local_late + predict_all_bins(streams[1:], node.weights[:, L:])
            if cross else local_late)
    previous, node.desired = node.desired, data - late
    node.trace.record([previous], [node.desired], psd.values,
                      node.params.convergence_tol)
    if round_index % collab_period == 0:
        return local_late
    return None


@dataclass
class DistributedResult:
    """The node states (estimate, filter, trace, PSD floor) and the ledger."""

    nodes: list[NodeState]
    ledger: TransmissionLedger


def run_distributed(observations: list[np.ndarray], params: WpeParams,
                    collab_period: int = 2) -> DistributedResult:
    """Batch distributed dereverberation over a fully-connected network,
    one node per observation, an (N, K) spectrogram array (see
    wpe.check_observations). Every node runs every round whichever nodes
    the caller reports, since each one's broadcasts feed the others; an
    all-zero observation is a node like any other and estimates silence.

    All nodes execute their rounds between synchronization barriers, on
    netsim.map_nodes; payloads broadcast in round r are readable
    from round r+1 on. Runs at most params.max_iters rounds and stops after
    the first round in which every node has converged by the stop rule of
    run_wpe (WpeTrace.record): its previous estimate was all zero or its
    desired signal changed by less than params.convergence_tol. An error in
    any node's round propagates, naming the node, once the pool's threads
    have finished. The inputs are checked before the pool starts.
    """
    observations = check_observations(observations)
    if collab_period < 1:
        raise InvalidInputError(f"collab_period must be >= 1, got {collab_period}")
    nodes = [
        NodeState(node_id=i, observation=obs, params=params)
        for i, obs in enumerate(observations)
    ]
    ledger = TransmissionLedger(mode="distributed")
    for round_index in range(1, params.max_iters + 1):
        # the barrier: every node's round has finished before delivery
        sent = map_nodes(lambda node: node_round(node, round_index, collab_period), nodes)
        payloads = {node.node_id: payload for node, payload in zip(nodes, sent)
                    if payload is not None}
        received = deliver_round(payloads, round_index, len(nodes), ledger)
        for node in nodes:
            node.receive(received[node.node_id])
        if all(node.trace.converged for node in nodes):
            break
    return DistributedResult(nodes=nodes, ledger=ledger)

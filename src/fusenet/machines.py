"""Per-bank cycle state of a repeater node: herald, signals, returns, swaps.

A node owns a fusillade (transmitters firing toward its right neighbor) and
a bank of fusilands (receivers serving the link from its left neighbor).
One herald pulse per cycle fires the whole fusillade; the signal train
arriving at a node is resolved in one call (``on_train``): its signals
interact with the fusilands one at a time, rerouting to the next fusiland
after each success, and the call returns the pairs the train made; a single
return message per hop confirms the fusillade; a node swaps as many pairs
as the caller counts on the shorter of its two hops.

Both classical messages are plain frame lists. Frame records a node
produces (its swaps, and the purifications of the hop it receives on) wait
in the node's one outbox, ``pending_frame``. A node that sends left
(``sends_left``, the nodes left of the butterfly split) empties it into its
return message, the list ``build_return_message`` returns at the end of its
incoming train; every other node empties it into the herald's list as the
next herald passes.

Because the fusillade fires as one train and each hop gets one return, each
bank moves through one phase per cycle: the fusillade goes idle -> fired ->
confirmed and the fusilands idle -> ready -> received -> reported. A node
keeps no pairs: a hop's pairs belong to whoever called ``on_train``.

NodeState is mutated only by the single event-loop thread of a simulation
run; all operations are deterministic given their RNG stream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

from .errors import DesynchronizationError, ProtocolError
from .pair_algebra import (
    Endpoint,
    IDENTITY_FRAME,
    LinkModel,
    PairRecord,
    PauliFrame,
    success_probability,
)


class FusilladePhase(Enum):
    IDLE = "idle"
    FIRED = "fired"
    CONFIRMED = "confirmed"


class FusilandPhase(Enum):
    IDLE = "idle"
    READY = "ready"
    RECEIVED = "received"
    REPORTED = "reported"


class FrameRecord(NamedTuple):
    """One node's pending frame contribution for an end-to-end slot."""

    node: int
    cycle: int
    slot: int
    frame: PauliFrame


@dataclass
class NodeState:
    """All per-node protocol state for one chain node.

    ``pending_frame`` is the node's frame outbox; ``sends_left`` says whether
    it leaves on the node's return message instead of the next herald.
    """

    node_id: int
    n_fusiliers: int
    m_fusilands: int
    sends_left: bool = False
    fusillade: FusilladePhase = FusilladePhase.IDLE
    fusilands: FusilandPhase = FusilandPhase.IDLE
    pending_frame: list[FrameRecord] = field(default_factory=list)
    current_cycle: int = -1
    busy_until_ns: int = 0

    def all_idle(self) -> bool:
        return (
            self.fusillade is FusilladePhase.IDLE
            and self.fusilands is FusilandPhase.IDLE
        )


def on_herald(
    node: NodeState,
    cycle: int,
    herald_frames: list[FrameRecord],
    now_ns: int,
    *,
    generate: bool = True,
) -> int:
    """Start ``cycle`` at this node as the herald pulse passes.

    Moves the node's pending frame records onto ``herald_frames``, the
    herald's frame list (unless the node sends them left on its return
    message instead), readies the fusiland bank for the incoming signal
    train, and fires the whole fusillade, one signal per slot time from
    ``now_ns``. Returns the fusillade size: the number of signals fired,
    fusilier k in slot k (none from the rightmost node). With ``generate``
    false (a frame-flush sweep) only the pickup and cycle bookkeeping
    happen.
    """
    if cycle != node.current_cycle + 1:
        raise DesynchronizationError(
            f"node {node.node_id} expected cycle {node.current_cycle + 1}, "
            f"herald carries cycle {cycle}"
        )
    if not node.all_idle() or now_ns < node.busy_until_ns:
        raise DesynchronizationError(
            f"herald for cycle {cycle} overtook unfinished work "
            f"at node {node.node_id}"
        )
    node.current_cycle = cycle
    if not node.sends_left:
        herald_frames.extend(node.pending_frame)
        node.pending_frame.clear()
    if not generate:
        return 0
    if node.m_fusilands:
        node.fusilands = FusilandPhase.READY
    if not node.n_fusiliers:
        return 0
    node.fusillade = FusilladePhase.FIRED
    return node.n_fusiliers


def on_train(
    node: NodeState,
    from_node: int,
    link: LinkModel,
    rng,
    arrivals: list[int],
) -> list[PairRecord]:
    """Resolve a whole incoming signal train at this node's fusilands.

    ``arrivals[k]`` is when fusilier k's signal arrives; the train must
    reach a readied bank, which it leaves received. Signals interact in
    fusilier order: each draws once from ``rng`` and succeeds below the
    link's success probability; a success draws once more for its error bit
    (from the link's raw fidelity), makes a pair, stamped with that
    signal's arrival, in the next fusiland slot, and reroutes to the next
    fusiland. A failure leaves the same fusiland waiting. Once every
    fusiland is filled the remaining signals are discarded without drawing.
    Returns the train's pairs, slot k at index k; pair k's ``left.slot`` is
    the fusilier that filled slot k.
    """
    if node.fusilands is not FusilandPhase.READY:
        raise ProtocolError(
            f"node {node.node_id} got a signal train while its "
            f"fusilands are {node.fusilands.value}"
        )
    node.fusilands = FusilandPhase.RECEIVED
    pairs: list[PairRecord] = []
    slot = 0
    capacity = node.m_fusilands
    draw = rng.random
    p_success = success_probability(link)
    p_error = 1.0 - link.raw_fidelity
    fidelity = link.raw_fidelity
    node_id = node.node_id
    for fusilier, arrival_ns in enumerate(arrivals):
        if draw() >= p_success:
            continue
        x_error = 1 if draw() < p_error else 0
        pairs.append(
            PairRecord(
                Endpoint(from_node, fusilier),
                Endpoint(node_id, slot),
                x_error,
                IDENTITY_FRAME,
                arrival_ns,
                fidelity,
            )
        )
        slot += 1
        if slot == capacity:
            break
    return pairs


def build_return_message(node: NodeState, cycle_id: int) -> list[FrameRecord]:
    """Report the hop's bank after the whole train passed; return the message.

    It must come after a train has arrived. The bank is reported for the
    cycle: fusilands still waiting stay empty. The return message is the
    list of frame records it relays left: a node that sends left empties its
    frame outbox into it, and every other node's is empty.
    """
    if cycle_id != node.current_cycle:
        raise ProtocolError(
            f"node {node.node_id} asked to report cycle {cycle_id} "
            f"during cycle {node.current_cycle}"
        )
    if node.fusilands is not FusilandPhase.RECEIVED:
        reason = (
            "no signal train has arrived"
            if node.fusilands is FusilandPhase.READY
            else f"its fusilands are {node.fusilands.value}"
        )
        raise ProtocolError(f"node {node.node_id} cannot report cycle {cycle_id}: {reason}")
    node.fusilands = FusilandPhase.REPORTED
    if not node.sends_left:
        return []
    relayed, node.pending_frame = node.pending_frame, []
    return relayed


def on_return(node: NodeState, cycle_id: int, swaps: int, rng) -> list[FrameRecord]:
    """Take the return for ``cycle_id``: confirm the fusillade, make ``swaps`` swaps.

    The caller takes the frames the return relays. ``swaps`` is the number
    of slots holding a pair on both of the node's hops (0 at an end node),
    so swap k joins slot k of the left hop to slot k of the right hop.
    Outcome bits are drawn from ``rng`` (parity bit then X bit per swap)
    into one frame record per swap, appended to ``pending_frame`` and
    returned, slot k at index k.
    """
    if cycle_id != node.current_cycle:
        raise ProtocolError(
            f"node {node.node_id} got return for cycle {cycle_id} "
            f"during cycle {node.current_cycle}"
        )
    if node.fusillade is not FusilladePhase.FIRED:
        raise ProtocolError(
            f"node {node.node_id} got return for cycle {cycle_id} while "
            f"its fusillade is {node.fusillade.value}"
        )
    node.fusillade = FusilladePhase.CONFIRMED
    records = [
        FrameRecord(
            node.node_id,
            cycle_id,
            slot,
            PauliFrame(int(rng.random() < 0.5), int(rng.random() < 0.5)),
        )
        for slot in range(swaps)
    ]
    node.pending_frame.extend(records)
    return records


def release_cycle_resources(node: NodeState) -> None:
    """Return both banks to idle at cycle end, once each is settled."""
    if node.fusillade is FusilladePhase.FIRED:
        raise ProtocolError(
            f"node {node.node_id} cannot release: its fusillade is unconfirmed"
        )
    if node.fusilands in (FusilandPhase.READY, FusilandPhase.RECEIVED):
        raise ProtocolError(
            f"node {node.node_id} cannot release: its fusilands are unreported"
        )
    node.fusillade = FusilladePhase.IDLE
    node.fusilands = FusilandPhase.IDLE

"""Per-bank cycle state of a repeater node: herald, signals, returns, swaps.

A node owns a fusillade (transmitters firing toward its right neighbor) and
a bank of fusilands (receivers serving the link from its left neighbor).
One herald pulse per cycle fires the whole fusillade; the signal train
arriving at a node is resolved in one call (``on_train``): its signals
interact with the fusilands one at a time, rerouting to the next fusiland
after each success; a single return message per hop reports how many
signals succeeded; swap eligibility requires confirmed links on both
sides.

Frame records a node produces (its swaps, and the purifications of the hop
it receives on) wait in the node's one outbox, ``pending_frame``. A node
that sends left (``sends_left``, the nodes left of the butterfly split)
hands them to the return message it sends at the end of its incoming
train; every other node hands them to the next herald that passes it.

Because the fusillade fires as one train and each hop gets one return, each
bank moves through one phase per cycle: the fusillade goes idle -> fired ->
confirmed and the fusilands idle -> ready -> reported. The only per-qubit
fact is which fusilier filled each fusiland slot.

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
    REPORTED = "reported"


class FrameRecord(NamedTuple):
    """One node's pending frame contribution for an end-to-end slot."""

    node: int
    cycle: int
    slot: int
    frame: PauliFrame


@dataclass
class HeraldMessage:
    """The classical pulse announcing a cycle; accumulates frame records.

    The payload only grows as the herald sweeps rightward.
    """

    cycle_id: int
    frame_payload: list[FrameRecord] = field(default_factory=list)


@dataclass
class ReturnMessage:
    """Per-hop report of how many signals succeeded, sent after the train.

    ``usable_links`` counts the hop's links (post-purification when that
    strategy is active) the transmitting node may swap; ``relayed_frames``
    carries the sending node's outbox when that node sends left.
    """

    cycle_id: int
    successes: int = 0
    usable_links: int = 0
    relayed_frames: list[FrameRecord] = field(default_factory=list)


@dataclass
class NodeState:
    """All per-node protocol state for one chain node.

    ``filled_by[k]`` is the fusilier whose signal filled fusiland slot k this
    cycle, so the next signal targets slot ``len(filled_by)``;
    ``signals_received`` is the size of the train resolved this cycle (0
    until it arrives).
    ``pending_frame`` is the node's frame outbox; ``sends_left`` says whether
    it leaves on the node's return message instead of the next herald.
    """

    node_id: int
    n_fusiliers: int
    m_fusilands: int
    sends_left: bool = False
    fusillade: FusilladePhase = FusilladePhase.IDLE
    fusilands: FusilandPhase = FusilandPhase.IDLE
    filled_by: list[int] = field(default_factory=list)
    signals_received: int = 0
    left_links: list[PairRecord] = field(default_factory=list)
    pending_frame: list[FrameRecord] = field(default_factory=list)
    current_cycle: int = -1
    busy_until_ns: int = 0

    def all_idle(self) -> bool:
        return (
            self.fusillade is FusilladePhase.IDLE
            and self.fusilands is FusilandPhase.IDLE
        )


def pickup_frames(node: NodeState, herald: HeraldMessage) -> None:
    """Move the node's pending frame records onto the herald payload."""
    herald.frame_payload.extend(node.pending_frame)
    node.pending_frame.clear()


def on_herald(
    node: NodeState,
    herald: HeraldMessage,
    now_ns: int,
    *,
    generate: bool = True,
) -> int:
    """Start a cycle at this node as the herald pulse passes.

    Picks up the node's pending frame records (unless the node sends them
    left on its return message instead), readies the fusiland bank for
    the incoming signal train, and fires the whole fusillade, one signal per
    slot time from ``now_ns``. Returns the fusillade size: the number of
    signals fired, fusilier k in slot k (none from the rightmost node). With
    ``generate`` false (a frame-flush sweep) only the pickup and cycle
    bookkeeping happen.
    """
    if herald.cycle_id != node.current_cycle + 1:
        raise DesynchronizationError(
            f"node {node.node_id} expected cycle {node.current_cycle + 1}, "
            f"herald carries cycle {herald.cycle_id}"
        )
    if not node.all_idle() or now_ns < node.busy_until_ns:
        raise DesynchronizationError(
            f"herald for cycle {herald.cycle_id} overtook unfinished work "
            f"at node {node.node_id}"
        )
    node.current_cycle = herald.cycle_id
    if not node.sends_left:
        pickup_frames(node, herald)
    node.signals_received = 0
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
) -> None:
    """Resolve a whole incoming signal train at this node's fusilands.

    ``arrivals[k]`` is when fusilier k's signal arrives; the train must
    reach a readied bank that has not yet received one. Signals interact in
    fusilier order: each draws once from ``rng`` and succeeds below the
    link's success probability; a success draws once more for its error bit
    (from the link's raw fidelity), records the pair, stamped with that
    signal's arrival, in the next fusiland slot and in ``left_links``, and
    reroutes to the next fusiland. A failure leaves the same fusiland
    waiting. Once every fusiland is filled the remaining signals are
    discarded without drawing.
    """
    if node.fusilands is not FusilandPhase.READY:
        raise ProtocolError(
            f"node {node.node_id} got a signal train while its "
            f"fusilands are {node.fusilands.value}"
        )
    if node.signals_received:
        raise ProtocolError(
            f"node {node.node_id} got a second signal train in cycle "
            f"{node.current_cycle}"
        )
    node.signals_received = len(arrivals)
    filled_by = node.filled_by
    slot = len(filled_by)
    capacity = node.m_fusilands
    if slot >= capacity:
        return
    draw = rng.random
    p_success = success_probability(link)
    p_error = 1.0 - link.raw_fidelity
    fidelity = link.raw_fidelity
    node_id = node.node_id
    left_links = node.left_links
    for fusilier, arrival_ns in enumerate(arrivals):
        if draw() >= p_success:
            continue
        x_error = 1 if draw() < p_error else 0
        left_links.append(
            PairRecord(
                Endpoint(from_node, fusilier),
                Endpoint(node_id, slot),
                x_error,
                IDENTITY_FRAME,
                arrival_ns,
                fidelity,
            )
        )
        filled_by.append(fusilier)
        slot += 1
        if slot == capacity:
            return


def build_return_message(node: NodeState, cycle_id: int) -> ReturnMessage:
    """Assemble the hop's single return message after the whole train passed.

    Counts the train's successes and the hop's current link records; it
    must come after a train has arrived. The bank is reported for the cycle:
    fusilands still waiting stay empty. A node that sends left empties its
    frame outbox into the message's ``relayed_frames``.
    """
    if cycle_id != node.current_cycle:
        raise ProtocolError(
            f"node {node.node_id} asked to report cycle {cycle_id} "
            f"during cycle {node.current_cycle}"
        )
    if node.fusilands is not FusilandPhase.READY:
        raise ProtocolError(
            f"node {node.node_id} cannot report cycle {cycle_id}: its "
            f"fusilands are {node.fusilands.value}"
        )
    if not node.signals_received:
        raise ProtocolError(
            f"node {node.node_id} cannot report cycle {cycle_id}: no signal "
            "train has arrived"
        )
    node.fusilands = FusilandPhase.REPORTED
    msg = ReturnMessage(
        cycle_id=cycle_id,
        successes=len(node.filled_by),
        usable_links=len(node.left_links),
    )
    if node.sends_left:
        msg.relayed_frames, node.pending_frame = node.pending_frame, []
    return msg


def on_return(node: NodeState, msg: ReturnMessage, rng) -> list[FrameRecord]:
    """Apply a return message: confirm the fusillade, then swap if eligible.

    When the node holds links on both sides, the k-th left link swaps with
    the k-th right link; outcome bits are drawn from ``rng`` (parity bit
    then X bit per swap) into one frame record per swap, appended to
    ``pending_frame`` and returned, slot k at index k. Surplus links stay
    until the cycle's resources are released.
    """
    if msg.cycle_id != node.current_cycle:
        raise ProtocolError(
            f"node {node.node_id} got return for cycle {msg.cycle_id} "
            f"during cycle {node.current_cycle}"
        )
    if node.fusillade is not FusilladePhase.FIRED:
        raise ProtocolError(
            f"node {node.node_id} got return for cycle {msg.cycle_id} while "
            f"its fusillade is {node.fusillade.value}"
        )
    node.fusillade = FusilladePhase.CONFIRMED
    swaps = [
        FrameRecord(
            node.node_id,
            msg.cycle_id,
            slot,
            PauliFrame(int(rng.random() < 0.5), int(rng.random() < 0.5)),
        )
        for slot in range(min(len(node.left_links), msg.usable_links))
    ]
    node.pending_frame.extend(swaps)
    return swaps


def release_cycle_resources(node: NodeState) -> None:
    """Free the node's banks at cycle end; ``left_links`` gets a new list."""
    if node.fusillade is FusilladePhase.FIRED:
        raise ProtocolError(
            f"node {node.node_id} cannot release: its fusillade is unconfirmed"
        )
    if node.fusilands is FusilandPhase.READY:
        raise ProtocolError(
            f"node {node.node_id} cannot release: its fusilands are unreported"
        )
    node.fusillade = FusilladePhase.IDLE
    node.fusilands = FusilandPhase.IDLE
    node.filled_by.clear()
    node.left_links = []

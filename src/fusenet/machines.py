"""Per-bank cycle state of a repeater node: herald, signals, returns, swaps.

A node owns a fusillade (transmitters firing toward its right neighbor) and
a bank of fusilands (receivers serving the link from its left neighbor).
One herald pulse per cycle fires the whole fusillade; signals interact with
the fusilands one at a time, rerouting to the next fusiland after each
success; a single return message per hop reports which fusiliers succeeded;
swap eligibility requires confirmed links on both sides.

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
from typing import NamedTuple, Optional

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
    """Per-hop report of which fusiliers succeeded, sent after the train.

    ``usable_links`` counts the hop's links (post-purification when that
    strategy is active) the transmitting node may swap; ``relayed_frames``
    piggybacks leftbound frame records under the butterfly split.
    """

    cycle_id: int
    matches: list[tuple[int, int]] = field(default_factory=list)
    usable_links: int = 0
    relayed_frames: list[FrameRecord] = field(default_factory=list)


class SignalEmission(NamedTuple):
    """A fusilier firing: departure time at the node and the fusilier id."""

    time_ns: int
    fusilier_id: int


class SignalOutcome(Enum):
    SUCCESS = "success"
    FAILURE = "failure"
    DISCARDED = "discarded"


@dataclass(slots=True)
class SignalResult:
    outcome: SignalOutcome
    slot: Optional[int] = None
    pair: Optional[PairRecord] = None


@dataclass(slots=True)
class SwapResult:
    """One executed swap: pairing slot and its two outcome bits."""

    slot: int
    parity_outcome: int
    x_outcome: int


@dataclass
class NodeState:
    """All per-node protocol state for one chain node.

    ``filled_by[k]`` is the fusilier whose signal filled fusiland slot k this
    cycle, so the next signal targets slot ``len(filled_by)``.
    """

    node_id: int
    n_fusiliers: int
    m_fusilands: int
    fusillade: FusilladePhase = FusilladePhase.IDLE
    fusilands: FusilandPhase = FusilandPhase.IDLE
    filled_by: list[int] = field(default_factory=list)
    expected_signals: int = 0
    last_signal_id: int = -1
    left_links: list[PairRecord] = field(default_factory=list)
    pending_frame: list[FrameRecord] = field(default_factory=list)
    leftbound_frames: list[FrameRecord] = field(default_factory=list)
    current_cycle: int = -1
    busy_until_ns: int = 0

    @classmethod
    def new(cls, node_id: int, n_fusiliers: int, m_fusilands: int) -> "NodeState":
        return cls(node_id=node_id, n_fusiliers=n_fusiliers, m_fusilands=m_fusilands)

    def all_idle(self) -> bool:
        return (
            self.fusillade is FusilladePhase.IDLE
            and self.fusilands is FusilandPhase.IDLE
        )

    def drain_leftbound(self) -> list[FrameRecord]:
        drained = self.leftbound_frames
        self.leftbound_frames = []
        return drained


def pickup_frames(node: NodeState, herald: HeraldMessage) -> None:
    """Move the node's pending frame records onto the herald payload."""
    herald.frame_payload.extend(node.pending_frame)
    node.pending_frame.clear()


def on_herald(
    node: NodeState,
    herald: HeraldMessage,
    now_ns: int,
    *,
    tau_slot_ns: int,
    incoming_train: int,
    generate: bool = True,
) -> list[SignalEmission]:
    """Start a cycle at this node as the herald pulse passes.

    Picks up the node's pending frame records, readies the fusiland bank for
    the incoming signal train, and fires the whole fusillade, one signal per
    slot time. The rightmost node fires nothing (empty fusillade). With
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
    pickup_frames(node, herald)
    node.last_signal_id = -1
    node.expected_signals = 0
    if not generate:
        return []
    node.expected_signals = incoming_train
    if node.m_fusilands:
        node.fusilands = FusilandPhase.READY
    if not node.n_fusiliers:
        return []
    node.fusillade = FusilladePhase.FIRED
    return [
        SignalEmission(now_ns + idx * tau_slot_ns, idx)
        for idx in range(node.n_fusiliers)
    ]


def on_signal(
    node: NodeState,
    from_node: int,
    fusilier_id: int,
    link: LinkModel,
    rng,
    now_ns: int,
) -> SignalResult:
    """Process one arriving fusilier signal at this node's active fusiland.

    Signals must arrive in fusilier order at a readied bank. Once every
    fusiland is filled, further signals are discarded without interacting.
    A failed interaction leaves the same fusiland waiting for the next
    signal; a success records the pair (error bit sampled from the link's
    raw fidelity), reroutes to the next fusiland, and appends the new link
    to ``left_links``.
    """
    if node.fusilands is not FusilandPhase.READY:
        raise ProtocolError(
            f"node {node.node_id} got signal {fusilier_id} while its "
            f"fusilands are {node.fusilands.value}"
        )
    if fusilier_id != node.last_signal_id + 1:
        raise ProtocolError(
            f"node {node.node_id} got signal {fusilier_id} after "
            f"{node.last_signal_id}; signals must arrive in firing order"
        )
    node.last_signal_id = fusilier_id
    slot = len(node.filled_by)
    if slot >= node.m_fusilands:
        return SignalResult(SignalOutcome.DISCARDED)
    if rng.random() >= success_probability(link):
        return SignalResult(SignalOutcome.FAILURE)
    x_error = 1 if rng.random() < 1.0 - link.raw_fidelity else 0
    pair = PairRecord(
        left=Endpoint(from_node, fusilier_id),
        right=Endpoint(node.node_id, slot),
        x_error=x_error,
        frame=IDENTITY_FRAME,
        created_at_ns=now_ns,
        model_fidelity=link.raw_fidelity,
    )
    node.filled_by.append(fusilier_id)
    node.left_links.append(pair)
    return SignalResult(SignalOutcome.SUCCESS, slot=slot, pair=pair)


def build_return_message(node: NodeState, cycle_id: int) -> ReturnMessage:
    """Assemble the hop's single return message after the whole train passed.

    Lists every (fusilier, fusiland slot) success in firing order and counts
    the hop's current link records. The bank is reported for the cycle:
    fusilands still waiting stay empty.
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
    if node.last_signal_id != node.expected_signals - 1:
        raise ProtocolError(
            f"node {node.node_id} saw {node.last_signal_id + 1} of "
            f"{node.expected_signals} signals; the train has not finished"
        )
    node.fusilands = FusilandPhase.REPORTED
    return ReturnMessage(
        cycle_id=cycle_id,
        matches=[(fusilier, slot) for slot, fusilier in enumerate(node.filled_by)],
        usable_links=len(node.left_links),
    )


def on_return(node: NodeState, msg: ReturnMessage, rng, now_ns: int) -> list[SwapResult]:
    """Apply a return message: confirm the fusillade, then swap if eligible.

    When the node holds links on both sides, the k-th left link swaps with
    the k-th right link; outcome bits are drawn from ``rng`` (parity bit
    then X bit per swap) and accumulate into ``pending_frame``. Surplus
    links stay until the cycle's resources are released.
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
    listed = set()
    for fusilier_id, _slot in msg.matches:
        if not 0 <= fusilier_id < node.n_fusiliers:
            raise ProtocolError(
                f"node {node.node_id} return names unknown fusilier {fusilier_id}"
            )
        if fusilier_id in listed:
            raise ProtocolError(
                f"node {node.node_id} return names fusilier {fusilier_id} twice"
            )
        listed.add(fusilier_id)
    node.fusillade = FusilladePhase.CONFIRMED
    swaps: list[SwapResult] = []
    for slot in range(min(len(node.left_links), msg.usable_links)):
        parity_outcome = int(rng.random() < 0.5)
        x_outcome = int(rng.random() < 0.5)
        node.pending_frame.append(
            FrameRecord(
                node.node_id,
                msg.cycle_id,
                slot,
                PauliFrame(parity_outcome, x_outcome),
            )
        )
        swaps.append(SwapResult(slot, parity_outcome, x_outcome))
    return swaps


def release_cycle_resources(node: NodeState) -> None:
    """Free the node's fusillade, fusilands, and links at cycle end."""
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
    node.left_links.clear()

"""Per-bank cycle state of a repeater node: herald, signal train, return.

A node owns a fusillade (transmitters firing toward its right neighbor) and
a bank of fusilands (receivers serving the link from its left neighbor).
A bank's cycle is three calls. One herald pulse per cycle fires the whole
fusillade and readies the fusilands (``on_herald``); the signal train
arriving at a node is resolved in one call (``on_train``): its signals
interact with the fusilands one at a time, rerouting to the next fusiland
after each success, and the call returns the train's pairs as columns, the
fusilier that filled each slot and the error bits packed in one int; a
single return message per hop confirms the fusillade, and ``on_return``
draws the swaps of as many pairs as the caller counts on the shorter of the
node's two hops and returns their outcome bits, packed the same way.

Because the fusillade fires as one train and each hop gets one return, each
bank moves through one phase per cycle: the fusillade goes idle -> fired ->
idle and the fusilands idle -> ready -> idle. A node keeps only these
phases and its cycle clock: a hop's pairs belong to whoever called
``on_train``, a node's swap outcomes to whoever called ``on_return``.

NodeState is mutated only by the single event-loop thread of a simulation
run; all operations are deterministic given their RNG stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import DesynchronizationError, ProtocolError
from .pair_algebra import LinkModel, success_probability


class FusilladePhase(Enum):
    IDLE = "idle"
    FIRED = "fired"


class FusilandPhase(Enum):
    IDLE = "idle"
    READY = "ready"


@dataclass
class NodeState:
    """All per-node protocol state for one chain node."""

    node_id: int
    n_fusiliers: int
    m_fusilands: int
    fusillade: FusilladePhase = FusilladePhase.IDLE
    fusilands: FusilandPhase = FusilandPhase.IDLE
    current_cycle: int = -1
    busy_until_ns: int = 0


def on_herald(node: NodeState, cycle: int, now_ns: int, *, generate: bool = True) -> int:
    """Start ``cycle`` at this node as the herald pulse passes.

    Readies the fusiland bank for the incoming signal train and fires the
    whole fusillade, one signal per slot time from ``now_ns``. Returns the
    fusillade size: the number of signals fired, fusilier k in slot k (none
    from the rightmost node). With ``generate`` false (a frame-flush sweep)
    only the cycle bookkeeping happens.
    """
    if cycle != node.current_cycle + 1:
        raise DesynchronizationError(
            f"node {node.node_id} expected cycle {node.current_cycle + 1}, "
            f"herald carries cycle {cycle}"
        )
    if (
        node.fusillade is not FusilladePhase.IDLE
        or node.fusilands is not FusilandPhase.IDLE
        or now_ns < node.busy_until_ns
    ):
        raise DesynchronizationError(
            f"herald for cycle {cycle} overtook unfinished work "
            f"at node {node.node_id}"
        )
    node.current_cycle = cycle
    if not generate:
        return 0
    if node.m_fusilands:
        node.fusilands = FusilandPhase.READY
    if not node.n_fusiliers:
        return 0
    node.fusillade = FusilladePhase.FIRED
    return node.n_fusiliers


def on_train(node: NodeState, link: LinkModel, rng, signals: int) -> tuple[list[int], int]:
    """Resolve a whole incoming train of ``signals`` signals at this node's fusilands.

    The train must reach a readied bank, which it leaves idle. Signals
    interact in fusilier order: each draws once from ``rng`` and succeeds
    below the link's success probability; a success draws once more for its
    error bit (from the link's raw fidelity), makes a pair in the next
    fusiland slot, and reroutes to the next fusiland. A failure leaves the
    same fusiland waiting. Once every fusiland is filled the remaining
    signals are discarded without drawing.

    Returns the train's pairs as columns ``(fusiliers, errors)``:
    ``fusiliers[k]`` is the fusilier that filled slot k, and bit k of
    ``errors`` is slot k's error bit. Slot k's pair was made when fusilier
    ``fusiliers[k]``'s signal arrived.
    """
    if node.fusilands is not FusilandPhase.READY:
        raise ProtocolError(
            f"node {node.node_id} got a signal train while its "
            f"fusilands are {node.fusilands.value}"
        )
    node.fusilands = FusilandPhase.IDLE
    fusiliers: list[int] = []
    errors = 0
    slot = 0
    capacity = node.m_fusilands
    draw = rng.random
    p_success = success_probability(link)
    p_error = 1.0 - link.raw_fidelity
    for fusilier in range(signals):
        if draw() >= p_success:
            continue
        if draw() < p_error:
            errors |= 1 << slot
        fusiliers.append(fusilier)
        slot += 1
        if slot == capacity:
            break
    return fusiliers, errors


def on_return(node: NodeState, cycle_id: int, swaps: int, rng) -> tuple[int, int]:
    """Take the return for ``cycle_id``: confirm the fusillade, make ``swaps`` swaps.

    The return must not come before the node's own incoming train, if it
    has one: a readied bank rejects it. Confirming the fusillade returns it
    to idle. ``swaps`` is the number of slots holding a pair on both of the
    node's hops (0 at an end node), so swap k joins slot k of the left hop
    to slot k of the right hop. Outcome bits are drawn from ``rng``, a
    parity bit then an X bit per swap, and returned as
    ``(parity_bits, x_bits)``: bit k of each is swap k's outcome, the X and
    the Z bit of its frame.
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
    if node.fusilands is FusilandPhase.READY:
        raise ProtocolError(
            f"node {node.node_id} got return for cycle {cycle_id} before "
            "its signal train arrived"
        )
    node.fusillade = FusilladePhase.IDLE
    parity_bits = x_bits = 0
    for k in range(swaps):
        if rng.random() < 0.5:
            parity_bits |= 1 << k
        if rng.random() < 0.5:
            x_bits |= 1 << k
    return parity_bits, x_bits


"""Per-bank cycle state of a repeater node, and the two draw loops of a cycle.

A node owns a fusillade (transmitters firing toward its right neighbor) and
a bank of fusilands (receivers serving the link from its left neighbor).
A bank's cycle is three calls, which only check and advance its phase. One
herald pulse per cycle fires the whole fusillade and readies the fusilands
(``on_herald``); the signal train arriving at a node leaves its readied
bank (``on_train``); a single return message per hop confirms the fusillade
(``on_return``). Because the fusillade fires as one train and each hop gets
one return, each bank moves through one phase per cycle: the fusillade is
``fired`` from its herald to its return, and the fusilands are ``ready``
from their herald to their train.

What a cycle makes is drawn by two pure loops, which touch no node.
``train_pairs`` resolves a hop's train against its bank: its signals
interact with the fusilands one at a time, rerouting to the next fusiland
after each success, and it returns the train's pairs as columns, the
fusilier that filled each slot and the error bits packed in one int.
``swap_outcomes`` draws a node's swaps and returns their outcome bits,
packed the same way.

NodeState is mutated only by the single event-loop thread of a simulation
run; both loops are deterministic given their RNG stream.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DesynchronizationError, ProtocolError
from .pair_algebra import LinkModel, success_probability


@dataclass
class NodeState:
    """All per-node protocol state for one chain node.

    ``fired``: the fusillade fired and awaits its return; ``ready``: the
    fusilands await their incoming train. A bank in neither is idle.
    """

    node_id: int
    n_fusiliers: int
    m_fusilands: int
    fired: bool = False
    ready: bool = False
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
    if node.fired or node.ready or now_ns < node.busy_until_ns:
        raise DesynchronizationError(
            f"herald for cycle {cycle} overtook unfinished work "
            f"at node {node.node_id}"
        )
    node.current_cycle = cycle
    if not generate:
        return 0
    if node.m_fusilands:
        node.ready = True
    if not node.n_fusiliers:
        return 0
    node.fired = True
    return node.n_fusiliers


def on_train(node: NodeState) -> None:
    """Take a whole incoming signal train: it must reach a readied bank,
    which it leaves idle."""
    if not node.ready:
        raise ProtocolError(
            f"node {node.node_id} got a signal train while its fusilands are idle"
        )
    node.ready = False


def on_return(node: NodeState, cycle_id: int) -> None:
    """Take the return for ``cycle_id``: confirm the fusillade, leaving it idle.

    The return must not come before the node's own incoming train, if it
    has one: a readied bank rejects it.
    """
    if cycle_id != node.current_cycle:
        raise ProtocolError(
            f"node {node.node_id} got return for cycle {cycle_id} "
            f"during cycle {node.current_cycle}"
        )
    if not node.fired:
        raise ProtocolError(
            f"node {node.node_id} got return for cycle {cycle_id} while "
            "its fusillade is idle"
        )
    if node.ready:
        raise ProtocolError(
            f"node {node.node_id} got return for cycle {cycle_id} before "
            "its signal train arrived"
        )
    node.fired = False


def train_pairs(link: LinkModel, rng, signals: int, capacity: int) -> tuple[list[int], int]:
    """Resolve a train of ``signals`` signals at a bank of ``capacity`` fusilands.

    Signals interact in fusilier order: each draws once from ``rng`` and
    succeeds below the link's success probability; a success draws once
    more for its error bit (from the link's raw fidelity), makes a pair in
    the next fusiland slot, and reroutes to the next fusiland. A failure
    leaves the same fusiland waiting. Once every fusiland is filled the
    remaining signals are discarded without drawing.

    Returns the train's pairs as columns ``(fusiliers, errors)``:
    ``fusiliers[k]`` is the fusilier that filled slot k, and bit k of
    ``errors`` is slot k's error bit. Slot k's pair was made when fusilier
    ``fusiliers[k]``'s signal arrived.
    """
    fusiliers: list[int] = []
    errors = 0
    slot = 0
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


def swap_outcomes(swaps: int, rng) -> tuple[int, int]:
    """Draw ``swaps`` swaps from ``rng``, a parity bit then an X bit per swap.

    Returns ``(parity_bits, x_bits)``: bit k of each is swap k's outcome,
    the X and the Z bit of its frame. Swap k joins slot k of the node's left
    hop to slot k of its right hop.
    """
    parity_bits = x_bits = 0
    for k in range(swaps):
        if rng.random() < 0.5:
            parity_bits |= 1 << k
        if rng.random() < 0.5:
            x_bits |= 1 << k
    return parity_bits, x_bits

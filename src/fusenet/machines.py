"""Per-bank cycle state of a repeater node, and what a cycle draws at its banks.

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

What a cycle makes is read from its keyed draws by two pure functions,
which touch no node. Each gets a key's draws as threshold bits (see
``engine.KeyedDraws``), one int per column, bit j set when draw j is below
the column's threshold. ``train_pairs`` resolves a hop's train against its
bank: its signals interact with the fusilands one at a time, rerouting to
the next fusiland after each success, and it returns the train's pairs as
columns, the fusilier that filled each slot and the error bits packed in
one int. It steps from one success to the next, so it costs a step per
pair made, not per signal. ``swap_outcomes`` cuts a node's swap bits to
its swaps, packed the same way.

NodeState is mutated only by the single event-loop thread of a simulation
run; both functions are deterministic given their bits.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DesynchronizationError, ProtocolError


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


def train_pairs(masks: list[int], signals: int, capacity: int) -> tuple[list[int], int]:
    """Resolve a train of ``signals`` signals at a bank of ``capacity`` fusilands.

    ``masks`` is the train's key read as threshold bits, ``(successes,
    error_bits)``: bit j of ``successes`` is set when the key's draw j is
    below the link's success probability, bit j of ``error_bits`` when it
    is below 1 - F (F the link's raw fidelity). Signals interact in
    fusilier order, each reading one draw; a success reads one more for its
    error bit, makes a pair in the next fusiland slot and reroutes to the
    next fusiland. A failure leaves the same fusiland waiting. Once every
    fusiland is filled the remaining signals are discarded without drawing.
    So fusilier f reads draw f + s, s the slots filled before it, and the
    loop steps from success to success (the lowest set bit of what is left
    of ``successes``), at most ``capacity`` times. No bit at or past
    ``signals + capacity`` changes the result.

    Returns the train's pairs as columns ``(fusiliers, errors)``:
    ``fusiliers[k]`` is the fusilier that filled slot k, and bit k of
    ``errors`` is slot k's error bit. Slot k's pair was made when fusilier
    ``fusiliers[k]``'s signal arrived.
    """
    successes, error_bits = masks
    fusiliers: list[int] = []
    errors = slot = draw = 0
    while slot < capacity:
        rest = successes >> draw
        if not rest:
            break
        draw += (rest & -rest).bit_length() - 1
        fusilier = draw - slot
        if fusilier >= signals:
            break
        errors |= (error_bits >> draw + 1 & 1) << slot
        fusiliers.append(fusilier)
        slot += 1
        draw += 2
    return fusiliers, errors


def swap_outcomes(swaps: int, masks: list[int]) -> tuple[int, int]:
    """The outcomes of a node's ``swaps`` swaps, from its key's threshold
    bits ``(parity_bits, x_bits)``: swap k reads a parity draw, 2k, then an
    X draw, 2k + 1, each a fair coin, so bit k of each mask is its outcome.

    Returns ``(parity_bits, x_bits)`` cut to the swaps: bit k of each is
    swap k's outcome, the X and the Z bit of its frame. Swap k joins slot k
    of the node's left hop to slot k of its right hop.
    """
    keep = (1 << swaps) - 1
    parity_bits, x_bits = masks
    return parity_bits & keep, x_bits & keep

"""What a cycle draws at a node's banks: two pure functions of keyed draws.

A node owns a fusillade (transmitters firing toward its right neighbor) and
a bank of fusilands (receivers serving the link from its left neighbor).
Each function gets a key's draws as threshold bits (see
``engine.KeyedDraws``), one int per column, bit j set when draw j is below
the column's threshold. ``train_pairs`` resolves a hop's train against its
bank: its signals interact with the fusilands one at a time, rerouting to
the next fusiland after each success, and it returns the train's pairs as
columns, the fusilier that filled each slot and the error bits packed in
one int. It steps from one success to the next, so it costs a step per
pair made, not per signal, and a step costs no more for a wider train.
``swap_outcomes`` cuts a node's swap bits to
its swaps, packed the same way. Both are deterministic given their bits;
neither keeps any state.
"""

from __future__ import annotations


# The scan reads both masks through a window of this many draws, refilled
# only when used up: a step shifts at most a window, so a train costs time
# linear in its width. A paper hop (n + m = 644) fits in one window.
_WINDOW = 1024
_WINDOW_BITS = (1 << _WINDOW) - 1
_ERROR_WINDOW_BITS = (1 << _WINDOW + 1) - 1


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
    of the window), at most ``capacity`` times. No bit at or past
    ``signals + capacity`` changes the result.

    Returns the train's pairs as columns ``(fusiliers, errors)``:
    ``fusiliers[k]`` is the fusilier that filled slot k, and bit k of
    ``errors`` is slot k's error bit. Slot k's pair was made when fusilier
    ``fusiliers[k]``'s signal arrived.
    """
    # Draw and slot count from the current window: draw from its first
    # draw, base, pointing one past the last success (at its error bit);
    # slot is one more than the slots filled in the window, and errors
    # holds slot k's bit at k + 1. So a window's fusiliers come out short by
    # base - first, first the slots filled before it, and signals and
    # capacity count from the window too. Leaving a window adds base - first
    # back and keeps its error bits as a binary string. A train of at most a
    # window reads the masks as they are.
    window, error_window = masks
    fusiliers: list[int] = []
    errors = draw = base = 0
    slot = 1
    spare = signals + capacity - _WINDOW
    if spare > 0:
        size = (signals + capacity >> 3) + 2
        success_bytes = (window & (1 << 8 * size) - 1).to_bytes(size, "little")
        error_bytes = (error_window & (1 << 8 * size) - 1).to_bytes(size, "little")
        window &= _WINDOW_BITS
        error_window &= _ERROR_WINDOW_BITS
        pieces, first = [], 0
    while slot <= capacity:
        rest = window >> draw
        if not rest:
            if spare <= 0:
                break
            skew = base - first
            fusiliers[first:] = map(skew.__add__, fusiliers[first:])
            pieces.append(bin(errors >> 1 | 1 << slot - 1)[3:])
            first += slot - 1
            capacity -= slot - 1
            base += _WINDOW
            spare -= _WINDOW
            signals += skew - base + first
            errors, slot, draw = 0, 1, max(draw - _WINDOW, 0)
            at = base >> 3
            window = int.from_bytes(success_bytes[at : at + (_WINDOW >> 3)], "little")
            error_window = int.from_bytes(error_bytes[at : at + (_WINDOW >> 3) + 1], "little")
            continue
        draw += (rest & -rest).bit_length()
        fusilier = draw - slot
        if fusilier >= signals:
            break
        if error_window >> draw & 1:
            errors |= 1 << slot
        fusiliers.append(fusilier)
        slot += 1
        draw += 1
    if not base:
        return fusiliers, errors >> 1
    skew = base - first
    fusiliers[first:] = map(skew.__add__, fusiliers[first:])
    pieces.append(bin(errors >> 1 | 1 << slot - 1)[3:])
    return fusiliers, int("".join(reversed(pieces)) or "0", 2)


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

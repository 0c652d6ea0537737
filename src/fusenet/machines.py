"""What a cycle draws at a node's banks: two pure functions of keyed draws.

A node owns a fusillade (transmitters firing toward its right neighbor) and
a bank of fusilands (receivers serving the link from its left neighbor).
Each function gets keys' draws as threshold tests (see
``engine.KeyedDraws``): bool arrays, any leading axes for the keys of a
block of cycles, then one row per column, entry j set when draw j is below
the column's threshold. ``train_pairs`` resolves every train of a block
against its bank in one array pass: its signals interact with the
fusilands one at a time, rerouting to the next fusiland after each
success, and it returns the trains' pairs as slot columns, the fusilier
that filled each slot and its error bit, with each train's count. It reads
the successes' positions off runs of set success tests, so it costs a few
numpy passes over the draws whatever a train's width. ``swap_outcomes``
cuts the nodes' swap coins to their swaps the same way. Both are
deterministic given their tests; neither keeps any state.
"""

from __future__ import annotations

import numpy as np


def train_pairs(masks: np.ndarray, signals, capacity) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Resolve trains of ``signals`` signals at banks of ``capacity`` fusilands.

    ``masks`` holds the trains' keys as threshold tests, shape ``(...,
    2, draws)``: ``[..., 0, j]`` is set when the key's draw j is below the
    link's success probability, ``[..., 1, j]`` when it is below 1 - F (F
    the link's raw fidelity); ``signals`` and ``capacity`` broadcast
    against the leading axes. Signals interact in fusilier order, each
    reading one draw; a success reads one more for its error bit, makes a
    pair in the next fusiland slot and reroutes to the next fusiland. A
    failure leaves the same fusiland waiting. Once every fusiland is filled
    the remaining signals are discarded without drawing. So a run of set
    success tests from draw r holds successes at r, r + 2, ..., each of
    them skipping its error draw; success k at draw d is slot k, fusilier
    d - k, with its error bit at draw d + 1, and the slot is kept while k <
    ``capacity`` and d - k < ``signals``. No test at or past ``signals +
    capacity`` changes the result.

    Returns ``(fusiliers, errors, counts)``: ``counts[...]`` is the slots
    each train filled, ``fusiliers[..., k]`` (int32) the fusilier that
    filled slot k and ``errors[..., k]`` its error bit; both have the
    largest capacity's width and hold 0 past a train's count. Slot k's pair
    was made when fusilier ``fusiliers[..., k]``'s signal arrived.
    """
    lead, draws = masks.shape[:-2], masks.shape[-1]
    rows = int(np.prod(lead))
    keys = masks.reshape(rows, 2 * draws)
    # Every set success test, by its position in the rows' success tests,
    # each row one unset test longer so that no run goes on into the next.
    stride = draws + 1
    padded = np.zeros((rows, stride), bool)
    padded[:, :draws] = keys[:, :draws]
    at = np.flatnonzero(padded)
    # A run starts where the test before is unset; the successes sit at
    # even offsets from their run's start.
    starts = np.empty(at.shape, bool)
    starts[:1] = True
    np.not_equal(at[1:] - at[:-1], 1, out=starts[1:])
    run_start = np.where(starts, at, 0)
    np.maximum.accumulate(run_start, out=run_start)
    row, draw = np.divmod(at[(at - run_start) & 1 == 0], stride)
    del padded, at, starts, run_start
    # Success k of its row fills slot k.
    index = np.arange(row.size)
    firsts = np.empty(row.shape, bool)
    firsts[:1] = True
    np.not_equal(row[1:], row[:-1], out=firsts[1:])
    slot = index - np.maximum.accumulate(np.where(firsts, index, 0))
    capacity = (np.zeros(lead, np.int64) + capacity).ravel()
    signals = (np.zeros(lead, np.int64) + signals).ravel()
    kept = (slot < capacity[row]) & (draw - slot < signals[row])
    row, slot, draw = row[kept], slot[kept], draw[kept]
    width = int(capacity.max(initial=0))
    fusiliers = np.zeros(rows * width, np.int32)
    errors = np.zeros(rows * width, bool)
    filled = row * width + slot
    fusiliers[filled] = draw - slot
    errors[filled] = keys.ravel()[row * 2 * draws + draws + draw + 1]
    counts = np.bincount(row, minlength=rows)
    return fusiliers.reshape(lead + (width,)), errors.reshape(lead + (width,)), counts.reshape(lead)


def swap_outcomes(swaps, masks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The outcomes of nodes' ``swaps`` swaps, from their keys' threshold
    tests ``masks``, shape ``(..., 2, draws)``: swap k reads a parity draw,
    2k, then an X draw, 2k + 1, each a fair coin, so ``[..., 0, k]`` and
    ``[..., 1, k]`` are its outcomes; ``swaps`` broadcasts against the
    leading axes.

    Returns ``(parity, x)`` cut to the swaps: ``[..., k]`` of each is swap
    k's outcome, the X and the Z bit of its frame, and is False from swap
    ``swaps`` on. Swap k joins slot k of the node's left hop to slot k of
    its right hop.
    """
    keep = np.arange(masks.shape[-1]) < np.asarray(swaps)[..., None]
    return masks[..., 0, :] & keep, masks[..., 1, :] & keep

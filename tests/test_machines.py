"""The train and swap bit readers."""

import math
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fusenet.machines import swap_outcomes, train_pairs
from fusenet.pair_algebra import (
    Endpoint,
    IDENTITY_FRAME,
    LinkModel,
    PairRecord,
    failure_prob_multi,
    success_probability,
)

from conftest import deadline

LINK = LinkModel(length_km=1.0, p_success=0.25)
PERFECT = LinkModel(length_km=1.0, p_success=1.0)


def arrivals(n, start=100, tau=10):
    return [start + tau * k for k in range(n)]


def pack(bits):
    """0/1 values as an int: bit j is value j."""
    return sum(int(bit) << j for j, bit in enumerate(bits))


def pack_fast(bits):
    """``pack`` of a boolean array, in one numpy call."""
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


def train_masks(draws, link):
    """A train key's threshold tests for the uniform ``draws``, as
    ``KeyedDraws`` hands them out: below p, and below 1 - F."""
    draws = np.asarray(draws, float)
    return np.stack([draws < success_probability(link), draws < 1.0 - link.raw_fidelity])


def coin_masks(draws):
    """A swap key's threshold tests for the uniform ``draws``: its parity
    draws (even) and its X draws (odd), each below 0.5."""
    draws = np.asarray(draws, float)
    return np.stack([draws[0::2] < 0.5, draws[1::2] < 0.5])


def resolve(masks, signals, capacity):
    """One train's ``train_pairs`` as columns: its fusiliers, slot by slot,
    and its error bits packed in one int, bit k for slot k."""
    fusiliers, errors, count = train_pairs(masks, signals, capacity)
    return fusiliers[:count].tolist(), pack_fast(errors[:count])


def swap_ints(swaps, masks):
    """A node's ``swap_outcomes`` packed in ints, bit k for swap k."""
    return tuple(pack_fast(bits) for bits in swap_outcomes(swaps, masks))


def with_past(masks, reads, past):
    """``masks`` with the tests of ``past``, a bool array of the same shape,
    set at and after draw ``reads``, and with as many more draws appended,
    each set as ``past`` is."""
    masks = masks | (np.arange(masks.shape[-1]) >= reads) & past
    return np.concatenate([masks, past], axis=-1)


def per_signal_train(masks, signals, capacity):
    """The test's oracle: one signal at a time, each reading the next draw's
    success test, a success the next draw's error test too, and nothing
    read once the bank is full. Returns ``(fusiliers, errors)`` and how
    many draws it read, which are draws 0 to that count - 1."""
    successes, error_bits = (row.tolist() for row in masks)
    fusiliers, errors, reads = [], 0, 0
    for fusilier in range(signals):
        if len(fusiliers) == capacity:
            break
        reads += 1
        if not successes[reads - 1]:
            continue
        reads += 1
        errors |= error_bits[reads - 1] << len(fusiliers)
        fusiliers.append(fusilier)
    return (fusiliers, errors), reads


def check_train(masks, n, m, past):
    """``train_pairs`` on ``masks`` gives the oracle's pairs, and with
    ``past`` set from the oracle's reads on too; returns the oracle's
    (pairs, reads)."""
    expected, reads = per_signal_train(masks, n, m)
    assert resolve(masks, n, m) == expected
    assert resolve(with_past(masks, reads, past), n, m) == expected
    return expected, reads


def run_train(m, n, draws, link=LINK):
    """Resolve an n-signal train at a bank of m fusilands from ``draws``,
    the uniform values its key draws in order; returns its (fusiliers,
    errors) and how many of the draws it read. Every test past those read
    may be set without changing the pairs."""
    masks = train_masks(draws, link)
    return check_train(masks, n, m, np.ones(masks.shape, bool))


class TestOnSignal:
    """The signals of one train, as ``train_pairs`` draws them."""

    def test_first_success_takes_slot_zero_then_discards(self):
        (fusiliers, _), reads = run_train(1, 3, draws=[0.1, 0.5])
        assert fusiliers == [0]
        assert reads == 2  # the two discarded signals drew nothing

    def test_failure_reprepares_same_fusiland(self):
        (fusiliers, _), _ = run_train(1, 2, draws=[0.9, 0.1, 0.5])
        assert fusiliers == [1]  # fusilier 1 filled slot 0

    def test_exhausted_bank_discards_without_drawing(self):
        (fusiliers, _), reads = run_train(2, 4, draws=[0.0, 0.5, 0.0, 0.5])  # exactly 2 successes' draws
        assert fusiliers == [0, 1]
        assert reads == 4  # discarded signals consumed no randomness

    def test_error_bit_sampled_from_fidelity(self):
        noisy = LinkModel(length_km=1.0, p_success=1.0, raw_fidelity=0.9)
        (_, errors), _ = run_train(1, 1, draws=[0.0, 0.05], link=noisy)  # second draw < 1 - F: error
        assert errors == 1

    def test_error_bits_pack_by_slot(self):
        noisy = LinkModel(length_km=1.0, p_success=0.5, raw_fidelity=0.9)
        # slot 0 clean, fusilier 1 fails, slots 1 and 2 carry errors
        draws = [0.1, 0.5, 0.9, 0.1, 0.05, 0.1, 0.01]
        (fusiliers, errors), reads = run_train(3, 4, draws=draws, link=noisy)
        assert fusiliers == [0, 2, 3]
        assert errors == 0b110
        assert reads == len(draws)

    def test_pair_endpoints_name_both_sides(self):
        # slot k is the right endpoint, fusiliers[k] the left one
        (fusiliers, _), _ = run_train(2, 2, draws=[0.9, 0.1, 0.5])
        assert fusiliers == [1]  # slot 0 on node 1, fusilier 1 on node 0


class TestBuildReturnMessage:
    """The hop's matches a return message reports: ``train_pairs``'s columns."""

    def test_no_successes_gives_empty_matches(self):
        (fusiliers, errors), _ = run_train(1, 3, draws=[0.9, 0.9, 0.9])
        assert (fusiliers, errors) == ([], 0)

    def test_matches_name_fusilier_and_slot(self):
        draws = [0.9, 0.9, 0.1, 0.5, 0.9, 0.9, 0.9, 0.9, 0.1, 0.5]
        (fusiliers, _), _ = run_train(2, 8, draws=draws)
        assert fusiliers == [2, 7]  # slots 0 and 1

    def test_capacity_bounds_matches(self):
        draws = [0.0, 0.5, 0.0, 0.5]  # first two succeed, bank full
        (fusiliers, _), _ = run_train(2, 5, draws=draws)
        assert fusiliers == [0, 1]


class TestOnReturn:
    def test_swaps_the_given_count(self):
        # the key drew three swaps' coins; the third swap's bits are cut
        swaps = swap_ints(2, coin_masks([0.9, 0.1] * 3))
        assert swaps == (0b00, 0b11)  # (parity bits, X bits), swap k in bit k

    def test_zero_swaps_draw_nothing(self):
        assert swap_ints(0, coin_masks([0.1] * 6)) == (0, 0)

    def test_swap_outcome_feeds_frame_record(self):
        # a parity draw, then an X draw: the parity outcome is the frame's
        # X bit, the X readout its Z bit
        assert swap_ints(1, coin_masks([0.1, 0.9])) == (1, 0)
        assert swap_ints(1, coin_masks([0.9, 0.1])) == (0, 1)


class TestCycleLifecycle:
    def test_success_distribution_truncated_binomial(self):
        # frequency of under-filled cycles converges to the binomial tail;
        # acceptance runs the full 1e5-cycle version
        n, m, p, cycles = 24, 2, 0.25, 20_000
        rng = np.random.default_rng(77)
        rows = rng.random((cycles, n + m)) < p
        _, _, counts = train_pairs(np.stack([rows, np.zeros_like(rows)], axis=1), n, m)
        short = int((counts < m).sum())
        expected = failure_prob_multi(n, m, p)
        se = math.sqrt(expected * (1 - expected) / cycles)
        assert abs(short / cycles - expected) <= 4 * se


def reference_train(node_id, capacity, from_node, link, rng, arrivals):
    """One signal at a time, as a per-signal handler would resolve a train
    at node ``node_id``'s bank of ``capacity`` fusilands."""
    pairs = []
    for fusilier, arrival_ns in enumerate(arrivals):
        slot = len(pairs)
        if slot >= capacity:
            continue  # discarded without drawing
        if rng.random() >= success_probability(link):
            continue
        x_error = 1 if rng.random() < 1.0 - link.raw_fidelity else 0
        pairs.append(
            PairRecord(
                Endpoint(from_node, fusilier),
                Endpoint(node_id, slot),
                x_error,
                IDENTITY_FRAME,
                arrival_ns,
                link.raw_fidelity,
            )
        )
    return pairs


class CountingRng:
    """Serves ``values`` in order, counting how many were read."""

    def __init__(self, values):
        self.values = iter(values)
        self.draws = 0

    def random(self):
        self.draws += 1
        return next(self.values)


@given(
    n=st.integers(min_value=1, max_value=30),
    m=st.integers(min_value=1, max_value=8),
    p=st.floats(min_value=0.0, max_value=1.0),
    fidelity=st.floats(min_value=0.5, max_value=1.0),
    tau=st.integers(min_value=0, max_value=9),
    seed=st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=200, deadline=None)
def test_on_train_equals_per_signal_reference(n, m, p, fidelity, tau, seed):
    link = LinkModel(length_km=1.0, p_success=p, raw_fidelity=fidelity)
    times = arrivals(n, start=40, tau=tau)
    # The key's n + m draws: the reference reads them one at a time, the
    # train their threshold bits.
    draws = np.random.default_rng(seed).random(n + m).tolist()
    rng = CountingRng(draws)
    expected = reference_train(3, m, 2, link, rng, times)
    masks = train_masks(draws, link)
    fusiliers, errors = resolve(masks, n, m)
    # Slot k of the columns is the reference's pair k, made at its fusilier's arrival.
    assert [asdict(pair) for pair in expected] == [
        asdict(
            PairRecord(
                Endpoint(2, fusilier),
                Endpoint(3, slot),
                errors >> slot & 1,
                IDENTITY_FRAME,
                times[fusilier],
                link.raw_fidelity,
            )
        )
        for slot, fusilier in enumerate(fusiliers)
    ]
    assert errors >> len(fusiliers) == 0
    # The train reads no draw the reference does not: setting every bit past
    # the reference's reads changes nothing.
    past = np.ones(masks.shape, bool)
    assert resolve(with_past(masks, rng.draws, past), n, m) == (fusiliers, errors)


_THRESHOLDS = st.one_of(st.just(0.0), st.just(1.0), st.floats(min_value=0.0, max_value=1.0))


@st.composite
def _train_sizes(draw):
    """(n, m) with n + m at the uint64 boundary (63, 64, 65) or anywhere to
    200, either of them 0 included."""
    total = draw(st.one_of(st.sampled_from([63, 64, 65]), st.integers(0, 200)))
    n = draw(st.integers(0, total))
    return n, total - n


@given(
    size=_train_sizes(),
    p=_THRESHOLDS,
    fidelity=_THRESHOLDS,
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@example(size=(0, 5), p=1.0, fidelity=0.0, seed=0)
@example(size=(5, 0), p=1.0, fidelity=0.0, seed=0)
@example(size=(40, 30), p=1.0, fidelity=0.0, seed=0)
@example(size=(64, 1), p=0.0, fidelity=1.0, seed=0)
@settings(max_examples=300, deadline=None)
def test_train_scan_equals_per_signal_loop(size, p, fidelity, seed):
    # The success scan gives what a per-signal loop over the same bits
    # gives; the loop reads no draw at or past n + m, and random bits set
    # past its reads change nothing for the scan.
    n, m = size
    rng = np.random.default_rng(seed)
    draws = rng.random(n + m)
    masks = np.stack([draws < p, draws < 1.0 - fidelity])
    _, reads = check_train(masks, n, m, rng.random(masks.shape) < 0.5)
    assert reads <= n + m


@given(
    n=st.integers(min_value=1, max_value=8),
    m=st.integers(min_value=1, max_value=8),
    p=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=120, deadline=None)
def test_full_cycle_fuzz(n, m, p, seed):
    """A whole hop's train in any sampled regime fills at most its bank,
    each slot from a distinct fusilier, in fusilier order."""
    link = LinkModel(length_km=1.0, p_success=p)
    draws = np.random.default_rng(seed).random(n + m).tolist()
    fusiliers, errors = resolve(train_masks(draws, link), n, m)
    assert len(fusiliers) <= m
    assert fusiliers == sorted(set(fusiliers))
    assert all(0 <= fusilier < n for fusilier in fusiliers)
    assert errors == 0  # raw fidelity 1


@st.composite
def _wide_train_sizes(draw):
    """(n, m) whose n + m is up to 4100, or about 1024."""
    total = draw(st.one_of(st.integers(1020, 1030), st.integers(1, 4100)))
    n = draw(st.integers(0, total))
    return n, total - n


@given(
    size=_wide_train_sizes(),
    p=_THRESHOLDS,
    fidelity=_THRESHOLDS,
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@example(size=(2048, 2048), p=1.0, fidelity=0.5, seed=0)
@example(size=(4000, 10), p=0.002, fidelity=0.5, seed=1)
@settings(max_examples=100, deadline=None)
def test_wide_train_scan_equals_per_signal_loop(size, p, fidelity, seed):
    # Wide trains give what the per-signal loop gives, random tests past
    # its reads included.
    n, m = size
    rng = np.random.default_rng(seed)
    draws = rng.random(n + m)
    masks = np.stack([draws < p, draws < 1.0 - fidelity])
    check_train(masks, n, m, rng.random(masks.shape) < 0.5)


def per_signal_string(masks, signals, capacity):
    """``per_signal_train`` over the masks as binary strings, in time linear
    in the train's width."""
    successes, error_bits = ("".join(np.where(row, "1", "0")) for row in masks)
    fusiliers, errors, reads = [], [], 0
    for fusilier in range(signals):
        if len(fusiliers) == capacity:
            break
        reads += 1
        if successes[reads - 1] == "0":
            continue
        reads += 1
        errors.append(error_bits[reads - 1])
        fusiliers.append(fusilier)
    return fusiliers, int("".join(reversed(errors)) or "0", 2)


@pytest.mark.parametrize("p", [1.0, 0.5])
def test_a_train_of_two_million_draws_resolves_in_linear_time(p):
    # n = m = 2**20: a scan that shifts the whole masks once per success
    # takes minutes at this width; a linear one well under a second.
    n = m = 2**20
    rng = np.random.default_rng(16)
    draws = rng.random(n + m)
    masks = np.stack([draws < p, draws < 0.1])
    with deadline(5):
        pairs = resolve(masks, n, m)
    assert pairs == per_signal_string(masks, n, m)


@st.composite
def _train_blocks(draw):
    """A block of trains as ``KeyedDraws`` hands it out: cycles x hops of
    mixed (n, m, p, F), n + m around 64 and 1024 or anywhere to 1100, each
    hop's tests padded to the widest with False, or with random tests."""
    cycles = draw(st.integers(1, 4))
    width = st.one_of(st.sampled_from([1, 63, 64, 65, 1023, 1024, 1025]), st.integers(1, 1100))
    hops = []
    for total in draw(st.lists(width, min_size=1, max_size=5)):
        n = draw(st.integers(0, total))
        hops.append((n, total - n, draw(_THRESHOLDS), draw(_THRESHOLDS)))
    return cycles, hops, draw(st.booleans()), draw(st.integers(0, 2**32 - 1))


@given(block=_train_blocks())
@example(block=(2, [(1000, 24, 1.0, 0.5), (17, 3, 0.25, 0.98), (0, 5, 1.0, 0.0)], False, 0))
@example(block=(3, [(40, 24, 1.0, 0.5), (64, 1, 0.5, 0.5), (1, 1023, 1.0, 1.0)], True, 1))
@settings(max_examples=150, deadline=None)
def test_train_block_rows_equal_per_signal_loop(block):
    # One array pass over stacked cycles of trains of every width gives,
    # row by row, what the per-signal loop gives for that train alone,
    # fusiliers and error bits included, and nothing past a row's count.
    cycles, hops, noisy_padding, seed = block
    rng = np.random.default_rng(seed)
    widest = max(n + m for n, m, _, _ in hops)
    masks = np.zeros((cycles, len(hops), 2, widest), bool)
    if noisy_padding:
        masks[...] = rng.random(masks.shape) < 0.5
    for hop, (n, m, p, fidelity) in enumerate(hops):
        draws = rng.random((cycles, n + m))
        masks[:, hop, 0, : n + m] = draws < p
        masks[:, hop, 1, : n + m] = draws < 1.0 - fidelity
    signals = [n for n, _, _, _ in hops]
    capacity = [m for _, m, _, _ in hops]
    fusiliers, errors, counts = train_pairs(masks, signals, capacity)
    assert fusiliers.shape == errors.shape == (cycles, len(hops), max(capacity))
    for cycle in range(cycles):
        for hop, (n, m, _, _) in enumerate(hops):
            count = counts[cycle, hop]
            expected, _ = per_signal_train(masks[cycle, hop, :, : n + m], n, m)
            row = fusiliers[cycle, hop], errors[cycle, hop]
            assert (row[0][:count].tolist(), pack(row[1][:count])) == expected
            assert not row[0][count:].any() and not row[1][count:].any()

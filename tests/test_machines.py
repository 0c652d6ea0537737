"""Per-bank node state (herald, train, return) and the train and swap draw loops."""

import math
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusenet.errors import DesynchronizationError, ProtocolError
from fusenet.machines import (
    NodeState,
    on_herald,
    on_return,
    on_train,
    swap_outcomes,
    train_pairs,
)
from fusenet.pair_algebra import (
    Endpoint,
    IDENTITY_FRAME,
    LinkModel,
    PairRecord,
    failure_prob_multi,
    success_probability,
)

from conftest import StubRng

LINK = LinkModel(length_km=1.0, p_success=0.25)
PERFECT = LinkModel(length_km=1.0, p_success=1.0)


def start_cycle(n, m, cycle=0):
    """A transmitting node and a receiving node, herald already passed."""
    tx = NodeState(0, n_fusiliers=n, m_fusilands=0)
    rx = NodeState(1, n_fusiliers=0, m_fusilands=m)
    fired = on_herald(tx, cycle, 0)
    on_herald(rx, cycle, 50)
    return tx, rx, fired


def arrivals(n, start=100, tau=10):
    return [start + tau * k for k in range(n)]


def run_train(m, n, draws, link=LINK):
    """Resolve an n-signal train at a bank of m fusilands; returns its
    (fusiliers, errors) and the stub."""
    rng = StubRng(draws)
    return train_pairs(link, rng, n, m), rng


class TestOnHerald:
    def test_fires_whole_fusillade(self):
        tx, _, fired = start_cycle(3, 1)
        assert fired == 3
        assert tx.fired

    def test_rightmost_node_fires_nothing(self):
        rx = NodeState(2, n_fusiliers=0, m_fusilands=2)
        fired = on_herald(rx, 0, 0)
        assert fired == 0
        assert not rx.fired
        assert rx.ready

    def test_herald_while_busy_desynchronizes(self):
        tx, _, _ = start_cycle(2, 1)
        with pytest.raises(DesynchronizationError):
            on_herald(tx, 1, 500)

    def test_wrong_cycle_id_desynchronizes(self):
        tx = NodeState(0, 2, 0)
        with pytest.raises(DesynchronizationError):
            on_herald(tx, 3, 0)


class TestOnSignal:
    """The signals of one train: ``train_pairs`` draws them, ``on_train``
    takes the train at its bank."""

    def test_first_success_takes_slot_zero_then_discards(self):
        (fusiliers, _), rng = run_train(1, 3, draws=[0.1, 0.5])
        assert fusiliers == [0]
        assert rng.values == []  # the two discarded signals drew nothing

    def test_failure_reprepares_same_fusiland(self):
        _, rx, _ = start_cycle(2, 1)
        on_train(rx)
        assert not rx.ready
        (fusiliers, _), _ = run_train(1, 2, draws=[0.9, 0.1, 0.5])
        assert fusiliers == [1]  # fusilier 1 filled slot 0

    def test_exhausted_bank_discards_without_drawing(self):
        (fusiliers, _), rng = run_train(2, 4, draws=[0.0, 0.5, 0.0, 0.5])  # exactly 2 successes' draws
        assert fusiliers == [0, 1]
        assert rng.values == []  # discarded signals consumed no randomness

    def test_second_train_rejected(self):
        _, rx, _ = start_cycle(3, 1)
        on_train(rx)
        with pytest.raises(ProtocolError, match="^node 1 got a signal train while its fusilands are idle$"):
            on_train(rx)

    def test_error_bit_sampled_from_fidelity(self):
        noisy = LinkModel(length_km=1.0, p_success=1.0, raw_fidelity=0.9)
        (_, errors), _ = run_train(1, 1, draws=[0.0, 0.05], link=noisy)  # second draw < 1 - F: error
        assert errors == 1

    def test_error_bits_pack_by_slot(self):
        noisy = LinkModel(length_km=1.0, p_success=0.5, raw_fidelity=0.9)
        # slot 0 clean, fusilier 1 fails, slots 1 and 2 carry errors
        draws = [0.1, 0.5, 0.9, 0.1, 0.05, 0.1, 0.01]
        (fusiliers, errors), rng = run_train(3, 4, draws=draws, link=noisy)
        assert fusiliers == [0, 2, 3]
        assert errors == 0b110
        assert rng.values == []

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

    def test_incomplete_train_rejected(self):
        # a return before the node's own train arrived; a train is taken whole
        node = NodeState(1, n_fusiliers=3, m_fusilands=1)
        on_herald(node, 0, 0)
        with pytest.raises(ProtocolError, match="before its signal train arrived"):
            on_return(node, 0)
        assert node.ready
        assert node.fired


def awaiting_return():
    """An intermediate node whose fusillade fired and whose incoming train
    was taken, awaiting its return."""
    node = NodeState(1, n_fusiliers=3, m_fusilands=3)
    on_herald(node, 0, 0)
    on_train(node)
    return node


class TestOnReturn:
    def test_swaps_the_given_count(self):
        rng = StubRng([0.9, 0.1] * 3)
        swaps = swap_outcomes(2, rng)
        assert swaps == (0b00, 0b11)  # (parity bits, X bits), swap k in bit k
        assert len(rng.values) == 2  # two draws per swap
        node = awaiting_return()
        on_return(node, 0)
        assert not node.fired

    def test_zero_swaps_draw_nothing(self):
        assert swap_outcomes(0, None) == (0, 0)

    def test_swap_outcome_feeds_frame_record(self):
        # a parity draw, then an X draw: the parity outcome is the frame's
        # X bit, the X readout its Z bit
        assert swap_outcomes(1, StubRng([0.1, 0.9])) == (1, 0)
        assert swap_outcomes(1, StubRng([0.9, 0.1])) == (0, 1)

    def test_unlisted_fusiliers_retire(self):
        node = NodeState(0, n_fusiliers=4, m_fusilands=0)
        on_herald(node, 0, 0)
        on_return(node, 0)
        assert not node.fired
        on_herald(node, 1, 0)  # the next herald is accepted

    def test_wrong_cycle_rejected(self):
        node = awaiting_return()
        with pytest.raises(ProtocolError, match="^node 1 got return for cycle 5 during cycle 0$"):
            on_return(node, 5)

    def test_return_needs_a_fired_fusillade(self):
        # the rightmost node fires nothing, so its fusillade stays idle
        idle = NodeState(2, n_fusiliers=0, m_fusilands=3)
        on_herald(idle, 0, 0)
        with pytest.raises(ProtocolError, match="its fusillade is idle"):
            on_return(idle, 0)
        node = awaiting_return()
        on_return(node, 0)
        with pytest.raises(ProtocolError, match="its fusillade is idle"):
            on_return(node, 0)


class TestCycleLifecycle:
    def test_release_resets_everything(self):
        # the train leaves the fusilands idle, the return the fusillade
        tx, rx, _ = start_cycle(3, 2)
        on_train(rx)
        on_return(tx, 0)
        assert not tx.fired
        assert not rx.ready
        # next herald is accepted again
        on_herald(tx, 1, 1000)
        on_herald(rx, 1, 1050)

    def test_success_distribution_truncated_binomial(self):
        # frequency of under-filled cycles converges to the binomial tail;
        # acceptance runs the full 1e5-cycle version
        n, m, p, cycles = 24, 2, 0.25, 20_000
        link = LinkModel(length_km=1.0, p_success=p)
        rng = np.random.default_rng(77)
        short = 0
        for _ in range(cycles):
            fusiliers, _ = train_pairs(link, rng, n, m)
            if len(fusiliers) < m:
                short += 1
        expected = failure_prob_multi(n, m, p)
        se = math.sqrt(expected * (1 - expected) / cycles)
        assert abs(short / cycles - expected) <= 4 * se


def _signal_at_unreadied_bank(draws):
    # the bank rejects the train whatever its signals drew
    def sequence():
        rx = NodeState(1, n_fusiliers=0, m_fusilands=2)
        run_train(rx.m_fusilands, 1, draws)
        on_train(rx)

    return sequence


def _signal_at_reported_bank():
    # the train was taken and the node took its return for the cycle
    node = awaiting_return()
    on_return(node, 0)
    on_train(node)


def _return_before_train():
    node = NodeState(1, n_fusiliers=3, m_fusilands=3)
    on_herald(node, 0, 0)
    on_return(node, 0)


@pytest.mark.parametrize(
    "sequence",
    [
        _signal_at_unreadied_bank([0.1, 0.5]),
        _signal_at_unreadied_bank([0.9]),
        _signal_at_reported_bank,
        _return_before_train,
    ],
    ids=[
        "signal_unreadied_bank_success_draw",
        "signal_unreadied_bank_failure_draw",
        "signal_reported_bank",
        "return_before_train",
    ],
)
def test_illegal_bank_sequence_raises(sequence):
    with pytest.raises(ProtocolError):
        sequence()


def reference_train(node, from_node, link, rng, arrivals):
    """One signal at a time, as a per-signal handler would resolve a train
    at ``node``'s bank."""
    pairs = []
    for fusilier, arrival_ns in enumerate(arrivals):
        slot = len(pairs)
        if slot >= node.m_fusilands:
            continue  # discarded without drawing
        if rng.random() >= success_probability(link):
            continue
        x_error = 1 if rng.random() < 1.0 - link.raw_fidelity else 0
        pairs.append(
            PairRecord(
                Endpoint(from_node, fusilier),
                Endpoint(node.node_id, slot),
                x_error,
                IDENTITY_FRAME,
                arrival_ns,
                link.raw_fidelity,
            )
        )
    return pairs


class CountingRng:
    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.draws = 0

    def random(self):
        self.draws += 1
        return self.rng.random()


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
    rx = NodeState(3, n_fusiliers=0, m_fusilands=m)
    rngs = [CountingRng(seed), CountingRng(seed)]
    fusiliers, errors = train_pairs(link, rngs[0], n, m)
    expected = reference_train(rx, 2, link, rngs[1], times)
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
    assert rngs[0].draws == rngs[1].draws


@given(
    n=st.integers(min_value=1, max_value=8),
    m=st.integers(min_value=1, max_value=8),
    p=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=120, deadline=None)
def test_full_cycle_fuzz(n, m, p, seed):
    """A whole hop cycle in any sampled regime passes every bank check."""
    link = LinkModel(length_km=1.0, p_success=p)
    rng = np.random.default_rng(seed)
    tx = NodeState(0, n, 0)
    rx = NodeState(1, 0, m)
    assert on_herald(tx, 0, 0) == n
    on_herald(rx, 0, 11)

    on_train(rx)
    fusiliers, errors = train_pairs(link, rng, n, m)
    assert len(fusiliers) <= m
    assert fusiliers == sorted(set(fusiliers))
    assert errors == 0  # raw fidelity 1
    assert not rx.ready

    on_return(tx, 0)  # tx has no left hop: an end node swaps nothing
    assert not tx.fired

    # the next cycle starts cleanly at both nodes
    on_herald(tx, 1, 100)
    on_herald(rx, 1, 111)

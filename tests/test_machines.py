"""Per-bank node state: herald firing, signal routing, returns, swaps."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusenet.errors import DesynchronizationError, ProtocolError
from fusenet.machines import (
    FrameRecord,
    FusilandPhase,
    FusilladePhase,
    HeraldMessage,
    NodeState,
    ReturnMessage,
    SignalOutcome,
    build_return_message,
    on_herald,
    on_return,
    on_signal,
    pickup_frames,
    release_cycle_resources,
)
from fusenet.pair_algebra import (
    Endpoint,
    IDENTITY_FRAME,
    LinkModel,
    PairRecord,
    failure_prob_multi,
)

from conftest import StubRng

LINK = LinkModel(length_km=1.0, p_success=0.25)
PERFECT = LinkModel(length_km=1.0, p_success=1.0)


def start_cycle(n, m, cycle=0, tau=10, incoming=None):
    """A transmitting node and a receiving node, herald already passed."""
    tx = NodeState.new(0, n_fusiliers=n, m_fusilands=0)
    rx = NodeState.new(1, n_fusiliers=0, m_fusilands=m)
    herald = HeraldMessage(cycle)
    emissions = on_herald(tx, herald, 0, tau_slot_ns=tau, incoming_train=0)
    on_herald(rx, herald, 50, tau_slot_ns=tau, incoming_train=n if incoming is None else incoming)
    return tx, rx, emissions


def run_train(rx, draws, n=None):
    rng = StubRng(draws)
    n = rx.expected_signals if n is None else n
    return [on_signal(rx, 0, k, LINK, rng, 100 + 10 * k) for k in range(n)]


class TestOnHerald:
    def test_emission_times_are_slot_spaced(self):
        tx, _, emissions = start_cycle(3, 1, tau=10)
        assert [e.time_ns for e in emissions] == [0, 10, 20]
        assert [e.fusilier_id for e in emissions] == [0, 1, 2]
        assert tx.fusillade is FusilladePhase.FIRED

    def test_rightmost_node_fires_nothing(self):
        rx = NodeState.new(2, n_fusiliers=0, m_fusilands=2)
        emissions = on_herald(
            rx, HeraldMessage(0), 0, tau_slot_ns=10, incoming_train=4
        )
        assert emissions == []
        assert rx.fusillade is FusilladePhase.IDLE
        assert rx.fusilands is FusilandPhase.READY

    def test_herald_while_busy_desynchronizes(self):
        tx, _, _ = start_cycle(2, 1)
        with pytest.raises(DesynchronizationError):
            on_herald(tx, HeraldMessage(1), 500, tau_slot_ns=10, incoming_train=0)

    def test_wrong_cycle_id_desynchronizes(self):
        tx = NodeState.new(0, 2, 0)
        with pytest.raises(DesynchronizationError):
            on_herald(tx, HeraldMessage(3), 0, tau_slot_ns=10, incoming_train=0)

    def test_pickup_drains_pending_frames(self):
        _, rx, _ = start_cycle(1, 1)
        run_train(rx, draws=[0.0, 0.5])
        build_return_message(rx, 0)
        release_cycle_resources(rx)
        rx.pending_frame.append(FrameRecord(1, 0, 0, IDENTITY_FRAME))
        herald = HeraldMessage(1)
        on_herald(rx, herald, 10_000, tau_slot_ns=10, incoming_train=1)
        assert len(herald.frame_payload) == 1
        assert rx.pending_frame == []

    def test_pickup_frames_helper(self):
        node = NodeState.new(2, 0, 1)
        node.pending_frame = [FrameRecord(2, 0, 0, IDENTITY_FRAME)]
        herald = HeraldMessage(1)
        pickup_frames(node, herald)
        assert herald.frame_payload == [FrameRecord(2, 0, 0, IDENTITY_FRAME)]
        assert node.pending_frame == []


class TestOnSignal:
    def test_first_success_takes_slot_zero_then_discards(self):
        _, rx, _ = start_cycle(3, 1)
        results = run_train(rx, draws=[0.1, 0.5])
        assert results[0].outcome is SignalOutcome.SUCCESS
        assert results[0].slot == 0
        assert [r.outcome for r in results[1:]] == [SignalOutcome.DISCARDED] * 2
        assert rx.filled_by == [0]
        assert len(rx.left_links) == 1

    def test_failure_reprepares_same_fusiland(self):
        _, rx, _ = start_cycle(2, 1)
        rng = StubRng([0.9, 0.1, 0.5])
        first = on_signal(rx, 0, 0, LINK, rng, 100)
        assert first.outcome is SignalOutcome.FAILURE
        assert rx.filled_by == []
        assert rx.fusilands is FusilandPhase.READY
        second = on_signal(rx, 0, 1, LINK, rng, 110)
        assert second.outcome is SignalOutcome.SUCCESS
        assert second.slot == 0

    def test_exhausted_bank_discards_without_drawing(self):
        _, rx, _ = start_cycle(4, 2)
        rng = StubRng([0.0, 0.5, 0.0, 0.5])  # exactly 2 successes' draws
        outcomes = [on_signal(rx, 0, k, LINK, rng, k).outcome for k in range(4)]
        assert outcomes == [
            SignalOutcome.SUCCESS,
            SignalOutcome.SUCCESS,
            SignalOutcome.DISCARDED,
            SignalOutcome.DISCARDED,
        ]
        assert rng.values == []  # discarded signals consumed no randomness

    def test_out_of_order_signal_rejected(self):
        _, rx, _ = start_cycle(3, 1)
        rng = StubRng([0.9])
        on_signal(rx, 0, 0, LINK, rng, 100)
        with pytest.raises(ProtocolError):
            on_signal(rx, 0, 2, LINK, rng, 120)

    def test_error_bit_sampled_from_fidelity(self):
        _, rx, _ = start_cycle(1, 1)
        noisy = LinkModel(length_km=1.0, p_success=1.0, raw_fidelity=0.9)
        rng = StubRng([0.0, 0.05])  # second draw < 1 - F: error
        result = on_signal(rx, 0, 0, noisy, rng, 100)
        assert result.pair.x_error == 1
        assert result.pair.model_fidelity == 0.9

    def test_pair_endpoints_name_both_sides(self):
        _, rx, _ = start_cycle(2, 2)
        rng = StubRng([0.9, 0.1, 0.5])
        on_signal(rx, 0, 0, LINK, rng, 100)
        result = on_signal(rx, 0, 1, LINK, rng, 110)
        assert result.pair.left == Endpoint(0, 1)  # fusilier 1 on node 0
        assert result.pair.right == Endpoint(1, 0)  # slot 0 on node 1


class TestBuildReturnMessage:
    def test_no_successes_gives_empty_matches(self):
        _, rx, _ = start_cycle(3, 1)
        run_train(rx, draws=[0.9, 0.9, 0.9])
        msg = build_return_message(rx, 0)
        assert msg.matches == [] and msg.usable_links == 0
        assert rx.fusilands is FusilandPhase.REPORTED

    def test_matches_name_fusilier_and_slot(self):
        _, rx, _ = start_cycle(8, 2)
        draws = [0.9, 0.9, 0.1, 0.5, 0.9, 0.9, 0.9, 0.9, 0.1, 0.5]
        run_train(rx, draws=draws)
        msg = build_return_message(rx, 0)
        assert msg.matches == [(2, 0), (7, 1)]
        assert rx.filled_by == [2, 7]

    def test_capacity_bounds_matches(self):
        _, rx, _ = start_cycle(5, 2)
        draws = [0.0, 0.5, 0.0, 0.5]  # first two succeed, bank full
        run_train(rx, draws=draws)
        msg = build_return_message(rx, 0)
        assert msg.matches == [(0, 0), (1, 1)]
        assert msg.usable_links == 2

    def test_incomplete_train_rejected(self):
        _, rx, _ = start_cycle(3, 1)
        rng = StubRng([0.9])
        on_signal(rx, 0, 0, LINK, rng, 100)
        with pytest.raises(ProtocolError):
            build_return_message(rx, 0)


def mid_node_with_links(n_left, n_right):
    """An intermediate node holding confirmed left links, awaiting a return."""
    node = NodeState.new(1, n_fusiliers=max(n_right, 1), m_fusilands=max(n_left, 1))
    on_herald(node, HeraldMessage(0), 0, tau_slot_ns=10, incoming_train=n_left)
    node.left_links = [
        PairRecord(Endpoint(0, k), Endpoint(1, k), 0, IDENTITY_FRAME, 0, 1.0)
        for k in range(n_left)
    ]
    node.filled_by = list(range(n_left))
    msg = ReturnMessage(
        0, matches=[(k, k) for k in range(n_right)], usable_links=n_right
    )
    return node, msg


class TestOnReturn:
    def test_swaps_min_of_both_sides(self):
        node, msg = mid_node_with_links(2, 3)
        swaps = on_return(node, msg, StubRng([0.9, 0.1] * 3), 100)
        assert [s.slot for s in swaps] == [0, 1]
        assert [rec.slot for rec in node.pending_frame] == [0, 1]
        assert node.fusillade is FusilladePhase.CONFIRMED

    def test_no_left_links_means_no_swap(self):
        node, msg = mid_node_with_links(0, 2)
        swaps = on_return(node, msg, None, 100)
        assert swaps == []
        assert node.pending_frame == []

    def test_swap_outcome_feeds_frame_record(self):
        node, msg = mid_node_with_links(1, 1)
        swaps = on_return(node, msg, StubRng([0.1, 0.9]), 100)
        assert swaps[0].parity_outcome == 1 and swaps[0].x_outcome == 0
        assert len(node.pending_frame) == 1
        rec = node.pending_frame[0]
        assert (rec.frame.x_bit, rec.frame.z_bit) == (1, 0)
        assert rec.slot == 0 and rec.node == 1

    def test_unlisted_fusiliers_retire(self):
        node = NodeState.new(0, n_fusiliers=4, m_fusilands=0)
        on_herald(node, HeraldMessage(0), 0, tau_slot_ns=10, incoming_train=0)
        swaps = on_return(node, ReturnMessage(0, matches=[(1, 0)], usable_links=1), None, 100)
        assert swaps == []
        assert node.fusillade is FusilladePhase.CONFIRMED
        release_cycle_resources(node)
        assert node.all_idle()

    def test_unknown_fusilier_rejected(self):
        node = NodeState.new(0, n_fusiliers=2, m_fusilands=0)
        on_herald(node, HeraldMessage(0), 0, tau_slot_ns=10, incoming_train=0)
        with pytest.raises(ProtocolError):
            on_return(node, ReturnMessage(0, matches=[(7, 0)]), None, 100)

    def test_wrong_cycle_rejected(self):
        node, msg = mid_node_with_links(1, 1)
        msg.cycle_id = 5
        with pytest.raises(ProtocolError):
            on_return(node, msg, None, 100)


class TestCycleLifecycle:
    def test_release_resets_everything(self):
        tx, rx, _ = start_cycle(3, 2)
        run_train(rx, draws=[0.1, 0.5, 0.9, 0.1, 0.5])
        msg = build_return_message(rx, 0)
        on_return(tx, msg, None, 300)
        release_cycle_resources(tx)
        release_cycle_resources(rx)
        assert tx.all_idle() and rx.all_idle()
        assert tx.left_links == [] and rx.left_links == []
        # next herald is accepted again
        on_herald(tx, HeraldMessage(1), 1000, tau_slot_ns=10, incoming_train=0)
        on_herald(rx, HeraldMessage(1), 1050, tau_slot_ns=10, incoming_train=3)

    def test_success_distribution_truncated_binomial(self):
        # frequency of under-filled cycles converges to the binomial tail;
        # acceptance runs the full 1e5-cycle version
        n, m, p, cycles = 24, 2, 0.25, 20_000
        link = LinkModel(length_km=1.0, p_success=p)
        rng = np.random.default_rng(77)
        short = 0
        for _ in range(cycles):
            rx = NodeState.new(1, 0, m)
            on_herald(rx, HeraldMessage(0), 0, tau_slot_ns=0, incoming_train=n)
            for k in range(n):
                on_signal(rx, 0, k, link, rng, k)
            if len(rx.left_links) < m:
                short += 1
        expected = failure_prob_multi(n, m, p)
        se = math.sqrt(expected * (1 - expected) / cycles)
        assert abs(short / cycles - expected) <= 4 * se


def _release_unconfirmed_fusillade():
    tx, _, _ = start_cycle(2, 1)
    release_cycle_resources(tx)


def _release_unreported_fusilands():
    _, rx, _ = start_cycle(2, 1)
    run_train(rx, draws=[0.9, 0.9])
    release_cycle_resources(rx)


def _return_names_fusilier_twice():
    tx, _, _ = start_cycle(3, 2)
    on_return(tx, ReturnMessage(0, matches=[(1, 0), (1, 1)], usable_links=2), None, 100)


def _signal_at_unreadied_bank(draws):
    def sequence():
        rx = NodeState.new(1, n_fusiliers=0, m_fusilands=2)
        on_signal(rx, 0, 0, LINK, StubRng(draws), 100)

    return sequence


def _report_twice():
    _, rx, _ = start_cycle(2, 1)
    run_train(rx, draws=[0.1, 0.5])
    build_return_message(rx, 0)
    build_return_message(rx, 0)


@pytest.mark.parametrize(
    "sequence",
    [
        _release_unconfirmed_fusillade,
        _release_unreported_fusilands,
        _return_names_fusilier_twice,
        _signal_at_unreadied_bank([0.1, 0.5]),
        _signal_at_unreadied_bank([0.9]),
        _report_twice,
    ],
    ids=[
        "release_fusillade_unconfirmed",
        "release_fusilands_unreported",
        "duplicate_fusilier_in_return",
        "signal_unreadied_bank_success_draw",
        "signal_unreadied_bank_failure_draw",
        "build_return_message_twice",
    ],
)
def test_illegal_bank_sequence_raises(sequence):
    with pytest.raises(ProtocolError):
        sequence()


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
    tx = NodeState.new(0, n, 0)
    rx = NodeState.new(1, 0, m)
    herald = HeraldMessage(0)
    emissions = on_herald(tx, herald, 0, tau_slot_ns=7, incoming_train=0)
    assert [e.time_ns for e in emissions] == [7 * k for k in range(n)]
    on_herald(rx, herald, 11, tau_slot_ns=7, incoming_train=n)

    results = [on_signal(rx, 0, k, link, rng, 100 + k) for k in range(n)]
    outcomes = [r.outcome for r in results]
    successes = outcomes.count(SignalOutcome.SUCCESS)
    assert successes <= m
    assert successes == len(rx.left_links)
    # discards happen only once the bank is full, and only after m successes
    for idx, outcome in enumerate(outcomes):
        if outcome is SignalOutcome.DISCARDED:
            assert outcomes[:idx].count(SignalOutcome.SUCCESS) == m

    msg = build_return_message(rx, 0)
    assert [f for f, _ in msg.matches] == sorted(f for f, _ in msg.matches)
    assert [slot for _, slot in msg.matches] == list(range(successes))
    assert msg.usable_links == successes

    swaps = on_return(tx, msg, rng, 500)
    assert swaps == []  # tx has no left links: end node
    assert tx.fusillade is FusilladePhase.CONFIRMED

    release_cycle_resources(tx)
    release_cycle_resources(rx)
    assert tx.all_idle() and rx.all_idle()

"""Chain orchestration: schedules, sweeps, purification, butterfly, frames."""

import json
import math
import re
import time
import tracemalloc
import warnings
from collections import Counter
from dataclasses import asdict
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fusenet import network as network_module
from fusenet.config import load_config
from fusenet.engine import EventKind, EventQueue, RngStream, channel_delay_ns
from fusenet.errors import ConfigurationError, DesynchronizationError, ProtocolError
from fusenet.metrics import rate_model, summarize
from fusenet.network import (
    MAX_TRAIN_DRAWS,
    LinkSpec,
    NetworkConfig,
    Strategy,
    _ChainSimulation,
    butterfly_split,
    run_network,
    validate_config,
)
from fusenet.pair_algebra import (
    IDENTITY_FRAME,
    LinkModel,
    chain_fidelity,
    failure_prob_multi,
    purify3_analytic,
)

from conftest import chain_config, trace_records
from test_golden import CASES, EXPECTED, _digests, _link, _simulate


class TestValidateConfig:
    def test_two_node_forty_km_period(self):
        schedule = validate_config(chain_config([40.0]))
        assert schedule.cycle_period_ns == 400_000
        assert schedule.cycle_period_s == pytest.approx(0.4e-3, abs=1e-15)
        assert schedule.herald_offsets_ns == (0, 200_000)

    def test_slowest_hop_governs(self):
        schedule = validate_config(chain_config([10.0, 40.0]))
        assert schedule.cycle_period_ns == 400_000

    def test_signal_train_extends_period(self):
        schedule = validate_config(chain_config([40.0], n=100, tau_slot_ns=10))
        assert schedule.cycle_period_ns == 400_000 + 1_000

    def test_herald_offsets_are_cumulative(self):
        schedule = validate_config(chain_config([10.0, 40.0, 20.0]))
        assert schedule.herald_offsets_ns == (0, 50_000, 250_000, 350_000)

    def test_purify_requires_multiple_of_three(self):
        with pytest.raises(ConfigurationError, match="multiple of 3"):
            validate_config(chain_config([40.0], m=2, strategy=Strategy.PURIFY3))

    def test_too_few_nodes(self):
        cfg = chain_config([40.0])
        cfg.nodes = ["only"]
        cfg.links = []
        with pytest.raises(ConfigurationError):
            validate_config(cfg)

    def test_nonpositive_length_rejected(self):
        cfg = chain_config([40.0])
        cfg.links = [
            LinkSpec(LinkModel(length_km=0.0, p_success=1.0), 1, 1)
        ]
        with pytest.raises(ConfigurationError, match="length_km"):
            validate_config(cfg)

    def test_link_count_must_match(self):
        cfg = chain_config([40.0, 10.0])
        cfg.nodes = cfg.nodes[:2]
        with pytest.raises(ConfigurationError):
            validate_config(cfg)

    def test_duplicate_node_names_rejected(self):
        cfg = chain_config([40.0, 10.0])
        cfg.nodes = ["a", "b", "a"]
        with pytest.raises(ConfigurationError, match=r"^nodes\[2\]: duplicate node name 'a'$"):
            validate_config(cfg)

    def test_duplicate_check_is_linear(self):
        # one pass over the names, not one scan of the earlier names per node
        link = chain_config([1.0]).links[0]
        cfg = NetworkConfig(nodes=[f"n{i}" for i in range(50_000)], links=[link] * 49_999)
        start = time.perf_counter()
        validate_config(cfg)
        assert time.perf_counter() - start < 2.0
        cfg.nodes[-1] = "n7"
        with pytest.raises(ConfigurationError, match=r"^nodes\[49999\]: duplicate node name 'n7'$"):
            validate_config(cfg)

    def test_zero_cycle_period_rejected(self):
        # a 1e-5 km hop rounds to a 0 ns delay; with no train or processing
        # time the period would be 0 ns
        with pytest.raises(ConfigurationError, match="cycle period"):
            validate_config(chain_config([1e-5]))

    def test_return_before_incoming_train_end_rejected(self):
        # node 1 hears back from its 0.1 km hop 2 * 500 + 5 * 10 ns after the
        # herald, while its incoming 400-signal train ends 399 * 10 ns after it
        cfg = chain_config([10.0, 0.1], m=3, tau_slot_ns=10)
        cfg.links[0] = LinkSpec(cfg.links[0].model, n_fusiliers=400, m_fusilands=3)
        cfg.links[1] = LinkSpec(cfg.links[1].model, n_fusiliers=6, m_fusilands=3)
        with pytest.raises(ConfigurationError, match=r"nodes\[1\].* 1050 ns.* 3990 ns"):
            validate_config(cfg)
        # a tie runs: the train's last signal precedes the return
        cfg.links[0] = LinkSpec(cfg.links[0].model, n_fusiliers=106, m_fusilands=3)
        assert len(run_network(cfg).records) == 3 * cfg.cycles

    def test_cycle_count_beyond_one_key_word_rejected(self):
        # a cycle's RNG key holds it in one 32-bit word
        assert validate_config(chain_config([40.0], cycles=2**32 - 1))
        for cycles in (2**32, 2**40):
            with pytest.raises(ConfigurationError, match=r"cycles must be < 4294967296"):
                validate_config(chain_config([40.0], cycles=cycles))

    def test_train_draws_bounded(self):
        # a train draws n + m values at once: n + m may reach the bound, not pass it
        assert validate_config(chain_config([40.0], n=MAX_TRAIN_DRAWS - 1, m=1))
        for n, m in ((MAX_TRAIN_DRAWS, 1), (1, MAX_TRAIN_DRAWS), (10**12, 1), (1, 10**12)):
            with pytest.raises(
                ConfigurationError,
                match=rf"links\[0\]: n_fusiliers \+ m_fusilands = {n + m} exceeds {MAX_TRAIN_DRAWS}",
            ):
                validate_config(chain_config([40.0], n=n, m=m))

    def test_small_override_warns(self):
        # 10 ns below the bound 400_050: the run warns, then completes
        cfg = chain_config([40.0], n=5, tau_slot_ns=10, cycle_period_ns=400_040)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert validate_config(cfg).cycle_period_ns == 400_040
        with pytest.warns(UserWarning, match="safe bound 400050"):
            assert len(run_network(cfg).records) == cfg.cycles

    def test_links_per_cycle_accounts_for_purification(self):
        assert validate_config(chain_config([40.0], m=6)).links_per_cycle == 6
        assert (
            validate_config(
                chain_config([40.0], n=6, m=6, strategy=Strategy.PURIFY3)
            ).links_per_cycle
            == 2
        )


class TestPerfectChain:
    def test_one_pair_per_cycle_no_errors(self):
        cfg = chain_config([40.0, 40.0], cycles=50, seed=1)
        result = run_network(cfg)
        assert len(result.records) == 50
        assert all(r.pair.x_error == 0 for r in result.records)
        assert all(r.pair.frame == r.correction for r in result.records)
        assert result.per_cycle_delivered == [1] * 50

    def test_end_to_end_endpoints(self):
        result = run_network(chain_config([40.0, 40.0, 40.0], cycles=3))
        for rec in result.records:
            assert rec.pair.left.node == 0
            assert rec.pair.right.node == 3

    def test_established_and_frame_times_exact(self):
        cfg = chain_config([10.0, 40.0], cycles=10)
        result = run_network(cfg)
        schedule = result.schedule
        offset = schedule.herald_offsets_ns[-1]
        for rec in result.records:
            assert rec.established_at_ns == rec.cycle_id * schedule.cycle_period_ns + offset
            assert rec.frame_available_at_ns - rec.established_at_ns == schedule.cycle_period_ns

    def test_trace_event_counts_per_cycle(self):
        hops, n, m, cycles = [10.0, 20.0, 30.0], 2, 1, 4
        cfg = chain_config(hops, n=n, m=m, cycles=cycles, tau_slot_ns=10)
        result = run_network(cfg, collect_trace=True)
        num_nodes = len(hops) + 1
        per_cycle = {}
        for rec in trace_records(result.trace):
            match = re.search(r"cycle=(\d+)", rec.detail)
            per_cycle.setdefault(int(match.group(1)), Counter())[rec.kind] += 1
        for cycle in range(cycles):
            counts = per_cycle[cycle]
            assert counts["CycleStart"] == 1
            assert counts["HeraldArrive"] == num_nodes - 1
            assert counts["SignalArrive"] == n * len(hops)
            assert counts["ReturnArrive"] == len(hops)
            assert counts["SwapComplete"] == num_nodes - 2
            assert counts["PairReady"] == result.per_cycle_delivered[cycle]
        # the flush sweep only carries the herald chain
        flush = per_cycle[cycles]
        assert flush["CycleStart"] == 1
        assert flush["HeraldArrive"] == num_nodes - 1
        assert sum(flush.values()) == num_nodes

    def test_herald_sweep_times_follow_cumulative_delays(self):
        cfg = chain_config([10.0, 40.0, 20.0], cycles=1)
        result = run_network(cfg, collect_trace=True)
        arrivals = [
            (rec.node, rec.t_ns)
            for rec in trace_records(result.trace)
            if rec.kind == "HeraldArrive" and rec.t_ns < result.schedule.cycle_period_ns
        ]
        assert arrivals == [(1, 50_000), (2, 250_000), (3, 350_000)]

    def test_rate_is_set_by_the_longest_hop(self):
        # the paper's claim: the creation rate is a function of the maximum
        # distance between adjacent repeaters, whatever the other hops are
        n, m, tau, proc = 3, 2, 10, 100
        expected = rate_model(40.0, 2.0e8, n, tau, proc, m)

        def rate(hops):
            cfg = chain_config(hops, n=n, m=m, cycles=30, tau_slot_ns=tau, proc_ns=proc)
            return summarize(run_network(cfg).records, cfg).pairs_per_second

        for hops in ([10.0, 40.0, 20.0], [40.0, 10.0, 20.0], [20.0, 10.0, 40.0],
                     [10.0, 40.0, 40.0], [40.0, 40.0, 40.0]):
            assert rate(hops) == expected, hops
        assert rate([10.0, 40.0, 50.0]) < expected

    def test_throughput_identity_at_p1(self):
        cfg = chain_config([25.0], n=3, m=3, cycles=200, seed=9)
        result = run_network(cfg)
        stats = summarize(result.records, cfg)
        expected = result.schedule.links_per_cycle * (
            1e9 / result.schedule.cycle_period_ns
        )
        assert stats.pairs_per_second == expected


class TestStochasticChain:
    def test_per_cycle_failure_rate_matches_binomial(self):
        cycles = 10_000
        cfg = chain_config([40.0], n=16, m=1, p=0.25, cycles=cycles, seed=21)
        result = run_network(cfg)
        failures = sum(1 for d in result.per_cycle_delivered if d == 0)
        expected = failure_prob_multi(16, 1, 0.25)
        se = math.sqrt(expected * (1 - expected) / cycles)
        assert abs(failures / cycles - expected) <= 4 * se

    def test_hop_success_counts_capped_by_bank(self):
        cfg = chain_config([40.0], n=8, m=2, p=0.9, cycles=300, seed=4)
        result = run_network(cfg)
        assert max(result.hop_success_counts[0]) <= 2

    def test_corrected_stream_matches_analytic_fidelity(self):
        cfg = chain_config([30.0, 30.0], n=4, m=2, p=0.8, fidelity=0.9, cycles=4000, seed=13)
        result = run_network(cfg)
        stats = summarize(result.records, cfg)
        expected = 1.0 - chain_fidelity([0.9, 0.9])
        se = math.sqrt(expected * (1 - expected) / stats.pairs_total)
        assert abs((1.0 - stats.empirical_end_fidelity) - expected) <= 4 * se

    def test_rightmost_node_removal_preserves_upstream_randomness(self):
        cfg4 = chain_config([10.0, 20.0, 30.0], n=5, m=2, p=0.5, cycles=60, seed=42)
        cfg3 = chain_config([10.0, 20.0], n=5, m=2, p=0.5, cycles=60, seed=42)
        r4 = run_network(cfg4)
        r3 = run_network(cfg3)
        assert r4.hop_success_counts[:2] == r3.hop_success_counts


@pytest.mark.parametrize("strategy", [Strategy.RAW, Strategy.PURIFY3])
def test_record_pairs_match_the_traced_signals(strategy):
    # End-to-end slot k holds hop slots k (raw) or 3k..3k+2 (purify3) of
    # every hop: its left end is the fusilier that filled hop 0's first such
    # slot, its right end the last node's fusiland, and it was made when the
    # last of those signals arrived.
    cfg = chain_config(
        [20.0, 30.0, 10.0], n=9, m=6, p=0.8, fidelity=0.9, cycles=30, seed=5,
        strategy=strategy, tau_slot_ns=7,
    )
    result = run_network(cfg, collect_trace=True)
    filled = {}  # (hop, cycle, hop slot) -> (fusilier, arrival)
    for rec in trace_records(result.trace):
        match = re.fullmatch(r"cycle=(\d+) fusilier=(\d+) success slot=(\d+)", rec.detail)
        if rec.kind == EventKind.SIGNAL_ARRIVE.value and match:
            cycle, fusilier, slot = map(int, match.groups())
            filled[rec.node - 1, cycle, slot] = (fusilier, rec.t_ns)
    width = 3 if strategy is Strategy.PURIFY3 else 1
    fidelity = 0.9 if width == 1 else purify3_analytic(0.9)
    assert result.records
    for rec in result.records:
        first = width * rec.slot
        hop_slots = range(first, first + width)
        assert rec.pair.left == (0, filled[0, rec.cycle_id, first][0])
        assert rec.pair.right == (3, first)
        assert rec.pair.created_at_ns == max(
            filled[hop, rec.cycle_id, s][1] for hop in range(3) for s in hop_slots
        )
        assert rec.pair.model_fidelity == pytest.approx(chain_fidelity([fidelity] * 3), abs=1e-12)


class TestPurification:
    def test_single_hop_kept_fidelity(self):
        cfg = chain_config(
            [40.0], n=3, m=3, fidelity=0.95, cycles=100, strategy=Strategy.PURIFY3, seed=2
        )
        result = run_network(cfg)
        assert len(result.records) == 100
        for rec in result.records:
            assert rec.pair.model_fidelity == pytest.approx(
                purify3_analytic(0.95), abs=1e-12
            )

    def test_on_off_fidelity_split(self):
        # two hops at F=0.95: 0.905 raw vs 0.9855845 purified, both matched
        # by the corrected error stream at 1e5 pairs
        pairs_needed = 100_000
        raw_cfg = chain_config(
            [40.0, 40.0], n=4, m=4, fidelity=0.95, cycles=pairs_needed // 4, seed=31
        )
        pur_cfg = chain_config(
            [40.0, 40.0],
            n=9,
            m=9,
            fidelity=0.95,
            cycles=math.ceil(pairs_needed / 3),
            strategy=Strategy.PURIFY3,
            seed=32,
        )
        raw_stats = summarize(run_network(raw_cfg).records, raw_cfg)
        pur_stats = summarize(run_network(pur_cfg).records, pur_cfg)

        assert raw_stats.analytic_end_fidelity == pytest.approx(0.905, abs=1e-12)
        # (1 + (2*0.99275 - 1)^2) / 2, evaluated exactly
        assert pur_stats.analytic_end_fidelity == pytest.approx(0.985605125, abs=1e-12)
        for stats in (raw_stats, pur_stats):
            expected = 1.0 - stats.analytic_end_fidelity
            se = math.sqrt(expected * (1 - expected) / stats.pairs_total)
            assert stats.pairs_total >= pairs_needed
            assert abs((1.0 - stats.empirical_end_fidelity) - expected) <= 4 * se

    def test_leftover_links_are_dropped(self):
        # p=0.5 leaves partial triples; kept count is always floor(successes/3)
        cfg = chain_config(
            [40.0], n=12, m=6, p=0.5, cycles=400, strategy=Strategy.PURIFY3, seed=8
        )
        result = run_network(cfg)
        for cycle, successes in enumerate(result.hop_success_counts[0]):
            assert result.per_cycle_delivered[cycle] == successes // 3

    def test_return_records_report_matches_and_swaps(self):
        # Each return names its hop's raw successes, and node i swaps as many
        # slots as the shorter of its two purified hops keeps (none at node 0).
        cfg = chain_config(
            [20.0, 25.0, 15.0, 20.0], n=12, m=9, p=0.6, fidelity=0.95, cycles=40,
            seed=11, strategy=Strategy.PURIFY3, butterfly=True, tau_slot_ns=10,
            proc_ns=1000,
        )
        result = run_network(cfg, collect_trace=True)
        counts = result.hop_success_counts
        returns = [rec for rec in trace_records(result.trace) if rec.kind == "ReturnArrive"]
        assert len(returns) == cfg.cycles * len(cfg.links)
        shorter = Counter()
        for rec in returns:
            fields = re.fullmatch(r"cycle=(\d+) matches=(\d+) swaps=(\d+)", rec.detail)
            cycle, matches, swaps = map(int, fields.groups())
            node = rec.node
            assert matches == counts[node][cycle]
            if node == 0:
                assert swaps == 0
                continue
            left, right = counts[node - 1][cycle] // 3, counts[node][cycle] // 3
            assert swaps == min(left, right)
            shorter[(left > right) - (left < right)] += 1
        # both sides set the count in some cycles, so neither is read alone
        assert shorter[1] and shorter[-1]


@st.composite
def _fidelity_chains(draw):
    hops = draw(st.integers(min_value=1, max_value=6))
    m = 3 * draw(st.integers(min_value=1, max_value=2))
    links = [
        LinkSpec(
            LinkModel(
                length_km=10.0,
                p_success=1.0,
                raw_fidelity=draw(st.floats(min_value=0.5, max_value=1.0)),
            ),
            n_fusiliers=m,
            m_fusilands=m,
        )
        for _ in range(hops)
    ]
    return NetworkConfig(
        nodes=[f"n{i}" for i in range(hops + 1)],
        links=links,
        strategy=draw(st.sampled_from(Strategy)),
        cycles=2,
    )


@settings(max_examples=100, deadline=None)
@given(_fidelity_chains())
@example(chain_config([10.0] * 3, n=3, m=3, fidelity=0.9, cycles=2))
def test_records_carry_the_summary_analytic_fidelity(cfg):
    # One closed form: three raw 0.9 hops give 0.756 in both places
    result = run_network(cfg)
    assert result.records
    analytic = summarize(result.records, cfg).analytic_end_fidelity
    assert {rec.pair.model_fidelity for rec in result.records} == {analytic}


class TestButterfly:
    def test_split_examples(self):
        assert butterfly_split(chain_config([10.0] * 4)) == 2
        assert butterfly_split(chain_config([10.0, 10.0, 40.0])) == 2
        assert butterfly_split(chain_config([10.0, 10.0])) == 1
        with pytest.raises(ConfigurationError):
            butterfly_split(chain_config([10.0]))

    def test_split_matches_exhaustive_scan(self):
        hops = [7.0, 13.0, 5.0, 21.0, 9.0]
        cfg = chain_config(hops)
        best = min(
            range(1, len(hops)),
            key=lambda i: abs(sum(hops[:i]) - sum(hops[i:])),
        )
        assert butterfly_split(cfg) == best

    def test_butterfly_preserves_error_sequence(self):
        base = dict(n=6, m=3, p=0.5, fidelity=0.9, cycles=250, seed=99)
        plain = run_network(chain_config([20.0] * 4, **base))
        butter = run_network(chain_config([20.0] * 4, butterfly=True, **base))
        key = lambda r: (r.cycle_id, r.slot, r.pair.x_error)
        assert [key(r) for r in plain.records] == [key(r) for r in butter.records]
        assert butter.split_index == 2

    def test_butterfly_frame_shares_compose_to_total(self):
        cfg = chain_config(
            [20.0] * 4, n=4, m=2, p=0.7, fidelity=0.9, cycles=60, seed=5, butterfly=True
        )
        result = run_network(cfg)
        assert any(result.left_frame_folds.values()), "left half produced records"
        for rec in result.records:
            left = result.left_frame_folds.get(
                (rec.cycle_id, rec.slot), IDENTITY_FRAME
            )
            assert rec.herald_correction.compose(left) == rec.pair.frame
            assert rec.correction == rec.pair.frame

    def test_left_records_arrive_one_relay_cycle_later(self):
        cfg = chain_config([20.0] * 4, cycles=10, butterfly=True, seed=3)
        result = run_network(cfg)
        schedule = result.schedule
        # the split is node 2, so only node 1 sends records leftward: its
        # cycle-c swap record rides cycle c+1's hop-0 return to node 0,
        # landing one link delay after that train ends at node 1
        relay_offset = schedule.herald_offsets_ns[1] + schedule.link_delays_ns[0]
        for rec in result.records[:-1]:
            assert rec.left_frame_available_at_ns == (
                (rec.cycle_id + 1) * schedule.cycle_period_ns + relay_offset
            )
        # the final cycle's record cannot relay before the run ends
        assert result.records[-1].left_frame_available_at_ns is None

    @pytest.mark.parametrize(
        "hops, split",
        [([20.0] * 6, 3), ([20.0] * 8, 4), ([10.0, 30.0, 20.0, 40.0, 20.0, 30.0], 3)],
        ids=["six_even_hops", "eight_even_hops", "six_uneven_hops"],
    )
    def test_multi_hop_relays_arrive_split_minus_one_cycles_later(self, hops, split):
        cycles = 12
        result = run_network(chain_config(hops, cycles=cycles, butterfly=True, seed=4))
        schedule = result.schedule
        assert result.split_index == split
        assert len(result.records) == cycles
        # node split-1's cycle-c record is relayed one hop per cycle and
        # reaches node 0 on cycle c+split-1's hop-0 return
        relay_offset = schedule.herald_offsets_ns[1] + schedule.link_delays_ns[0]
        for rec in result.records:
            arrival_cycle = rec.cycle_id + split - 1
            expected = None
            if arrival_cycle < cycles:
                expected = arrival_cycle * schedule.cycle_period_ns + relay_offset
            assert rec.left_frame_available_at_ns == expected


class TestFramePropagation:
    def test_herald_fold_equals_pair_frame(self):
        cfg = chain_config([15.0, 25.0, 35.0], n=4, m=2, p=0.6, fidelity=0.85, cycles=120, seed=77)
        result = run_network(cfg)
        assert result.records, "run produced pairs"
        for rec in result.records:
            assert rec.herald_correction == rec.correction == rec.pair.frame

    def test_correction_restores_observable_stream(self):
        cfg = chain_config([30.0, 30.0], n=4, m=2, p=0.9, fidelity=0.8, cycles=500, seed=6)
        result = run_network(cfg)
        for rec in result.records:
            observable = rec.pair.x_error ^ rec.pair.frame.x_bit
            assert observable ^ rec.correction.x_bit == rec.pair.x_error

    @pytest.mark.parametrize("drop", ["herald_bound", "left_bound"])
    @pytest.mark.parametrize("strategy, m", [(Strategy.RAW, 2), (Strategy.PURIFY3, 6)])
    def test_dropped_frame_record_moves_fidelity(self, monkeypatch, drop, strategy, m):
        # The split is node 2: node 3's records ride the herald right, node
        # 1's relay left to node 0. Losing either must show in the summary.
        cfg = chain_config(
            [20.0] * 4, n=9, m=m, p=0.8, fidelity=0.9, cycles=200, seed=5,
            strategy=strategy, butterfly=True,
        )
        intact = summarize(run_network(cfg).records, cfg)
        if drop == "herald_bound":
            herald_at = _ChainSimulation._herald_at

            def lossy(sim, node_id, cycle, frames):
                if node_id == 3:
                    sim.outboxes[3].clear()
                herald_at(sim, node_id, cycle, frames)

            monkeypatch.setattr(_ChainSimulation, "_herald_at", lossy)
        else:
            absorb = _ChainSimulation._absorb_leftbound

            def lossy(sim, records, at_ns):
                absorb(sim, [rec for rec in records if rec.node != 1], at_ns)

            monkeypatch.setattr(_ChainSimulation, "_absorb_leftbound", lossy)
        lost = summarize(run_network(cfg).records, cfg)
        stderr = math.hypot(intact.empirical_end_fidelity_stderr, lost.empirical_end_fidelity_stderr)
        assert abs(intact.empirical_end_fidelity - lost.empirical_end_fidelity) > 4 * stderr

    def test_missing_herald_share_raises(self, monkeypatch):
        monkeypatch.setattr(_ChainSimulation, "_deliver_frames", lambda sim, cycle, frames: None)
        with pytest.raises(ProtocolError, match=r"^no herald delivered the frame records of cycle 0$"):
            run_network(chain_config([20.0, 20.0], cycles=3))

    def test_stale_frame_record_raises(self, monkeypatch):
        # Node 1 keeps its cycle-0 record through herald 1, so herald 2
        # carries it to the right end a cycle late.
        herald_at = _ChainSimulation._herald_at

        def keep_outbox(sim, node_id, cycle, frames):
            if (node_id, cycle) != (1, 1):
                return herald_at(sim, node_id, cycle, frames)
            kept, sim.outboxes[1] = sim.outboxes[1], []
            herald_at(sim, node_id, cycle, frames)
            sim.outboxes[1][:0] = kept

        monkeypatch.setattr(_ChainSimulation, "_herald_at", keep_outbox)
        with pytest.raises(ProtocolError) as caught:
            run_network(chain_config([20.0, 20.0], cycles=3))
        assert str(caught.value) == "herald 2 picked up a stale frame record from cycle 0 at node 1"
        event = caught.value.event
        assert (event.kind, event.node, event.cycle) == (EventKind.HERALD_ARRIVE, 2, 2)


class TestDesynchronization:
    @pytest.mark.parametrize(
        "hops, extra",
        [
            # node 1 still awaits the return from its 40 km hop
            ([10.0, 40.0], {"cycle_period_ns": 150_000}),
            # node 1 is still inside its swap's proc_ns
            ([10.0, 10.0], {"proc_ns": 50_000, "cycle_period_ns": 120_000}),
        ],
        ids=["awaiting_return", "inside_swap"],
    )
    def test_short_override_aborts_naming_node(self, hops, extra):
        cfg = chain_config(hops, cycles=5, **extra)
        with pytest.warns(UserWarning):
            with pytest.raises(DesynchronizationError) as caught:
                run_network(cfg)
        assert str(caught.value) == "herald for cycle 1 overtook unfinished work at node 1"

    def test_boundary_tight_period_is_legal(self):
        # override equal to the safe bound runs cleanly
        cfg = chain_config([40.0], cycles=20, cycle_period_ns=400_000)
        result = run_network(cfg)
        assert len(result.records) == 20

    def test_determinism_same_seed_same_trace(self):
        cfg = chain_config([10.0, 30.0], n=4, m=2, p=0.5, cycles=40, seed=123)
        a = run_network(cfg, collect_trace=True)
        b = run_network(cfg, collect_trace=True)
        assert a.trace == b.trace
        assert [r.pair.x_error for r in a.records] == [
            r.pair.x_error for r in b.records
        ]


def test_simulation_allocates_nothing_per_cycle_up_front():
    # building a run allocates nothing per cycle, so the largest legal cycle
    # count fits in 1 MiB
    path = Path(__file__).resolve().parents[1] / "configs" / "two_node_40km.json"
    config = load_config(str(path)).network
    config.cycles = 2**32 - 1
    schedule = validate_config(config)
    tracemalloc.start()
    try:
        _ChainSimulation(config, schedule, None, False)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


_HOP_KM = (0.001, 0.01, 0.1, 1.0, 10.0, 25.0)


@st.composite
def _short_chains(draw):
    hops = draw(st.integers(min_value=1, max_value=5))
    strategy = draw(st.sampled_from(Strategy))
    bank = 3 if strategy is Strategy.PURIFY3 else 1
    links = [
        LinkSpec(
            LinkModel(
                length_km=draw(st.sampled_from(_HOP_KM)),
                p_success=draw(st.floats(min_value=0.2, max_value=1.0)),
                raw_fidelity=draw(st.floats(min_value=0.5, max_value=1.0)),
            ),
            n_fusiliers=draw(st.integers(min_value=1, max_value=12)),
            m_fusilands=bank * draw(st.integers(min_value=1, max_value=3)),
        )
        for _ in range(hops)
    ]
    return NetworkConfig(
        nodes=[f"n{i}" for i in range(hops + 1)],
        links=links,
        tau_slot_ns=draw(st.sampled_from((0, 1, 10))),
        proc_ns=draw(st.sampled_from((0, 40))),
        strategy=strategy,
        seed=draw(st.integers(min_value=0, max_value=2**32)),
        cycles=draw(st.integers(min_value=1, max_value=15)),
        butterfly=hops >= 2 and draw(st.booleans()),
    )


def _return_before_train(cfg):
    """The first intermediate node whose return precedes its train's end."""
    delays = [channel_delay_ns(link.model.length_km, cfg.signal_speed_m_per_s) for link in cfg.links]
    tau = cfg.tau_slot_ns
    for i in range(1, len(cfg.links)):
        return_ns = 2 * delays[i] + (cfg.links[i].n_fusiliers - 1) * tau
        if return_ns < (cfg.links[i - 1].n_fusiliers - 1) * tau:
            return i
    return None


@settings(max_examples=60, deadline=None)
@given(_short_chains())
def test_short_chain_properties(cfg):
    rejected = _return_before_train(cfg)
    if rejected is not None:
        with pytest.raises(ConfigurationError, match=rf"nodes\[{rejected}\]"):
            run_network(cfg)
        return
    result = run_network(cfg)
    traced = run_network(cfg, collect_trace=True)
    assert [asdict(r) for r in traced.records] == [asdict(r) for r in result.records]
    assert traced.hop_success_counts == result.hop_success_counts
    assert traced.left_frame_folds == result.left_frame_folds

    per_pair = 3 if cfg.strategy is Strategy.PURIFY3 else 1
    assert result.per_cycle_delivered == [
        min(counts[cycle] // per_pair for counts in result.hop_success_counts)
        for cycle in range(cfg.cycles)
    ]
    for rec in result.records:
        left = result.left_frame_folds.get((rec.cycle_id, rec.slot), IDENTITY_FRAME)
        assert rec.herald_correction.compose(left) == rec.pair.frame
        assert rec.correction == rec.pair.frame
        assert rec.frame_available_at_ns - rec.established_at_ns == result.schedule.cycle_period_ns
    if not cfg.butterfly:
        assert not result.left_frame_folds
        return
    # Node split-1's cycle-c swap record is the last of a pair's records to
    # reach node 0: it relays one hop per cycle and lands with cycle
    # c+split-1's hop-0 return, unless the run ended before that cycle.
    split, schedule = result.split_index, result.schedule
    hop0_return_ns = 2 * schedule.link_delays_ns[0] + (cfg.links[0].n_fusiliers - 1) * cfg.tau_slot_ns
    for rec in result.records:
        arrival_cycle = rec.cycle_id + split - 1
        if split == 1:
            expected = rec.frame_available_at_ns
        elif arrival_cycle >= cfg.cycles:
            expected = None
        else:
            expected = arrival_cycle * schedule.cycle_period_ns + hop0_return_ns
        assert rec.left_frame_available_at_ns == expected


def _check_train_trace(cfg):
    """A traced run's lines are each the sorted-key ``json.dumps`` of what
    they parse to, their keys strictly increase, and every signal train
    traces each of its n signals once, at (its arrival, the train's first
    seq + k)."""
    trains = []
    schedule = EventQueue.schedule

    def recording(queue, event, count=1):
        if event.kind is EventKind.SIGNAL_ARRIVE:
            trains.append((event, count))
        return schedule(queue, event, count)

    with mock.patch.object(EventQueue, "schedule", recording):
        result = run_network(cfg, collect_trace=True)
    for line in result.trace:
        assert line == json.dumps(json.loads(line), sort_keys=True) + "\n"
    records = trace_records(result.trace)
    keys = [(rec.t_ns, rec.seq) for rec in records]
    assert all(a < b for a, b in zip(keys, keys[1:]))

    signals = {(rec.t_ns, rec.seq): rec for rec in records if rec.kind == "SignalArrive"}
    sched = result.schedule
    assert len(trains) == cfg.cycles * len(cfg.links)
    for event, count in trains:
        link, cycle = event.node - 1, event.cycle
        assert count == cfg.links[link].n_fusiliers
        start_ns = (
            cycle * sched.cycle_period_ns
            + sched.herald_offsets_ns[link]
            + sched.link_delays_ns[link]
        )
        first = event.seq - count + 1
        for k in range(count):
            rec = signals.pop((start_ns + k * cfg.tau_slot_ns, first + k))
            assert rec.node == link + 1
            assert rec.detail.startswith(f"cycle={cycle} fusilier={k} ")
    assert not signals


@pytest.mark.parametrize("tau_slot_ns, seed", [(9, 16), (0, 17)], ids=["tau9", "tau0"])
def test_overlapping_trains_trace_each_signal_at_its_key(tau_slot_ns, seed):
    # The overlapping_trains golden cases: trains that overlap heralds,
    # returns and the neighbouring hops' trains.
    cfg = chain_config(
        [0.002, 0.001, 0.003], n=6, m=3, p=0.6, fidelity=0.9, cycles=30, seed=seed,
        tau_slot_ns=tau_slot_ns, proc_ns=4, butterfly=True,
    )
    _check_train_trace(cfg)


@settings(max_examples=40, deadline=None)
@given(_short_chains())
def test_short_chain_trace_each_signal_at_its_key(cfg):
    if _return_before_train(cfg) is None:
        _check_train_trace(cfg)


# A chain whose trains draw 73 values a key, above BATCH_MAX_DRAWS, and whose
# swaps draw at most 6, below it: one run takes both draw paths.
MIXED_DRAWS_CHAIN = {
    "links": [_link(km, 70, 3, p_success=0.3, raw_fidelity=0.9) for km in (10.0, 20.0, 15.0)],
    "seed": 21,
    "cycles": 40,
}

# Every key drawn natively; every key batched; blocks of one cycle each.
DRAW_PATHS = {
    "native": ("BATCH_MAX_DRAWS", 0),
    "batched": ("BATCH_MAX_DRAWS", MAX_TRAIN_DRAWS),
    "one_cycle_blocks": ("BLOCK_MAX_VALUES", 1),
}


@pytest.mark.parametrize("case", sorted(CASES) + ["mixed_draws"])
def test_draw_paths_give_identical_output(case, tmp_path, monkeypatch):
    # Which keys the kernel draws, and how many cycles a block holds, must
    # not move a bit of output: records, counts, left folds and trace bytes
    # agree across the paths, and with the pinned digests.
    network = MIXED_DRAWS_CHAIN if case == "mixed_draws" else CASES[case]
    digests = {}
    for path, (name, value) in DRAW_PATHS.items():
        native_keys, block_cycles = [], []
        draws, kernel = RngStream.draws, network_module.pcg64_random

        def native(stream, row, count):
            native_keys.append(count)
            return draws(stream, row, count)

        def batched(rows, count):
            block_cycles.append(rows.shape[0])
            return kernel(rows, count)

        with monkeypatch.context() as patch:
            patch.setattr(network_module, name, value)
            patch.setattr(RngStream, "draws", native)
            patch.setattr(network_module, "pcg64_random", batched)
            (tmp_path / path).mkdir()
            result, trace_bytes = _simulate(tmp_path / path, patch, network)
        digests[path] = _digests(result, trace_bytes)
        if path == "native":
            assert native_keys and not block_cycles
        elif path == "batched":
            assert block_cycles and not native_keys
        else:
            assert set(block_cycles) == {1}
            assert bool(native_keys) is (case == "mixed_draws")
    assert digests["batched"] == digests["native"]
    assert digests["one_cycle_blocks"] == digests["native"]
    if case in EXPECTED:
        assert digests["native"] == EXPECTED[case]

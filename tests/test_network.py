"""Chain orchestration: schedules, sweeps, purification, butterfly, frames."""

import gc
import heapq
import itertools
import json
import math
import re
import time
import tracemalloc
import warnings
import weakref
from collections import Counter
from dataclasses import asdict, replace
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fusenet import engine as engine_module
from fusenet import network as network_module
from fusenet.config import load_config, parse_config
from fusenet.engine import KeyedDraws, channel_delay_ns
from fusenet.errors import ConfigurationError, DesynchronizationError, ProtocolError
from fusenet.metrics import SummaryStats, rate_model, summarize
from fusenet.network import (
    MAX_TRAIN_DRAWS,
    LinkSpec,
    NetworkConfig,
    Strategy,
    _CycleRecords,
    _key_draws,
    analytic_end_to_end_fidelity,
    butterfly_split,
    run_network,
    validate_config,
)
from fusenet.pair_algebra import (
    FRAMES,
    IDENTITY_FRAME,
    LinkModel,
    chain_fidelity,
    failure_prob_multi,
    purify3_analytic,
)

from conftest import chain_config, deadline, philox4x32_reference, trace_records
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
        # a cycle is one 32-bit word of its keyed draws' Philox counter
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
    _check_records_match_the_traced_signals(cfg)


@pytest.mark.parametrize("strategy", [Strategy.RAW, Strategy.PURIFY3])
def test_record_times_past_int64_stay_exact(strategy):
    # A slot time of 2**62 ns puts a train's end, and the period, past
    # int64: creation times are still exact integers.
    cfg = chain_config(
        [20.0, 30.0, 10.0], n=9, m=6, p=0.8, fidelity=0.9, cycles=5, seed=6,
        strategy=strategy, tau_slot_ns=2**62,
    )
    _check_records_match_the_traced_signals(cfg)


def _check_records_match_the_traced_signals(cfg):
    strategy = cfg.strategy
    result = run_network(cfg, collect_trace=True)
    filled = {}  # (hop, cycle, hop slot) -> (fusilier, arrival)
    for rec in trace_records(result.trace):
        match = re.fullmatch(r"cycle=(\d+) fusilier=(\d+) success slot=(\d+)", rec.detail)
        if rec.kind == "SignalArrive" and match:
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

    @pytest.mark.parametrize(
        "hops, split, cycles, seed",
        [
            ([20.0] * 4, 2, 10, 3),
            ([20.0] * 6, 3, 12, 4),
            ([20.0] * 8, 4, 12, 4),
            ([10.0, 30.0, 20.0, 40.0, 20.0, 30.0], 3, 12, 4),
        ],
        ids=["four_even_hops", "six_even_hops", "eight_even_hops", "six_uneven_hops"],
    )
    def test_left_share_due_split_minus_one_cycles_later(self, hops, split, cycles, seed):
        result = run_network(chain_config(hops, cycles=cycles, butterfly=True, seed=seed))
        schedule = result.schedule
        assert result.split_index == split
        assert len(result.records) == cycles
        # node split-1's cycle-c record moves one hop left per cycle and
        # reaches node 0 on cycle c+split-1's hop-0 return, one link delay
        # after that cycle's train ends at node 1
        return_offset = schedule.herald_offsets_ns[1] + schedule.link_delays_ns[0]
        for rec in result.records:
            arrival_cycle = rec.cycle_id + split - 1
            expected = None
            if arrival_cycle < cycles:
                expected = arrival_cycle * schedule.cycle_period_ns + return_offset
            assert rec.left_frame_available_at_ns == expected
        # the final cycle's left share is not in before the run ends
        assert result.records[-1].left_frame_available_at_ns is None


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
        # The split is node 2: node 3's frames fold into the herald share,
        # node 1's into the left share. Losing either from its fold must show
        # in the summary and leave the other share as it was.
        cfg = chain_config(
            [20.0] * 4, n=9, m=m, p=0.8, fidelity=0.9, cycles=200, seed=5,
            strategy=strategy, butterfly=True,
        )
        intact = run_network(cfg)
        dropped = 3 if drop == "herald_bound" else 1
        fold = network_module._fold_shares

        def lossy(frames, left_nodes, width):
            # Node i's frames are at [:, i - 1] of each kind's array; index 0
            # is the identity frame, which folds to nothing.
            frames = [(index.copy(), count) for index, count in frames]
            for index, _ in frames:
                index[:, dropped - 1] = 0
            return fold(frames, left_nodes, width)

        monkeypatch.setattr(network_module, "_fold_shares", lossy)
        lost = run_network(cfg)
        if drop == "herald_bound":
            assert lost.left_frame_folds == intact.left_frame_folds
        else:
            herald = lambda result: [rec.herald_correction for rec in result.records]
            assert herald(lost) == herald(intact)
        before, after = summarize(intact.records, cfg), summarize(lost.records, cfg)
        assert (before, after) == (_summary_oracle(intact.records, cfg), _summary_oracle(lost.records, cfg))
        stderr = math.hypot(before.empirical_end_fidelity_stderr, after.empirical_end_fidelity_stderr)
        assert abs(before.empirical_end_fidelity - after.empirical_end_fidelity) > 4 * stderr


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
    # building a run, traced or not, allocates nothing per cycle, so the
    # largest legal cycle count fits in 1 MiB
    path = Path(__file__).resolve().parents[1] / "configs" / "two_node_40km.json"
    config = load_config(str(path)).network
    config.cycles = 2**32 - 1
    schedule = validate_config(config)
    for collect_trace in (False, True):
        tracemalloc.start()
        try:
            _CycleRecords(config, schedule, None, collect_trace)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20


@pytest.mark.parametrize("collect_trace", [False, True], ids=["untraced", "traced"])
def test_a_finished_run_is_freed_at_once(collect_trace):
    # A finished run holds no reference cycle, so its records and trace go
    # as soon as the caller drops it, not at the cyclic collector's next
    # full pass.
    cfg = chain_config([10.0, 20.0], n=6, m=3, p=0.5, cycles=70, seed=4)
    gc.disable()
    try:
        run = _CycleRecords(cfg, validate_config(cfg), None, collect_trace)
        assert bool(run.loop(False).trace) is collect_trace
        gone = weakref.ref(run)
        del run
        assert gone() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("collect_trace", [False, True], ids=["untraced", "traced"])
def test_desync_at_the_largest_cycle_count_raises_at_once(collect_trace):
    # The verdict keeps nothing per cycle and stops as soon as no later
    # cycle can hold an earlier violation, so the largest legal cycle count
    # costs two cycles here.
    cfg = chain_config([10.0, 40.0], cycles=2**32 - 1, cycle_period_ns=150_000)
    with deadline(5), pytest.warns(UserWarning):
        with pytest.raises(DesynchronizationError) as caught:
            run_network(cfg, collect_trace=collect_trace)
    assert str(caught.value) == "herald for cycle 1 overtook unfinished work at node 1"


def test_long_short_train_chain_holds_few_draws():
    # A 100-hop chain of 10 km hops has about 50 cycles in flight, and the
    # batched kernel draws every one of its keys. A cycle's keys are all
    # drawn as it starts, so a cycle in flight holds its outcome and no
    # draws, and the peak stays below 4.5 MiB (about 2 MiB); held for every
    # cycle in flight as lists of floats, 32 bytes a value, the draws alone
    # would take about 4 MiB.
    cfg = chain_config(
        [10.0] * 100, n=17, m=3, p=0.25, fidelity=0.98, cycles=120, seed=3, tau_slot_ns=10
    )
    tracemalloc.start()
    try:
        run_network(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4.5 * 2**20


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


def _safe_bound(cfg):
    return network_module._safe_period_ns(cfg, validate_config(cfg).link_delays_ns)


@st.composite
def _short_chains_with_periods(draw):
    """A ``_short_chains`` config run at the computed period, exactly at the
    safe bound, 1 ns to a few slot times above it, or below it down to about
    half of it."""
    cfg = draw(_short_chains())
    if _return_before_train(cfg) is None:
        bound = _safe_bound(cfg)
        cfg.cycle_period_ns = draw(st.one_of(
            st.none(),
            st.just(bound),
            st.integers(bound + 1, bound + 3 * max(cfg.tau_slot_ns, 1)),
            st.integers(max(bound // 2, 1), bound - 1),
        ))
    return cfg


def _uneven_purify_butterfly(lengths_km, m_fusilands):
    """A purify3 butterfly chain at p = 1: hop i keeps ``m_fusilands[i] // 3``
    trios every cycle."""
    cfg = chain_config(
        lengths_km, n=9, m=3, p=1.0, fidelity=0.9, cycles=6, seed=11,
        strategy=Strategy.PURIFY3, butterfly=True, tau_slot_ns=10,
    )
    cfg.links = [replace(link, m_fusilands=m) for link, m in zip(cfg.links, m_fusilands)]
    return cfg


def _without_trace(result):
    fields = asdict(result)
    del fields["trace"]
    return fields


@settings(max_examples=60, deadline=None)
@given(_short_chains_with_periods())
# Split 2 and 3, where node 1's purification record (hop 0's trios)
# outcounts every left-bound swap record, the last one included.
@example(_uneven_purify_butterfly([10.0, 10.0, 25.0], [6, 3, 3]))
@example(_uneven_purify_butterfly([10.0, 10.0, 10.0, 25.0], [9, 6, 3, 3]))
def test_short_chain_properties(cfg):
    rejected = _return_before_train(cfg)
    if rejected is not None:
        with pytest.raises(ConfigurationError, match=rf"nodes\[{rejected}\]"):
            run_network(cfg)
        return
    # Traced or not, the run gives the same result, the trace aside, and
    # below the bound the same desynchronization.
    below = validate_config(cfg).cycle_period_ns < _safe_bound(cfg)
    runs = []
    for collect_trace in (False, True):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                runs.append(run_network(cfg, collect_trace=collect_trace))
            except DesynchronizationError as exc:
                runs.append(str(exc))
        assert len(caught) == below
    result, traced = runs
    if isinstance(result, str) or isinstance(traced, str):
        assert below and result == traced
        return
    assert result.trace == []
    assert _without_trace(result) == _without_trace(traced)

    per_pair = 3 if cfg.strategy is Strategy.PURIFY3 else 1
    assert result.per_cycle_delivered == [
        min(counts[cycle] // per_pair for counts in result.hop_success_counts)
        for cycle in range(cfg.cycles)
    ]
    for rec in result.records:
        assert rec.correction == rec.pair.frame
        assert rec.frame_available_at_ns - rec.established_at_ns == result.schedule.cycle_period_ns
    if not cfg.butterfly:
        assert not result.left_frame_folds
        return
    # Node split-1's cycle-c swap record is the last of a pair's records to
    # reach node 0: it moves one hop per cycle and lands with cycle
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
    # A cycle's left folds cover the slots of its largest left-bound record:
    # node i's purification (hop i-1's trios) and swaps (the pairs both its
    # hops kept), for 1 <= i < split.
    counts = result.hop_success_counts
    for cycle in range(cfg.cycles):
        kept = [hop[cycle] // per_pair for hop in counts]
        largest = max(
            [kept[i - 1] for i in range(1, split) if per_pair == 3]
            + [min(kept[i - 1], kept[i]) for i in range(1, split)],
            default=0,
        )
        slots = sorted(slot for c, slot in result.left_frame_folds if c == cycle)
        assert slots == list(range(largest))


def _view_cases():
    """A raw and a purify3 chain, each with and without the butterfly split."""
    return [
        chain_config(
            [10.0, 25.0, 10.0], n=9, m=m, p=0.7, fidelity=0.9, cycles=12, seed=21,
            strategy=strategy, butterfly=butterfly, tau_slot_ns=10,
        )
        for strategy, m in ((Strategy.RAW, 3), (Strategy.PURIFY3, 6))
        for butterfly in (False, True)
    ]


@settings(max_examples=40, deadline=None)
@given(_short_chains())
@example(_view_cases()[0])
@example(_view_cases()[1])
@example(_view_cases()[2])
@example(_view_cases()[3])
def test_records_view_reads_like_a_list(cfg):
    # RunResult.records builds each record as it is read; indexing,
    # slicing, iteration and equality agree with the list it builds.
    if _return_before_train(cfg) is not None:
        return
    result = run_network(cfg)
    view, records = result.records, list(result.records)
    assert len(view) == len(records) and bool(view) == bool(records)
    assert list(view) == records
    assert view == records and records == view
    assert view != records + [None]
    for key in (slice(None), slice(1, 4), slice(-3, None), slice(None, None, 2), slice(None, None, -1)):
        assert view[key] == records[key]
    if records:
        assert (view[0], view[-1], view[-len(view)]) == (records[0], records[-1], records[0])
    with pytest.raises(IndexError):
        view[len(view)]
    # Iterated in pieces of two records, the records are the same.
    with mock.patch.object(network_module, "_CHUNK", 2):
        assert list(view) == records
    traced = run_network(cfg, collect_trace=True)
    assert traced.records == view
    assert _without_trace(traced) == _without_trace(result)


def test_simulate_path_builds_no_record(monkeypatch):
    # run_network and summarize build no per-pair object, traced or not;
    # reading the records builds one EndToEndRecord and one PairRecord each.
    built = Counter()
    for name in ("EndToEndRecord", "PairRecord"):
        def counting(*args, _make=getattr(network_module, name), _name=name):
            built[_name] += 1
            return _make(*args)

        monkeypatch.setattr(network_module, name, counting)
    cfg = _view_cases()[3]
    for collect_trace in (False, True):
        result = run_network(cfg, collect_trace=collect_trace)
        summarize(result.records, cfg)
        assert not built
    assert len(list(result.records)) == len(result.records) > 0
    assert built == {"EndToEndRecord": len(result.records), "PairRecord": len(result.records)}


def _summary_oracle(records, cfg):
    """``summarize`` as a loop over built records: the reference for its
    fold of the columns."""
    schedule = validate_config(cfg)
    period_ns = schedule.cycle_period_ns
    records = list(records)
    pairs_total = len(records)
    delivered_per_cycle = [0] * cfg.cycles
    corrected_errors = 0
    latency_sum = 0.0
    for record in records:
        delivered_per_cycle[record.cycle_id] += 1
        observable = record.pair.x_error ^ record.pair.frame.x_bit
        corrected_errors += observable ^ record.correction.x_bit
        latency_sum += (record.frame_available_at_ns - record.established_at_ns) / period_ns
    fidelity = stderr = None
    if pairs_total:
        error_rate = corrected_errors / pairs_total
        fidelity = 1.0 - error_rate
        stderr = math.sqrt(error_rate * (1.0 - error_rate) / pairs_total)
    return SummaryStats(
        pairs_total=pairs_total,
        pairs_per_second=pairs_total / cfg.cycles * (1e9 / period_ns),
        empirical_end_fidelity=fidelity,
        empirical_end_fidelity_stderr=stderr,
        analytic_end_fidelity=analytic_end_to_end_fidelity(cfg),
        cycle_period_s=schedule.cycle_period_s,
        failure_cycles=sum(1 for count in delivered_per_cycle if count < schedule.links_per_cycle),
        frame_latency_cycles=(latency_sum / pairs_total) if pairs_total else None,
        cycles=cfg.cycles,
        links_per_cycle=schedule.links_per_cycle,
    )


@settings(max_examples=60, deadline=None)
@given(_short_chains_with_periods())
def test_summary_equals_a_loop_over_the_records(cfg):
    # Below the bound too, every run that finishes summarizes as the loop does.
    if _return_before_train(cfg) is not None:
        return
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            result = run_network(cfg)
        except DesynchronizationError:
            return
    assert summarize(result.records, cfg) == _summary_oracle(result.records, cfg)

def _reference_desync(cfg):
    """The error text of the first desynchronization an event loop meets on
    ``cfg``, or None, and the events it dispatched.

    The test's reference for ``_CycleRecords._desync_error``: a heap of
    ``(t_ns, seq, kind, node, cycle)``, each event scheduled by its cause
    under the next seq, with each node's bank checks made on an event
    before it is handled. A cycle starts at node 0 at ``cycle * period``,
    the first one at 0 and each later one scheduled by node 0's return of
    the cycle before; a herald at node i schedules the next node's herald,
    one delay on, then, unless it is a frame-flush sweep, the train it
    fires, due at its last signal; a train its return, one delay on; a
    return its swap, ``proc_ns`` on, if the node swapped. Which nodes
    swapped comes from the keyed draws alone, so from the run at the
    computed period.

    A herald readies the fusilands (any node but 0) and fires the fusillade
    (any node but the last), unless it is a frame-flush sweep; it must
    carry the node's next cycle, and it overtakes if either bank is still
    waiting or the node is still inside a swap, ``proc_ns`` from the return
    that started it. A train needs readied fusilands, a return a fired
    fusillade whose own train is in; node 0's return must come by the next
    cycle's start.
    """
    schedule = validate_config(cfg)
    period, delays, tau = schedule.cycle_period_ns, schedule.link_delays_ns, cfg.tau_slot_ns
    last, cycles = len(cfg.links), cfg.cycles
    per_pair = 3 if cfg.strategy is Strategy.PURIFY3 else 1
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        counts = run_network(replace(cfg, cycle_period_ns=None)).hop_success_counts
    kept = [[count // per_pair for count in hop] for hop in counts]
    fired, ready = [False] * (last + 1), [False] * (last + 1)
    current, busy_until = [-1] * (last + 1), [0] * (last + 1)
    heap, dispatched, seqs = [], [], itertools.count()

    def schedule_event(t_ns, kind, node, cycle):
        heapq.heappush(heap, (t_ns, next(seqs), kind, node, cycle))

    def check(t_ns, kind, node, cycle):
        if kind in ("CycleStart", "HeraldArrive"):
            if cycle != current[node] + 1:
                raise DesynchronizationError(
                    f"node {node} expected cycle {current[node] + 1}, herald carries cycle {cycle}"
                )
            if fired[node] or ready[node] or t_ns < busy_until[node]:
                raise DesynchronizationError(
                    f"herald for cycle {cycle} overtook unfinished work at node {node}"
                )
            current[node] = cycle
            if cycle < cycles:
                ready[node], fired[node] = node > 0, node < last
        elif kind == "SignalArrive":
            if not ready[node]:
                raise ProtocolError(f"node {node} got a train at idle fusilands")
            ready[node] = False
        elif kind == "ReturnArrive":
            if cycle != current[node] or not fired[node] or ready[node]:
                raise ProtocolError(f"node {node} got an unexpected return for cycle {cycle}")
            fired[node] = False
            if node == 0 and (cycle + 1) * period < t_ns:
                raise DesynchronizationError(
                    f"herald for cycle {cycle + 1} was due at {(cycle + 1) * period} ns "
                    f"but node 0 finished cycle {cycle} only at {t_ns} ns"
                )

    schedule_event(0, "CycleStart", 0, 0)
    try:
        while heap:
            t_ns, _seq, kind, node, cycle = event = heapq.heappop(heap)
            check(t_ns, kind, node, cycle)
            dispatched.append(event)
            if kind in ("CycleStart", "HeraldArrive") and node < last:
                schedule_event(t_ns + delays[node], "HeraldArrive", node + 1, cycle)
                if cycle < cycles:
                    end_ns = t_ns + delays[node] + (cfg.links[node].n_fusiliers - 1) * tau
                    schedule_event(end_ns, "SignalArrive", node + 1, cycle)
            elif kind == "SignalArrive":
                schedule_event(t_ns + delays[node - 1], "ReturnArrive", node - 1, cycle)
            elif kind == "ReturnArrive":
                if node and min(kept[node - 1][cycle], kept[node][cycle]):
                    busy_until[node] = t_ns + cfg.proc_ns
                    schedule_event(busy_until[node], "SwapComplete", node, cycle)
                if node == 0:
                    schedule_event((cycle + 1) * period, "CycleStart", 0, cycle + 1)
    except DesynchronizationError as exc:
        return str(exc), dispatched
    return None, dispatched


@st.composite
def _short_chains_below_bound(draw):
    """A ``_short_chains`` config with ``proc_ns`` 0, 40 or 1000, run at a
    period from about half the safe bound to the bound."""
    cfg = draw(_short_chains())
    cfg.proc_ns = draw(st.sampled_from((0, 40, 1000)))
    if _return_before_train(cfg) is None:
        bound = _safe_bound(cfg)
        cfg.cycle_period_ns = draw(st.integers(max(bound // 2, 1), bound))
    return cfg


@st.composite
def _short_chains_at_herald_ties(draw):
    """A ``_short_chains_below_bound`` config whose period is solved for an
    exact time tie: herald c + 1 at node i with node i's return of cycle c,
    that return plus ``proc_ns``, or the end of node i's incoming train (at
    node 0, the next cycle's start with its return); or herald c + k at
    node i with herald c + 1 at node j, for k in 2..3."""
    cfg = draw(_short_chains_below_bound())
    if _return_before_train(cfg) is not None:
        return cfg
    schedule = validate_config(cfg)
    delays, offsets, tau = schedule.link_delays_ns, schedule.herald_offsets_ns, cfg.tau_slot_ns
    node = draw(st.integers(0, len(cfg.links)))
    gaps = []
    if node < len(cfg.links):
        returned = 2 * delays[node] + (cfg.links[node].n_fusiliers - 1) * tau
        gaps += [returned, returned + cfg.proc_ns]
    if node:
        gaps.append((cfg.links[node - 1].n_fusiliers - 1) * tau)
    ahead = draw(st.integers(2, 3))
    gaps += [
        (offsets[other] - offsets[node]) // (ahead - 1)
        for other in range(node + 1, len(offsets))
        if (offsets[other] - offsets[node]) % (ahead - 1) == 0
    ]
    period = draw(st.sampled_from(gaps))
    if period > 0:
        cfg.cycle_period_ns = period
    return cfg


def _tied_chain(lengths_km, trains, tau_slot_ns, cycle_period_ns):
    """A raw chain at p = 1 whose hop i fires ``trains[i]`` signals."""
    cfg = chain_config(
        lengths_km, m=1, cycles=4, tau_slot_ns=tau_slot_ns, cycle_period_ns=cycle_period_ns
    )
    cfg.links = [replace(link, n_fusiliers=n) for link, n in zip(cfg.links, trains)]
    return cfg


@settings(max_examples=150, deadline=None)
@given(st.one_of(_short_chains_below_bound(), _short_chains_at_herald_ties()))
# Herald 1 reaches node 2 (delays 5, 10, 5 ns) at 75 ns, as its return of
# cycle 0 does; its parent, herald 1 at node 1, is due 5 ns before that
# return's, the train into node 3, so the herald goes first and overtakes.
@example(_tied_chain([0.001, 0.002, 0.001], [2, 1, 7], 10, 70))
# Three equal hops and no train time, at a period of one of their round
# trips: herald c + 1 ties node i's return, and so do their parents for i
# levels up, until node 0's return (the next start's parent) comes after
# herald c at node 1. So the returns go first, and it is the long fourth
# hop's node 3 that is overtaken.
@example(_tied_chain([0.002, 0.002, 0.002, 0.01], [3] * 4, 0, 20))
# Delays 5, 5, 2.5, 5, 7.5 and 5 us, no train time, period 2 d0 + d2 =
# 12.5 us. Herald 1 overtakes node 4, whose return comes 2 d4 = 15 us after
# herald 0. Herald 2 reaches node 1 at the same 30 us, inside node 1's
# cycle-1 swap (proc_ns 5 us); seed 4 has node 1 swap in cycle 1 and
# neither node 1 nor node 3 in cycle 0. The two heralds' causes tie, step
# by step, up to herald 1 at node 1 and the train it leads into node 1
# (via herald 2 at node 0 and node 0's return of cycle 1): the herald goes
# before that train, so node 4's overtaking is the first.
@example(chain_config(
    [1.0, 1.0, 0.5, 1.0, 1.5, 1.0], p=0.5, cycles=3, seed=4, proc_ns=5000, cycle_period_ns=12500
))
def test_desync_verdict_equals_the_timeline_bank_checks(cfg):
    # The verdict decided from the schedule and each cycle's swaps, traced
    # or not, is the error the bank checks meet on the reference event
    # loop, text included. A run they pass traces every event the loop
    # dispatched but its signal trains, each at its time, node and cycle.
    if _return_before_train(cfg) is not None:
        return
    expected, dispatched = _reference_desync(cfg)
    runs = []
    for collect_trace in (False, True):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                runs.append(run_network(cfg, collect_trace=collect_trace))
            except DesynchronizationError as exc:
                assert str(exc) == expected
                continue
        assert expected is None
    if expected is not None:
        return
    result, traced = runs
    assert _without_trace(result) == _without_trace(traced)
    lines = Counter(
        (rec.t_ns, rec.kind, rec.node, int(re.match(r"cycle=(\d+)", rec.detail)[1]))
        for rec in trace_records(traced.trace)
        if rec.kind not in ("SignalArrive", "PairReady")
    )
    assert lines == Counter(
        (t_ns, kind, node, cycle)
        for t_ns, _seq, kind, node, cycle in dispatched
        if kind != "SignalArrive"
    )


def _check_train_trace(cfg):
    """A traced run's lines are each the sorted-key ``json.dumps`` of what
    they parse to, each line's ``seq`` is its index, and every signal train
    traces each of its n signals once, signal k at the train's start plus
    k slot times."""
    result = run_network(cfg, collect_trace=True)
    for line in result.trace:
        assert line == json.dumps(json.loads(line), sort_keys=True) + "\n"
    records = trace_records(result.trace)
    assert [rec.seq for rec in records] == list(range(len(records)))
    signals = Counter()
    for rec in records:
        if rec.kind == "SignalArrive":
            cycle, fusilier = map(int, re.match(r"cycle=(\d+) fusilier=(\d+) ", rec.detail).groups())
            signals[rec.node, cycle, fusilier, rec.t_ns] += 1
    sched = result.schedule
    assert signals == Counter(
        (
            hop + 1, cycle, k,
            cycle * sched.cycle_period_ns + sched.herald_offsets_ns[hop + 1] + k * cfg.tau_slot_ns,
        )
        for cycle in range(cfg.cycles)
        for hop, link in enumerate(cfg.links)
        for k in range(link.n_fusiliers)
    )


# The trace kinds by their rank in the line order.
_KIND_RANKS = {
    kind: rank for rank, kind in enumerate(
        ("CycleStart", "HeraldArrive", "SignalArrive", "ReturnArrive", "SwapComplete", "PairReady")
    )
}


@st.composite
def _trace_chains(draw):
    """A ``_short_chains`` config in which some hops may be 0 ns long
    (1e-5 km rounds to 0 ns), run at the computed period, at a period
    below the bound, or, when the bound is 0 ns, at a period of 1 to 10 ns."""
    cfg = draw(_short_chains())
    zero = draw(st.lists(st.booleans(), min_size=len(cfg.links), max_size=len(cfg.links)))
    cfg.links = [
        replace(link, model=replace(link.model, length_km=1e-5)) if flat else link
        for link, flat in zip(cfg.links, zero)
    ]
    delays = [channel_delay_ns(link.model.length_km, cfg.signal_speed_m_per_s) for link in cfg.links]
    bound = network_module._safe_period_ns(cfg, delays)
    if bound == 0:
        # Every event of a cycle falls at its start: any period is in step.
        cfg.cycle_period_ns = draw(st.integers(1, 10))
    elif _return_before_train(cfg) is None:
        # Below the bound by up to a slot time plus proc_ns, where a
        # run often stays in step, or by up to half of it.
        near = max(bound - cfg.tau_slot_ns - cfg.proc_ns, 1)
        cfg.cycle_period_ns = draw(st.one_of(
            st.none(), st.integers(near, bound), st.integers(max(bound // 2, 1), bound)
        ))
    return cfg


@settings(max_examples=150, deadline=None)
@given(_trace_chains())
# Every hop 0 ns long and no train time: each cycle's events all fall at
# its start, and its pairs are ready there too.
@example(chain_config([1e-5, 1e-5], n=3, m=2, cycles=3, proc_ns=40))
def test_trace_lines_follow_the_order_key(cfg):
    # A traced run that stays in step numbers its lines by their place in
    # the order (t_ns, cycle, kind rank, node, index), and every line comes
    # after the one that caused it.
    if _return_before_train(cfg) is not None:
        return
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            result = run_network(cfg, collect_trace=True)
        except DesynchronizationError:
            return
    records = trace_records(result.trace)
    assert [rec.seq for rec in records] == list(range(len(records)))
    at, keys = {}, []
    for rec in records:
        # The index is a signal's fusilier, a pair's slot, or 0.
        cycle, fusilier, slot = re.match(r"cycle=(\d+)(?: fusilier=(\d+)| slot=(\d+))?", rec.detail).groups()
        cycle, index = int(cycle), int(fusilier or slot or 0)
        keys.append((rec.t_ns, cycle, _KIND_RANKS[rec.kind], rec.node, index))
        at[rec.kind, rec.node, cycle, index] = rec.seq
    assert all(a < b for a, b in zip(keys, keys[1:]))
    last = len(cfg.links)
    for cycle in range(cfg.cycles + 1):
        # The cycle's herald at every node, its start at node 0's.
        sweep = [at["CycleStart", 0, cycle, 0]] + [
            at["HeraldArrive", node, cycle, 0] for node in range(1, last + 1)
        ]
        assert sweep == sorted(sweep)
        if cycle == cfg.cycles:
            break
        assert at["ReturnArrive", 0, cycle, 0] < at["CycleStart", 0, cycle + 1, 0]
        finishers = []
        for hop, link in enumerate(cfg.links):
            first = at["SignalArrive", hop + 1, cycle, 0]
            assert sweep[hop] < first and sweep[hop + 1] < first
            end = at["SignalArrive", hop + 1, cycle, link.n_fusiliers - 1]
            returned = at["ReturnArrive", hop, cycle, 0]
            assert end < returned
            swapped = at.get(("SwapComplete", hop, cycle, 0))
            assert swapped is None or returned < swapped
            finishers.append(returned if swapped is None else swapped)
        finishers.append(end)
        # Every pair is ready after, and at the time of, its cycle's last finish.
        ready = [at["PairReady", last, cycle, slot] for slot in range(result.per_cycle_delivered[cycle])]
        assert all(max(finishers) < seq for seq in ready)
        assert {records[seq].t_ns for seq in ready} <= {max(records[seq].t_ns for seq in finishers)}


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


# A chain whose trains draw 73 values a key and whose swaps draw at most 6:
# counts that are not multiples of Philox's four words, in both domains.
MIXED_DRAWS_CHAIN = {
    "links": [_link(km, 70, 3, p_success=0.3, raw_fidelity=0.9) for km in (10.0, 20.0, 15.0)],
    "seed": 21,
    "cycles": 40,
}

def _scalar_philox(counter, key):
    """``engine.philox4x32`` computed lane by lane by the scalar reference."""
    lanes = np.broadcast_arrays(*(np.asarray(c, np.uint32) for c in counter))
    words = [np.empty(lanes[0].shape, np.uint32) for _ in range(4)]
    for at in np.ndindex(lanes[0].shape):
        for word, value in zip(words, philox4x32_reference([int(c[at]) for c in lanes], key)):
            word[at] = value
    return tuple(words)


# The run's own Philox and block bound; every word from the scalar
# reference; blocks of one cycle each.
DRAW_PATHS = {
    "vectorized": {},
    "scalar_reference": {"philox4x32": _scalar_philox},
    "one_cycle_blocks": {"BLOCK_MAX_VALUES": 1},
}


@pytest.mark.parametrize("case", sorted(CASES) + ["mixed_draws"])
def test_draw_paths_give_identical_output(case, tmp_path, monkeypatch):
    # How the words are computed, array-wise or lane by lane from the
    # specification, and how many cycles a block holds, must not move a bit
    # of output: records, counts, left folds and trace bytes agree across
    # the paths, and with the pinned digests. On every path the untraced
    # run returns the traced run's result, the trace aside.
    network = MIXED_DRAWS_CHAIN if case == "mixed_draws" else CASES[case]
    digests = {}
    for path, patches in DRAW_PATHS.items():
        lengths, blocks = set(), KeyedDraws.blocks

        def recording(keyed):
            for cycles, tests in blocks(keyed):
                lengths.add(len(cycles))
                yield cycles, tests

        with monkeypatch.context() as patch:
            for name, value in patches.items():
                patch.setattr(engine_module, name, value)
            patch.setattr(KeyedDraws, "blocks", recording)
            (tmp_path / path).mkdir()
            result, trace_bytes = _simulate(tmp_path / path, patch, network)
            untraced = run_network(load_config(str(tmp_path / path / "config.json")).network)
        assert _without_trace(untraced) == _without_trace(result)
        digests[path] = _digests(result, trace_bytes)
        if path == "one_cycle_blocks":
            assert lengths == {1}
    assert digests["scalar_reference"] == digests["vectorized"]
    assert digests["one_cycle_blocks"] == digests["vectorized"]
    if case in EXPECTED:
        assert digests["vectorized"] == EXPECTED[case]


@settings(max_examples=60, deadline=None)
@given(_short_chains())
# Hop 0 fills 4 of its 6 slots: one trio, and slot 3 left over, error bit
# and all.
@example(chain_config([0.001], n=4, m=6, p=1.0, fidelity=0.5, cycles=2, strategy=Strategy.PURIFY3))
def test_frame_records_hold_no_bit_past_their_count(cfg):
    # A node's frames of a cycle cover its purification or swap count of
    # slots and no more: the left folds read a cycle's frames up to the
    # largest left-bound count, so a frame past a node's own count would
    # reach them. Checked on every block's arrays as they are folded.
    if _return_before_train(cfg) is not None:
        return
    fold, folded = network_module._fold_shares, []

    def recording(frames, left_nodes, width):
        folded.append(list(frames))
        return fold(frames, left_nodes, width)

    with mock.patch.object(network_module, "_fold_shares", recording):
        run_network(cfg)
    kinds = 2 if cfg.strategy is Strategy.PURIFY3 else 1
    assert folded and {len(block) for block in folded} == {kinds}
    for block in folded:
        for index, count in block:
            assert index.dtype == np.uint8 and index.max(initial=0) <= 3
            assert index.shape[:2] == count.shape
            past = np.arange(index.shape[-1]) >= count[..., None]
            assert not index[past].any()


def _check_draws_within_counts(cfg, one_cycle_blocks):
    """Run ``cfg``, in blocks of one cycle or of the run's own bound: its
    blocks start every cycle once, in order, and set no test past what
    ``_key_draws`` counts.

    With every such test set, the run's result is unchanged, so none of
    them is read.
    """
    counts, columns = _key_draws(cfg)
    blocks = KeyedDraws.blocks
    block_values = 1 if one_cycle_blocks else engine_module.BLOCK_MAX_VALUES

    def run(set_past):
        started = []

        def recording(keyed):
            for cycles, tests in blocks(keyed):
                started.extend(cycles)
                for domain, domain_tests in enumerate(tests):
                    for index, count in enumerate(counts[domain]):
                        for column, (start, step, _) in enumerate(columns[domain]):
                            past = domain_tests[:, index, column, len(range(start, count, step)) :]
                            assert not past.any(), f"key {domain, index} has a test past its count"
                            past[...] = set_past
                yield cycles, tests

        with mock.patch.object(KeyedDraws, "blocks", recording), mock.patch.object(
            engine_module, "BLOCK_MAX_VALUES", block_values
        ):
            result = run_network(cfg)
        assert started == list(range(cfg.cycles))
        return asdict(result)

    assert run(True) == run(False)


@settings(max_examples=80, deadline=None)
@given(cfg=_short_chains(), one_cycle_blocks=st.booleans())
def test_short_chain_draws_stay_within_key_counts(cfg, one_cycle_blocks):
    if _return_before_train(cfg) is None:
        _check_draws_within_counts(cfg, one_cycle_blocks)


def test_mixed_chain_draws_stay_within_key_counts():
    links = MIXED_DRAWS_CHAIN["links"]
    doc = {"nodes": [f"n{i}" for i in range(len(links) + 1)], **MIXED_DRAWS_CHAIN}
    cfg = parse_config({"schema_version": "1", "network": doc, "output": {}}).network
    for one_cycle_blocks in (False, True):
        _check_draws_within_counts(cfg, one_cycle_blocks)


# Raw, purify3 and purify3 with the butterfly, on hops of unequal banks,
# over 130 cycles: blocks of 7 leave a partial block of 4, and blocks of 64
# a partial block of 2.
BLOCK_CHAINS = {
    "raw": {
        "links": [
            _link(15.0, 6, 3, p_success=0.6, raw_fidelity=0.9),
            _link(25.0, 9, 5, p_success=0.5, raw_fidelity=0.9),
            _link(10.0, 4, 2, p_success=0.7, raw_fidelity=0.95),
        ],
        "tau_slot_ns": 7,
        "seed": 31,
        "cycles": 130,
    },
    "purify3": {
        "links": [
            _link(30.0, 9, 6, p_success=0.8, raw_fidelity=0.92),
            _link(20.0, 12, 9, p_success=0.7, raw_fidelity=0.9),
            _link(40.0, 9, 3, p_success=0.75, raw_fidelity=0.93),
        ],
        "strategy": "purify3",
        "seed": 32,
        "cycles": 130,
    },
    "purify3_butterfly": {
        "links": [
            _link(15.0, 9, 6, p_success=0.8, raw_fidelity=0.92),
            _link(15.0, 12, 9, p_success=0.7, raw_fidelity=0.9),
            _link(30.0, 9, 3, p_success=0.75, raw_fidelity=0.93),
            _link(20.0, 9, 6, p_success=0.8, raw_fidelity=0.95),
        ],
        "strategy": "purify3",
        "butterfly": True,
        "proc_ns": 300,
        "seed": 33,
        "cycles": 130,
    },
}


@pytest.mark.parametrize("case", sorted(BLOCK_CHAINS))
def test_block_size_does_not_move_output(case, tmp_path, monkeypatch):
    # How many cycles a block of tests holds must not move a bit of output:
    # blocks of 1, 7, 64 and all 130 cycles give the same result, traced and
    # untraced, and the same trace bytes.
    network = BLOCK_CHAINS[case]
    links = network["links"]
    doc = {"nodes": [f"n{i}" for i in range(len(links) + 1)], **network}
    cfg = parse_config({"schema_version": "1", "network": doc, "output": {}}).network
    per_cycle = len(links) * sum(map(max, _key_draws(cfg)[0]))
    # Each size's BLOCK_MAX_VALUES, and the block lengths it gives.
    sizes = {
        1: (1, {1}),
        7: (7 * per_cycle, {7, 4}),
        64: (64 * per_cycle, {64, 2}),
        130: (2**40, {130}),
    }
    runs = {}
    for size, (value, expected) in sizes.items():
        lengths, blocks = set(), KeyedDraws.blocks

        def recording(keyed):
            for cycles, tests in blocks(keyed):
                lengths.add(len(cycles))
                yield cycles, tests

        with monkeypatch.context() as patch:
            patch.setattr(engine_module, "BLOCK_MAX_VALUES", value)
            patch.setattr(KeyedDraws, "blocks", recording)
            (tmp_path / str(size)).mkdir()
            traced, trace_bytes = _simulate(tmp_path / str(size), patch, network)
            untraced = run_network(cfg)
        assert lengths == expected
        assert trace_bytes and _without_trace(untraced) == _without_trace(traced)
        runs[size] = asdict(traced), trace_bytes
    assert runs[7] == runs[1]
    assert runs[64] == runs[1]
    assert runs[130] == runs[1]


def _fold_reference(blocks, split):
    """Every cycle's frame shares folded record by record, as ints:
    ``(herald_x, herald_z, left_x, left_z, left_count)`` per cycle.

    ``blocks`` holds each block's ``(frame indices, counts)`` pairs as
    ``_fold_shares`` got them. A node's frames of a cycle become one
    record, slot k's X and Z bits in bit k of two ints, node i's the i-th
    of each array; the records of the nodes left of ``split`` (none when it
    is 0) fold into the left share, the rest into the herald share.
    """
    shares = []
    for frames in blocks:
        for k in range(len(frames[0][1])):
            herald_x = herald_z = left_x = left_z = left_count = 0
            for index, count in frames:
                for node, (row, n) in enumerate(zip(index[k].tolist(), count[k].tolist()), 1):
                    if not n:
                        continue
                    x = sum((frame >> 1) << slot for slot, frame in enumerate(row))
                    z = sum((frame & 1) << slot for slot, frame in enumerate(row))
                    if node < split:
                        left_x, left_z, left_count = left_x ^ x, left_z ^ z, max(left_count, n)
                    else:
                        herald_x, herald_z = herald_x ^ x, herald_z ^ z
            shares.append((herald_x, herald_z, left_x, left_z, left_count))
    return shares


@settings(max_examples=80, deadline=None)
@given(cfg=_short_chains_with_periods(), one_cycle_blocks=st.booleans())
# Two hops under the butterfly split at node 1: no frame goes left.
@example(
    cfg=chain_config([10.0, 20.0], n=6, m=3, p=0.7, cycles=5, seed=2, butterfly=True),
    one_cycle_blocks=False,
)
# One purified hop: its right node's frames are the only ones.
@example(
    cfg=chain_config([10.0], n=9, m=6, p=0.8, cycles=4, seed=3, strategy=Strategy.PURIFY3),
    one_cycle_blocks=True,
)
@example(cfg=_uneven_purify_butterfly([10.0, 10.0, 10.0, 25.0], [9, 6, 3, 3]), one_cycle_blocks=False)
# A cycle of 5000 pairs: more than one chunk of a column.
@example(
    cfg=chain_config([1.0, 1.0], n=5000, m=5000, cycles=1, seed=4, butterfly=True),
    one_cycle_blocks=False,
)
def test_block_records_equal_a_fold_of_per_node_ints(cfg, one_cycle_blocks):
    # The records and left folds a block pass builds from its arrays equal
    # those built slot by slot from per-node frame ints, each cycle's folded
    # record by record, on any block size and at periods below the bound
    # that still finish; every id, slot, endpoint and bit is a Python int.
    if _return_before_train(cfg) is not None:
        return
    fold, blocks = network_module._fold_shares, []

    def recording(frames, left_nodes, width):
        blocks.append([(index.copy(), count.copy()) for index, count in frames])
        return fold(frames, left_nodes, width)

    block_values = 1 if one_cycle_blocks else engine_module.BLOCK_MAX_VALUES
    with mock.patch.object(network_module, "_fold_shares", recording), mock.patch.object(
        engine_module, "BLOCK_MAX_VALUES", block_values
    ), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            result = run_network(cfg)
        except DesynchronizationError:
            return
    if one_cycle_blocks:
        assert {len(frames[0][1]) for frames in blocks} == {1}
    shares = _fold_reference(blocks, butterfly_split(cfg) if cfg.butterfly else 0)
    assert len(shares) == cfg.cycles
    assert [(rec.cycle_id, rec.slot) for rec in result.records] == [
        (cycle, slot) for cycle, count in enumerate(result.per_cycle_delivered) for slot in range(count)
    ]
    for rec in result.records:
        herald_x, herald_z, left_x, left_z, _ = shares[rec.cycle_id]
        x, z = herald_x >> rec.slot & 1, herald_z >> rec.slot & 1
        assert rec.herald_correction is FRAMES[x][z]
        assert rec.correction is FRAMES[x ^ (left_x >> rec.slot & 1)][z ^ (left_z >> rec.slot & 1)]
        assert rec.correction is rec.pair.frame
        pair = rec.pair
        fields = (pair.x_error, rec.cycle_id, rec.slot, *pair.left, *pair.right, pair.created_at_ns)
        assert all(type(value) is int for value in fields), rec
    folds = {
        (cycle, slot): FRAMES[left_x >> slot & 1][left_z >> slot & 1]
        for cycle, (_, _, left_x, left_z, count) in enumerate(shares)
        for slot in range(count)
    }
    assert result.left_frame_folds == folds
    assert all(type(value) is int for key in result.left_frame_folds for value in key)

"""Chain orchestration: schedules, sweeps, purification, butterfly, frames."""

import math
import re
from collections import Counter

import pytest

from fusenet.errors import ConfigurationError, DesynchronizationError
from fusenet.metrics import summarize
from fusenet.network import (
    LinkSpec,
    Strategy,
    butterfly_split,
    run_network,
    validate_config,
)
from fusenet.pair_algebra import (
    IDENTITY_FRAME,
    LinkModel,
    chain_fidelity,
    failure_prob_single,
    purify3_analytic,
)

from conftest import chain_config


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

    def test_small_override_warns(self):
        with pytest.warns(UserWarning, match="safe bound"):
            validate_config(chain_config([40.0], cycle_period_ns=100))

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
        for rec in result.trace:
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
            for rec in result.trace
            if rec.kind == "HeraldArrive" and rec.t_ns < result.schedule.cycle_period_ns
        ]
        assert arrivals == [(1, 50_000), (2, 250_000), (3, 350_000)]

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
        expected = failure_prob_single(16, 0.25)
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


class TestDesynchronization:
    def test_short_override_aborts_naming_node(self):
        cfg = chain_config([10.0, 40.0], cycle_period_ns=150_000, cycles=5)
        with pytest.warns(UserWarning):
            with pytest.raises(DesynchronizationError, match="node 1"):
                run_network(cfg)

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

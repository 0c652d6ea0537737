"""Summary statistics, planning tables, and the analytic rate model."""

import math
import statistics

import pytest

from fusenet.errors import ConfigurationError, UnsatisfiableError
from fusenet.metrics import plan_table, rate_model, summarize
from fusenet.network import Strategy, run_network
from fusenet.pair_algebra import failure_prob_multi

from conftest import chain_config


class TestSummarize:
    def test_forty_km_hits_2500(self):
        cfg = chain_config([40.0], cycles=1000, seed=7)
        stats = summarize(run_network(cfg).records, cfg)
        assert stats.pairs_per_second == 2500.0
        assert stats.pairs_total == 1000
        assert stats.failure_cycles == 0
        assert stats.empirical_end_fidelity == 1.0
        assert stats.frame_latency_cycles == 1.0

    def test_ten_km_hits_10000(self):
        cfg = chain_config([10.0], cycles=1000, seed=7)
        stats = summarize(run_network(cfg).records, cfg)
        assert stats.pairs_per_second == 10000.0

    def test_dead_link_counts_every_cycle_failed(self):
        cfg = chain_config([40.0], p=0.0, cycles=50, seed=1)
        stats = summarize(run_network(cfg).records, cfg)
        assert stats.pairs_total == 0
        assert stats.pairs_per_second == 0.0
        assert stats.failure_cycles == 50
        assert stats.empirical_end_fidelity is None
        assert stats.frame_latency_cycles is None

    def test_zero_cycles_rejected(self):
        cfg = chain_config([40.0], cycles=100)
        cfg.cycles = 0
        with pytest.raises(ConfigurationError):
            summarize([], cfg)

    def test_agrees_with_rate_model(self):
        # simulated throughput tracks the analytic expectation at both
        # saturating and lossy success probabilities
        for p, m, seed in [(1.0, 1, 3), (1.0, 3, 4), (0.25, 1, 5), (0.25, 3, 6)]:
            cycles = 20_000 if p < 1 else 500
            cfg = chain_config([40.0], n=16, m=m, p=p, cycles=cycles, seed=seed)
            result = run_network(cfg)
            stats = summarize(result.records, cfg)
            expected = rate_model(40.0, 2.0e8, 16, 0, 0, m, p)
            if p == 1.0:
                assert stats.pairs_per_second == expected
            else:
                per_cycle = result.per_cycle_delivered
                se_rate = (
                    statistics.pstdev(per_cycle)
                    / math.sqrt(cycles)
                    * (1e9 / result.schedule.cycle_period_ns)
                )
                assert abs(stats.pairs_per_second - expected) <= 4 * se_rate


class TestPlanTable:
    def test_headline_sizes(self):
        rows = plan_table([1, 2], 0.25, 0.01)
        assert [row.n_required for row in rows] == [17, 24]
        assert rows[0].exact_pf_at_n == pytest.approx(0.00751694681821391, abs=1e-15)
        assert rows[0].exact_pf_at_prev_n == pytest.approx(
            0.010022595757618546, abs=1e-15
        )
        assert rows[0].expected_successes == pytest.approx(17 * 0.25)

    def test_boundary_property_every_row(self):
        for row in plan_table([1, 2, 10, 100], 0.25, 0.01):
            assert row.exact_pf_at_n < row.target_pf <= row.exact_pf_at_prev_n

    def test_half_probability_small_target(self):
        (row,) = plan_table([1], 0.5, 0.5)
        assert row.n_required == 2
        assert row.exact_pf_at_n == pytest.approx(0.25)
        assert row.exact_pf_at_prev_n == pytest.approx(0.5)

    def test_trivial_single_shot(self):
        (row,) = plan_table([1], 1.0, 0.5)
        assert row.n_required == 1
        assert row.exact_pf_at_prev_n == 1.0  # no fusillade smaller than m

    def test_target_one_rejected(self):
        with pytest.raises(ConfigurationError):
            plan_table([1], 0.25, 1.0)

    def test_p_zero_unsatisfiable(self):
        with pytest.raises(UnsatisfiableError):
            plan_table([1], 0.0, 0.01)


class TestRateModel:
    def test_forty_km_single_slot(self):
        assert rate_model(40.0, 2.0e8, 1, 0, 0, 1) == 2500.0

    def test_ten_km_hundred_slots_reaches_mhz(self):
        assert rate_model(10.0, 2.0e8, 100, 0, 0, 100) == 1_000_000.0

    def test_lossy_single_slot_discount(self):
        # 2500 * (1 - 0.75^17)
        expected = 2500.0 * (1.0 - 0.00751694681821391)
        assert rate_model(40.0, 2.0e8, 17, 0, 0, 1, p=0.25) == pytest.approx(
            expected, rel=1e-12
        )

    def test_multi_slot_discount_sums_tails(self):
        n, m, p = 16, 3, 0.25
        expected_slots = sum(1.0 - failure_prob_multi(n, k, p) for k in range(1, m + 1))
        assert rate_model(40.0, 2.0e8, n, 0, 0, m, p) == pytest.approx(
            expected_slots * 2500.0, rel=1e-12
        )

    def test_train_time_extends_period(self):
        # 100 slots at 10 ns add 1 us to the 0.4 ms round trip
        rate = rate_model(40.0, 2.0e8, 100, 10, 0, 100)
        assert rate == pytest.approx(100 * 1e9 / 401_000)

    def test_more_slots_than_signals_contribute_nothing(self):
        assert rate_model(40.0, 2.0e8, 2, 0, 0, 5, p=1.0) == pytest.approx(
            2 * 2500.0
        )

    def test_nonpositive_length_rejected(self):
        with pytest.raises(ConfigurationError):
            rate_model(0.0, 2.0e8, 1, 0, 0, 1)

    def test_zero_cycle_period_rejected(self):
        with pytest.raises(ConfigurationError, match="cycle period"):
            rate_model(1e-5, 2.0e8, 1, 0, 0, 1)


class TestFidelityAccounting:
    def test_empirical_tracks_analytic_purified(self):
        cfg = chain_config(
            [40.0],
            n=3,
            m=3,
            fidelity=0.9,
            cycles=20_000,
            strategy=Strategy.PURIFY3,
            seed=14,
        )
        stats = summarize(run_network(cfg).records, cfg)
        expected_err = 1.0 - stats.analytic_end_fidelity
        se = math.sqrt(expected_err * (1 - expected_err) / stats.pairs_total)
        assert abs((1.0 - stats.empirical_end_fidelity) - expected_err) <= 4 * se
        assert stats.empirical_end_fidelity_stderr == pytest.approx(se, rel=0.2)

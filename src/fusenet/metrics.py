"""Aggregate run output into headline quantities; analytic planning tables.

The planner side inverts the link-failure binomial to size fusillades; the
summary side reduces a finished run's end-to-end records to throughput,
fidelity, and frame-latency numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .engine import NS_PER_SECOND, channel_delay_ns
from .errors import ConfigurationError
from .network import EndToEndRecord, NetworkConfig, Strategy, validate_config
from .pair_algebra import (
    chain_fidelity,
    failure_prob_multi,
    min_fusiliers,
    purify3_analytic,
)

__all__ = ["SummaryStats", "PlanRow", "summarize", "plan_table", "rate_model"]


@dataclass(frozen=True)
class SummaryStats:
    """Headline numbers for one finished run."""

    pairs_total: int
    pairs_per_second: float
    empirical_end_fidelity: Optional[float]
    empirical_end_fidelity_stderr: Optional[float]
    analytic_end_fidelity: float
    cycle_period_s: float
    failure_cycles: int
    frame_latency_cycles: Optional[float]
    cycles: int
    links_per_cycle: int

    def to_dict(self) -> dict:
        return {
            "pairs_total": self.pairs_total,
            "pairs_per_second": self.pairs_per_second,
            "empirical_end_fidelity": self.empirical_end_fidelity,
            "empirical_end_fidelity_stderr": self.empirical_end_fidelity_stderr,
            "analytic_end_fidelity": self.analytic_end_fidelity,
            "cycle_period_s": self.cycle_period_s,
            "failure_cycles": self.failure_cycles,
            "frame_latency_cycles": self.frame_latency_cycles,
            "cycles": self.cycles,
            "links_per_cycle": self.links_per_cycle,
        }


def analytic_end_to_end_fidelity(config: NetworkConfig) -> float:
    """Chain fidelity over per-hop fidelities, after per-hop purification."""
    hop_fidelities = []
    for link in config.links:
        f = link.model.raw_fidelity
        if config.strategy is Strategy.PURIFY3:
            f = purify3_analytic(f)
        hop_fidelities.append(f)
    return chain_fidelity(hop_fidelities)


def summarize(
    records: Sequence[EndToEndRecord], config: NetworkConfig
) -> SummaryStats:
    """Reduce a run's end-to-end records to summary statistics.

    The empirical fidelity is one minus the error rate of the
    frame-corrected stream: each record's physically observable bit is
    ``x_error XOR frame`` and the classically delivered correction undoes
    the frame. A cycle counts as failed when it delivered fewer pairs than
    the configured slot capacity.
    """
    schedule = validate_config(config)
    if config.cycles < 1:
        raise ConfigurationError("cannot summarize a run of zero cycles")
    period_ns = schedule.cycle_period_ns
    pairs_total = len(records)
    pairs_per_second = pairs_total / config.cycles * (NS_PER_SECOND / period_ns)

    delivered_per_cycle = [0] * config.cycles
    corrected_errors = 0
    latency_sum = 0.0
    latency_count = 0
    for record in records:
        delivered_per_cycle[record.cycle_id] += 1
        observable = record.pair.x_error ^ record.pair.frame.x_bit
        corrected_errors += observable ^ record.correction.x_bit
        if record.frame_available_at_ns is not None:
            latency_sum += (
                record.frame_available_at_ns - record.established_at_ns
            ) / period_ns
            latency_count += 1

    failure_cycles = sum(
        1 for count in delivered_per_cycle if count < schedule.links_per_cycle
    )
    if pairs_total:
        error_rate = corrected_errors / pairs_total
        fidelity = 1.0 - error_rate
        stderr = math.sqrt(error_rate * (1.0 - error_rate) / pairs_total)
    else:
        fidelity = None
        stderr = None
    return SummaryStats(
        pairs_total=pairs_total,
        pairs_per_second=pairs_per_second,
        empirical_end_fidelity=fidelity,
        empirical_end_fidelity_stderr=stderr,
        analytic_end_fidelity=analytic_end_to_end_fidelity(config),
        cycle_period_s=schedule.cycle_period_s,
        failure_cycles=failure_cycles,
        frame_latency_cycles=(latency_sum / latency_count) if latency_count else None,
        cycles=config.cycles,
        links_per_cycle=schedule.links_per_cycle,
    )


@dataclass(frozen=True)
class PlanRow:
    """One fusillade-sizing row: how many transmitters m receivers need."""

    m: int
    p: float
    target_pf: float
    n_required: int
    exact_pf_at_n: float
    exact_pf_at_prev_n: float
    expected_successes: float


def plan_table(
    m_values: Sequence[int], p: float, target_pf: float
) -> list[PlanRow]:
    """Size the fusillade for each receiver count at the given target.

    Every row satisfies exact_pf_at_n < target_pf <= exact_pf_at_prev_n;
    when n == m the previous-n probability is vacuously 1 (with fewer
    signals than receivers every cycle fails to fill the bank).
    """
    rows = []
    for m in m_values:
        n = min_fusiliers(m, p, target_pf)
        pf_prev = failure_prob_multi(n - 1, m, p) if n - 1 >= m else 1.0
        rows.append(
            PlanRow(
                m=m,
                p=p,
                target_pf=target_pf,
                n_required=n,
                exact_pf_at_n=failure_prob_multi(n, m, p),
                exact_pf_at_prev_n=pf_prev,
                expected_successes=n * p,
            )
        )
    return rows


def rate_model(
    length_km: float,
    signal_speed_m_per_s: float,
    n: int,
    tau_slot_ns: int,
    proc_ns: int,
    m: int,
    p: float = 1.0,
) -> float:
    """Expected pairs per second on one hop.

    The cycle period is the round trip plus signal-train and processing
    time; the expected pairs per cycle discount each slot k by the
    probability that fewer than k successes occurred:
    sum_{k=1..m} (1 - failure_prob_multi(n, k, p)). At p = 1 this reduces
    to m / cycle_period.
    """
    if length_km <= 0:
        raise ConfigurationError("length_km must be > 0")
    if signal_speed_m_per_s <= 0:
        raise ConfigurationError("signal_speed_m_per_s must be > 0")
    period_ns = (
        2 * channel_delay_ns(length_km, signal_speed_m_per_s)
        + n * tau_slot_ns
        + proc_ns
    )
    # Slots beyond the fusillade size can never fill; they contribute 0.
    expected_slots = math.fsum(
        1.0 - failure_prob_multi(n, k, p) for k in range(1, min(m, n) + 1)
    )
    return expected_slots * (NS_PER_SECOND / period_ns)

"""Aggregate run output into headline quantities; analytic planning tables.

The planner side inverts the link-failure binomial to size fusillades; the
summary side folds a finished run's end-to-end records, as columns, into
throughput, fidelity, and frame-latency numbers.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Optional, Sequence

import numpy as np

from .engine import NS_PER_SECOND
from .network import (
    LinkSpec,
    NetworkConfig,
    RecordView,
    _PAIR_CODES,
    analytic_end_to_end_fidelity,
    validate_config,
)
from .pair_algebra import LinkModel, failure_prob_multi, min_fusiliers

__all__ = ["SummaryStats", "PlanRow", "summarize", "plan_table", "rate_model"]

# Whether a pair of each ``_PAIR_CODES`` code is in error once its frame is
# applied and its correction undoes it: x_error XOR frame XOR correction.
_CORRECTED_ERROR = np.array(
    [error ^ frame.x_bit ^ correction.x_bit for error, frame, correction, _ in _PAIR_CODES], bool
)


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
        return asdict(self)


def summarize(records: RecordView, config: NetworkConfig) -> SummaryStats:
    """Reduce a run's end-to-end records, ``RunResult.records``, to summary
    statistics, folding the records' columns rather than building them.

    The empirical fidelity is one minus the error rate of the
    frame-corrected stream: each record's physically observable bit is
    ``x_error XOR frame``, and its ``correction`` (the herald share XOR the
    left share, as delivered) undoes the frame if no record was lost; all
    three follow from the pair's code. The frame latency is the records'
    mean delivery delay in cycle periods, which is one: every record's frame
    is available exactly one period after it is established. A cycle counts
    as failed when it delivered fewer pairs than the configured slot
    capacity.
    """
    schedule = validate_config(config)
    period_ns = schedule.cycle_period_ns
    pairs_total = len(records)
    pairs_per_second = pairs_total / config.cycles * (NS_PER_SECOND / period_ns)

    corrected_errors = int(np.count_nonzero(_CORRECTED_ERROR.take(records.codes)))
    full_cycles = int(np.count_nonzero(np.bincount(records.cycles) >= schedule.links_per_cycle))
    failure_cycles = config.cycles - full_cycles
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
        frame_latency_cycles=1.0 if pairs_total else None,
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

    The cycle period is the one :func:`validate_config` derives for a
    one-hop chain (round trip plus signal-train and processing time); the
    expected pairs per cycle discount each slot k by the probability that
    fewer than k successes occurred:
    sum_{k=1..m} (1 - failure_prob_multi(n, k, p)). At p = 1 this reduces
    to m / cycle_period.
    """
    hop = LinkSpec(LinkModel(length_km=length_km, p_success=p), n, m)
    period_ns = validate_config(
        NetworkConfig(
            nodes=["left", "right"],
            links=[hop],
            signal_speed_m_per_s=signal_speed_m_per_s,
            tau_slot_ns=tau_slot_ns,
            proc_ns=proc_ns,
        )
    ).cycle_period_ns
    # Slots beyond the fusillade size can never fill; they contribute 0.
    expected_slots = math.fsum(
        1.0 - failure_prob_multi(n, k, p) for k in range(1, min(m, n) + 1)
    )
    return expected_slots * (NS_PER_SECOND / period_ns)

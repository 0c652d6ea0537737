"""Closed forms the benchmark checks fusenet's output against.

Everything here is computed with scipy from the workload parameters, never
with fusenet's own planner functions. Statistical checks pass within four
standard errors; the histogram check uses the chi-square tail probability
of a four-sigma two-sided deviation.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional, Sequence

from scipy import stats

Z_LIMIT = 4.0
P_FLOOR = 2.0 * stats.norm.sf(Z_LIMIT)
MIN_EXPECTED = 5.0


class Check(NamedTuple):
    """One correctness check; ``keys`` are the operations it covers (None: all)."""

    name: str
    ok: bool
    detail: str
    keys: Optional[frozenset] = None


def delivered_tail(hops: Sequence, per_pair: int) -> list[float]:
    """P[D >= k] for k = 1..capacity, D the end-to-end pairs of one cycle.

    Hop h keeps min(S_h, m_h) successes, S_h ~ Bin(n_h, p_h); a pair needs
    ``per_pair`` of them (3 under purify3), and D is the minimum over hops,
    so P[D >= k] = prod_h P[S_h >= per_pair * k]. A hop is any object with
    fields ``n``, ``m``, ``p`` and ``fidelity``.
    """
    capacity = min(h.m // per_pair for h in hops)
    return [
        math.prod(stats.binom.sf(per_pair * k - 1, h.n, h.p) for h in hops)
        for k in range(1, capacity + 1)
    ]


def check_delivered(delivered: Sequence[int], hops: Sequence, per_pair: int) -> Check:
    tail = delivered_tail(hops, per_pair)
    mean = math.fsum(tail)
    second = math.fsum((2 * k - 1) * t for k, t in enumerate(tail, start=1))
    se = math.sqrt(max(second - mean * mean, 0.0) / len(delivered))
    observed = sum(delivered) / len(delivered)
    z = (observed - mean) / se if se else (0.0 if observed == mean else math.inf)
    return Check(
        "delivered_per_cycle",
        abs(z) <= Z_LIMIT,
        f"{observed:.4f} vs {mean:.4f} +- {se:.4f} over {len(delivered)} cycles (z={z:+.2f})",
    )


def _truncated_binomial(hop) -> list[float]:
    """P[min(S, m) = k] for k = 0..m."""
    probs = [stats.binom.pmf(k, hop.n, hop.p) for k in range(hop.m)]
    return probs + [stats.binom.sf(hop.m - 1, hop.n, hop.p)]


def _pooled_bins(observed: Sequence[int], expected: Sequence[float]):
    """Merge neighbouring bins until each expects at least MIN_EXPECTED."""
    bins, obs, exp = [], 0, 0.0
    for o, e in zip(observed, expected):
        obs, exp = obs + o, exp + e
        if exp >= MIN_EXPECTED:
            bins.append([obs, exp])
            obs, exp = 0, 0.0
    if bins:
        bins[-1][0] += obs
        bins[-1][1] += exp
    elif exp:
        bins.append([obs, exp])
    return bins


def check_hop_histograms(counts: Sequence[Sequence[int]], hops: Sequence) -> Check:
    """Chi-square of every hop's per-cycle success count, summed over hops."""
    chi2 = 0.0
    dof = 0
    for per_cycle, hop in zip(counts, hops):
        observed = [0] * (hop.m + 1)
        for value in per_cycle:
            observed[value] += 1
        expected = [q * len(per_cycle) for q in _truncated_binomial(hop)]
        bins = _pooled_bins(observed, expected)
        chi2 += sum((o - e) ** 2 / e for o, e in bins)
        dof += len(bins) - 1
    p_value = stats.chi2.sf(chi2, dof) if dof else 1.0
    return Check(
        "hop_success_histogram",
        p_value >= P_FLOOR,
        f"chi2={chi2:.2f} dof={dof} p={p_value:.3g} (floor {P_FLOOR:.3g})",
    )


def purify3_fidelity(f: float) -> float:
    return f**3 + 3.0 * f**2 * (1.0 - f)


def end_fidelity(hops: Sequence, purify3: bool) -> float:
    """(1 + prod(2F_h - 1)) / 2 over hop fidelities, purified first if asked."""
    bias = math.prod(
        2.0 * (purify3_fidelity(h.fidelity) if purify3 else h.fidelity) - 1.0 for h in hops
    )
    return (1.0 + bias) / 2.0


def check_fidelity(errors: Sequence[int], analytic: float) -> Check:
    pairs = len(errors)
    if not pairs:
        return Check("end_fidelity", False, "no pairs delivered")
    observed = 1.0 - sum(errors) / pairs
    se = math.sqrt(analytic * (1.0 - analytic) / pairs)
    z = (observed - analytic) / se
    return Check(
        "end_fidelity",
        abs(z) <= Z_LIMIT,
        f"{observed:.4f} vs {analytic:.4f} +- {se:.4f} over {pairs} pairs (z={z:+.2f})",
    )


def plan_failure_prob(n: int, m: int, p: float) -> float:
    """P[fewer than m of n succeed]; 1 when n < m."""
    return 1.0 if n < m else float(stats.binom.cdf(m - 1, n, p))


def check_plan_row(key, rows) -> Check:
    _, m, p, target = key
    (row,) = rows
    n = row.n_required
    at_n = plan_failure_prob(n, m, p)
    at_prev = plan_failure_prob(n - 1, m, p)
    return Check(
        f"plan m={m} p={p} target={target:g}",
        row.m == m and at_n < target <= at_prev,
        f"n={n}: pf(n)={at_n:.6g} pf(n-1)={at_prev:.6g}",
        frozenset([key]),
    )


def rate(length_km, speed, n, tau_slot_ns, proc_ns, m, p) -> float:
    """Expected pairs per second of one hop: sum_k P[S >= k] / period."""
    period_ns = 2 * round(length_km * 1e12 / speed) + n * tau_slot_ns + proc_ns
    slots = math.fsum(stats.binom.sf(k - 1, n, p) for k in range(1, min(m, n) + 1))
    return slots * 1e9 / period_ns


def check_rate(key, value: float) -> Check:
    expected = rate(*key[1:])
    return Check(
        f"rate_model {key[1:]}",
        math.isclose(value, expected, rel_tol=1e-9),
        f"{value!r} vs {expected!r}",
        frozenset([key]),
    )

"""Calibration across seeds: pooled checks that a 1% bias cannot pass.

One seed of a few hundred cycles cannot see a small bias in the keyed
draws: a 1% shift in a hop's success probability moves its histogram by a
fraction of one standard error. Here each config runs over ``SEEDS`` seeds
of ``CYCLES`` cycles, and three statistics are pooled over all of them,
each against a closed form computed with scipy from the config alone:

- the per-cycle delivered count D against ``delivered_tail`` (chi-square);
- every hop's per-cycle success count against its truncated binomial
  (chi-square, summed over hops);
- the pooled end-to-end fidelity against the analytic one, within 4 SE.

Histogram bins are merged until each expects at least 5 counts, and a
chi-square passes when its tail probability is at least that of a
four-sigma two-sided deviation. No KS test is used: the statistics are
discrete. Cf. Cook, Gelman & Rubin, *Validation of Software for Bayesian
Models Using Posterior Quantiles*, JCGS 15 (2006), on calibrating a
simulator by pooling over replications.
"""

import dataclasses
import functools
import math

import pytest

stats = pytest.importorskip("scipy.stats")

from fusenet.config import parse_config
from fusenet.metrics import summarize
from fusenet.network import run_network

SEEDS = 40
CYCLES = 500
Z_LIMIT = 4.0
P_FLOOR = 2.0 * stats.norm.sf(Z_LIMIT)
MIN_EXPECTED = 5.0


def _link(length_km, n, m, raw_fidelity, **success):
    return {"length_km": length_km, "n_fusiliers": n, "m_fusilands": m,
            "raw_fidelity": raw_fidelity, **success}


# Raw and purify3, one hop and three unequal hops, and the (p0, L0_km) link
# form. Fidelities near 1 make the fidelity check sensitive to a small
# shift of the error threshold, and banks about two standard deviations
# above n·p keep the hop histograms wide, so a shift of p moves many bins.
CONFIGS = {
    "raw_one_hop": {
        "links": [_link(20.0, 30, 22, 0.98, p_success=0.5)],
    },
    "raw_three_hops": {
        "links": [
            _link(10.0, 24, 21, 0.99, p_success=0.6),
            _link(25.0, 30, 20, 0.98, p_success=0.45),
            _link(15.0, 20, 19, 0.99, p_success=0.7),
        ],
        "tau_slot_ns": 5,
    },
    "purify3_one_hop": {
        "links": [_link(30.0, 24, 21, 0.92, p_success=0.6)],
        "strategy": "purify3",
    },
    "purify3_three_hops": {
        "links": [
            _link(15.0, 20, 18, 0.95, p_success=0.7),
            _link(30.0, 24, 18, 0.93, p_success=0.55),
            _link(20.0, 18, 18, 0.96, p_success=0.75),
        ],
        "strategy": "purify3",
        "proc_ns": 100,
    },
    "p0_L0_form": {
        "links": [
            _link(10.0, 20, 16, 0.98, p0=0.9, L0_km=22.0),
            _link(30.0, 40, 15, 0.98, p0=0.9, L0_km=22.0),
        ],
    },
}


class Hop:
    """A hop's parameters as the closed forms read them."""

    def __init__(self, link: dict):
        self.n, self.m, self.fidelity = link["n_fusiliers"], link["m_fusilands"], link["raw_fidelity"]
        if "p_success" in link:
            self.p = link["p_success"]
        else:
            self.p = link["p0"] * math.exp(-link["length_km"] / link["L0_km"])


def delivered_tail(hops, per_pair):
    """P[D >= k] for k = 1..capacity: hop h keeps min(S_h, m_h) of S_h ~
    Bin(n_h, p_h) successes, a pair needs ``per_pair`` of them, and D is
    the minimum over hops, so P[D >= k] = prod_h P[S_h >= per_pair * k]."""
    capacity = min(h.m // per_pair for h in hops)
    return [
        math.prod(stats.binom.sf(per_pair * k - 1, h.n, h.p) for h in hops)
        for k in range(1, capacity + 1)
    ]


def truncated_binomial(hop):
    """P[min(S, m) = k] for k = 0..m."""
    probs = [stats.binom.pmf(k, hop.n, hop.p) for k in range(hop.m)]
    return probs + [stats.binom.sf(hop.m - 1, hop.n, hop.p)]


def end_fidelity(hops, purify3):
    """(1 + prod(2F_h - 1)) / 2, each F_h first purified to F^3 + 3F^2(1 - F)
    under purify3."""
    fidelities = [h.fidelity for h in hops]
    if purify3:
        fidelities = [f**3 + 3.0 * f**2 * (1.0 - f) for f in fidelities]
    return (1.0 + math.prod(2.0 * f - 1.0 for f in fidelities)) / 2.0


def chi_square(observed, probabilities):
    """(chi-square, degrees of freedom) of a histogram against its
    probabilities, neighbouring bins merged until each expects at least
    ``MIN_EXPECTED``."""
    total = sum(observed)
    bins, obs, exp = [], 0, 0.0
    for o, q in zip(observed, probabilities):
        obs, exp = obs + o, exp + q * total
        if exp >= MIN_EXPECTED:
            bins.append([obs, exp])
            obs, exp = 0, 0.0
    bins[-1][0] += obs
    bins[-1][1] += exp
    return sum((o - e) ** 2 / e for o, e in bins), len(bins) - 1


class Pooled:
    """What ``SEEDS`` runs of ``CYCLES`` cycles of one config deliver, pooled."""

    def __init__(self, name: str):
        network = dict(CONFIGS[name], cycles=CYCLES)
        network["nodes"] = [f"n{i}" for i in range(len(network["links"]) + 1)]
        base = parse_config({"schema_version": "1", "network": network, "output": {}}).network
        self.hops = [Hop(link) for link in network["links"]]
        self.purify3 = network.get("strategy") == "purify3"
        self.delivered, self.successes = [], [[] for _ in self.hops]
        self.pairs = self.errors = 0
        for seed in range(SEEDS):
            cfg = dataclasses.replace(base, seed=seed)
            result = run_network(cfg)
            summary = summarize(result.records, cfg)
            self.delivered += result.per_cycle_delivered
            for pooled, counts in zip(self.successes, result.hop_success_counts):
                pooled += counts
            self.pairs += summary.pairs_total
            self.errors += round((1.0 - summary.empirical_end_fidelity) * summary.pairs_total)


@functools.cache
def _pooled(name: str) -> Pooled:
    return Pooled(name)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_pooled_delivered_counts_follow_delivered_tail(name):
    pooled = _pooled(name)
    assert len(pooled.delivered) == SEEDS * CYCLES >= 20_000
    tail = delivered_tail(pooled.hops, 3 if pooled.purify3 else 1)
    pmf = [a - b for a, b in zip([1.0] + tail, tail + [0.0])]
    observed = [0] * len(pmf)
    for count in pooled.delivered:
        observed[count] += 1
    chi2, dof = chi_square(observed, pmf)
    p_value = stats.chi2.sf(chi2, dof)
    assert p_value >= P_FLOOR, f"chi2={chi2:.1f} over {dof} dof, p={p_value:.3g}"


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_pooled_hop_histograms_follow_truncated_binomials(name):
    pooled = _pooled(name)
    total_chi2 = total_dof = 0
    for hop, counts in zip(pooled.hops, pooled.successes):
        assert len(counts) == SEEDS * CYCLES
        observed = [0] * (hop.m + 1)
        for count in counts:
            observed[count] += 1
        chi2, dof = chi_square(observed, truncated_binomial(hop))
        total_chi2, total_dof = total_chi2 + chi2, total_dof + dof
    p_value = stats.chi2.sf(total_chi2, total_dof)
    assert p_value >= P_FLOOR, f"chi2={total_chi2:.1f} over {total_dof} dof, p={p_value:.3g}"


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_pooled_fidelity_within_four_standard_errors(name):
    pooled = _pooled(name)
    analytic = end_fidelity(pooled.hops, pooled.purify3)
    observed = 1.0 - pooled.errors / pooled.pairs
    se = math.sqrt(analytic * (1.0 - analytic) / pooled.pairs)
    z = (observed - analytic) / se
    assert abs(z) <= Z_LIMIT, f"{observed:.5f} vs {analytic:.5f} +- {se:.5f} over {pooled.pairs} pairs (z={z:+.2f})"

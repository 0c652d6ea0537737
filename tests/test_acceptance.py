"""Acceptance criteria for the whole package, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion with the measured numbers. Every tolerance is fixed here; nothing
is calibrated after the fact. Monte Carlo checks use fixed seeds and a
4-standard-error band around the closed-form expectation.
"""

import json
import math

import numpy as np
import pytest

from fusenet.cli import main as cli_main
from fusenet.machines import train_pairs
from fusenet.metrics import summarize
from fusenet.network import butterfly_split, run_network
from fusenet.pair_algebra import (
    chain_fidelity,
    failure_prob_multi,
    min_fusiliers,
    purify3_analytic,
    purify3_bits,
    swap_bits,
)

from conftest import chain_config


def _report(number, text):
    print(f"\nPASS criterion {number}: {text}")


def _pack(bits):
    """One column of 0/1 trials as an int: bit k is trial k."""
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


def test_criterion_1_purification_gain():
    value = purify3_analytic(0.95)
    assert abs(value - 0.99275) < 1e-12
    assert value >= 0.99
    _report(1, f"purify3_analytic(0.95) = {value!r}, within 1e-12 of 0.99275")


def test_criterion_2_rate_reproduction():
    rates = {}
    for length, expected in ((40.0, 2500.0), (10.0, 10000.0)):
        cfg = chain_config([length], n=1, m=1, p=1.0, cycles=1000, seed=7)
        stats = summarize(run_network(cfg).records, cfg)
        assert abs(stats.pairs_per_second - expected) <= 0.001 * expected
        rates[length] = stats.pairs_per_second
    _report(2, f"2-node rates 40 km -> {rates[40.0]}, 10 km -> {rates[10.0]} pairs/s")


def test_criterion_3_resource_table():
    table_pairs = [(16, 1), (24, 2), (70, 10), (485, 100)]
    exact = {}
    for n, m in table_pairs:
        pf = failure_prob_multi(n, m, 0.25)
        assert 0.005 <= pf <= 0.0155
        exact[(n, m)] = pf
    sized = {}
    for _, m in table_pairs:
        n_req = min_fusiliers(m, 0.25, 0.01)
        assert failure_prob_multi(n_req, m, 0.25) < 0.01
        if n_req - 1 >= m:
            assert failure_prob_multi(n_req - 1, m, 0.25) >= 0.01
        sized[m] = n_req
    _report(
        3,
        "headline (n, m) sizings give p_f in [0.005, 0.0155]: "
        + ", ".join(f"{nm}={pf:.6f}" for nm, pf in exact.items())
        + f"; strict sizing n(m) = {sized}",
    )


def test_criterion_4a_hop_success_counts():
    # Each cycle's train gets its n + m draws as threshold bits, bit j set
    # when draw j is below p, as a simulation's keyed draws hand them out.
    n, m, p, cycles = 16, 1, 0.25, 100_000
    rng = np.random.default_rng(2024)
    short = 0
    for row in rng.random((cycles, n + m)) < p:
        fusiliers, _ = train_pairs([_pack(row), 0], n, m)
        if len(fusiliers) < m:
            short += 1
    expected = failure_prob_multi(n, m, p)
    se = math.sqrt(expected * (1 - expected) / cycles)
    assert abs(short / cycles - expected) <= 4 * se
    _report(
        "4a",
        f"under-filled cycles {short / cycles:.6f} vs binomial tail "
        f"{expected:.6f} over {cycles} cycles (4 SE = {4 * se:.6f})",
    )


def test_criterion_4b_purification_residual():
    # All trials at once, trial k in bit k of every column of purify3_bits.
    trials = 1_000_000
    reports = []
    for idx, fidelity in enumerate((0.8, 0.9, 0.95)):
        rng = np.random.default_rng(500 + idx)
        error_rows = rng.random((trials, 3)) < 1.0 - fidelity
        coin_rows = rng.random((trials, 6)) < 0.5
        e1, e2, e3 = (_pack(error_rows[:, j]) for j in range(3))
        tx12, tx23, tx_x2, tx_x3, rx_x2, rx_x3 = (_pack(coin_rows[:, j]) for j in range(6))
        kept, _, _ = purify3_bits(
            e1, tx12, tx23, tx12 ^ e1 ^ e2, tx23 ^ e2 ^ e3, tx_x2, tx_x3, rx_x2, rx_x3
        )
        failures = kept.bit_count()
        expected = 1.0 - purify3_analytic(fidelity)
        se = math.sqrt(expected * (1 - expected) / trials)
        assert abs(failures / trials - expected) <= 4 * se
        reports.append(f"F={fidelity}: {failures / trials:.6f} vs {expected:.6f}")
    _report("4b", f"residual error over {trials} triples: " + "; ".join(reports))


def test_criterion_4c_swap_chains():
    # All trials at once, trial k in bit k of every column of swap_bits.
    trials = 1_000_000
    reports = []
    for seed, hop_fidelities in ((31, [0.9, 0.8]), (32, [0.95, 0.9, 0.85, 0.9, 0.95])):
        hops = len(hop_fidelities)
        rng = np.random.default_rng(seed)
        error_rows = rng.random((trials, hops)) < 1.0 - np.array(hop_fidelities)
        coin_rows = rng.random((trials, 2 * (hops - 1))) < 0.5
        errors = [_pack(error_rows[:, i]) for i in range(hops)]
        coins = [_pack(coin_rows[:, j]) for j in range(2 * (hops - 1))]
        acc_error, acc_x, acc_z = errors[0], 0, 0
        for i in range(1, hops):
            acc_error, acc_x, acc_z = swap_bits(
                acc_error, errors[i], acc_x, acc_z, 0, 0, coins[2 * i - 2], coins[2 * i - 1]
            )
        failures = acc_error.bit_count()
        expected = 1.0 - chain_fidelity(hop_fidelities)
        se = math.sqrt(expected * (1 - expected) / trials)
        assert abs(failures / trials - expected) <= 4 * se
        reports.append(
            f"{hops}-hop: {failures / trials:.6f} vs {expected:.6f}"
        )
    _report("4c", f"chain error over {trials} pairs: " + "; ".join(reports))


def test_criterion_5_brute_force_oracle():
    checked = 0
    for p in (0.1, 0.25, 0.5):
        q = 1.0 - p
        for n in range(1, 17):
            counts = [0] * (n + 1)
            for bits in range(2**n):
                counts[bits.bit_count()] += 1
            weights = [counts[k] * p**k * q ** (n - k) for k in range(n + 1)]
            for m in range(1, n + 1):
                oracle = math.fsum(weights[:m])
                assert abs(failure_prob_multi(n, m, p) - oracle) < 1e-12
                checked += 1
    _report(5, f"{checked} (n, m, p) points agree with 2^n enumeration to 1e-12")


def test_criterion_6_pipelining_and_frame_latency():
    cfg = chain_config([10.0, 40.0], n=2, m=2, p=1.0, cycles=150, tau_slot_ns=10, proc_ns=5, seed=11)
    result = run_network(cfg)
    stats = summarize(result.records, cfg)
    period = result.schedule.cycle_period_ns
    assert len(result.records) >= 100 * result.schedule.links_per_cycle
    for rec in result.records:
        assert rec.frame_available_at_ns - rec.established_at_ns == period
    expected_rate = result.schedule.links_per_cycle * (1e9 / period)
    assert stats.pairs_per_second == expected_rate
    _report(
        6,
        f"all {len(result.records)} records show one-cycle frame latency "
        f"({period} ns) and throughput equals {expected_rate} pairs/s exactly",
    )


def test_criterion_7_butterfly_invariance():
    hops = [10.0, 10.0, 40.0, 20.0]
    base = dict(n=6, m=3, p=0.5, fidelity=0.9, cycles=400, seed=321)
    plain = run_network(chain_config(hops, **base))
    butter = run_network(chain_config(hops, butterfly=True, **base))
    plain_errors = [(r.cycle_id, r.slot, r.pair.x_error) for r in plain.records]
    butter_errors = [(r.cycle_id, r.slot, r.pair.x_error) for r in butter.records]
    assert plain_errors == butter_errors
    scan_best = min(
        range(1, len(hops)), key=lambda i: abs(sum(hops[:i]) - sum(hops[i:]))
    )
    assert butter.split_index == butterfly_split(chain_config(hops)) == scan_best
    _report(
        7,
        f"x_error sequence of {len(plain_errors)} pairs unchanged by the "
        f"butterfly split at node {butter.split_index} (exhaustive-scan optimum)",
    )


def test_criterion_8_cli_determinism(tmp_path):
    doc = {
        "schema_version": "1",
        "network": {
            "nodes": ["a", "b", "c"],
            "links": [
                {"length_km": 10.0, "p_success": 0.5, "raw_fidelity": 0.9,
                 "n_fusiliers": 4, "m_fusilands": 2},
                {"length_km": 40.0, "p_success": 0.5, "raw_fidelity": 0.9,
                 "n_fusiliers": 4, "m_fusilands": 2},
            ],
            "tau_slot_ns": 10,
            "seed": 99,
            "cycles": 50,
        },
        "output": {
            "format": "json",
            "path": str(tmp_path / "summary.json"),
            "trace": True,
            "trace_path": str(tmp_path / "run.trace.jsonl"),
        },
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(doc))
    captures = []
    for _ in range(2):
        assert cli_main(["simulate", str(config_path)]) == 0
        captures.append(
            (
                (tmp_path / "summary.json").read_bytes(),
                (tmp_path / "run.trace.jsonl").read_bytes(),
            )
        )
    assert captures[0] == captures[1]
    trace_lines = captures[0][1].decode().strip().splitlines()
    assert len(trace_lines) > 100
    _report(
        8,
        f"repeat simulate runs byte-identical: summary {len(captures[0][0])} B, "
        f"trace {len(trace_lines)} events",
    )


def test_criterion_9_asymptotic_trend():
    ms = (1, 2, 10, 100)
    ratios = [min_fusiliers(m, 0.25, 0.01) / m for m in ms]
    assert all(a >= b for a, b in zip(ratios, ratios[1:]))
    assert all(r >= 4.0 for r in ratios)
    _report(
        9,
        "n/m over m=(1,2,10,100): "
        + ", ".join(f"{r:.2f}" for r in ratios)
        + " (non-increasing, bounded below by 1/p = 4)",
    )

"""Shared test helpers: deterministic stub RNG, config builders, trace parsing."""

import json
import signal
from contextlib import contextmanager
from types import SimpleNamespace

import pytest

from fusenet.network import LinkSpec, NetworkConfig, Strategy
from fusenet.pair_algebra import LinkModel


class StubRng:
    """Feeds a prescribed sequence of uniform draws to machine operations."""

    def __init__(self, values):
        self.values = list(values)

    def random(self):
        return self.values.pop(0)


@pytest.fixture
def stub_rng():
    return StubRng


def chain_config(
    hops,
    n=1,
    m=1,
    p=1.0,
    fidelity=1.0,
    cycles=100,
    seed=0,
    strategy=Strategy.RAW,
    tau_slot_ns=0,
    proc_ns=0,
    butterfly=False,
    cycle_period_ns=None,
):
    """Uniform-parameter chain over the given hop lengths (km)."""
    links = [
        LinkSpec(
            LinkModel(length_km=length, p_success=p, raw_fidelity=fidelity),
            n_fusiliers=n,
            m_fusilands=m,
        )
        for length in hops
    ]
    return NetworkConfig(
        nodes=[f"n{i}" for i in range(len(hops) + 1)],
        links=links,
        tau_slot_ns=tau_slot_ns,
        proc_ns=proc_ns,
        strategy=strategy,
        seed=seed,
        cycles=cycles,
        butterfly=butterfly,
        cycle_period_ns=cycle_period_ns,
    )


def trace_records(trace):
    """A run's trace lines parsed, each to a namespace of its fields."""
    return [SimpleNamespace(**json.loads(line)) for line in trace]


@contextmanager
def deadline(seconds):
    """Raise ``TimeoutError`` in the block if it runs longer than ``seconds``."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)

"""Shared test helpers: config builders, trace parsing, a deadline, and a
scalar Philox4x32-10."""

import json
import signal
from contextlib import contextmanager
from types import SimpleNamespace

from fusenet.network import LinkSpec, NetworkConfig, Strategy
from fusenet.pair_algebra import LinkModel


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


_MASK32 = 0xFFFFFFFF


def philox4x32_reference(counter, key):
    """Philox4x32-10 (Salmon et al., SC'11) of one counter, as Python ints,
    written from the specification: ten rounds, each multiplying counter
    words 0 and 2 by 0xD2511F53 and 0xCD9E8D57 and mixing the products'
    halves with words 1 and 3 and the key, and the key bumped by the
    Weyl increments 0x9E3779B9 and 0xBB67AE85 before every round but the
    first. ``counter`` is four 32-bit words, ``key`` two."""
    c0, c1, c2, c3 = counter
    k0, k1 = key
    for round_ in range(10):
        if round_:
            k0, k1 = (k0 + 0x9E3779B9) & _MASK32, (k1 + 0xBB67AE85) & _MASK32
        p0, p1 = 0xD2511F53 * c0, 0xCD9E8D57 * c2
        c0, c1, c2, c3 = (p1 >> 32) ^ c1 ^ k0, p1 & _MASK32, (p0 >> 32) ^ c3 ^ k1, p0 & _MASK32
    return c0, c1, c2, c3


def keyed_words_reference(seed, domain, index, cycle, count):
    """The first ``count`` draws of key (domain, index) in ``cycle`` as
    32-bit words: draw j is word j % 4 of Philox4x32-10 at the counter
    (j // 4, index, cycle, domain) under the seed's low and high words."""
    key = (seed & _MASK32, seed >> 32)
    words = []
    for block in range(-(-count // 4)):
        words += philox4x32_reference((block, index, cycle, domain), key)
    return words[:count]

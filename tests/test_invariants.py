"""Metamorphic relations of a seeded run: what its output may depend on.

A cycle's outcome is a function of the config, the seed and the cycle, and
a hop's train of its own key alone. Each test runs a random small chain
and a variant of it and checks the relation between the two outputs:

- prefix: a k-cycle run is the first k cycles of a longer run;
- hop locality: adding a hop leaves the earlier hops' success counts as
  they were;
- timing independence: longer hops and a nonzero ``proc_ns`` move every
  time but no outcome bit;
- naming: node names change nothing.

One more property holds within a single run: every record's frame shares
compose to the pair's frame, and its herald share is available one period
after the pair.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusenet.network import LinkSpec, NetworkConfig, Strategy, run_network
from fusenet.pair_algebra import IDENTITY_FRAME, LinkModel

from conftest import chain_config

RELATION = settings(max_examples=60, deadline=None)


@st.composite
def links(draw, strategy):
    model = LinkModel(
        length_km=draw(st.floats(min_value=1.0, max_value=80.0)),
        p_success=draw(st.floats(min_value=0.05, max_value=1.0)),
        raw_fidelity=draw(st.floats(min_value=0.5, max_value=1.0)),
    )
    m = draw(st.sampled_from([3, 6]) if strategy is Strategy.PURIFY3 else st.integers(1, 6))
    # A train of 65 or more signals draws more than BATCH_MAX_DRAWS values,
    # so its chain draws every train natively rather than by the kernel.
    n = draw(st.integers(1, 12) | st.integers(65, 70))
    return LinkSpec(model, n_fusiliers=n, m_fusilands=m)


@st.composite
def chains(draw, butterfly=True):
    """A valid chain of 1-6 hops: every return comes after the train it
    follows, since a hop of 1 km takes 5,000 ns and a train at most 6,900."""
    strategy = draw(st.sampled_from(Strategy))
    hops = draw(st.lists(links(strategy), min_size=1, max_size=6))
    return NetworkConfig(
        nodes=[f"n{i}" for i in range(len(hops) + 1)],
        links=hops,
        tau_slot_ns=draw(st.integers(0, 100)),
        proc_ns=draw(st.integers(0, 2000)),
        strategy=strategy,
        seed=draw(st.integers(0, 2**32 - 1)),
        cycles=draw(st.integers(1, 8)),
        butterfly=butterfly and len(hops) > 1 and draw(st.booleans()),
    )


def outcome_bits(result):
    """Each record's outcome, with every time left out."""
    return [
        (rec.cycle_id, rec.slot, rec.pair.x_error, rec.pair.frame, rec.correction,
         rec.pair.left, rec.pair.right)
        for rec in result.records
    ]


@given(config=chains(butterfly=False), extra=st.integers(1, 6))
@RELATION
def test_prefix(config, extra):
    short = run_network(config)
    longer = run_network(dataclasses.replace(config, cycles=config.cycles + extra))
    k = config.cycles
    assert short.records == [rec for rec in longer.records if rec.cycle_id < k]
    assert short.per_cycle_delivered == longer.per_cycle_delivered[:k]
    assert short.hop_success_counts == [counts[:k] for counts in longer.hop_success_counts]


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 9: under the butterfly split a left share due after "
    "the run's last cycle has no left_frame_available_at_ns",
)
def test_prefix_butterfly_split():
    config = chain_config(
        [20.0, 25.0, 15.0, 20.0], n=12, m=9, p=0.9, fidelity=0.95, cycles=12, seed=7,
        strategy=Strategy.PURIFY3, tau_slot_ns=10, proc_ns=1000, butterfly=True,
    )
    short = run_network(config)
    longer = run_network(dataclasses.replace(config, cycles=40))
    assert short.records == [rec for rec in longer.records if rec.cycle_id < 12]


@given(config=chains(), hop=st.data())
@RELATION
def test_hop_locality(config, hop):
    added = hop.draw(links(config.strategy))
    longer = dataclasses.replace(
        config,
        nodes=config.nodes + [f"n{len(config.nodes)}"],
        links=config.links + [added],
    )
    base = run_network(config).hop_success_counts
    assert run_network(longer).hop_success_counts[: len(base)] == base


@given(config=chains())
@RELATION
def test_timing_independence(config):
    slower = dataclasses.replace(
        config,
        links=[
            dataclasses.replace(
                link, model=dataclasses.replace(link.model, length_km=2 * link.model.length_km)
            )
            for link in config.links
        ],
        proc_ns=500,
    )
    base, moved = run_network(config), run_network(slower)
    assert outcome_bits(moved) == outcome_bits(base)
    assert moved.per_cycle_delivered == base.per_cycle_delivered


@given(config=chains(), names=st.data())
@RELATION
def test_naming(config, names):
    renamed = names.draw(
        st.lists(st.text("abcdefgh-_ é", min_size=1, max_size=8),
                 min_size=len(config.nodes), max_size=len(config.nodes), unique=True)
    )
    base = run_network(config)
    other = run_network(dataclasses.replace(config, nodes=renamed))
    assert other.records == base.records
    assert other.hop_success_counts == base.hop_success_counts


@given(config=chains())
@RELATION
def test_frame_shares_compose(config):
    result = run_network(config)
    period = result.schedule.cycle_period_ns
    for rec in result.records:
        left = result.left_frame_folds.get((rec.cycle_id, rec.slot), IDENTITY_FRAME)
        assert rec.herald_correction.compose(left) == rec.pair.frame == rec.correction
        assert rec.frame_available_at_ns - rec.established_at_ns == period

"""Event queue ordering, fiber delays, and RNG substream contracts."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusenet.engine import (
    Event,
    EventKind,
    DOMAINS,
    EventQueue,
    KEY_WORD_LIMIT,
    LINK_DOMAIN,
    RngStream,
    SEED_BLOCK,
    SWAP_DOMAIN,
    channel_delay_ns,
    pcg64_random,
    run,
)
from fusenet.errors import ConfigurationError, ProtocolError, SchedulingError
from fusenet.network import validate_config

from conftest import chain_config

SPEED = 2.0e8


def make_event(t, detail=None):
    return Event(t, EventKind.CYCLE_START, 0, 0, detail)


def dispatch_all(q):
    """Run ``q`` until it drains; return its events in dispatch order."""
    seen = []
    run(q, {EventKind.CYCLE_START: seen.append, EventKind.SIGNAL_ARRIVE: seen.append})
    return seen


class TestEventQueue:
    def test_equal_times_pop_in_scheduling_order(self):
        q = EventQueue()
        first = q.schedule(make_event(100, "first"))
        second = q.schedule(make_event(100, "second"))
        assert first.seq < second.seq
        assert dispatch_all(q) == [first, second]

    def test_time_orders_before_seq(self):
        q = EventQueue()
        late = q.schedule(make_event(200))
        early = q.schedule(make_event(50))
        assert dispatch_all(q) == [early, late]

    def test_scheduling_into_the_past_rejected(self):
        q = EventQueue()
        q.schedule(make_event(100))
        dispatch_all(q)
        with pytest.raises(SchedulingError):
            q.schedule(make_event(99))

    def test_clock_is_monotone(self):
        q = EventQueue()
        for t in (5, 3, 9, 3):
            q.schedule(make_event(t))
        seen = []
        run(q, {EventKind.CYCLE_START: lambda event: seen.append(q.now_ns)})
        assert seen == [3, 3, 5, 9]

    def test_reserved_seqs_are_skipped_and_queue_nothing(self):
        q = EventQueue()
        first = q.schedule(make_event(5))
        assert q.reserve() == 1
        assert q.reserve(3) == 4
        assert len(q._heap) == 1
        assert q.schedule(make_event(5)).seq == 5
        assert [event.seq for event in dispatch_all(q)] == [first.seq, 5]


class TestRun:
    def test_empty_queue_empty_trace(self):
        hits = []
        assert run(EventQueue(), {EventKind.CYCLE_START: hits.append}) is None
        assert hits == []

    def test_single_event_single_dispatch(self):
        q = EventQueue()
        event = q.schedule(make_event(10))
        hits = []
        assert run(q, {EventKind.CYCLE_START: hits.append}) is None
        assert hits == [event]
        assert q.now_ns == 10 and not q._heap

    def test_protocol_error_attaches_event(self):
        q = EventQueue()
        q.schedule(make_event(10))

        def boom(event):
            raise ProtocolError("bad transition")

        with pytest.raises(ProtocolError) as info:
            run(q, {EventKind.CYCLE_START: boom})
        assert info.value.event.time_ns == 10


def schedule_train(q, start, count, spacing, node=0):
    arrivals = [start + k * spacing for k in range(count)]
    data = {"arrivals": arrivals}
    return q.schedule(Event(arrivals[-1], EventKind.SIGNAL_ARRIVE, node, 0, data), count)


def train_records(event):
    """One (t, seq, kind, detail) record per train member, at its own key."""
    arrivals = event.data["arrivals"]
    first = event.seq - len(arrivals) + 1
    return [(t, first + k, event.kind.value, f"member={k}") for k, t in enumerate(arrivals)]


def tracing(trace, on_train=None):
    """Handlers that append their records to ``trace``, as a simulation does."""

    def single(event):
        trace.append((event.time_ns, event.seq, event.kind.value, event.data))

    def train(event):
        if on_train is not None:
            on_train(event)
        trace.extend(train_records(event))

    return {EventKind.CYCLE_START: single, EventKind.SIGNAL_ARRIVE: train}


class TestTrain:
    def test_reserves_one_seq_per_member(self):
        q = EventQueue()
        before = q.schedule(make_event(0))
        train = schedule_train(q, 0, 3, 5)
        after = q.schedule(make_event(0))
        # seqs 1, 2, 3 are the train's; it is queued under the last one.
        assert (before.seq, train.seq, after.seq) == (0, 3, 4)
        assert len(q._heap) == 3
        assert dispatch_all(q) == [before, after, train]
        assert q.now_ns == 10

    def test_ties_with_earlier_and_later_seqs(self):
        q = EventQueue()
        q.schedule(make_event(10, "early"))
        schedule_train(q, 10, 3, 0)
        q.schedule(make_event(10, "late"))
        trace = []
        run(q, tracing(trace))
        assert sorted(trace) == [
            (10, 0, "CycleStart", "early"),
            (10, 1, "SignalArrive", "member=0"),
            (10, 2, "SignalArrive", "member=1"),
            (10, 3, "SignalArrive", "member=2"),
            (10, 4, "CycleStart", "late"),
        ]

    def test_zero_spacing_dispatches_whole_train_inline(self):
        q = EventQueue()
        schedule_train(q, 7, 4, 0)
        calls, trace = [], []
        run(q, tracing(trace, calls.append))
        assert len(calls) == 1
        assert [(t, seq) for t, seq, _kind, _detail in sorted(trace)] == [
            (7, 0), (7, 1), (7, 2), (7, 3)
        ]

    def test_member_records_interleave_with_other_events(self):
        q = EventQueue()
        q.schedule(make_event(10, "tied, lower seq"))
        schedule_train(q, 0, 3, 10)
        q.schedule(make_event(15, "between members"))
        dispatched, trace = [], []
        run(q, tracing(trace, lambda e: dispatched.append(q.now_ns)))
        assert sorted(trace) == [
            (0, 1, "SignalArrive", "member=0"),
            (10, 0, "CycleStart", "tied, lower seq"),
            (10, 2, "SignalArrive", "member=1"),
            (15, 4, "CycleStart", "between members"),
            (20, 3, "SignalArrive", "member=2"),
        ]
        assert dispatched == [20]  # once, at the last member

    def test_train_starting_in_the_past_rejected(self):
        q = EventQueue()
        q.schedule(make_event(100))
        dispatch_all(q)
        with pytest.raises(SchedulingError):
            schedule_train(q, 97, 3, 1)


# (start, count, spacing, spawn): spawn is None or (delay, count, spacing)
# of a train (count 1: a single event) scheduled when the item's last
# member dispatches.
_spawns = st.one_of(
    st.none(),
    st.tuples(st.integers(0, 12), st.integers(1, 3), st.integers(0, 6)),
)
_items = st.lists(
    st.tuples(st.integers(0, 30), st.integers(1, 5), st.integers(0, 6), _spawns),
    max_size=8,
)


def _dispatch(items, as_trains):
    """Sorted trace of ``items`` run as trains, or with every member its own event."""
    q = EventQueue()
    trace = []

    def add(start, count, spacing, node, spawn):
        if as_trains and count > 1:
            train = schedule_train(q, start, count, spacing, node)
            train.data["spawn"] = spawn
            return
        for k in range(count):
            data = {"member": k, "last": k == count - 1, "spawn": spawn}
            q.schedule(Event(start + k * spacing, EventKind.SIGNAL_ARRIVE, node, 0, data))

    def spawn(event):
        child = event.data["spawn"]
        if child is not None:
            delay, count, spacing = child
            add(q.now_ns + delay, count, spacing, 1000 * (event.node + 1), None)

    def handle(event):
        if "arrivals" in event.data:
            trace.extend(train_records(event))
            spawn(event)
            return
        if event.data["last"]:
            spawn(event)
        trace.append((event.time_ns, event.seq, event.kind.value, f"member={event.data['member']}"))

    for node, (start, count, spacing, child) in enumerate(items):
        add(start, count, spacing, node, child)
    run(q, {EventKind.SIGNAL_ARRIVE: handle})
    trace.sort()
    return trace


@settings(max_examples=200, deadline=None)
@given(_items)
def test_trains_dispatch_like_one_event_per_member(items):
    trains = _dispatch(items, as_trains=True)
    reference = _dispatch(items, as_trains=False)
    assert trains == reference
    keys = [(t, seq) for t, seq, _kind, _detail in trains]
    assert len(set(keys)) == len(keys)


class TestChannelDelay:
    def test_forty_km_round_trip_is_0p4_ms(self):
        assert channel_delay_ns(40.0, SPEED) == 200_000
        assert 2 * channel_delay_ns(40.0, SPEED) == 400_000

    def test_ten_km_round_trip_is_0p1_ms(self):
        assert channel_delay_ns(10.0, SPEED) == 50_000
        assert 2 * channel_delay_ns(10.0, SPEED) == 100_000

    def test_zero_length(self):
        assert channel_delay_ns(0.0, SPEED) == 0

    def test_nonpositive_speed_rejected(self):
        for speed in (0.0, -2.0e8, math.nan, math.inf):
            cfg = chain_config([40.0])
            cfg.signal_speed_m_per_s = speed
            with pytest.raises(ConfigurationError, match="signal_speed_m_per_s"):
                validate_config(cfg)


def reference_generator(key):
    """Per-key numpy seeding, the layout the seed kernel must reproduce."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(key)))


class TestRngStream:
    def test_same_key_reproduces_draws(self):
        stream = RngStream(12345)
        rows = stream.seed_block(range(17, 18), 4)
        again = RngStream(12345).seed_block(range(17, 18), 4)
        assert rows.tobytes() == again.tobytes()
        a = stream.substream(rows[0, LINK_DOMAIN, 3]).random(5)
        b = stream.substream(again[0, LINK_DOMAIN, 3]).random(5)
        assert list(a) == list(b)

    def test_distinct_keys_differ(self):
        stream = RngStream(12345)
        rows = stream.seed_block(range(0, 2), 2)
        base = list(stream.substream(rows[0, LINK_DOMAIN, 0]).random(4))
        for cycle, domain, index in [(1, LINK_DOMAIN, 0), (0, LINK_DOMAIN, 1), (0, SWAP_DOMAIN, 0)]:
            assert list(stream.substream(rows[cycle, domain, index]).random(4)) != base

    def test_distinct_seeds_differ(self):
        a = RngStream(1).seed_block(range(1), 1)
        b = RngStream(2).seed_block(range(1), 1)
        assert list(RngStream(1).substream(a[0, 0, 0]).random(4)) != list(
            RngStream(2).substream(b[0, 0, 0]).random(4)
        )

    def test_batched_draws_equal_scalar_draws(self):
        stream = RngStream(12345)
        row = stream.seed_block(range(17, 18), 4)[0, LINK_DOMAIN, 3]
        scalar = stream.substream(row)
        batched = stream.draws(row, 40)
        assert [batched.random() for _ in range(40)] == [scalar.random() for _ in range(40)]
        with pytest.raises(StopIteration):
            batched.random()

    def test_rows_do_not_depend_on_block_bounds(self):
        stream = RngStream(99)
        whole = stream.seed_block(range(0, 150), 3)
        assert whole.shape == (150, DOMAINS, 3, 4)
        parts = [stream.seed_block(range(a, min(a + SEED_BLOCK, 150)), 3) for a in range(0, 150, SEED_BLOCK)]
        assert np.concatenate(parts).tobytes() == whole.tobytes()
        assert stream.seed_block(range(0, 150), 5)[:, :, :3].tobytes() == whole.tobytes()

    def test_keys_beyond_one_word_rejected(self):
        stream = RngStream(0)
        last = KEY_WORD_LIMIT - 1
        assert stream.seed_block(range(last, last + 1), 1).shape == (1, DOMAINS, 1, 4)
        for cycles, width in [
            (range(last, last + 2), 1),
            (range(0, 1), KEY_WORD_LIMIT + 1),
        ]:
            with pytest.raises(ValueError, match="indices and cycles"):
                stream.seed_block(cycles, width)

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigurationError):
            RngStream(-1)


@given(
    seed=st.one_of(
        st.just(0),
        st.integers(1, 2**32 - 1),
        st.integers(2**32, 2**64 - 1),
        st.integers(2**64, 2**96),
    ),
    first_cycle=st.integers(0, KEY_WORD_LIMIT - 1),
    span=st.integers(1, 4),
    width=st.integers(1, 5),
    count=st.integers(1, 60),
)
@settings(max_examples=60, deadline=None)
def test_seed_rows_equal_numpy_seed_sequence(seed, first_cycle, span, width, count):
    # Every row of a block must seed exactly the generator numpy builds
    # from the key's SeedSequence, across one- to four-word master seeds
    # and cycles up to the last one-word value.
    cycles = range(first_cycle, min(first_cycle + span, KEY_WORD_LIMIT))
    stream = RngStream(seed)
    rows = stream.seed_block(cycles, width)
    assert rows.shape == (len(cycles), DOMAINS, width, 4)
    for k, cycle in enumerate(cycles):
        for domain in range(DOMAINS):
            for index in range(width):
                key = (seed, domain, index, cycle)
                row = rows[k, domain, index]
                expected = np.random.SeedSequence(key).generate_state(4, np.uint64)
                assert row.tolist() == expected.tolist(), key
                drawn = stream.substream(row).random(count)
                assert drawn.tolist() == reference_generator(key).random(count).tolist(), key


@given(
    seed=st.one_of(
        st.just(0),
        st.integers(1, 2**32 - 1),
        st.integers(2**32, 2**64 - 1),
        st.integers(2**64, 2**96),
    ),
    first_cycle=st.integers(0, KEY_WORD_LIMIT - 1),
    span=st.integers(1, 3),
    width=st.integers(1, 5),
    count=st.one_of(st.sampled_from([1, 63, 64, 65, 200]), st.integers(1, 200)),
)
@settings(max_examples=60, deadline=None)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_kernel_draws_equal_numpy_pcg64(seed, first_cycle, span, width, count):
    # One kernel pass over a block's rows must give, row for row, the draws
    # of numpy's generator for that key; a numpy overflow warning fails it.
    cycles = range(first_cycle, min(first_cycle + span, KEY_WORD_LIMIT))
    rows = RngStream(seed).seed_block(cycles, width)
    drawn = pcg64_random(rows, count)
    assert drawn.shape == (len(cycles), DOMAINS, width, count)
    assert drawn.dtype == np.float64
    # A simulation hands the kernel one domain's rows, a strided view.
    assert pcg64_random(rows[:, SWAP_DOMAIN], count).tobytes() == drawn[:, SWAP_DOMAIN].tobytes()
    for k, cycle in enumerate(cycles):
        for domain in range(DOMAINS):
            for index in range(width):
                key = (seed, domain, index, cycle)
                expected = reference_generator(key).random(count).tolist()
                assert drawn[k, domain, index].tolist() == expected, key


def _numpy_random_loaded(statements, *args):
    """Run ``statements`` in a fresh interpreter with ``args`` as its argv;
    whether ``numpy.random`` was loaded after importing numpy, and after them.

    Skips where numpy imports ``numpy.random`` with numpy itself.
    """
    probe = (
        "import sys, numpy; bare = 'numpy.random' in sys.modules\n"
        f"{statements}\n"
        "print(bare, 'numpy.random' in sys.modules)"
    )
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", probe, *args], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    if out[0] == "True":
        pytest.skip("this numpy imports numpy.random with numpy itself")
    return out == ["False", "True"]


def test_importing_the_package_leaves_numpy_random_unloaded():
    # numpy.random costs about 5.5 MB of RSS; only a native draw needs it.
    assert not _numpy_random_loaded("import fusenet.cli, fusenet.metrics")


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


@pytest.mark.parametrize(
    "config, long_trains",
    [("two_node_40km.json", False), ("chain4_purify_butterfly.json", False), ("two_node_40km.json", True)],
)
def test_only_long_trains_load_numpy_random(config, long_trains):
    # A chain whose every key draws at most BATCH_MAX_DRAWS values a cycle
    # draws them all with the kernel and never imports numpy.random; a train
    # of BATCH_MAX_DRAWS + 1 values draws natively and does.
    statements = (
        "import dataclasses\n"
        "from fusenet.config import load_config\n"
        "from fusenet.network import BATCH_MAX_DRAWS, run_network\n"
        "network = load_config(sys.argv[1]).network\n"
        "if sys.argv[2] == 'True':\n"
        "    network.links = [dataclasses.replace(link, n_fusiliers=BATCH_MAX_DRAWS,\n"
        "                     m_fusilands=1) for link in network.links]\n"
        "assert run_network(network).records"
    )
    assert _numpy_random_loaded(statements, str(CONFIGS / config), str(long_trains)) is long_trains

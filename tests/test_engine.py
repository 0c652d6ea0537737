"""Event queue ordering, fiber delays, and RNG substream contracts."""

import math

import pytest

from fusenet.engine import (
    Event,
    EventKind,
    EventQueue,
    LINK_DOMAIN,
    RngStream,
    SWAP_DOMAIN,
    channel_delay_ns,
    run,
)
from fusenet.errors import ConfigurationError, ProtocolError, SchedulingError
from fusenet.network import validate_config

from conftest import chain_config

SPEED = 2.0e8


def make_event(t, detail=None):
    return Event(t, EventKind.PAIR_READY, {"node": 0, "detail": detail})


class TestEventQueue:
    def test_equal_times_pop_in_scheduling_order(self):
        q = EventQueue()
        first = q.schedule(make_event(100, "first"))
        second = q.schedule(make_event(100, "second"))
        assert first.seq < second.seq
        assert q.pop() is first
        assert q.pop() is second

    def test_time_orders_before_seq(self):
        q = EventQueue()
        late = q.schedule(make_event(200))
        early = q.schedule(make_event(50))
        assert q.pop() is early
        assert q.pop() is late

    def test_scheduling_into_the_past_rejected(self):
        q = EventQueue()
        q.schedule(make_event(100))
        q.pop()
        with pytest.raises(SchedulingError):
            q.schedule(make_event(99))

    def test_clock_is_monotone(self):
        q = EventQueue()
        for t in (5, 3, 9, 3):
            q.schedule(make_event(t))
        seen = []
        while len(q):
            q.pop()
            seen.append(q.now_ns)
        assert seen == sorted(seen)


class TestRun:
    def test_empty_queue_empty_trace(self):
        assert run(EventQueue(), {}) == []

    def test_single_event_single_dispatch(self):
        q = EventQueue()
        q.schedule(make_event(10))
        hits = []
        trace = run(q, {EventKind.PAIR_READY: lambda e: hits.append(e.time_ns) or "ok"})
        assert hits == [10]
        assert len(trace) == 1
        assert trace[0].t_ns == 10 and trace[0].kind == "PairReady"
        assert trace[0].detail == "ok"

    def test_protocol_error_attaches_event(self):
        q = EventQueue()
        q.schedule(make_event(10))

        def boom(event):
            raise ProtocolError("bad transition")

        with pytest.raises(ProtocolError) as info:
            run(q, {EventKind.PAIR_READY: boom})
        assert info.value.event.time_ns == 10

    def test_trace_collection_can_be_disabled(self):
        q = EventQueue()
        q.schedule(make_event(10))
        assert run(q, {EventKind.PAIR_READY: lambda e: None}, collect_trace=False) == []


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


class TestRngStream:
    def test_same_key_reproduces_draws(self):
        stream = RngStream(12345)
        a = stream.substream(LINK_DOMAIN, 3, 17).random(5)
        b = stream.substream(LINK_DOMAIN, 3, 17).random(5)
        assert list(a) == list(b)

    def test_distinct_keys_differ(self):
        stream = RngStream(12345)
        base = list(stream.substream(LINK_DOMAIN, 0, 0).random(4))
        for key in [(LINK_DOMAIN, 0, 1), (LINK_DOMAIN, 1, 0), (SWAP_DOMAIN, 0, 0)]:
            assert list(stream.substream(*key).random(4)) != base

    def test_distinct_seeds_differ(self):
        a = RngStream(1).substream(LINK_DOMAIN, 0, 0).random(4)
        b = RngStream(2).substream(LINK_DOMAIN, 0, 0).random(4)
        assert list(a) != list(b)

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigurationError):
            RngStream(-1)

"""Deterministic discrete-event core: event queue, fiber delays, seeded substreams.

All simulation time is kept as integer nanoseconds so schedules stay exact;
ties are broken by the scheduling sequence number, which makes the dispatch
order a pure function of (config, seed). Fibers carry no state of their
own: a hop is just its one-way delay, from ``channel_delay_ns``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Mapping, NamedTuple, Optional

import numpy as np

from .errors import ConfigurationError, ProtocolError, SchedulingError

NS_PER_SECOND = 1_000_000_000

# RNG substream domains: one keyspace per purpose so that adding or removing
# a node never perturbs another link's draws.
LINK_DOMAIN = 0
SWAP_DOMAIN = 1
PURIFY_DOMAIN = 2


class EventKind(Enum):
    CYCLE_START = "CycleStart"
    HERALD_ARRIVE = "HeraldArrive"
    SIGNAL_ARRIVE = "SignalArrive"
    RETURN_ARRIVE = "ReturnArrive"
    SWAP_COMPLETE = "SwapComplete"
    PAIR_READY = "PairReady"


@dataclass(slots=True)
class Event:
    """A timestamped protocol event; ``seq`` is assigned when scheduled."""

    time_ns: int
    kind: EventKind
    payload: dict
    seq: int = -1


class TraceRecord(NamedTuple):
    t_ns: int
    seq: int
    kind: str
    node: int
    detail: str


class EventQueue:
    """Priority queue ordered by (time, scheduling sequence number)."""

    def __init__(self) -> None:
        self.now_ns = 0
        self._heap: list[tuple[int, int, Event]] = []
        self._next_seq = 0

    def __len__(self) -> int:
        return len(self._heap)

    def schedule(self, event: Event) -> Event:
        """Insert an event; scheduling into the simulated past is an error."""
        if event.time_ns < self.now_ns:
            raise SchedulingError(
                f"event at t={event.time_ns} ns lies before now={self.now_ns} ns"
            )
        event.seq = self._next_seq
        self._next_seq += 1
        heapq.heappush(self._heap, (event.time_ns, event.seq, event))
        return event

    def pop(self) -> Event:
        time_ns, _seq, event = heapq.heappop(self._heap)
        self.now_ns = time_ns
        return event


Handler = Callable[[Event], Optional[str]]


def run(
    queue: EventQueue,
    handlers: Mapping[EventKind, Handler],
    collect_trace: bool = True,
) -> list[TraceRecord]:
    """Dispatch events in (time, seq) order until the queue drains.

    Returns one trace record per dispatched event (empty when tracing is
    off). A handler raising a ProtocolError aborts the run; the offending
    event is attached to the exception as ``exc.event``.
    """
    trace: list[TraceRecord] = []
    while len(queue):
        event = queue.pop()
        try:
            detail = handlers[event.kind](event)
        except ProtocolError as exc:
            exc.event = event
            raise
        if collect_trace:
            trace.append(
                TraceRecord(
                    event.time_ns,
                    event.seq,
                    event.kind.value,
                    event.payload.get("node", -1),
                    detail or "",
                )
            )
    return trace


def channel_delay_ns(length_km: float, signal_speed_m_per_s: float) -> int:
    """One-way fiber delay on the 1 ns clock grid (nearest integer).

    Classical pulses and quantum signals are multiplexed onto the same
    fiber, so a single delay covers both.
    """
    return round(length_km * 1e12 / signal_speed_m_per_s)


@dataclass(frozen=True)
class RngStream:
    """Reproducible independent substreams keyed by (domain, index, cycle).

    The same (seed, domain, index, cycle, draw index) always yields the same
    value, and distinct keys give statistically independent streams.
    """

    master_seed: int

    def __post_init__(self) -> None:
        if self.master_seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {self.master_seed!r}")

    def substream(self, domain: int, index: int, cycle: int) -> np.random.Generator:
        seq = np.random.SeedSequence((self.master_seed, domain, index, cycle))
        return np.random.Generator(np.random.PCG64(seq))

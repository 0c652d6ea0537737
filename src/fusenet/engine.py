"""Deterministic discrete-event core: event queue, fiber delays, seeded substreams.

All simulation time is kept as integer nanoseconds so schedules stay exact;
ties are broken by the scheduling sequence number, which makes the dispatch
order a pure function of (config, seed). Fibers carry no state of their
own: a hop is just its one-way delay, from ``channel_delay_ns``.

A train of events (a hop's signal train) takes one queue entry. Scheduling
it reserves a block of consecutive sequence numbers, the ones that many
separate ``schedule`` calls would have taken, so member k keeps the key
(its own time, ``first + k``). The entry is queued under the last member's
key and its handler resolves every member in that one dispatch, returning
a trace record per member at the member's own key; ``run`` sorts the trace
by (time, seq) once, at the end. This is exact only while no event between
a train's first and last member touches what the train's handler reads or
writes, which the caller guarantees (see ``network.validate_config``).

A substream's draws for a whole train can be taken in one vector call
(``RngStream.draws``); PCG64 gives the same values as scalar draws.
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

    def schedule(self, event: Event, count: int = 1) -> Event:
        """Insert an event; scheduling into the simulated past is an error.

        With ``count`` > 1 the event stands for a train of that many members,
        due by ``event.time_ns``: it reserves their consecutive seqs and is
        queued under the last one, so member k has seq
        ``event.seq - count + 1 + k``.
        """
        if event.time_ns < self.now_ns:
            raise SchedulingError(
                f"event at t={event.time_ns} ns lies before now={self.now_ns} ns"
            )
        self._next_seq += count
        event.seq = self._next_seq - 1
        heapq.heappush(self._heap, (event.time_ns, event.seq, event))
        return event

    def pop(self) -> Event:
        time_ns, _seq, event = heapq.heappop(self._heap)
        self.now_ns = time_ns
        return event


# A handler returns its event's trace detail, or, for a train, one trace
# record per member; None when the trace is off.
Handler = Callable[[Event], Optional[str | list[TraceRecord]]]


def run(
    queue: EventQueue,
    handlers: Mapping[EventKind, Handler],
    collect_trace: bool = True,
) -> list[TraceRecord]:
    """Dispatch events in (time, seq) order until the queue drains.

    Returns one trace record per dispatched event, counting each member of
    a train, sorted by (time, seq), a key unique to each record (empty when
    tracing is off). A handler raising a ProtocolError aborts the run; the
    offending event is attached to the exception as ``exc.event``.
    """
    trace: list[TraceRecord] = []
    while len(queue):
        event = queue.pop()
        try:
            detail = handlers[event.kind](event)
        except ProtocolError as exc:
            exc.event = event
            raise
        if not collect_trace:
            continue
        if isinstance(detail, list):
            trace.extend(detail)
        else:
            trace.append(
                TraceRecord(
                    event.time_ns,
                    event.seq,
                    event.kind.value,
                    event.payload.get("node", -1),
                    detail or "",
                )
            )
    # A train's members trace at keys before the train's own dispatch.
    trace.sort()
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

    def draws(self, domain: int, index: int, cycle: int, count: int) -> "Draws":
        """The first ``count`` draws of a substream, drawn in one call."""
        return Draws(self.substream(domain, index, cycle).random(count).tolist())


class Draws:
    """Precomputed uniform draws, served in order by ``random()``.

    Stands in for the substream it was drawn from while at most as many
    values are asked for as were drawn.
    """

    __slots__ = ("random",)

    def __init__(self, values: list[float]) -> None:
        self.random = iter(values).__next__

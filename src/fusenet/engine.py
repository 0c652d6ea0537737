"""Deterministic discrete-event core: event queue, fiber delays, seeded substreams.

All simulation time is kept as integer nanoseconds so schedules stay exact;
ties are broken by the scheduling sequence number, which makes the dispatch
order a pure function of (config, seed). Fibers carry no state of their
own: a hop is just its one-way delay, from ``channel_delay_ns``. An event
names its node and cycle and carries one datum, whatever its kind's handler
needs beyond them.

A train of events (a hop's signal train) takes one queue entry. Scheduling
it reserves a block of consecutive sequence numbers, the ones that many
separate ``schedule`` calls would have taken, so member k keeps the key
(its own time, ``first + k``). The entry is queued under the last member's
key and its handler resolves every member in that one dispatch. This is
exact only while no event between a train's first and last member touches
what the train's handler reads or writes, which the caller guarantees (see
``network.validate_config``). ``EventQueue.reserve`` hands out seqs with
nothing queued, for a caller that keys a record like an event without
dispatching one. ``run`` only dispatches; handlers keep their own trace.

``run`` is the one consumer of the queue: it pops the queue's heap itself,
sets ``now_ns`` and calls ``handlers[event.kind]``. Event kinds hash by
identity (``object.__hash__``), which is exact because each member is a
singleton; the handler lookup then costs no Python-level ``Enum.__hash__``
call per event.

Each (domain, index, cycle) key owns numpy's
``PCG64(SeedSequence((seed, domain, index, cycle)))`` generator. Building a
``SeedSequence`` per key costs far more than drawing from it, so
``RngStream.seed_block`` runs SeedSequence's pool hash on uint32 lanes over
every key of a block of cycles at once and yields each key's PCG64 seed as
one row; ``RngStream.substream`` builds the generator from its row. The
rows equal what ``SeedSequence(key).generate_state(4, np.uint64)`` returns,
so every draw is bit-identical to per-key numpy seeding. A key's draws are
taken in one vector call (``RngStream.draws``); PCG64 gives the same values
as scalar draws. ``numpy.random`` is imported on the first substream, not
with this module.
"""

from __future__ import annotations

import functools
import heapq
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Mapping

import numpy as np

from .errors import ConfigurationError, ProtocolError, SchedulingError

NS_PER_SECOND = 1_000_000_000

# RNG substream domains: one keyspace per purpose so that adding or removing
# a node never perturbs another link's draws.
LINK_DOMAIN = 0
SWAP_DOMAIN = 1
PURIFY_DOMAIN = 2
DOMAINS = 3

# Cycles whose keyed seeds are expanded together. Output does not depend on it.
SEED_BLOCK = 64
# A key's index and cycle each take one 32-bit entropy word; numpy splits a
# larger integer into several words, which the seed kernel does not model.
KEY_WORD_LIMIT = 2**32

# numpy's SeedSequence hash (numpy/random/bit_generator.pyx): a pool of four
# uint32 words mixed from the entropy words, then expanded into the state.
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_MASK32 = 0xFFFFFFFF
_XSHIFT = 16


class EventKind(Enum):
    CYCLE_START = "CycleStart"
    HERALD_ARRIVE = "HeraldArrive"
    SIGNAL_ARRIVE = "SignalArrive"
    RETURN_ARRIVE = "ReturnArrive"
    SWAP_COMPLETE = "SwapComplete"

    # Members are singletons, so identity hashing is exact, and it is C-level.
    __hash__ = object.__hash__


@dataclass(slots=True)
class Event:
    """A timestamped protocol event at ``node`` for ``cycle``.

    ``data`` is the one datum its handler needs beyond those (see
    ``network`` for each kind's); ``seq`` is assigned when scheduled.
    """

    time_ns: int
    kind: EventKind
    node: int
    cycle: int
    data: object
    seq: int = -1


class EventQueue:
    """Priority queue ordered by (time, scheduling sequence number)."""

    def __init__(self) -> None:
        self.now_ns = 0
        self._heap: list[tuple[int, int, Event]] = []
        self._next_seq = 0

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
        seq = self._next_seq + count - 1
        self._next_seq = seq + 1
        event.seq = seq
        heapq.heappush(self._heap, (event.time_ns, seq, event))
        return event

    def reserve(self, count: int = 1) -> int:
        """Take the next ``count`` seqs, queueing nothing; returns the last."""
        self._next_seq += count
        return self._next_seq - 1


def run(queue: EventQueue, handlers: Mapping[EventKind, Callable[[Event], None]]) -> None:
    """Dispatch events in (time, seq) order until the queue drains.

    Sets ``queue.now_ns`` to each event's time before its handler runs. A
    handler raising a ProtocolError aborts the run; the offending event is
    attached to the exception as ``exc.event``.
    """
    heap = queue._heap
    pop = heapq.heappop
    while heap:
        queue.now_ns, _seq, event = pop(heap)
        try:
            handlers[event.kind](event)
        except ProtocolError as exc:
            exc.event = event
            raise


def channel_delay_ns(length_km: float, signal_speed_m_per_s: float) -> int:
    """One-way fiber delay on the 1 ns clock grid (nearest integer).

    Classical pulses and quantum signals are multiplexed onto the same
    fiber, so a single delay covers both.
    """
    return round(length_km * 1e12 / signal_speed_m_per_s)


def _entropy_words(value: int) -> list[int]:
    """An integer's little-endian uint32 words, as SeedSequence splits it."""
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _hasher(hash_const: int, mult: int) -> Callable[[np.ndarray], np.ndarray]:
    """SeedSequence's hash step over uint32 arrays.

    Each call advances the hash constant, which depends only on the number
    of calls, so every key advances it in step.
    """

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * mult & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ value >> _XSHIFT

    return hashmix


def _seed_pool(words: list[np.ndarray]) -> list[np.ndarray]:
    """SeedSequence's entropy pool, computed elementwise over uint32 arrays.

    ``words`` are the entropy words (at least the pool size), each an array
    broadcastable against the others.
    """
    hashmix = _hasher(_INIT_A, _MULT_A)

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return result ^ result >> _XSHIFT

    pool = [hashmix(word) for word in words[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    return pool


@functools.cache
def _row_seed_type() -> type:
    """A seed sequence handing PCG64 one precomputed state row.

    Built on first use, so that importing this module does not import
    ``numpy.random``.
    """
    from numpy.random.bit_generator import ISeedSequence

    class RowSeed(ISeedSequence):
        __slots__ = ("row",)

        def __init__(self, row: np.ndarray) -> None:
            self.row = row

        def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
            return self.row

    return RowSeed


@dataclass(frozen=True)
class RngStream:
    """Reproducible independent substreams keyed by (domain, index, cycle).

    The same (seed, domain, index, cycle, draw index) always yields the same
    value, and distinct keys give statistically independent streams. A
    key's generator is ``PCG64(SeedSequence((seed, domain, index, cycle)))``;
    its seed row comes from ``seed_block``.
    """

    master_seed: int

    def __post_init__(self) -> None:
        if self.master_seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {self.master_seed!r}")

    def seed_block(self, cycles: range, width: int) -> np.ndarray:
        """PCG64 seed rows of every key with a cycle in ``cycles``.

        Returns a C-contiguous uint64 array of shape
        ``(len(cycles), DOMAINS, width, 4)``; row ``[k, domain, index]``
        equals ``SeedSequence((seed, domain, index, cycles[k]))
        .generate_state(4, np.uint64)``. ``cycles`` is a range of step 1;
        indices and cycles must be below ``KEY_WORD_LIMIT``.
        """
        if max(width, cycles.stop) > KEY_WORD_LIMIT:
            raise ValueError(
                f"keyed seeds need indices and cycles in [0, {KEY_WORD_LIMIT})"
            )
        words = [np.array([w], np.uint32) for w in _entropy_words(self.master_seed)]
        words.append(np.arange(DOMAINS, dtype=np.uint32).reshape(1, DOMAINS, 1))
        words.append(np.arange(width, dtype=np.uint32).reshape(1, 1, width))
        words.append(np.array(cycles, dtype=np.uint32).reshape(-1, 1, 1))
        pool = _seed_pool(words)
        # generate_state(4, np.uint64): eight uint32 words hashed round the
        # pool, paired little-endian into four uint64s.
        hashmix = _hasher(_INIT_B, _MULT_B)
        halves = [hashmix(pool[i % _POOL_SIZE]) for i in range(8)]
        rows = np.empty((len(cycles), DOMAINS, width, 4), np.uint64)
        for k in range(4):
            high = halves[2 * k + 1].astype(np.uint64) << np.uint64(32)
            rows[..., k] = high | halves[2 * k]
        return rows

    def substream(self, row: np.ndarray) -> np.random.Generator:
        """The generator of the key whose ``seed_block`` row is ``row``."""
        return np.random.Generator(np.random.PCG64(_row_seed_type()(row)))

    def draws(self, row: np.ndarray, count: int) -> "Draws":
        """The first ``count`` draws of a key's substream, drawn in one call."""
        return Draws(self.substream(row).random(count).tolist())


class Draws:
    """Precomputed uniform draws, served in order by ``random()``.

    Stands in for the substream it was drawn from while at most as many
    values are asked for as were drawn.
    """

    __slots__ = ("random",)

    def __init__(self, values: list[float]) -> None:
        self.random = iter(values).__next__

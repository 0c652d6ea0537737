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
one row. The rows equal what ``SeedSequence(key).generate_state(4,
np.uint64)`` returns, so every draw is bit-identical to per-key numpy
seeding.

A key's draws come from its row in one of two ways, with the same values.
PCG64 is a 128-bit LCG, ``x -> M*x + c mod 2**128``, read through the
XSL-RR permutation. Seeding from a row sets ``s = row[0] << 64 | row[1]``
and ``c = (row[2] << 64 | row[3]) << 1 | 1`` and steps twice, and each draw
steps once before it reads, so draw k reads the state ``M**(k+2) * s +
G(k+3) * c`` with ``G(j) = M**0 + ... + M**(j-1)``: a closed form in the
row. ``pcg64_random`` evaluates it for many rows and draws at once in
uint64 limbs, building its coefficient tables on first use, and returns
``(x >> 11) * 2**-53`` of the permuted word, as ``Generator.random`` does.
It saves the per-key set-up of numpy's own generator (``RngStream.draws``,
one vector call per key) and spends more per value: for a block of 512
keys on a 2-vCPU x86_64 host, the kernel with its ``tolist`` takes about
0.8 us a key at 16 values and 4.0 us at 64, numpy's generator 3.4 and 4.8
us, and the two cross between 80 and 96 values a key. So the kernel serves
short streams, a block of keys at a time, and the native path serves long
ones and is the tests' reference. ``numpy.random`` is imported on the
first native draw, not with this module, and the kernel never imports it.
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

# The most cycles whose keyed seeds are expanded together (a simulation may
# take fewer; see ``network``). Output does not depend on it.
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

# PCG64's multiplier (numpy/random/src/pcg64/pcg64.h). The kernel mixes
# arrays only with np.uint64 constants, so that no numpy promotion rule can
# turn a uint64 term into float64.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK64 = 2**64 - 1
_MASK128 = 2**128 - 1
_ONE = np.uint64(1)
_WORD = np.uint64(32)
_LOW_WORD = np.uint64(_MASK32)


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


@functools.lru_cache(maxsize=16)
def _pcg64_coefficients(count: int) -> tuple[np.ndarray, ...]:
    """Draw k's state coefficients for k < ``count``, as uint64 limbs.

    ``A(k) = M**(k+2)`` and ``G(k+3)`` mod 2**128, each as its high word, its
    low word, and the low word's low and high 32-bit halves: eight arrays of
    shape ``(count, 1)``.
    """
    power = _PCG_MULT * _PCG_MULT & _MASK128
    total = 1 + _PCG_MULT + power & _MASK128
    columns = []
    for _ in range(count):
        columns.append((power >> 64, power & _MASK64, total >> 64, total & _MASK64))
        power = power * _PCG_MULT & _MASK128
        total = total + power & _MASK128
    a_hi, a_lo, g_hi, g_lo = np.array(columns, np.uint64).T[..., None]
    return (
        a_hi, a_lo, a_lo & _LOW_WORD, a_lo >> _WORD,
        g_hi, g_lo, g_lo & _LOW_WORD, g_lo >> _WORD,
    )


def pcg64_random(rows: np.ndarray, count: int) -> np.ndarray:
    """``count`` uniform draws of every seed row in ``rows``, in one pass.

    ``rows`` holds ``seed_block`` rows, uint64 of shape ``(..., 4)``; the
    result is float64 of shape ``(..., count)``, and row for row it equals
    ``PCG64(row).random(count)`` bit for bit. ``count`` is at least 1. Draw
    k reads the state ``A(k) * s + G(k+3) * c`` (see the module docstring),
    computed mod 2**128 in 64-bit words, with every key in its own column.
    """
    s_hi, s_lo, inc_hi, inc_lo = rows.reshape(-1, 4).T
    c_hi = inc_hi << _ONE | inc_lo >> np.uint64(63)
    c_lo = inc_lo << _ONE | _ONE
    a_hi, a_lo, a0, a1, g_hi, g_lo, g0, g1 = _pcg64_coefficients(count)
    s0, s1 = s_lo & _LOW_WORD, s_lo >> _WORD
    c0, c1 = c_lo & _LOW_WORD, c_lo >> _WORD
    # The state's bits 0-31 gather in w0, bits 32-63 in w1 and the high
    # word in hi, each a sum of 32-bit parts of the 64-bit products of
    # 32-bit halves; a carry moves up once every part is in. Each product
    # goes through the scratch arrays u and v, so few fresh pages are touched.
    shape = (count, s_lo.size)
    u, v = np.empty(shape, np.uint64), np.empty(shape, np.uint64)
    w0, w1, hi = (np.zeros(shape, np.uint64) for _ in range(3))
    for x, y in ((a0, s0), (g0, c0)):
        np.multiply(x, y, out=u)
        w1 += np.right_shift(u, _WORD, out=v)
        w0 += np.bitwise_and(u, _LOW_WORD, out=u)
    for x, y in ((a0, s1), (a1, s0), (g0, c1), (g1, c0)):
        np.multiply(x, y, out=u)
        hi += np.right_shift(u, _WORD, out=v)
        w1 += np.bitwise_and(u, _LOW_WORD, out=u)
    for x, y in ((a1, s1), (g1, c1), (a_lo, s_hi), (a_hi, s_lo), (g_lo, c_hi), (g_hi, c_lo)):
        hi += np.multiply(x, y, out=u)
    w1 += np.right_shift(w0, _WORD, out=v)
    hi += np.right_shift(w1, _WORD, out=v)
    w0 &= _LOW_WORD
    w1 <<= _WORD
    w1 |= w0
    # XSL-RR: the two words XORed, rotated right by the state's top 6 bits;
    # the spent w0 and w1 hold the left shift and the bits it moves out.
    word = np.bitwise_xor(hi, w1, out=u)
    rot = np.right_shift(hi, np.uint64(58), out=v)
    np.subtract(np.uint64(64), rot, out=w0)
    w0 &= np.uint64(63)
    np.left_shift(word, w0, out=w1)
    word >>= rot
    word |= w1
    word >>= np.uint64(11)
    out = word.T.astype(np.float64, order="C")
    out *= 2.0**-53
    return out.reshape(rows.shape[:-1] + (count,))


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

"""Deterministic discrete-event core: event queue, fiber delays, seeded substreams.

All simulation time is kept as integer nanoseconds so schedules stay exact;
ties are broken by the scheduling sequence number, which makes the dispatch
order a pure function of (config, seed). Fibers carry no state of their
own: a hop is just its one-way delay, from ``channel_delay_ns``.

A queue entry is the flat tuple ``(time_ns, seq, kind, node, cycle,
datum)``: an event names its kind, its node and its cycle and carries one
datum, whatever its kind's handler needs beyond them. ``run`` pops each
entry, sets ``queue.now_ns`` and ``queue.seq`` to its time and seq, and
calls ``handlers[kind](node, cycle, datum)``; a handler reads the two from
the queue when it needs them. No object is built per event.

A train of events (a hop's signal train) takes one queue entry. Scheduling
it reserves a block of consecutive sequence numbers, the ones that many
separate ``schedule`` calls would have taken, so member k keeps the key
(its own time, ``first + k``). The entry is queued under the last member's
key and its handler resolves every member in that one dispatch. This is
exact only while no event between a train's first and last member touches
what the train's handler reads or writes, which the caller guarantees (see
``network.validate_config``). ``EventQueue.reserve`` hands out a seq with
nothing queued, for a caller that keys a record like an event without
dispatching one. ``run`` only dispatches; handlers keep their own trace.

An ``EventKind`` hashes by identity (``object.__hash__``), which is exact
because each member is a singleton; the handler lookup then costs no
Python-level ``Enum.__hash__`` call per event.

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
It saves the per-key set-up of numpy's own generator
(``RngStream.substream``) and spends more per value. The native path is
the tests' reference. ``numpy.random`` is imported on the first native
draw, never by the kernel.

Every keyed draw is only ever compared with a threshold: a signal with its
success probability, its error bit with 1 - F, a swap or purification
coin with 0.5. So ``KeyedDraws``, the one owner of a run's keyed draws,
hands out threshold bits, never a float. Its caller states once the most
values each (domain, index) key draws in a cycle and, per domain, the
columns its keys read: ``(start, step, thresholds)``, draws ``start``,
``start + step``, ... of key i each tested against ``thresholds[i]``. As
each cycle starts it reads a key as one int per column, bit j set when the
column's draw j is below its threshold. It expands the seeds a block of
cycles at a time, at most ``SEED_BLOCK`` cycles and ``BLOCK_MAX_VALUES``
batched values. A domain whose keys draw at most ``BATCH_MAX_DRAWS``
values each takes the whole block from one kernel call, and the block's
tests are packed once, in numpy, into each key's ints, held until the
next block starts; a domain above the limit draws key by key natively and
packs a key's bits with ``np.packbits`` when it is read. Neither changes
a bit. For a block of 512 keys of two columns each on a 2-vCPU x86_64
host, the kernel with its packing takes about 1.0 us a key at 16 values,
4.7 us at 64 and 12 us at 128; numpy's generator with the key's packing
12, 11 and 13 us, and 16 us at 644, where the kernel takes 77 us.
"""

from __future__ import annotations

import functools
import heapq
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Mapping

import numpy as np

from .errors import ConfigurationError, SchedulingError

NS_PER_SECOND = 1_000_000_000

# RNG substream domains: one keyspace per purpose so that adding or removing
# a node never perturbs another link's draws.
LINK_DOMAIN = 0
SWAP_DOMAIN = 1
PURIFY_DOMAIN = 2
DOMAINS = 3

# The most cycles whose keyed seeds are expanded together (a block may hold
# fewer; see ``KeyedDraws``). Output does not depend on it.
SEED_BLOCK = 64
# A domain whose keys each draw at most this many values a cycle draws every
# key of a block in one ``pcg64_random`` call; a domain above it draws key by
# key from numpy's generator (``RngStream.substream``). Packed into
# threshold bits, the two cross between 128 and 256 values a key (module
# docstring), so the limit is low; no benchmark workload has keys of 65 to
# 128 values. Long keys stay native: there the kernel costs about 120 ns a
# value against numpy's 25 ns.
BATCH_MAX_DRAWS = 64
# The most values a block of batched draws may hold: the block is cut to
# fewer cycles when its keys would draw more.
BLOCK_MAX_VALUES = 2**14
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


class EventQueue:
    """Priority queue of ``(time_ns, seq, kind, node, cycle, datum)`` entries.

    Entries pop in (time, seq) order; a seq is unique, so no two entries
    ever compare past it. ``now_ns`` and ``seq`` are those of the entry
    ``run`` dispatched last.
    """

    def __init__(self) -> None:
        self.now_ns = 0
        self.seq = -1
        self._heap: list[tuple] = []
        self._next_seq = 0

    def schedule(
        self, time_ns: int, kind: EventKind, node: int, cycle: int, datum: object, count: int = 1
    ) -> int:
        """Queue an event and return its seq; scheduling into the simulated
        past is an error.

        With ``count`` > 1 the event stands for a train of that many members,
        due by ``time_ns``: it reserves their consecutive seqs and is queued
        under the last one, which it returns, so member k has seq
        ``seq - count + 1 + k``.
        """
        if time_ns < self.now_ns:
            raise SchedulingError(
                f"event at t={time_ns} ns lies before now={self.now_ns} ns"
            )
        seq = self._next_seq + count - 1
        self._next_seq = seq + 1
        heapq.heappush(self._heap, (time_ns, seq, kind, node, cycle, datum))
        return seq

    def reserve(self) -> int:
        """Take the next seq, queueing nothing, and return it."""
        self._next_seq += 1
        return self._next_seq - 1


def run(
    queue: EventQueue, handlers: Mapping[EventKind, Callable[[int, int, object], None]]
) -> None:
    """Dispatch events in (time, seq) order until the queue drains.

    Pops each entry, sets ``queue.now_ns`` and ``queue.seq`` to its time
    and seq, then calls ``handlers[kind](node, cycle, datum)``.
    """
    heap = queue._heap
    pop = heapq.heappop
    while heap:
        queue.now_ns, queue.seq, kind, node, cycle, datum = pop(heap)
        handlers[kind](node, cycle, datum)


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


def _block_tests(count: int, columns, counts: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """What a batched block compares: the draws each column reads and their
    thresholds, per key.

    Returns ``(index, limits)``: ``index[c, j]`` is column c's draw j,
    ``limits[i, c, j]`` key i's threshold for it, or 0.0 (no draw is below
    it) where column c has no draw j or key i draws fewer values. A row of
    draws is a whole number of bytes, so the block packs in one call.
    """
    spans = [len(range(start, count, step)) for start, step, _ in columns]
    j = np.arange(-(-max(spans + [1]) // 8) * 8)
    index = np.array([start + step * j for start, step, _ in columns])
    thresholds = np.array([limits for _, _, limits in columns], np.float64).T
    read = index < np.asarray(counts)[:, None, None]
    return np.minimum(index, count - 1), np.where(read, thresholds[..., None], 0.0)


def _block_bits(values: np.ndarray, index: np.ndarray, limits: np.ndarray) -> list:
    """Every key's threshold bits in a block of ``pcg64_random`` values, as
    nested lists by cycle, key and column, each column one int."""
    bits = values[..., index] < limits
    packed = np.packbits(bits, bitorder="little").reshape(bits.shape[:-1] + (-1,))
    size = packed.shape[-1]
    lanes = -(-size // 8)
    if size % 8:
        padded = np.zeros(packed.shape[:-1] + (8 * lanes,), np.uint8)
        padded[..., :size] = packed
        packed = padded
    words = packed.view("<u8")
    # A column of more than 64 bits joins its words as Python ints.
    ints = words[..., -1].astype(object)
    for k in range(lanes - 2, -1, -1):
        ints = ints << 64 | words[..., k].astype(object)
    return ints.tolist()


def _key_bits(values: np.ndarray, columns, index: int) -> list[int]:
    """One key's threshold bits, one int per column, from its own values."""
    return [
        int.from_bytes(
            np.packbits(values[start::step] < limits[index], bitorder="little").tobytes(),
            "little",
        )
        for start, step, limits in columns
    ]


class KeyedDraws:
    """The keyed draws of a run, for its cycles started in order from 0,
    handed out as threshold bits.

    ``counts[domain][index]`` is the most values key (domain, index) draws
    in a cycle (0 if it never draws), every domain's list of one length.
    ``columns[domain]`` is what the domain's keys test their draws against:
    each column ``(start, step, thresholds)`` reads draws ``start``,
    ``start + step``, ... of key i, each against ``thresholds[i]``. Every
    keyed draw is only ever compared with a threshold, so no float is
    handed out. A block's bits are read in cycle order, each cycle's as it
    starts, so no block is held past the start of the next.
    """

    def __init__(self, seed: int, counts: list[list[int]], columns: list, cycles: int) -> None:
        self.rng = RngStream(seed)
        self.counts = counts
        self.columns = columns
        self.cycles = cycles
        self.width = len(counts[0])
        # Per domain, the values each key takes from a block, 0 if it draws
        # key by key; a block is as many cycles as keep them in bounds.
        most = list(map(max, counts))
        self.batched = [count if count <= BATCH_MAX_DRAWS else 0 for count in most]
        self.native = max(most) > BATCH_MAX_DRAWS
        per_cycle = self.width * sum(self.batched)
        self.block = min(SEED_BLOCK, max(1, BLOCK_MAX_VALUES // max(1, per_cycle)))
        self.tests = [
            _block_tests(count, columns[domain], counts[domain]) if count else None
            for domain, count in enumerate(self.batched)
        ]
        # The last block started: its seed rows if a key draws natively, and
        # per domain its batched bits by cycle, index and column (or None).
        self.rows = None
        self.bits: list = []

    def cycle(self, cycle: int) -> Callable[[int, int], list[int]]:
        """Start ``cycle``; returns its ``draws(domain, index)``: one int per
        column of the domain, bit j set when the column's draw j is below
        its threshold. No int has a bit for a draw at or past the key's
        count."""
        offset = cycle % self.block
        if not offset:
            block = range(cycle, min(cycle + self.block, self.cycles))
            rows = self.rng.seed_block(block, self.width)
            self.rows = rows if self.native else None
            self.bits = [
                _block_bits(pcg64_random(rows[:, domain], count), *tests) if count else None
                for domain, (count, tests) in enumerate(zip(self.batched, self.tests))
            ]
        rows, counts, columns, rng = self.rows, self.counts, self.columns, self.rng
        bits = [None if block is None else block[offset] for block in self.bits]

        def draws(domain: int, index: int) -> list[int]:
            batch = bits[domain]
            if batch is None:
                values = rng.substream(rows[offset, domain, index]).random(counts[domain][index])
                return _key_bits(values, columns[domain], index)
            return batch[index]

        return draws

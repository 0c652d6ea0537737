"""Deterministic core: fiber delays on the nanosecond clock, seeded keyed draws.

All simulation time is kept as integer nanoseconds so schedules stay exact.
Fibers carry no state of their own: a hop is just its one-way delay, from
``channel_delay_ns``. Where each event of a cycle falls is a closed form of
the schedule (see ``network``), so no event queue is kept.

Every keyed draw is a pure function of (seed, domain, index, cycle, draw):
draw j of key (domain, index) in cycle c is word ``j % 4`` of
Philox4x32-10 (Salmon et al., *Parallel random numbers: as easy as 1, 2,
3*, SC'11) at the counter ``(j // 4, index, c, domain)``, keyed by the
seed's low and high 32-bit words. So any cycle's draws can be computed
alone, and ``philox4x32`` computes every key of a block of cycles in one
numpy pass over uint32 arrays. ``numpy.random`` is never imported. On a
2-vCPU x86_64 host a word costs about 6 ns in a paper cycle's 16,100
counters, numpy's own generator about 5 to 10 ns a double.

Every keyed draw is only ever compared with a threshold: a signal with its
success probability, its error bit with 1 - F, a swap or purification
coin with 0.5. So ``KeyedDraws``, the one owner of a run's keyed draws,
hands out threshold tests, never a float. A threshold t becomes the
integer ``ceil(t * 2**32)``, and a word w tests ``w < ceil(t * 2**32)``,
which a uniform word passes with probability ``ceil(t * 2**32) / 2**32``:
each probability is quantized up by less than ``2**-32``, and 0 and 1 stay
exact. Its caller states once the most values each (domain, index) key
draws in a cycle and, per domain, the columns its keys read: ``(start,
step, thresholds)``, draws ``start``, ``start + step``, ... of key i each
tested against ``thresholds[i]``. It hands out the run's tests a block of
cycles at a time, per domain one bool array ``(cycles, keys, columns,
draws)``, left as bools. A block holds as many cycles as keep it within
``BLOCK_MAX_VALUES`` values, but never fewer than one, so a chain of long
keys (a paper hop's 644 draws, or a train of 2**22 signals) gets blocks of
one cycle. The bound cannot move output, since no draw depends on the
block that computes it.
"""

from __future__ import annotations

import math
import sys
from typing import Iterator

import numpy as np

from .errors import ConfigurationError

NS_PER_SECOND = 1_000_000_000

# RNG substream domains: one keyspace per purpose so that adding or removing
# a node never perturbs another link's draws.
LINK_DOMAIN = 0
SWAP_DOMAIN = 1
PURIFY_DOMAIN = 2
DOMAINS = 3

# The most values a block of tests may hold: the block is cut to fewer
# cycles, but never fewer than one, when its keys would draw more.
BLOCK_MAX_VALUES = 2**14
# A key's index and cycle are each one 32-bit word of the Philox counter,
# and the seed is the two 32-bit words of its key.
KEY_WORD_LIMIT = 2**32

# Philox4x32's round multipliers and key increments (Random123). Words are
# uint32 arrays, mixed only with np.uint32 scalars; each product is taken
# with an explicit uint64 loop, so that no numpy promotion rule can narrow
# it or turn it into float64.
_PHILOX_M0 = np.uint64(0xD2511F53)
_PHILOX_M1 = np.uint64(0xCD9E8D57)
_PHILOX_W0 = 0x9E3779B9
_PHILOX_W1 = 0xBB67AE85
_PHILOX_ROUNDS = 10
_MASK32 = 0xFFFFFFFF
# Where a uint64's low and high 32-bit halves sit when viewed as two uint32s.
_LOW, _HIGH = (0, 1) if sys.byteorder == "little" else (1, 0)


def channel_delay_ns(length_km: float, signal_speed_m_per_s: float) -> int:
    """One-way fiber delay on the 1 ns clock grid (nearest integer).

    Classical pulses and quantum signals are multiplexed onto the same
    fiber, so a single delay covers both.
    """
    return round(length_km * 1e12 / signal_speed_m_per_s)


def philox4x32(counter: tuple, key: tuple[int, int]) -> tuple[np.ndarray, ...]:
    """Philox4x32-10 of every counter in ``counter`` under ``key``.

    ``counter`` is four uint32 arrays (or np.uint32 scalars), broadcastable
    against each other; ``key`` is two 32-bit ints. Returns the four output
    words, each a uint32 array of the broadcast shape. Each round multiplies
    two words into exact 64-bit products and reads their high and low
    halves as uint32 views, so no shift or mask is taken.
    """
    c0, c1, c2, c3 = counter
    k0, k1 = key
    for round_ in range(_PHILOX_ROUNDS):
        if round_:
            k0, k1 = (k0 + _PHILOX_W0) & _MASK32, (k1 + _PHILOX_W1) & _MASK32
        p0 = np.multiply(c0, _PHILOX_M0, dtype=np.uint64)[..., None].view(np.uint32)
        p1 = np.multiply(c2, _PHILOX_M1, dtype=np.uint64)[..., None].view(np.uint32)
        c0, c1 = p1[..., _HIGH] ^ c1 ^ np.uint32(k0), p1[..., _LOW]
        c2, c3 = p0[..., _HIGH] ^ c3 ^ np.uint32(k1), p0[..., _LOW]
    return c0, c1, c2, c3


class KeyedDraws:
    """The keyed draws of a run, for its cycles in order from 0, handed out
    as threshold tests a block of cycles at a time.

    ``counts[domain][index]`` is the most values key (domain, index) draws
    in a cycle (0 if it never draws), every domain's list of one length.
    ``columns[domain]`` is what the domain's keys test their draws against:
    each column ``(start, step, thresholds)`` reads draws ``start``,
    ``start + step``, ... of key i, each against ``thresholds[i]``. Every
    keyed draw is only ever compared with a threshold, so no float is
    handed out.
    """

    def __init__(self, seed: int, counts: list[list[int]], columns: list, cycles: int) -> None:
        if not 0 <= seed < KEY_WORD_LIMIT**2:
            raise ConfigurationError(f"seed must be in [0, 2**64), got {seed!r}")
        self.width = len(counts[0])
        if max(cycles, self.width) > KEY_WORD_LIMIT:
            raise ValueError(f"keyed draws need indices and cycles in [0, {KEY_WORD_LIMIT})")
        self.key = (seed & _MASK32, seed >> 32)
        self.cycles = cycles
        self.most = list(map(max, counts))
        self.block = max(1, BLOCK_MAX_VALUES // max(1, self.width * sum(self.most)))
        self.columns = columns
        # Per domain, each key's threshold by column as the largest word that
        # passes, ceil(t * 2**32) - 1, in uint32 like the words; where that is
        # -1 (t = 0) the key passes no test. Then the tests that a key's own
        # count leaves unset where it draws fewer values than the domain's
        # longest key: (index, column, first unset draw).
        ceilings = [
            np.array([[math.ceil(t * 2**32) for t in ts] for _, _, ts in cs], np.int64).T
            for cs in columns
        ]
        self.limits = [np.maximum(c - 1, 0).astype(np.uint32) for c in ceilings]
        self.never = [c == 0 for c in ceilings]
        self.short = [
            [
                (index, column, len(range(start, count, step)))
                for column, (start, step, _) in enumerate(columns[domain])
                for index, count in enumerate(counts[domain])
                if count < most
            ]
            for domain, most in enumerate(self.most)
        ]

    def _words(self, cycles: range, domain: int) -> np.ndarray:
        """Draws 0 to the domain's longest count of every key of ``domain``
        in ``cycles``: uint32 words of shape ``(cycles, width, count)``."""
        count = self.most[domain]
        if not count:
            return np.zeros((len(cycles), self.width, 0), np.uint32)
        counter = (
            np.arange(-(-count // 4), dtype=np.uint32),
            np.arange(self.width, dtype=np.uint32)[:, None],
            np.arange(cycles.start, cycles.stop, dtype=np.uint32)[:, None, None],
            np.uint32(domain),
        )
        words = np.stack(philox4x32(counter, self.key), axis=-1)
        return words.reshape(len(cycles), self.width, 4 * len(counter[0]))[..., :count]

    def _tests(self, cycles: range) -> list[np.ndarray]:
        """Every domain's tests of the block of ``cycles``."""
        tests = []
        for domain, columns in enumerate(self.columns):
            words = self._words(cycles, domain)
            spans = [len(range(start, words.shape[-1], step)) for start, step, _ in columns]
            out = np.zeros(words.shape[:2] + (len(columns), max(spans, default=0)), bool)
            limits, never = self.limits[domain], self.never[domain]
            for column, (start, step, _) in enumerate(columns):
                drawn = words[..., start::step]
                tested = out[:, :, column, : drawn.shape[-1]]
                np.less_equal(drawn, limits[:, column, None], out=tested)
                if never[:, column].any():
                    tested[:, never[:, column]] = False
            del words
            for index, column, span in self.short[domain]:
                out[:, index, column, span:] = False
            tests.append(out)
        return tests

    def blocks(self) -> Iterator[tuple[range, list[np.ndarray]]]:
        """Each block of cycles in order, with its tests: per domain a bool
        array of shape ``(cycles, width, columns, draws)``, ``[k, i, c, j]``
        set when column c's draw j of key i in the block's cycle k is below
        its threshold, with as many draws as the domain's longest column.
        No test at or past a key's count is set, and no block is held past
        the next."""
        for first in range(0, self.cycles, self.block):
            cycles = range(first, min(first + self.block, self.cycles))
            yield cycles, self._tests(cycles)

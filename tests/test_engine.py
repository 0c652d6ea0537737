"""Fiber delays, Philox4x32-10 and keyed-draw contracts."""

import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fusenet import engine as engine_module
from fusenet.engine import (
    DOMAINS,
    KEY_WORD_LIMIT,
    KeyedDraws,
    LINK_DOMAIN,
    SWAP_DOMAIN,
    channel_delay_ns,
    philox4x32,
)
from fusenet.errors import ConfigurationError
from fusenet.network import validate_config

from conftest import chain_config, keyed_words_reference, philox4x32_reference

SPEED = 2.0e8


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


# Random123's known-answer vectors for Philox4x32-10: (counter, key, output).
KNOWN_ANSWERS = {
    "zeros": ((0, 0, 0, 0), (0, 0), (0x6627E8D5, 0xE169C58D, 0xBC57AC4C, 0x9B00DBD8)),
    "ones": (
        (0xFFFFFFFF,) * 4, (0xFFFFFFFF,) * 2, (0x408F276D, 0x41C83B0E, 0xA20BC7C6, 0x6D5451FD),
    ),
    "pi": (
        (0x243F6A88, 0x85A308D3, 0x13198A2E, 0x03707344),
        (0xA4093822, 0x299F31D0),
        (0xD16CFE09, 0x94FDCCEB, 0x5001E420, 0x24126EA1),
    ),
}


@pytest.mark.parametrize("vector", sorted(KNOWN_ANSWERS))
def test_philox_known_answer_vectors(vector):
    # The scalar reference is checked against the vectors, and the
    # vectorized one against both.
    counter, key, output = KNOWN_ANSWERS[vector]
    assert philox4x32_reference(counter, key) == output
    words = philox4x32(tuple(np.array([c], np.uint32) for c in counter), key)
    assert all(word.dtype == np.uint32 for word in words)
    assert tuple(int(word[0]) for word in words) == output


_WORDS = st.integers(0, 2**32 - 1)


def _coins(seed, cycles, domain=LINK_DOMAIN):
    """The first 64 draws of keys 0 and 1 of ``domain`` in each of
    ``cycles`` cycles, tested against 0.5: bool, (cycles, 2, 64)."""
    counts = [[64] * 2 for _ in range(DOMAINS)]
    columns = [[(0, 1, [0.5, 0.5])] for _ in range(DOMAINS)]
    ((_, tests),) = KeyedDraws(seed, counts, columns, cycles).blocks()
    return tests[domain][:, :, 0]


class TestRngStream:
    """The keyed draws as streams: reproducible, distinct per key and seed,
    and equal, computed in one vectorized pass, to the scalar reference."""

    def test_same_key_reproduces_draws(self):
        counts = [[5, 70, 0, 3]] * DOMAINS
        columns = [[(0, 1, [0.3, 0.6, 0.5, 1.0]), (1, 2, [0.5] * 4)]] * DOMAINS
        first, again = (list(KeyedDraws(12345, counts, columns, 20).blocks()) for _ in range(2))
        assert [cycles for cycles, _ in first] == [cycles for cycles, _ in again]
        for (_, a), (_, b) in zip(first, again):
            assert [t.tobytes() for t in a] == [t.tobytes() for t in b]

    def test_distinct_keys_differ(self):
        coins = _coins(12345, 2)
        base = coins[0, 0].tolist()
        assert coins[1, 0].tolist() != base
        assert coins[0, 1].tolist() != base
        assert _coins(12345, 2, SWAP_DOMAIN)[0, 0].tolist() != base

    def test_distinct_seeds_differ(self):
        for seed in (2, 2**32 + 1, 2**63):
            assert _coins(seed, 1).tolist() != _coins(1, 1).tolist()

    @given(
        counter=st.tuples(_WORDS, _WORDS, _WORDS, _WORDS),
        key=st.tuples(_WORDS, _WORDS),
        shape=st.sampled_from([(), (1,), (3,), (2, 3)]),
    )
    @settings(max_examples=60, deadline=None)
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_batched_draws_equal_scalar_draws(self, counter, key, shape):
        # Every lane of an array pass equals the scalar reference at its own
        # counter; a numpy overflow warning fails it. Lane k adds k to each
        # counter word, wrapping, so the lanes' counters differ.
        lanes = np.arange(math.prod(shape), dtype=np.uint64).reshape(shape)
        arrays = tuple(((lanes + np.uint64(c)) & np.uint64(0xFFFFFFFF)).astype(np.uint32) for c in counter)
        words = philox4x32(arrays, key)
        for k, lane in enumerate(lanes.reshape(-1).tolist()):
            expected = philox4x32_reference(tuple((c + lane) & 0xFFFFFFFF for c in counter), key)
            assert tuple(int(word.reshape(-1)[k]) for word in words) == expected

    def test_rows_do_not_depend_on_block_bounds(self):
        # A block's tests depend on neither the block's bounds nor how many
        # keys the run has: each draw is Philox at its own counter.
        counts = [[9, 2, 30]] * DOMAINS
        columns = [[(0, 1, [0.4, 0.5, 0.6])]] * DOMAINS
        per_cycle = 3 * 30 * DOMAINS
        runs = {}
        # Each bound, and the block lengths it gives over 150 cycles.
        for block_values, lengths in ((1, {1}), (7 * per_cycle, {7, 3}), (2**40, {150})):
            with mock.patch.object(engine_module, "BLOCK_MAX_VALUES", block_values):
                blocks = list(KeyedDraws(99, counts, columns, 150).blocks())
            assert {len(cycles) for cycles, _ in blocks} == lengths
            assert [c for cycles, _ in blocks for c in cycles] == list(range(150))
            runs[block_values] = [np.concatenate([t[d] for _, t in blocks]).tobytes() for d in range(DOMAINS)]
        assert runs[7 * per_cycle] == runs[1] and runs[2**40] == runs[1]
        wider = [[9, 2, 30, 4, 4]] * DOMAINS, [[(0, 1, [0.4, 0.5, 0.6, 0.1, 0.1])]] * DOMAINS
        with mock.patch.object(engine_module, "BLOCK_MAX_VALUES", 2**40):
            ((_, tests),) = KeyedDraws(99, *wider, 150).blocks()
        assert [t[:, :3].tobytes() for t in tests] == runs[1]

    def test_keys_beyond_one_word_rejected(self):
        last = KEY_WORD_LIMIT - 1
        counts, columns = [[6]] * DOMAINS, [[(0, 1, [0.5])]] * DOMAINS
        keyed = KeyedDraws(2**64 - 1, counts, columns, KEY_WORD_LIMIT)
        # The last cycle's words are Philox at cycle word 2**32 - 1.
        tests = keyed._tests(range(last, last + 1))
        for domain in range(DOMAINS):
            words = keyed_words_reference(2**64 - 1, domain, 0, last, 6)
            assert tests[domain][0, 0, 0].tolist() == [w < 2**31 for w in words]
        with pytest.raises(ValueError, match="indices and cycles"):
            KeyedDraws(0, counts, columns, KEY_WORD_LIMIT + 1)
        with pytest.raises(ConfigurationError, match=r"seed must be in \[0, 2\*\*64\)"):
            KeyedDraws(2**64, counts, columns, 1)

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigurationError):
            KeyedDraws(-1, [[1]] * DOMAINS, [[(0, 1, [0.5])]] * DOMAINS, 1)


# BLOCK_MAX_VALUES: the run's own bound, and blocks of one cycle each.
PACK_PATHS = {
    "default": engine_module.BLOCK_MAX_VALUES,
    "one_cycle_blocks": 1,
}

_THRESHOLDS = st.one_of(
    st.just(0.0), st.just(1.0), st.just(2.0**-32), st.just(0.5 + 2.0**-40), st.floats(0.0, 1.0)
)


@st.composite
def _keyed_draws(draw):
    """(seed, counts, columns, cycles) of a random run's keys: mixed counts
    from 1 to 40 within a domain, random columns with a random threshold
    per key."""
    width = draw(st.integers(1, 4))
    sizes = st.one_of(st.sampled_from([1, 3, 4, 5, 8, 40]), st.integers(1, 40))
    counts = [draw(st.lists(sizes, min_size=width, max_size=width)) for _ in range(DOMAINS)]
    column = st.tuples(
        st.integers(0, 9), st.integers(1, 7), st.lists(_THRESHOLDS, min_size=width, max_size=width)
    )
    columns = [draw(st.lists(column, min_size=1, max_size=4)) for _ in range(DOMAINS)]
    return draw(st.integers(0, 2**64 - 1)), counts, columns, draw(st.integers(1, 3))


@pytest.mark.parametrize("path", sorted(PACK_PATHS))
@given(keys=_keyed_draws())
@example(keys=(5, [[30, 1], [4, 5], [3, 2]], [[(0, 1, [0.5, 1.0])], [(1, 2, [1.0, 1.0])], [(0, 3, [0.0, 0.7])]], 2))
@settings(max_examples=40, deadline=None)
def test_keyed_draws_pack_threshold_bits(path, keys):
    # A block's tests of key i, column c, are w[start::step][j] / 2**32 < t
    # over the key's own count of words w of the Philox layout, on every
    # block size, and no test at or past the key's count is set. The
    # blocks cover the run's cycles once each, in order.
    seed, counts, columns, cycles = keys
    with mock.patch.object(engine_module, "BLOCK_MAX_VALUES", PACK_PATHS[path]):
        keyed = KeyedDraws(seed, counts, columns, cycles)
        blocks = list(keyed.blocks())
    if path == "one_cycle_blocks":
        assert keyed.block == 1
    assert [cycle for block, _ in blocks for cycle in block] == list(range(cycles))
    width = len(counts[0])
    for block, tests in blocks:
        for k, cycle in enumerate(block):
            for domain in range(DOMAINS):
                spans = [len(range(start, max(counts[domain]), step)) for start, step, _ in columns[domain]]
                assert tests[domain].shape == (len(block), width, len(spans), max(spans))
                assert tests[domain].dtype == bool
                for index, count in enumerate(counts[domain]):
                    words = keyed_words_reference(seed, domain, index, cycle, count)
                    for column, (start, step, thresholds) in enumerate(columns[domain]):
                        expected = [w * 2.0**-32 < thresholds[index] for w in words[start::step]]
                        row = tests[domain][k, index, column].tolist()
                        assert row[: len(expected)] == expected, (cycle, domain, index, column)
                        assert not any(row[len(expected) :]), (cycle, domain, index, column)


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
    # numpy.random costs about 5.5 MB of RSS, and nothing needs it.
    assert not _numpy_random_loaded("import fusenet.cli, fusenet.metrics")


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


@pytest.mark.parametrize(
    "config, long_trains",
    [("two_node_40km.json", False), ("chain4_purify_butterfly.json", False), ("two_node_40km.json", True)],
)
def test_no_run_loads_numpy_random(config, long_trains):
    # Every keyed draw is Philox in uint64 arrays, so no run imports
    # numpy.random, not even one whose trains draw a paper hop's 644
    # values a cycle.
    statements = (
        "import dataclasses\n"
        "from fusenet.config import load_config\n"
        "from fusenet.network import run_network\n"
        "network = load_config(sys.argv[1]).network\n"
        "if sys.argv[2] == 'True':\n"
        "    network.links = [dataclasses.replace(link, n_fusiliers=544,\n"
        "                     m_fusilands=100) for link in network.links]\n"
        "assert run_network(network).records"
    )
    assert not _numpy_random_loaded(statements, str(CONFIGS / config), str(long_trains))

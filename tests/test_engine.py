"""Fiber delays and RNG substream contracts."""

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
    RngStream,
    SEED_BLOCK,
    SWAP_DOMAIN,
    channel_delay_ns,
    pcg64_random,
)
from fusenet.errors import ConfigurationError
from fusenet.network import validate_config

from conftest import chain_config

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
        batched = pcg64_random(row[None], 40)[0].tolist()
        assert batched == [scalar.random() for _ in range(40)]

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


# Every key drawn natively; the default split at BATCH_MAX_DRAWS; every key
# batched, 64 values or more; blocks of one cycle each.
PACK_PATHS = {
    "native": ("BATCH_MAX_DRAWS", 0),
    "default": ("BATCH_MAX_DRAWS", engine_module.BATCH_MAX_DRAWS),
    "batched": ("BATCH_MAX_DRAWS", 2**24),
    "one_cycle_blocks": ("BLOCK_MAX_VALUES", 1),
}

_THRESHOLDS = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))


@st.composite
def _keyed_draws(draw):
    """(seed, counts, columns, cycles) of a random run's keys: mixed counts
    from 1 to 130 within a domain, random columns with a random threshold
    per key."""
    width = draw(st.integers(1, 4))
    sizes = st.one_of(st.sampled_from([1, 63, 64, 65, 128, 130]), st.integers(1, 130))
    counts = [draw(st.lists(sizes, min_size=width, max_size=width)) for _ in range(DOMAINS)]
    column = st.tuples(
        st.integers(0, 9), st.integers(1, 7), st.lists(_THRESHOLDS, min_size=width, max_size=width)
    )
    columns = [draw(st.lists(column, min_size=1, max_size=4)) for _ in range(DOMAINS)]
    return draw(st.integers(0, 2**64)), counts, columns, draw(st.integers(1, 3))


@pytest.mark.parametrize("path", sorted(PACK_PATHS))
@given(keys=_keyed_draws())
@example(keys=(5, [[130, 1], [64, 65], [63, 2]], [[(0, 1, [0.5, 1.0])], [(1, 2, [1.0, 1.0])], [(0, 3, [0.0, 0.7])]], 2))
@settings(max_examples=40, deadline=None)
def test_keyed_draws_pack_threshold_bits(path, keys):
    # A block's tests of key i, column c, are u[start::step][j] < t over
    # the key's own count of values u from numpy's generator, on every
    # draw path, and no test at or past the key's count is set. The blocks
    # cover the run's cycles once each, in order.
    seed, counts, columns, cycles = keys
    with mock.patch.object(engine_module, *PACK_PATHS[path]):
        keyed = KeyedDraws(seed, counts, columns, cycles)
        blocks = list(keyed.blocks())
    if path == "native":
        assert not any(keyed.batched)
    elif path == "batched":
        assert all(keyed.batched)
    elif path == "one_cycle_blocks":
        assert keyed.block == 1
    assert [cycle for block, _ in blocks for cycle in block] == list(range(cycles))
    stream, width = RngStream(seed), len(counts[0])
    for block, tests in blocks:
        for k, cycle in enumerate(block):
            rows = stream.seed_block(range(cycle, cycle + 1), width)[0]
            for domain in range(DOMAINS):
                spans = [len(range(start, max(counts[domain]), step)) for start, step, _ in columns[domain]]
                assert tests[domain].shape == (len(block), width, len(spans), max(spans))
                assert tests[domain].dtype == bool
                for index, count in enumerate(counts[domain]):
                    values = stream.substream(rows[domain, index]).random(count).tolist()
                    for column, (start, step, thresholds) in enumerate(columns[domain]):
                        expected = [u < thresholds[index] for u in values[start::step]]
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
        "from fusenet.engine import BATCH_MAX_DRAWS\n"
        "from fusenet.network import run_network\n"
        "network = load_config(sys.argv[1]).network\n"
        "if sys.argv[2] == 'True':\n"
        "    network.links = [dataclasses.replace(link, n_fusiliers=BATCH_MAX_DRAWS,\n"
        "                     m_fusilands=1) for link in network.links]\n"
        "assert run_network(network).records"
    )
    assert _numpy_random_loaded(statements, str(CONFIGS / config), str(long_trains)) is long_trains

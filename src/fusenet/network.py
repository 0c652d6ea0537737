"""Chain-level orchestration: herald sweep cycles, purification, butterfly.

A run executes a fixed number of generation cycles. Each cycle starts with a
herald pulse launched at the left end; the pulse initiates every fusillade
as it sweeps right, signal trains follow it down each fiber, return messages
confirm each hop, and intermediate nodes swap as soon as they hold links on
both sides. A node's frames of a cycle are one per slot it swapped (made as
its return comes) or, for a purified hop's right node, one per trio kept
(made as the train ends). They ride the *next* herald to the right end, so
every end-to-end pair's correction becomes available exactly one cycle
period after the pair is established. Under the butterfly split the frames
of a node left of the split go left instead, on the return message the node
sends when its incoming train ends, one hop per cycle, until they reach node
0. One final frame-flush sweep (no generation) is the herald of the last
cycle's frames: it is traced and, like every herald, checked for
desynchronization.

The frames are folded a block of cycles at a time, as arrays
(``_fold_shares``): every node's frame indices XOR-reduce over the nodes
into each cycle's herald share (the nodes from the split rightward, or
every node without one) and left share. That is what the herald would
carry: a herald that reaches a node before the node's train or return of
the previous cycle, and so before its frames, desynchronizes
(``_CycleRecords._desync_error``), so herald c + 1 would pick up every
frame of cycle c and no other. Its arrival is the schedule's too, since
cycle c + 1 starts at exactly (c + 1) * period or the run raises.

The left share's arrival is the schedule's as well. With the split at node
s >= 2, cycle c's left share is in at node 0 at ``(c + s - 1) * period +
2 * d0 + (n0 - 1) * tau`` (d0 and n0 hop 0's delay and train), or never
if ``c + s - 1 >= cycles``; with s = 1 no frame goes left and it is the
herald's arrival. That is when node s - 1's swap frames of cycle c arrive,
and it is exact: they cover every delivered slot, no left-bound frames of
the cycle leave later, and each node's frames move one hop per cycle.
Frames come to a node with the return from the node's right hop, which
comes after the node's own train has ended (``validate_config``) and,
unless the run desynchronizes, before its next herald, so they leave on
the node's next return. The left folds cover each cycle's slots up to the
largest purification or swap count among the left nodes.

What a cycle makes (every hop's train and kept pairs, every purification,
every node's swaps and frames, the pairs delivered) follows from the
config, the cycle and its keyed draws alone. It is made a block of cycles
at a time, as arrays (``_CycleRecords._fold_block``), and appended
straight to what the run returns, once per block (``_add_block_records``).
Hop i's train starts arriving as the herald reaches its right node, at
``cycle * period + herald_offsets_ns[i + 1]``, and fusilier k k slot times
later; a slot's pair was made then.

Every run, traced or not, loops over its blocks in order
(``_CycleRecords.loop``) and builds no object per cycle or per pair.
Whether a run desynchronizes is decided once, from the schedule,
``proc_ns`` and each node's swap count in each cycle
(``_CycleRecords._desync_error``), and only below ``_safe_period_ns``: at
or above it no herald can overtake. Node i's return and swap end by ``2 *
d_i + (n_i - 1) * tau + proc_ns`` after its herald, and its incoming train
by ``(n_{i-1} - 1) * tau`` (d_i and n_i hop i's delay and train). Neither
is later than the bound, so neither is later than the node's next herald,
one period on; at a tie the return or train is taken first.

Keyed draws belong to ``engine.KeyedDraws``, which hands a block of
cycles out as threshold tests, one bool array per domain; this module
states each key's count and thresholds once, in ``_key_draws``: a train's
draws against its success probability and against 1 - F, a swap's and a
purification's coins against 0.5. Every train of the block resolves in one
array pass (``machines.train_pairs``), and a node's swaps and a hop's
purification coins are its key's columns cut to the swaps or trios made.

A traced run's lines are built from the schedule and each block's
``_Block`` (``_CycleRecords._trace_block``), every one at a closed form of
its cycle c, at c * period plus: ``CycleStart`` 0 (and the flush sweep's
at cycles * period, ``cycle=C flush``); ``HeraldArrive`` at node i
``herald_offsets_ns[i]``; signal k of hop i, at node i + 1,
``herald_offsets_ns[i + 1] + k * tau``; node i's ``ReturnArrive`` one delay
after its hop's last signal, and its ``SwapComplete``, when it swapped,
``proc_ns`` later; and each delivered pair's ``PairReady``, at the right
end, at the latest of the cycle's finishes (the right end's incoming
train, and every other node's return or swap). The lines are sorted once,
by ``(t_ns, cycle, rank, node, index)``, rank the kind's place in
``_KINDS`` and index the signal's fusilier, the pair's slot or 0, and
``seq`` is a line's position in that order. So a line comes after its
cause: a herald before the next node's and before its train, a train's
last signal before its return, a return before its swap, and node 0's
return of cycle c before the start of c + 1, which it is not later than.
Each line is byte-equal to ``json.dumps`` of its fields ``{t_ns, seq,
kind, node, detail}`` with sorted keys (``_trace_line``).

A block's pairs are arrays with axes (cycle, hop or node, slot) rather
than one object per pair or per swap: each hop's kept fusiliers, error and
frame bits, each node's parity and X outcome bits. One ``purify3_bits``
call purifies every trio of the block, and the block swaps all its slots
at once, one ``swap_bits`` call per intermediate node from left to right;
a slot's creation time is the latest of its hops' (``max`` over hops) and
a cycle's delivered count the least of their kept counts (``min``). A
frame is held as its index 2x + z (``FRAMES[x][z]``), so XOR composes
frames. The delivered pairs then leave as flat columns over the block's
(cycle, slot), one mask each: the cycle, the slot, the fusilier, the
creation time, and a code of the error bit and the pair's frame,
correction and herald share (``_PAIR_CODES``), with the pair's
``correction`` the herald share XOR the left share, so the summary scores
what was delivered. The run keeps these columns and nothing per pair
besides: ``RunResult.records`` is a ``RecordView`` over them, which builds
a pair's ``PairRecord`` and ``EndToEndRecord`` only when it is read, and
``metrics.summarize`` folds the columns without building any. The model
fidelity, the same for every pair, is ``analytic_end_to_end_fidelity``,
computed once per run. Nothing is allocated per cycle before the run.
"""

from __future__ import annotations

import itertools
import math
import operator
import warnings
from collections.abc import Sequence
from dataclasses import dataclass, field
from enum import Enum
from json.encoder import encode_basestring_ascii as _escape
from typing import Iterable, Iterator, NamedTuple, Optional

import numpy as np

from .engine import (
    DOMAINS,
    KEY_WORD_LIMIT,
    KeyedDraws,
    LINK_DOMAIN,
    PURIFY_DOMAIN,
    SWAP_DOMAIN,
    channel_delay_ns,
)
from .errors import ConfigurationError, DesynchronizationError
from .machines import swap_outcomes, train_pairs
from .pair_algebra import (
    Endpoint,
    FRAMES,
    LinkModel,
    PairRecord,
    PauliFrame,
    chain_fidelity,
    purify3_analytic,
    purify3_bits,
    success_probability,
    swap_bits,
)

__all__ = [
    "Strategy",
    "LinkSpec",
    "NetworkConfig",
    "CycleSchedule",
    "EndToEndRecord",
    "RunResult",
    "RecordView",
    "MAX_TRAIN_DRAWS",
    "effective_slots",
    "validate_config",
    "analytic_end_to_end_fidelity",
    "butterfly_split",
    "run_network",
]


class Strategy(Enum):
    RAW = "raw"
    PURIFY3 = "purify3"


@dataclass(frozen=True)
class LinkSpec:
    """One hop: its physical link model plus transmitter/receiver counts."""

    model: LinkModel
    n_fusiliers: int
    m_fusilands: int


@dataclass
class NetworkConfig:
    """Full declarative description of a linear chain run."""

    nodes: list[str]
    links: list[LinkSpec]
    signal_speed_m_per_s: float = 2.0e8
    tau_slot_ns: int = 10
    proc_ns: int = 0
    strategy: Strategy = Strategy.RAW
    seed: int = 0
    cycles: int = 100
    butterfly: bool = False
    cycle_period_ns: Optional[int] = None  # override; None = computed bound


@dataclass(frozen=True)
class CycleSchedule:
    """Derived timing of one cycle.

    ``herald_offsets_ns[i]`` is when the herald passes node i, relative to
    the cycle start.
    """

    cycle_period_ns: int
    link_delays_ns: tuple[int, ...]
    herald_offsets_ns: tuple[int, ...]
    links_per_cycle: int

    @property
    def cycle_period_s(self) -> float:
        return self.cycle_period_ns * 1e-9


@dataclass
class EndToEndRecord:
    """One end-to-end pair delivered by a cycle, built from the run's
    columns each time it is read (``RecordView``).

    ``established_at_ns`` is the pipeline's deterministic availability
    instant at the right end node (the herald's arrival there for the
    cycle); the correction frame rides the next herald, so
    ``frame_available_at_ns`` is exactly one cycle period later.
    ``correction`` is the XOR-fold of the cycle's frames for this slot:
    ``herald_correction``, the herald's share (everything, unless the
    butterfly split routes part leftward), XOR the left share. Both shares
    are folded from the block's arrays, which is what the herald and the
    left-bound returns carry (see the module docstring), so it equals
    ``pair.frame``. Under the butterfly split at node s,
    ``left_frame_available_at_ns`` is when the slot's last left-bound
    frame reaches node 0, ``(cycle_id + s - 1) * period + 2 * d0 + (n0 -
    1) * tau`` with d0 and n0 hop 0's delay and train, or None when
    ``cycle_id + s - 1 >= cycles``; with s = 1 no frame goes left and it
    equals ``frame_available_at_ns``.
    """

    cycle_id: int
    slot: int
    pair: PairRecord
    established_at_ns: int
    frame_available_at_ns: int
    correction: PauliFrame
    herald_correction: PauliFrame
    left_frame_available_at_ns: Optional[int]


class _Block(NamedTuple):
    """What a block makes besides its records: the trains' ``fusiliers`` and
    ``counts`` (``machines.train_pairs``), node i's swap counts ``swaps[:, i
    - 1]``, each cycle's delivered count, and the delivered error bits, flat."""

    fusiliers: np.ndarray
    counts: np.ndarray
    swaps: np.ndarray
    delivered: list[int]
    errors: np.ndarray


# Records are built from the columns this many at a time as a view is
# iterated, so iteration holds no list of every record.
_CHUNK = 2**12


class RecordView(Sequence):
    """A run's end-to-end records, each built as it is read.

    The run keeps a delivered pair as one row of flat columns, in cycle
    and then slot order: ``cycles``, ``slots``, ``fusiliers`` (the left
    end's), ``created_at_ns`` and ``codes``, the ``_PAIR_CODES`` code of
    its error bit, frame, correction and herald share. Every other field of
    its ``EndToEndRecord`` is a constant of the run or a closed form of its
    cycle and slot (module docstring). Indexing, slicing and iteration build
    the records afresh, a ``_CHUNK`` of them at a time when iterated, and
    the view keeps none of them; it equals another view or a list whose
    records are equal to its own, in order.
    """

    def __init__(self, columns: list[np.ndarray], constants: tuple) -> None:
        self.cycles, self.slots, self.fusiliers, self.created_at_ns, self.codes = columns
        # (period, right end's herald offset, right end, right-end slot
        # stride, end fidelity, butterfly split or 0, left_return_ns, cycles)
        self.constants = constants

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, key):
        if isinstance(key, slice):
            return self._build(key)
        index = range(len(self))[key]
        return self._build(slice(index, index + 1))[0]

    def __iter__(self) -> Iterator[EndToEndRecord]:
        for start in range(0, len(self), _CHUNK):
            yield from self._build(slice(start, start + _CHUNK))

    def __eq__(self, other) -> bool:
        if not isinstance(other, (RecordView, list)):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    def __repr__(self) -> str:
        return f"RecordView({len(self)} records)"

    def _build(self, key: slice) -> list[EndToEndRecord]:
        """The records of the rows ``key`` selects, in order."""
        period, offset, right, stride, fidelity, split, left_return_ns, last = self.constants
        columns = (self.cycles, self.slots, self.fusiliers, self.created_at_ns, self.codes)
        records = []
        for cycle, slot, fusilier, made_ns, code in zip(*(c[key].tolist() for c in columns)):
            at_ns = cycle * period + offset
            # Node split-1's swap frames, which cover every delivered slot,
            # are the last left-bound frames to reach node 0 (module docstring).
            left_ns = available_ns = at_ns + period
            if split != 1:
                left_ns = None
                if split and cycle + split - 1 < last:
                    left_ns = (cycle + split - 1) * period + left_return_ns
            error, frame, correction, herald = _PAIR_CODES[code]
            pair = PairRecord(
                Endpoint(0, fusilier), Endpoint(right, stride * slot), error, frame, made_ns, fidelity
            )
            records.append(EndToEndRecord(
                cycle, slot, pair, at_ns, available_ns, correction, herald, left_ns
            ))
        return records


def _trace_line(t_ns: int, seq: int, kind_json: str, node: int, detail: str) -> str:
    """One trace line: ``json.dumps`` of the fields with sorted keys, plus a
    newline. ``kind_json`` is the kind already through the escaper
    ``json.dumps`` uses (a ``_KIND_JSON`` value); ``detail`` goes through it
    here."""
    return (
        f'{{"detail": {_escape(detail)}, "kind": {kind_json}, '
        f'"node": {node}, "seq": {seq}, "t_ns": {t_ns}}}\n'
    )


# Every trace kind by its rank in the line order, as json.dumps writes it:
# fixed ASCII words escaped once rather than per line.
_KINDS = (
    "CycleStart", "HeraldArrive", "SignalArrive", "ReturnArrive", "SwapComplete", "PairReady"
)
_KIND_JSON = tuple(map(_escape, _KINDS))


@dataclass
class RunResult:
    """Everything a finished run produced.

    ``records`` is a read-only sequence of the run's ``EndToEndRecord``s in
    cycle and slot order, a ``RecordView`` that builds each one as it is
    read from the run's columns; ``metrics.summarize`` folds the columns.
    ``trace`` is empty unless the run collected it: then it is the run's
    JSON lines, newline included, sorted by the order key ``(t_ns, cycle,
    kind rank, node, index)`` (module docstring), with ``seq`` a line's
    position in it; ``json.loads`` one to read its fields.
    """

    schedule: CycleSchedule
    records: RecordView
    per_cycle_delivered: list[int]
    hop_success_counts: list[list[int]]
    split_index: Optional[int] = None
    left_frame_folds: dict = field(default_factory=dict)
    trace: list[str] = field(default_factory=list)


# A train draws n + m values at once (see ``_key_draws``), so a hop
# may ask for at most this many; larger hops are rejected as configuration.
MAX_TRAIN_DRAWS = 2**24


def effective_slots(link: LinkSpec, strategy: Strategy) -> int:
    """End-to-end slot capacity a hop contributes per cycle."""
    if strategy is Strategy.PURIFY3:
        return link.m_fusilands // 3
    return link.m_fusilands


def _link_delays_ns(config: NetworkConfig) -> tuple[int, ...]:
    """One-way delay of every hop, left to right."""
    speed = config.signal_speed_m_per_s
    if not (math.isfinite(speed) and speed > 0):
        raise ConfigurationError(
            f"signal_speed_m_per_s must be finite and > 0, got {speed!r}"
        )
    for idx, link in enumerate(config.links):
        if not math.isfinite(link.model.length_km * 1e12 / speed):
            raise ConfigurationError(
                f"links[{idx}]: the delay of {link.model.length_km!r} km at "
                f"{speed!r} m/s is not a finite number of ns"
            )
    return tuple(
        channel_delay_ns(link.model.length_km, speed) for link in config.links
    )


def _safe_period_ns(config: NetworkConfig, delays: tuple[int, ...]) -> int:
    """The slowest hop's round trip plus its signal-train and processing time."""
    return max(
        2 * d + link.n_fusiliers * config.tau_slot_ns + config.proc_ns
        for d, link in zip(delays, config.links)
    )


def validate_config(config: NetworkConfig) -> CycleSchedule:
    """Check a configuration and derive its cycle schedule.

    The computed cycle period is the safe bound (``_safe_period_ns``), which
    guarantees the next herald arrives only after all swaps completed. A
    computed period of 0 ns (every hop rounds to a 0 ns delay and there is
    no train or processing time) is rejected, as is a chain in which an
    intermediate node would get the return from its right hop before its
    incoming train has ended, a cycle count of 2**32 or more (a cycle is
    one 32-bit counter word of its keyed draws), a seed of 2**64 or more
    (the seed is the two 32-bit words of their key), and a hop whose n + m
    exceeds ``MAX_TRAIN_DRAWS`` (its train draws that many values at once). An
    explicit ``cycle_period_ns`` override below the bound is accepted here;
    ``run_network`` warns about it, and the run will then abort with a
    desynchronization error when the herald overtakes a node.
    """
    if len(config.nodes) < 2:
        raise ConfigurationError("a chain needs at least 2 nodes")
    if len(config.links) != len(config.nodes) - 1:
        raise ConfigurationError(
            f"{len(config.nodes)} nodes need {len(config.nodes) - 1} links, "
            f"got {len(config.links)}"
        )
    seen = set()
    for idx, name in enumerate(config.nodes):
        if name in seen:
            raise ConfigurationError(f"nodes[{idx}]: duplicate node name {name!r}")
        seen.add(name)
    delays = _link_delays_ns(config)
    if config.tau_slot_ns < 0 or config.proc_ns < 0:
        raise ConfigurationError("tau_slot_ns and proc_ns must be >= 0")
    if config.cycles < 1:
        raise ConfigurationError("cycles must be >= 1")
    if config.cycles >= KEY_WORD_LIMIT:
        raise ConfigurationError(
            f"cycles must be < {KEY_WORD_LIMIT}: a cycle is one 32-bit counter word of its keyed draws"
        )
    if config.seed < 0:
        raise ConfigurationError("seed must be >= 0")
    if config.seed >= KEY_WORD_LIMIT**2:
        raise ConfigurationError(
            f"seed must be < {KEY_WORD_LIMIT**2}: the keyed draws' key holds it in two 32-bit words"
        )
    for idx, link in enumerate(config.links):
        if link.model.length_km <= 0:
            raise ConfigurationError(f"links[{idx}]: length_km must be > 0 in a chain")
        if link.n_fusiliers < 1:
            raise ConfigurationError(f"links[{idx}]: n_fusiliers must be >= 1")
        if link.m_fusilands < 1:
            raise ConfigurationError(f"links[{idx}]: m_fusilands must be >= 1")
        if link.n_fusiliers + link.m_fusilands > MAX_TRAIN_DRAWS:
            raise ConfigurationError(
                f"links[{idx}]: n_fusiliers + m_fusilands = "
                f"{link.n_fusiliers + link.m_fusilands} exceeds {MAX_TRAIN_DRAWS}, "
                "the most values one signal train may draw"
            )
        if config.strategy is Strategy.PURIFY3 and link.m_fusilands % 3 != 0:
            raise ConfigurationError(
                f"links[{idx}]: m_fusilands={link.m_fusilands} must be a "
                "multiple of 3 under the purify3 strategy"
            )
    tau = config.tau_slot_ns
    for i in range(1, len(config.links)):
        # Node i swaps and confirms its fusillade when the return from links[i]
        # arrives: not before its incoming train ends (times from its herald).
        return_ns = 2 * delays[i] + (config.links[i].n_fusiliers - 1) * tau
        train_end_ns = (config.links[i - 1].n_fusiliers - 1) * tau
        if return_ns < train_end_ns:
            raise ConfigurationError(
                f"nodes[{i}]: the return from links[{i}] arrives {return_ns} ns after "
                f"the herald, before the incoming train ends at {train_end_ns} ns"
            )

    if config.cycle_period_ns is None:
        period = _safe_period_ns(config, delays)
        if period == 0:
            raise ConfigurationError(
                "the cycle period comes out 0 ns: every hop rounds to a 0 ns "
                "delay and tau_slot_ns and proc_ns are 0"
            )
    else:
        period = config.cycle_period_ns
        if period <= 0:
            raise ConfigurationError("cycle_period_ns override must be > 0")

    offsets = [0]
    for d in delays:
        offsets.append(offsets[-1] + d)

    links_per_cycle = min(
        effective_slots(link, config.strategy) for link in config.links
    )
    return CycleSchedule(
        cycle_period_ns=period,
        link_delays_ns=delays,
        herald_offsets_ns=tuple(offsets),
        links_per_cycle=links_per_cycle,
    )


def analytic_end_to_end_fidelity(config: NetworkConfig) -> float:
    """The closed-form fidelity of every end-to-end pair: ``chain_fidelity``
    over each hop's raw fidelity, after ``purify3_analytic`` under purify3."""
    fidelities = [link.model.raw_fidelity for link in config.links]
    if config.strategy is Strategy.PURIFY3:
        fidelities = [purify3_analytic(f) for f in fidelities]
    return chain_fidelity(fidelities)


def _key_draws(config: NetworkConfig) -> tuple[list[list[int]], list[list[tuple]]]:
    """Each RNG key's draws, as ``engine.KeyedDraws`` takes them:
    ``(counts, columns)``.

    ``counts[domain][index]`` is the most values key (domain, index) draws
    in a cycle, index below the hop count, and ``columns[domain]`` the
    thresholds its draws are tested against, as ``(start, step,
    thresholds by index)``. Hop i's train draws n + m (a signal at most
    once, a success once more), each draw tested against the hop's success
    probability and against 1 - F for the error bit; node i's swaps two per
    slot its two hops both keep, a parity then an X coin; hop i's
    purification six fair coins per trio (purify3).
    """
    links = config.links
    slots = [effective_slots(link, config.strategy) for link in links]
    counts = [[0] * len(slots) for _ in range(DOMAINS)]
    counts[LINK_DOMAIN] = [link.n_fusiliers + link.m_fusilands for link in links]
    counts[SWAP_DOMAIN][1:] = [2 * min(pair) for pair in zip(slots, slots[1:])]
    if config.strategy is Strategy.PURIFY3:
        counts[PURIFY_DOMAIN] = [6 * count for count in slots]
    coin = [0.5] * len(slots)
    columns: list[list[tuple]] = [[] for _ in range(DOMAINS)]
    columns[LINK_DOMAIN] = [
        (0, 1, [success_probability(link.model) for link in links]),
        (0, 1, [1.0 - link.model.raw_fidelity for link in links]),
    ]
    columns[SWAP_DOMAIN] = [(0, 2, coin), (1, 2, coin)]
    columns[PURIFY_DOMAIN] = [(j, 6, coin) for j in range(6)]
    return counts, columns


def butterfly_split(config: NetworkConfig) -> int:
    """Pick the intermediate node that best balances the two half-chains.

    Minimizes the absolute difference between the summed one-way delays on
    either side; ties break toward the lower index.
    """
    if len(config.nodes) < 3:
        raise ConfigurationError("a butterfly split needs at least 3 nodes")
    delays = _link_delays_ns(config)
    total = sum(delays)
    best_index, best_imbalance = None, None
    left = 0
    for i in range(1, len(config.nodes) - 1):
        left += delays[i - 1]
        imbalance = abs(left - (total - left))
        if best_imbalance is None or imbalance < best_imbalance:
            best_index, best_imbalance = i, imbalance
    return best_index


_HERALD, _TRAIN, _RETURN = range(3)


# Every frame by its index 2x + z: FRAMES[x][z].
_FRAME_AT = FRAMES[0] + FRAMES[1]

# A delivered pair's (error bit e, frame, correction, herald share) by its
# code 64e + 16f + 4c + h, with f, c and h the three frames' indices.
_PAIR_CODES = tuple(
    (code >> 6, _FRAME_AT[code >> 4 & 3], _FRAME_AT[code >> 2 & 3], _FRAME_AT[code & 3])
    for code in range(128)
)


def _frame_index(x_bits: np.ndarray, z_bits: np.ndarray) -> np.ndarray:
    """The frames ``FRAMES[x][z]`` of bool arrays ``x_bits`` and ``z_bits``
    by their index 2x + z, as uint8; XOR of two indices composes their frames."""
    return x_bits.astype(np.uint8) << 1 | z_bits


def _fold_shares(frames: list, left_nodes: int, width: int):
    """Fold a block's frames into each cycle's herald and left shares.

    ``frames`` holds ``(index, count)`` pairs: frame indices
    (``_frame_index``), axes (cycle, node, slot) with node i's at ``[:, i -
    1]``, and the slots each node's frames cover, axes (cycle, node). Nodes
    1 to ``left_nodes`` make the left share, the rest the herald share.
    Returns ``(shares, left_counts)``: the herald and the left share, each
    (cycle, slot) at least ``width`` slots wide, and each cycle's largest
    left count.
    """
    width = max([width] + [index.shape[-1] for index, _ in frames])
    shares = np.zeros((2, len(frames[0][1]), width), np.uint8)
    left_counts = 0
    for index, count in frames:
        for share, nodes in zip(shares, (index[:, left_nodes:], index[:, :left_nodes])):
            share[:, : index.shape[-1]] ^= np.bitwise_xor.reduce(nodes, axis=1)
        left_counts = np.maximum(left_counts, count[:, :left_nodes].max(axis=1, initial=0))
    return shares, left_counts


class _CycleRecords:
    """One run of a configured chain: what it returns, made a block of
    cycles at a time, as arrays (``_add_block_records``), in cycle order
    (``loop``). With ``collect_trace`` each block's trace lines come from
    the same pass (``_trace_block``).
    """

    def __init__(
        self,
        config: NetworkConfig,
        schedule: CycleSchedule,
        split_index: Optional[int],
        collect_trace: bool,
    ) -> None:
        self.schedule = schedule
        # What the blocks, the trace and the records read, cached off the config.
        self.cycles = config.cycles
        self.links = config.links
        self.tau = config.tau_slot_ns
        self.proc_ns = config.proc_ns
        self.num_nodes = len(config.nodes)
        self.purify = config.strategy is Strategy.PURIFY3
        # The nodes below ``left_senders``, the butterfly split (0 without
        # one), send their frames left.
        self.left_senders = split_index or 0
        # When node 1's return message reaches node 0, from its cycle's start.
        self.left_return_ns = (
            2 * schedule.link_delays_ns[0] + (self.links[0].n_fusiliers - 1) * self.tau
        )
        # Every end-to-end pair has the same model fidelity.
        self.end_fidelity = analytic_end_to_end_fidelity(config)
        # A kept pair in slot k sits in the right node's fusiland 3k when
        # purified, k when raw.
        self.right_stride = 3 if self.purify else 1
        self.keyed = KeyedDraws(config.seed, *_key_draws(config), config.cycles)
        self.signals = np.array([link.n_fusiliers for link in self.links])
        self.capacity = np.array([link.m_fusilands for link in self.links])
        # When hop i's train starts arriving, from its cycle's start: a
        # slot's pair is made tau after it per fusilier, in int64 ns unless
        # the run's last train could end past that range.
        offsets = schedule.herald_offsets_ns
        last_ns = (self.cycles - 1) * schedule.cycle_period_ns + offsets[-1]
        fits = last_ns + int(self.signals.max()) * self.tau < 2**63
        self.train_ns = np.array(offsets[1:], np.int64 if fits else object)
        # What the run returns, each block's part made as the block starts:
        # its delivered pairs as the parts of RecordView's five columns.
        self.pairs: list[list[np.ndarray]] = [[] for _ in range(5)]
        self.delivered: list[int] = []
        self.successes: list[list[int]] = [[] for _ in self.links]
        self.left_frame_folds: dict[tuple[int, int], PauliFrame] = {}
        # (t_ns, cycle, rank, node, index, detail) entries; _trace_lines
        # sorts them and makes each its line.
        self.trace: Optional[list] = [] if collect_trace else None

    def _fold_block(self, cycles: range, tests: list) -> tuple[_Block, tuple, tuple]:
        """Everything a block of cycles makes, from its keyed draws alone,
        as arrays (axes cycle, hop or node, slot).

        Hop i's train resolves against node i + 1's bank and, under
        purify3, purifies its trios; then every intermediate node swaps all
        its slots at once, left to right. A slot is delivered where every
        hop kept a pair, made when the last of them was. Every node's
        frames fold into each cycle's herald and left shares
        (``_fold_shares``).

        Returns ``(block, pairs, folds)``: the ``_Block``; the delivered
        pairs as flat columns over the block's (cycle, slot), each pair's
        cycle, slot, fusilier, creation time and ``_PAIR_CODES`` code
        (``RecordView``'s columns); and the left
        folds as flat columns, each fold's cycle, slot and frame index.
        """
        hops = len(self.links)
        fusiliers, errors, counts = train_pairs(tests[LINK_DOMAIN], self.signals, self.capacity)
        width = fusiliers.shape[-1]
        slots = self.schedule.links_per_cycle
        if self.purify:
            # Trio t is slots 3t, 3t+1, 3t+2 and keeps slot 3t, made when
            # its third member arrived (fusiliers increase within a train).
            # Its six coins are draws 6t..6t+5: the transmit-side parities
            # and the four X readouts, one column each, and slot 3t + k's
            # error bit is member k + 1's.
            end = width - width % 3
            kept = counts // 3
            trio = np.arange(end // 3) < kept[..., None]
            tx12, tx23, tx_x2, tx_x3, rx_x2, rx_x3 = np.moveaxis(
                tests[PURIFY_DOMAIN] & trio[:, :, None, :], 2, 0
            )
            e1, e2, e3 = (errors[..., k:end:3] & trio for k in range(3))
            # Receive-side parities reflect the true pairwise error syndrome,
            # keeping the decode statistics honest. A hop's pairs carry the
            # identity frame, so the kept pair's frame is the round's delta.
            errors, frame_x, frame_z = purify3_bits(
                e1, tx12, tx23, tx12 ^ e1 ^ e2, tx23 ^ e2 ^ e3, tx_x2, tx_x3, rx_x2, rx_x3
            )
            firsts = fusiliers[:, 0, 0 : 3 * slots : 3]
            lasts = fusiliers[..., 2:end:3]
            # A purified hop's frames are its right node's, one per trio kept.
            frames = [(_frame_index(frame_x, frame_z), kept)]
        else:
            kept, firsts, lasts = counts, fusiliers[:, 0, :slots], fusiliers
            frame_x = frame_z = np.broadcast_to(False, errors.shape)
            frames = []
        # Slot k swaps at node i when both of its hops kept a pair in it;
        # only the first links_per_cycle slots can be delivered.
        swaps = np.minimum(kept[:, :-1], kept[:, 1:])
        parity, x_out = swap_outcomes(swaps, tests[SWAP_DOMAIN][:, 1:])
        frames.append((_frame_index(parity, x_out), swaps))
        shares, left_counts = _fold_shares(frames, max(self.left_senders - 1, 0), slots)
        pair_errors, pair_x, pair_z = (bits[:, 0, :slots] for bits in (errors, frame_x, frame_z))
        for node in range(1, hops):
            pair_errors, pair_x, pair_z = swap_bits(
                pair_errors, errors[:, node, :slots], pair_x, pair_z,
                frame_x[:, node, :slots], frame_z[:, node, :slots],
                parity[:, node - 1, :slots], x_out[:, node - 1, :slots],
            )
        delivered = kept.min(axis=1)
        pairs = np.arange(slots) < delivered[:, None]
        cycle_ns = np.array(cycles, self.train_ns.dtype) * self.schedule.cycle_period_ns
        made = self.train_ns[:, None] + lasts[..., :slots].astype(self.train_ns.dtype) * self.tau
        herald, left = shares[:, :, :slots]
        error_bits = pair_errors[pairs].view(np.uint8)
        codes = error_bits << 6
        for shift, index in ((4, _frame_index(pair_x, pair_z)), (2, herald ^ left), (0, herald)):
            codes |= index[pairs] << shift
        pair_rows, pair_slots = np.nonzero(pairs)
        folds = np.arange(shares.shape[-1]) < left_counts[:, None]
        fold_rows, fold_slots = np.nonzero(folds)
        return (
            _Block(fusiliers, counts, swaps, delivered.tolist(), error_bits),
            (
                # A cycle fits 32 bits (validate_config), a slot 24 (MAX_TRAIN_DRAWS).
                (pair_rows + cycles.start).astype(np.uint32), pair_slots.astype(np.int32),
                firsts[pairs], (made.max(axis=1) + cycle_ns[:, None])[pairs], codes,
            ),
            (fold_rows + cycles.start, fold_slots, shares[1][folds]),
        )

    def _add_block_records(self, cycles: range, tests: list) -> _Block:
        """Append what the run returns of a block of cycles (``_fold_block``):
        its delivered pairs' columns, delivered and success counts and left
        folds. Returns the block."""
        block, pairs, folds = self._fold_block(cycles, tests)
        for parts, column in zip(self.pairs, pairs):
            parts.append(column)
        fold_cycles, fold_slots, fold_frames = (column.tolist() for column in folds)
        self.left_frame_folds.update(
            zip(zip(fold_cycles, fold_slots), map(_FRAME_AT.__getitem__, fold_frames))
        )
        self.delivered += block.delivered
        for hop, column in zip(self.successes, block.counts.T.tolist()):
            hop += column
        if self.trace is not None:
            self._trace_block(cycles, block)
        return block

    def _trace_block(self, cycles: range, block: _Block) -> None:
        """Append the trace entries of a block of cycles, each at its closed
        form (module docstring). A signal succeeded if it filled a slot, was
        discarded if it came after the bank filled, and failed otherwise."""
        schedule, tau, proc_ns, trace = self.schedule, self.tau, self.proc_ns, self.trace
        period, offsets = schedule.cycle_period_ns, schedule.herald_offsets_ns
        right = self.num_nodes - 1
        # When hop i's return reaches node i, one delay after the hop's last
        # signal, from the cycle's start.
        returns = [
            offsets[i + 1] + (link.n_fusiliers - 1) * tau + d
            for i, (link, d) in enumerate(zip(self.links, schedule.link_delays_ns))
        ]
        errors = iter(block.errors.tolist())
        rows = zip(
            cycles, block.fusiliers.tolist(), block.counts.tolist(),
            block.swaps.tolist(), block.delivered,
        )
        for cycle, trains, counts, swaps, delivered in rows:
            start_ns = cycle * period
            trace += self._sweep(cycle, f"cycle={cycle}")
            # The cycle's last finish is a return or a swap: the right end's
            # incoming train ends no later than node right - 1's return.
            finish_ns = start_ns
            for hop, (link, filled, count) in enumerate(zip(self.links, trains, counts)):
                signals = link.n_fusiliers
                full = filled[count - 1] + 1 if count == link.m_fusilands else signals
                outcomes = ["failure"] * full + ["discarded"] * (signals - full)
                for slot, fusilier in enumerate(filled[:count]):
                    outcomes[fusilier] = f"success slot={slot}"
                first_ns = start_ns + offsets[hop + 1]
                trace += [
                    (first_ns + k * tau, cycle, 2, hop + 1, k, f"cycle={cycle} fusilier={k} {outcome}")
                    for k, outcome in enumerate(outcomes)
                ]
                swapped = swaps[hop - 1] if hop else 0
                done_ns = start_ns + returns[hop]
                trace.append(
                    (done_ns, cycle, 3, hop, 0, f"cycle={cycle} matches={count} swaps={swapped}")
                )
                if swapped:
                    done_ns += proc_ns
                    trace.append((done_ns, cycle, 4, hop, 0, f"cycle={cycle} count={swapped}"))
                finish_ns = max(finish_ns, done_ns)
            trace += [
                (finish_ns, cycle, 5, right, slot, f"cycle={cycle} slot={slot} x={error}")
                for slot, error in zip(range(delivered), errors)
            ]

    def _sweep(self, cycle: int, start_detail: str) -> list[tuple]:
        """The entries of a cycle's herald sweep: its start, traced with
        ``start_detail``, and its herald at every other node."""
        start_ns, offsets = cycle * self.schedule.cycle_period_ns, self.schedule.herald_offsets_ns
        return [(start_ns, cycle, 0, 0, 0, start_detail)] + [
            (start_ns + offsets[node], cycle, 1, node, 0, f"cycle={cycle}")
            for node in range(1, self.num_nodes)
        ]

    def _trace_lines(self) -> list[str]:
        """The run's trace: the flush sweep's entries added, every entry
        sorted by its key, which is unique, and made its line in place,
        ``seq`` its position."""
        trace = self.trace
        trace += self._sweep(self.cycles, f"cycle={self.cycles} flush")
        trace.sort()
        for seq, (t_ns, _cycle, rank, node, _index, detail) in enumerate(trace):
            trace[seq] = _trace_line(t_ns, seq, _KIND_JSON[rank], node, detail)
        return trace

    def _desync_error(self, swaps: Iterable[list[int]]) -> Optional[str]:
        """The error text of the run's first desynchronization, or None if
        it has none.

        ``swaps`` yields each cycle's swap counts in cycle order, node i's at
        ``[i - 1]`` (a row of ``_Block.swaps``); it is read only as far as
        the verdict needs. Herald c + 1 overtakes node i >= 1 if the queue
        dispatches it before the node's work of cycle c (its return, or at
        the right end its incoming train), or, when the node swapped in
        cycle c, strictly less than ``proc_ns`` after that return. Node 0
        desynchronizes when its return comes after the next cycle's start;
        times are fixed offsets from a cycle's start, so then it does so in
        cycle 0, and no later herald exists.

        Events are (kind, node, cycle), node 0's herald being the cycle's
        start. At equal times, which comes first is this method's own
        definition, the order of a queue in which each event is scheduled
        by its cause: by (time, the key of the event that caused it, rank
        among what that event caused), cycle 0's start first; a herald
        causes the next node's herald, then the train it leads; a train its
        return; node 0's return the next cycle's start. The tests check it
        against such a queue, run with each node's bank checks.
        """
        schedule, tau, proc_ns = self.schedule, self.tau, self.proc_ns
        period, offsets = schedule.cycle_period_ns, schedule.herald_offsets_ns
        last = len(offsets) - 1
        # When each kind comes to node i, from its cycle's start: the herald;
        # the last signal of the train into it; the return from its hop, one
        # delay after that hop's last signal.
        ends = [offsets[i + 1] + (link.n_fusiliers - 1) * tau for i, link in enumerate(self.links)]
        at = (offsets, [0] + ends, [end + d for end, d in zip(ends, schedule.link_delays_ns)])
        if at[_RETURN][0] > period:
            return (
                f"herald for cycle 1 was due at {period} ns but node 0 finished "
                f"cycle 0 only at {at[_RETURN][0]} ns"
            )

        def time(event):
            kind, node, cycle = event
            return cycle * period + at[kind][node]

        def parent(event):
            kind, node, cycle = event
            if kind == _RETURN:
                return _TRAIN, node + 1, cycle
            if node:
                return _HERALD, node - 1, cycle
            return (_RETURN, 0, cycle - 1) if cycle else None

        def precedes(a, b):
            while time(a) == time(b):
                up_a, up_b = parent(a), parent(b)
                if up_a == up_b:
                    return a[0] < b[0]  # a herald goes before the train it leads
                if up_a is None or up_b is None:
                    return up_a is None
                a, b = up_a, up_b
            return time(a) < time(b)

        first = None
        for cycle, swapped in enumerate(swaps):
            # Herald cycle + 1 passes node i at (cycle + 1) * period + offsets[i].
            if first and time(first) < (cycle + 1) * period + offsets[1]:
                break
            for node in range(1, last + 1):
                herald = (_HERALD, node, cycle + 1)
                work = (_RETURN if node < last else _TRAIN, node, cycle)
                if precedes(herald, work) or (
                    node < last and swapped[node - 1] and time(herald) < time(work) + proc_ns
                ):
                    if first is None or precedes(herald, first):
                        first = herald
                    break
        if first is None:
            return None
        return f"herald for cycle {first[2]} overtook unfinished work at node {first[1]}"

    def loop(self, check: bool) -> RunResult:
        """Build every block in order, and the trace if collected.

        With ``check`` (a period below the safe bound) first raise the
        run's desynchronization (``_desync_error``), if any, as soon as no
        later cycle can hold an earlier one. At or above the bound there is
        none (module docstring).
        """
        blocks = (self._add_block_records(*block) for block in self.keyed.blocks())
        if check:
            error = self._desync_error(
                itertools.chain.from_iterable(block.swaps.tolist() for block in blocks)
            )
            if error:
                raise DesynchronizationError(error)
        for _ in blocks:
            pass
        schedule = self.schedule
        constants = (
            schedule.cycle_period_ns, schedule.herald_offsets_ns[-1], self.num_nodes - 1,
            self.right_stride, self.end_fidelity, self.left_senders, self.left_return_ns,
            self.cycles,
        )
        # Each column's parts are dropped once it is joined, so no second
        # copy of every column is held at once; a run of one block has
        # nothing to join.
        columns = []
        for parts in self.pairs:
            columns.append(parts[0] if len(parts) == 1 else np.concatenate(parts))
            parts.clear()
        return RunResult(
            schedule=schedule,
            records=RecordView(columns, constants),
            per_cycle_delivered=self.delivered,
            hop_success_counts=self.successes,
            split_index=self.left_senders or None,
            left_frame_folds=self.left_frame_folds,
            trace=[] if self.trace is None else self._trace_lines(),
        )


def run_network(config: NetworkConfig, collect_trace: bool = False) -> RunResult:
    """Validate a configuration and execute its herald sweep cycles.

    Returns the end-to-end pair records, as a ``RecordView`` over the
    run's columns, plus the per-cycle delivery and per-hop success
    statistics that the summary layer consumes. Warns when
    a ``cycle_period_ns`` override is below the safe bound, and aborts with
    a DesynchronizationError (naming the violating node) if a herald then
    overtakes unfinished work. Every run loops over its cycles
    (``_CycleRecords.loop``), deciding desynchronization there below the
    bound; a traced run returns the same result plus its trace.
    """
    schedule = validate_config(config)
    bound = _safe_period_ns(config, schedule.link_delays_ns)
    below = schedule.cycle_period_ns < bound
    if below:
        warnings.warn(
            f"cycle_period_ns={schedule.cycle_period_ns} is below the safe bound "
            f"{bound}; the run may abort with a desynchronization error",
            stacklevel=2,
        )
    split = butterfly_split(config) if config.butterfly else None
    return _CycleRecords(config, schedule, split, collect_trace).loop(below)

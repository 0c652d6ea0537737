"""Chain-level orchestration: herald sweep cycles, purification, butterfly.

A run executes a fixed number of generation cycles. Each cycle starts with a
herald pulse launched at the left end; the pulse initiates every fusillade
as it sweeps right, signal trains follow it down each fiber, return messages
confirm each hop, and intermediate nodes swap as soon as they hold links on
both sides. A frame record is one node's frames for one cycle, slot k's in
bit k of its X and Z ints: a swapping node adds one per return, and a
purified hop one per train. A record rides the *next* herald to the right
end, so every end-to-end pair's correction becomes available exactly one
cycle period after the pair is established. Under the butterfly split a
record of a node left of the split goes left instead, on the return message
the node sends when its incoming train ends, one hop per cycle, until it
reaches node 0. One final frame-flush sweep (no generation) is the herald
of the last cycle's records: it is traced and, like every herald, checked
for desynchronization.

The records' bits are read from the cycle's outcome, folded once as the
cycle starts into the herald share (the nodes from the split rightward, or
every node without one) and the left share. That is what the herald would
carry: a herald that reaches a node before the node's train or return of
the previous cycle, and so before its record, desynchronizes
(``_CycleRecords._desync_error``), so herald c + 1 would pick up every
record of cycle c and no other. Its arrival is the schedule's too, since cycle c + 1 starts at
exactly (c + 1) * period or the run raises.

The left share's arrival is the schedule's as well. With the split at node
s >= 2, cycle c's left share is in at node 0 at ``(c + s - 1) * period +
2 * d0 + (n0 - 1) * tau`` (d0 and n0 hop 0's delay and train), or never
if ``c + s - 1 >= cycles``; with s = 1 no record goes left and it is the
herald's arrival. That is when node s - 1's swap record of cycle c arrives,
and it is exact: the record covers every delivered slot, no left-bound
record of the cycle leaves later, and each record moves one hop per cycle.
A record comes to a node with the return from the node's right hop, which
comes after the node's own train has ended (``validate_config``) and,
unless the run desynchronizes, before its next herald, so the record leaves
on the node's next return. The left folds cover the slots of the cycle's
largest left-bound record.

A cycle's outcome is made from the config, the cycle and its keyed draws
alone: every hop's train and kept pairs, every purification, every node's
swaps, the pairs delivered and each node's frame records. The outcomes are
made a block of cycles at a time, from the block's keyed draws
(``_CycleRecords._block_outcomes``), and handed out in cycle order, each
as its cycle starts; the cycle's end-to-end records, success counts and
left folds are built from it then, once (``_CycleRecords``). Hop i's
train starts arriving as the herald reaches its right node, at ``cycle *
period + herald_offsets_ns[i + 1]``, and fusilier k k slot times later; a
slot's pair was made then.

So the event timeline (``_ChainSimulation``) adds nothing to a run's
result but its trace, and only a traced run takes it; an untraced run
loops over its cycles in order (``_CycleRecords.loop``). Both take each
cycle's outcome, in cycle order, from the same block pass. Whether a run
desynchronizes is decided once, from the schedule, ``proc_ns`` and which
nodes swapped in each cycle (``_CycleRecords._desync_error``), and only
below ``_safe_period_ns``: at or above it no herald can overtake. Node
i's return and swap end by ``2 * d_i + (n_i - 1) * tau + proc_ns`` after
its herald, and its incoming train by ``(n_{i-1} - 1) * tau`` (d_i and n_i
hop i's delay and train). Neither is later than the bound, so neither is
later than the node's next herald, one period on; at a tie the return or
train, scheduled first, is taken first. A traced run below the bound takes the
loop first, for its verdict, then replays on the timeline, whose handlers
only schedule and trace.

Keyed draws belong to ``engine.KeyedDraws``, which hands a block of
cycles out as threshold tests, one bool array per domain; this module
states each key's count and thresholds once, in ``_key_draws``: a train's
draws against its success probability and against 1 - F, a swap's and a
purification's coins against 0.5. Every train of the block resolves in one
array pass (``machines.train_pairs``), and a node's swaps and a hop's
purification coins are its key's columns cut to the swaps or trios made.

Each handler takes an event's fields, ``(node, cycle, datum)``, and reads
its time and seq as ``queue.now_ns`` and ``queue.seq`` (see ``engine``); no
event object exists. The datum is, by kind: none for ``CycleStart``,
``HeraldArrive`` and ``ReturnArrive``; the train's fusiliers (those that
filled a slot, slot by slot) for ``SignalArrive``, on the hop into the
node; the swap count for ``SwapComplete``.

Each hop's signal train is one queue entry holding n reserved seqs (see
``engine``), dispatched once, at its last signal's arrival:
``_handle_signal_arrive`` traces the whole train, then ends it with the
return message. That equals one event per signal because no event between
a train's first and last signal touches the receiving node:
``validate_config`` rejects a chain whose return from the right-hand hop
would come sooner, and a run whose next herald would come sooner
desynchronizes before the timeline starts.

The simulation keeps its own trace, each entry built once as its final
JSON line, byte-equal to ``json.dumps`` of its fields ``{t_ns, seq, kind,
node, detail}`` with sorted keys; each kind goes through the escaper once,
into ``_KIND_JSON``. Each handler appends its event's line at the queue's
(now_ns, seq); a train appends one line per signal, at its arrival and
reserved seq, its outcome read from the train's fusiliers; the last node
to finish a cycle appends one ``PairReady`` line per delivered pair, now,
under a seq reserved from the queue with no event queued. ``execute``
sorts the entries by (time, seq) once and strips each to its line in
place.

A block's pairs are arrays with axes (cycle, hop or node, slot) rather
than one object per pair or per swap: each hop's kept fusiliers, error and
frame bits, each node's parity and X outcome bits. One ``purify3_bits``
call purifies every trio of the block, and the block swaps all its slots
at once, one ``swap_bits`` call per intermediate node from left to right;
a slot's creation time is the latest of its hops' (``max`` over hops) and
a cycle's delivered count the least of their kept counts (``min``). Each
cycle's outcome is then sliced from the columns as lists: the delivered
pairs' fusiliers and creation times, their error and frame bits packed in
ints, bit k for slot k, and each frame record's bits packed the same way.
On the timeline a started cycle's outcome is held until
its last node finishes it. As the cycle starts each ``PairRecord`` and
``EndToEndRecord`` is built once, in cycle order, with the pair's
``correction`` the herald share XOR the left share, so the summary scores
what was delivered; the model fidelity, the same for every pair, is
``analytic_end_to_end_fidelity``, computed once per run. Nothing is
allocated per cycle before the run.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field
from enum import Enum
from json.encoder import encode_basestring_ascii as _escape
from typing import Iterable, Iterator, NamedTuple, Optional

import numpy as np

from .engine import (
    DOMAINS,
    EventKind,
    EventQueue,
    KEY_WORD_LIMIT,
    KeyedDraws,
    LINK_DOMAIN,
    PURIFY_DOMAIN,
    SWAP_DOMAIN,
    channel_delay_ns,
    run,
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
    """One end-to-end pair delivered by a cycle, built once as the cycle starts.

    ``established_at_ns`` is the pipeline's deterministic availability
    instant at the right end node (the herald's arrival there for the
    cycle); the correction frame rides the next herald, so
    ``frame_available_at_ns`` is exactly one cycle period later.
    ``correction`` is the XOR-fold of the cycle's frame records for this
    slot: ``herald_correction``, the herald's share (everything, unless the
    butterfly split routes part leftward), XOR the left share. Both shares
    are read from the cycle's outcome, which is what the herald and the
    left-bound returns carry (see the module docstring), so it equals
    ``pair.frame``. Under the butterfly split at node s,
    ``left_frame_available_at_ns`` is when the slot's last left-bound
    record reaches node 0, ``(cycle_id + s - 1) * period + 2 * d0 + (n0 -
    1) * tau`` with d0 and n0 hop 0's delay and train, or None when
    ``cycle_id + s - 1 >= cycles``; with s = 1 no record goes left and it
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


class FrameRecord(NamedTuple):
    """One node's frames for one cycle: ``count`` slots, slot k's frame in
    bit k of ``x_bits`` (its X bit) and of ``z_bits`` (its Z bit)."""

    node: int
    count: int
    x_bits: int
    z_bits: int


class _HopPairs(NamedTuple):
    """Pairs as columns: those a hop keeps (after purification), or a cycle's delivered.

    Slot k's pair was made by fusilier ``fusiliers[k]`` (its left endpoint's
    slot) at ``created_at_ns[k]``; its error bit is bit k of ``errors`` and
    its frame bit k of ``frame_x`` and ``frame_z``.
    """

    fusiliers: list[int]
    created_at_ns: list[int]
    errors: int
    frame_x: int
    frame_z: int


class _CycleOutcome(NamedTuple):
    """What one cycle makes, all of it from its block's keyed draws.

    ``trains[i]`` is the fusiliers that filled a slot in hop i's train,
    slot by slot, and ``successes[i]`` their count; ``purified[i]`` and
    ``swapped[i]`` are node i's purification and swap frame records (None
    where it makes none); ``pairs`` is the cycle's delivered pairs.
    """

    trains: list[list[int]]
    successes: list[int]
    purified: list[Optional[FrameRecord]]
    swapped: list[Optional[FrameRecord]]
    pairs: _HopPairs


def _trace_line(t_ns: int, seq: int, kind_json: str, node: int, detail: str) -> str:
    """One trace line: ``json.dumps`` of the fields with sorted keys, plus a
    newline. ``kind_json`` is the kind already through the escaper
    ``json.dumps`` uses (a ``_KIND_JSON`` value); ``detail`` goes through it
    here."""
    return (
        f'{{"detail": {_escape(detail)}, "kind": {kind_json}, '
        f'"node": {node}, "seq": {seq}, "t_ns": {t_ns}}}\n'
    )


# The event kinds, each bound once: a member looked up on its Enum class
# costs a slow attribute lookup per event.
_CYCLE_START = EventKind.CYCLE_START
_HERALD_ARRIVE = EventKind.HERALD_ARRIVE
_SIGNAL_ARRIVE = EventKind.SIGNAL_ARRIVE
_RETURN_ARRIVE = EventKind.RETURN_ARRIVE
_SWAP_COMPLETE = EventKind.SWAP_COMPLETE

# Every trace kind as json.dumps writes it: the event kinds and PairReady,
# fixed ASCII words escaped once rather than per line.
_KIND_JSON = {kind: _escape(kind.value) for kind in EventKind}
_PAIR_READY_JSON = _escape("PairReady")


@dataclass
class RunResult:
    """Everything a finished run produced.

    ``trace`` is empty unless the run collected it: then it is the run's
    JSON lines, newline included, in (t_ns, seq) order; ``json.loads`` one
    to read its fields.
    """

    schedule: CycleSchedule
    records: list[EndToEndRecord]
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
    one 32-bit word of its RNG key), and a hop whose n + m exceeds
    ``MAX_TRAIN_DRAWS`` (its train draws that many values at once). An
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
            f"cycles must be < {KEY_WORD_LIMIT}: a cycle's RNG key holds it in one 32-bit word"
        )
    if config.seed < 0:
        raise ConfigurationError("seed must be >= 0")
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


def _frame_shares(records, split: int) -> tuple[int, int, int, int, int]:
    """Fold a cycle's frame records (None where a node made none) into
    ``(herald_x, herald_z, left_x, left_z, left_count)``: the herald share,
    from the nodes at and right of ``split`` (every node when it is 0), the
    left share, from the nodes left of it, and the largest count among the
    left share's records."""
    herald_x = herald_z = left_x = left_z = left_count = 0
    for rec in records:
        if rec is None:
            continue
        if rec.node < split:
            left_x ^= rec.x_bits
            left_z ^= rec.z_bits
            left_count = max(left_count, rec.count)
        else:
            herald_x ^= rec.x_bits
            herald_z ^= rec.z_bits
    return herald_x, herald_z, left_x, left_z, left_count


def _ints(bits: np.ndarray) -> list:
    """``bits`` packed along its last axis into Python ints, bit k of each
    from ``bits[..., k]``, as nested lists over the leading axes."""
    size = bits.shape[-1]
    words = max(1, -(-size // 64))
    packed = np.zeros(bits.shape[:-1] + (8 * words,), np.uint8)
    packed[..., : -(-size // 8)] = np.packbits(bits, axis=-1, bitorder="little")
    lanes = packed.view("<u8")
    ints = lanes[..., -1]
    for word in range(words - 2, -1, -1):
        ints = ints.astype(object) << 64 | lanes[..., word].astype(object)
    return ints.tolist()


def _frame_records(
    nodes: range, counts: np.ndarray, x_bits: np.ndarray, z_bits: np.ndarray
) -> list[Optional[FrameRecord]]:
    """A block's frame records of ``nodes``, flat over (cycle, node): node
    ``nodes[i]``'s in cycle k from ``counts[k, i]`` and the slot bits
    ``x_bits[k, i]`` and ``z_bits[k, i]``, or None where the count is 0."""
    x_ints, z_ints = _ints(np.stack([x_bits, z_bits]).reshape(2, counts.size, x_bits.shape[-1]))
    counts = counts.ravel().tolist()
    return [
        FrameRecord(node, count, x, z) if count else None
        for node, count, x, z in zip(itertools.cycle(nodes), counts, x_ints, z_ints)
    ]


class _CycleRecords:
    """What a run returns, built cycle by cycle from each cycle's outcome.

    Both ways of running a chain build on it: its ``loop``, which every
    untraced run takes and which decides desynchronization below the safe
    period, and its subclass ``_ChainSimulation``, the event timeline of a
    traced run, which builds each cycle's part as the cycle starts.
    """

    def __init__(
        self, config: NetworkConfig, schedule: CycleSchedule, split_index: Optional[int]
    ) -> None:
        self.schedule = schedule
        # What _block_outcomes, _add_cycle_records and the handlers read,
        # cached off the config.
        self.cycles = config.cycles
        self.links = config.links
        self.tau = config.tau_slot_ns
        self.proc_ns = config.proc_ns
        self.num_nodes = len(config.nodes)
        self.purify = config.strategy is Strategy.PURIFY3
        # The nodes below ``left_senders``, the butterfly split (0 without
        # one), send their frame records left.
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
        # What the run returns, each cycle's part made as the cycle starts.
        self.records: list[EndToEndRecord] = []
        self.delivered: list[int] = []
        self.successes: list[list[int]] = []
        self.left_frame_folds: dict[tuple[int, int], PauliFrame] = {}

    def _outcomes(self) -> Iterator[_CycleOutcome]:
        """Every cycle's outcome, in cycle order, a block of cycles at a time."""
        for cycles, tests in self.keyed.blocks():
            yield from self._block_outcomes(cycles, tests)

    def _block_outcomes(self, cycles: range, tests: list) -> list[_CycleOutcome]:
        """Everything each cycle of a block makes, from its keyed draws alone,
        folded over the whole block as arrays (axes cycle, hop or node, slot).

        Hop i's train resolves against node i + 1's bank and, under
        purify3, purifies its trios; then every intermediate node swaps all
        its slots at once, left to right. A slot is delivered where every
        hop kept a pair, made when the last of them was.
        """
        hops = len(self.links)
        fusiliers, errors, counts = train_pairs(tests[LINK_DOMAIN], self.signals, self.capacity)
        width = fusiliers.shape[-1]
        # Each train's fusiliers, flat over the block's (cycle, hop).
        flat = fusiliers[np.arange(width) < counts[..., None]].tolist()
        ends = np.cumsum(counts).tolist()
        trains = [flat[start:end] for start, end in zip([0] + ends, ends)]
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
            firsts = fusiliers[:, 0, 0 : 3 * slots : 3].tolist()
            lasts = fusiliers[..., 2:end:3]
            # A purified hop's frame record is at its right node, if it kept
            # a trio: flat over the block's (cycle, hop).
            purified = _frame_records(range(1, hops + 1), kept, frame_x, frame_z)
        else:
            kept, firsts, lasts = counts, trains[::hops], fusiliers
            frame_x = frame_z = np.zeros_like(errors)
        # Slot k swaps at node i when both of its hops kept a pair in it;
        # only the first links_per_cycle slots can be delivered.
        swaps = np.minimum(kept[:, :-1], kept[:, 1:])
        parity, x_out = swap_outcomes(swaps, tests[SWAP_DOMAIN][:, 1:])
        swapped = _frame_records(range(1, hops), swaps, parity, x_out)
        pair_errors, pair_x, pair_z = (bits[:, 0, :slots] for bits in (errors, frame_x, frame_z))
        for node in range(1, hops):
            pair_errors, pair_x, pair_z = swap_bits(
                pair_errors, errors[:, node, :slots], pair_x, pair_z,
                frame_x[:, node, :slots], frame_z[:, node, :slots],
                parity[:, node - 1, :slots], x_out[:, node - 1, :slots],
            )
        pair_ints = _ints(np.stack([pair_errors, pair_x, pair_z], axis=1))
        delivered = kept.min(axis=1).tolist()
        cycle_ns = np.array(cycles, self.train_ns.dtype) * self.schedule.cycle_period_ns
        made = self.train_ns[:, None] + lasts[..., :slots].astype(self.train_ns.dtype) * self.tau
        created = (made.max(axis=1) + cycle_ns[:, None]).tolist()
        no_purification = [None] * self.num_nodes
        outcomes = []
        for k, (successes, count, first, times, ints) in enumerate(
            zip(counts.tolist(), delivered, firsts, created, pair_ints)
        ):
            outcomes.append(_CycleOutcome(
                trains[k * hops : (k + 1) * hops],
                successes,
                [None, *purified[k * hops : (k + 1) * hops]] if self.purify else no_purification,
                [None, *swapped[k * (hops - 1) : (k + 1) * (hops - 1)], None],
                _HopPairs(first[:count], times[:count], *ints),
            ))
        return outcomes

    def _add_cycle_records(self, cycle: int, outcome: _CycleOutcome) -> None:
        """Append what the run returns of ``cycle``: its end-to-end records,
        its delivered count, its hops' success counts and its left folds."""
        fusiliers, created, errors, frame_x, frame_z = outcome.pairs
        herald_x, herald_z, left_x, left_z, left_count = _frame_shares(
            outcome.purified + outcome.swapped, self.left_senders
        )
        self.delivered.append(len(fusiliers))
        self.successes.append(outcome.successes)
        for slot in range(left_count):
            self.left_frame_folds[cycle, slot] = FRAMES[left_x >> slot & 1][left_z >> slot & 1]
        period = self.schedule.cycle_period_ns
        established = cycle * period + self.schedule.herald_offsets_ns[-1]
        at_ns = established + period
        # Node split-1's swap record, which covers every delivered slot, is
        # the last left-bound record to reach node 0 (module docstring).
        left_at_ns = None
        if self.left_senders == 1:
            left_at_ns = at_ns
        elif self.left_senders and cycle + self.left_senders - 1 < self.cycles:
            left_at_ns = (cycle + self.left_senders - 1) * period + self.left_return_ns
        records = self.records
        for slot, fusilier in enumerate(fusiliers):
            x, z = herald_x >> slot & 1, herald_z >> slot & 1
            pair = PairRecord(
                Endpoint(0, fusilier), Endpoint(self.num_nodes - 1, self.right_stride * slot),
                errors >> slot & 1, FRAMES[frame_x >> slot & 1][frame_z >> slot & 1],
                created[slot], self.end_fidelity,
            )
            records.append(EndToEndRecord(
                cycle, slot, pair, established, at_ns,
                FRAMES[x ^ (left_x >> slot & 1)][z ^ (left_z >> slot & 1)],
                FRAMES[x][z], left_at_ns,
            ))

    def _result(self, trace: list[str]) -> RunResult:
        return RunResult(
            schedule=self.schedule,
            records=self.records,
            per_cycle_delivered=self.delivered,
            hop_success_counts=[list(counts) for counts in zip(*self.successes)],
            split_index=self.left_senders or None,
            left_frame_folds=self.left_frame_folds,
            trace=trace,
        )

    def _desync_error(self, swapped: Iterable[list[Optional[FrameRecord]]]) -> Optional[str]:
        """The error text of the first desynchronization a run meets on the event
        timeline, or None if it meets none.

        ``swapped`` yields each cycle's swap records (``_CycleOutcome.swapped``)
        in cycle order; it is read only as far as the verdict needs. Herald
        c + 1 overtakes node i >= 1 if the queue dispatches it before the
        node's work of cycle c (its return, or at the right end its incoming
        train), or, when the node swapped in cycle c, strictly less than
        ``proc_ns`` after that return. Node 0 desynchronizes when its return
        comes after the next cycle's start; times are fixed offsets from a
        cycle's start, so then it does so in cycle 0, and no later herald
        exists.

        Events are (kind, node, cycle), node 0's herald being the cycle's
        start. The queue orders them by (time, the key of the entry that
        scheduled it, rank among what that handler scheduled), cycle 0's start
        first: a herald schedules the next node's herald, then the train it
        leads; a train its return; node 0's return the next cycle's start.
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
        for cycle, records in enumerate(swapped):
            # Herald cycle + 1 passes node i at (cycle + 1) * period + offsets[i].
            if first and time(first) < (cycle + 1) * period + offsets[1]:
                break
            for node in range(1, last + 1):
                herald = (_HERALD, node, cycle + 1)
                work = (_RETURN if node < last else _TRAIN, node, cycle)
                if precedes(herald, work) or (
                    records[node] and time(herald) < time(work) + proc_ns
                ):
                    if first is None or precedes(herald, first):
                        first = herald
                    break
        if first is None:
            return None
        return f"herald for cycle {first[2]} overtook unfinished work at node {first[1]}"

    def _swaps(self):
        """Build every cycle in order, yielding each one's swap records."""
        add = self._add_cycle_records
        for cycle, made in enumerate(self._outcomes()):
            add(cycle, made)
            yield made.swapped

    def loop(self, check: bool) -> RunResult:
        """Build every cycle in order, with no event timeline and no trace.

        With ``check`` (a period below the safe bound) first raise the
        desynchronization the timeline would meet (``_desync_error``), if
        any, as soon as no later cycle can hold an earlier one. At or above
        the bound there is none (module docstring).
        """
        swaps = self._swaps()
        if check:
            error = self._desync_error(swaps)
            if error:
                raise DesynchronizationError(error)
        for _ in swaps:
            pass
        return self._result([])


class _ChainSimulation(_CycleRecords):
    """One event-driven run of a configured chain: the timeline that a
    traced run needs for its trace. It checks nothing: a run that would
    desynchronize is stopped by ``_desync_error`` before it starts."""

    def __init__(
        self, config: NetworkConfig, schedule: CycleSchedule, split_index: Optional[int]
    ) -> None:
        super().__init__(config, schedule, split_index)
        self.delays = schedule.link_delays_ns
        # (t_ns, seq, line) entries; execute strips each to its line.
        self.trace: list = []
        self.queue = EventQueue()
        # outcomes[cycle] from the cycle's start until unfinished[cycle], its
        # nodes yet to finish it, reaches 0.
        self.outcomes: dict[int, _CycleOutcome] = {}
        self.unfinished: dict[int, int] = {}

    # -- event handlers -------------------------------------------------

    def _handle_cycle_start(self, node_id: int, cycle: int, _datum: None) -> None:
        generate = cycle < self.cycles
        if generate:
            outcome = self.outcomes[cycle] = next(self.started)
            self.unfinished[cycle] = self.num_nodes
            self._add_cycle_records(cycle, outcome)
        self._herald_at(0, cycle)
        self._trace(_CYCLE_START, node_id, f"cycle={cycle}" + ("" if generate else " flush"))

    def _handle_herald_arrive(self, node_id: int, cycle: int, _datum: None) -> None:
        self._herald_at(node_id, cycle)
        self._trace(_HERALD_ARRIVE, node_id, f"cycle={cycle}")

    def _handle_signal_arrive(self, node_id: int, cycle: int, fusiliers: list[int]) -> None:
        # Dispatched at the train's last signal; fusilier k arrived at
        # start_ns + k * tau.
        link = self.links[node_id - 1]
        start_ns = self.queue.now_ns - (link.n_fusiliers - 1) * self.tau
        self._train_lines(node_id, cycle, link, start_ns, fusiliers)
        return_ns = self.queue.now_ns + self.delays[node_id - 1]
        self.queue.schedule(return_ns, _RETURN_ARRIVE, node_id - 1, cycle, None)
        if node_id == self.num_nodes - 1:
            # The right end gets no return; its cycle ends with the train.
            self._node_finished(cycle)

    def _train_lines(
        self, node_id: int, cycle: int, link: LinkSpec, start_ns: int, fusiliers: list[int]
    ) -> None:
        # Signal k of the train arrived at start_ns + k * tau under seq
        # queue.seq - count + 1 + k. It succeeded if it filled a slot, was
        # discarded if it came after the bank filled, and failed otherwise.
        # Past the kind, a line holds only ints and fixed words, so it needs
        # no escaping.
        count = link.n_fusiliers
        full = fusiliers[-1] + 1 if len(fusiliers) == link.m_fusilands else count
        outcomes = ["failure"] * full + ["discarded"] * (count - full)
        for slot, fusilier in enumerate(fusiliers):
            outcomes[fusilier] = f"success slot={slot}"
        head = f'{{"detail": "cycle={cycle} fusilier='
        mid = f'", "kind": {_KIND_JSON[_SIGNAL_ARRIVE]}, "node": {node_id}, "seq": '
        self.trace += [
            (t, seq, f'{head}{k} {outcome}{mid}{seq}, "t_ns": {t}}}\n')
            for k, t, seq, outcome in zip(
                itertools.count(),
                itertools.count(start_ns, self.tau),
                itertools.count(self.queue.seq - count + 1),
                outcomes,
            )
        ]

    def _handle_return_arrive(self, node_id: int, cycle: int, _datum: None) -> None:
        queue = self.queue
        outcome = self.outcomes[cycle]
        record = outcome.swapped[node_id]
        swaps = 0
        if record:
            # The swap occupies the node for proc_ns.
            swaps = record.count
            queue.schedule(queue.now_ns + self.proc_ns, _SWAP_COMPLETE, node_id, cycle, swaps)
        else:
            self._node_finished(cycle)
        if node_id == 0:
            # Launched once the left end finished its cycle so that, at the
            # exact period boundary, completion events precede the next
            # CycleStart in the (time, seq) order.
            start_ns = (cycle + 1) * self.schedule.cycle_period_ns
            queue.schedule(start_ns, _CYCLE_START, 0, cycle + 1, None)
        detail = f"cycle={cycle} matches={outcome.successes[node_id]} swaps={swaps}"
        self._trace(_RETURN_ARRIVE, node_id, detail)

    def _handle_swap_complete(self, node_id: int, cycle: int, swaps: int) -> None:
        self._node_finished(cycle)
        self._trace(_SWAP_COMPLETE, node_id, f"cycle={cycle} count={swaps}")

    # -- helpers ---------------------------------------------------------

    def _trace(self, kind: EventKind, node_id: int, detail: str) -> None:
        t_ns, seq = self.queue.now_ns, self.queue.seq
        self.trace.append((t_ns, seq, _trace_line(t_ns, seq, _KIND_JSON[kind], node_id, detail)))

    def _herald_at(self, node_id: int, cycle: int) -> None:
        if node_id + 1 == self.num_nodes:
            # The right end fires no train.
            return
        queue = self.queue
        # The herald is multiplexed ahead of the signal train: schedule it
        # first so it wins the (time, seq) tie at the next node.
        arrive_ns = queue.now_ns + self.delays[node_id]
        queue.schedule(arrive_ns, _HERALD_ARRIVE, node_id + 1, cycle, None)
        if cycle < self.cycles:
            # One queue entry for the whole train, holding a seq per signal
            # and due at its last; fusilier k fires k slot times after the
            # herald. A frame-flush sweep fires none.
            signals = self.links[node_id].n_fusiliers
            fusiliers = self.outcomes[cycle].trains[node_id]
            last_ns = arrive_ns + (signals - 1) * self.tau
            queue.schedule(last_ns, _SIGNAL_ARRIVE, node_id + 1, cycle, fusiliers, signals)

    def _node_finished(self, cycle: int) -> None:
        # A node finishes each cycle once; the last drops the cycle's outcome
        # and traces its pairs, keyed like an event scheduled now, but
        # nothing is queued.
        self.unfinished[cycle] -= 1
        if self.unfinished[cycle]:
            return
        del self.unfinished[cycle]
        pairs = self.outcomes.pop(cycle).pairs
        now_ns, node_id = self.queue.now_ns, self.num_nodes - 1
        for slot in range(len(pairs.created_at_ns)):
            seq = self.queue.reserve()
            detail = f"cycle={cycle} slot={slot} x={pairs.errors >> slot & 1}"
            self.trace.append(
                (now_ns, seq, _trace_line(now_ns, seq, _PAIR_READY_JSON, node_id, detail))
            )

    # -- top level ---------------------------------------------------------

    def execute(self) -> RunResult:
        # Every cycle's outcome, taken as the cycle starts. The generator
        # refers back to the simulation, so it is dropped when the run ends,
        # not left for the cyclic collector with the run's trace and records.
        self.started = self._outcomes()
        self.queue.schedule(0, _CYCLE_START, 0, 0, None)
        handlers = {
            _CYCLE_START: self._handle_cycle_start,
            _HERALD_ARRIVE: self._handle_herald_arrive,
            _SIGNAL_ARRIVE: self._handle_signal_arrive,
            _RETURN_ARRIVE: self._handle_return_arrive,
            _SWAP_COMPLETE: self._handle_swap_complete,
        }
        run(self.queue, handlers)
        del self.started
        # A train's signals are traced at keys before the train's dispatch.
        # Seqs are unique, so the sort never compares two lines.
        trace = self.trace
        trace.sort()
        for index, (_t_ns, _seq, line) in enumerate(trace):
            trace[index] = line
        return self._result(trace)


def run_network(config: NetworkConfig, collect_trace: bool = False) -> RunResult:
    """Validate a configuration and execute its herald sweep cycles.

    Returns every end-to-end pair record plus the per-cycle delivery and
    per-hop success statistics that the summary layer consumes. Warns when
    a ``cycle_period_ns`` override is below the safe bound, and aborts with
    a DesynchronizationError (naming the violating node) if a herald then
    overtakes unfinished work. An untraced run loops over its cycles
    (``_CycleRecords.loop``), deciding desynchronization there below the
    bound. A traced run replays on the event timeline, with the same
    result plus its trace; below the bound it takes the loop first, for its
    verdict, so the timeline only ever runs a chain that stays in step.
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
    if below or not collect_trace:
        result = _CycleRecords(config, schedule, split).loop(below)
        if not collect_trace:
            return result
    return _ChainSimulation(config, schedule, split).execute()

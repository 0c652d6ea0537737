"""Chain-level orchestration: herald sweep cycles, purification, butterfly.

A run executes a fixed number of generation cycles. Each cycle starts with a
herald pulse launched at the left end; the pulse initiates every fusillade
as it sweeps right, signal trains follow it down each fiber, return messages
confirm each hop, and intermediate nodes swap as soon as they hold links on
both sides. A frame record is one node's frames for one cycle, slot k's in
bit k of its X and Z ints: a swapping node adds one per return, and a
purified hop one per train. The simulation keeps each node's outbox and
routes it: a record leaves on the *next* herald to the right end, so every
end-to-end pair's correction becomes available exactly one cycle period
after the pair is established. Under the butterfly split the outbox of a
node left of the split leaves instead on the return message it sends when
its incoming train ends, and relayed records join the receiving node's
outbox, one hop per cycle, until they reach node 0. One final frame-flush
sweep (no generation) delivers the last corrections. What arrives is kept
per cycle as packed ints: the herald's fold and arrival time, and the left
fold with each slot's last arrival at node 0 (None for records still
relaying when the run ends).

An event names its node and cycle; its one datum is, by kind: none for
``CycleStart``; the herald's frame list for ``HeraldArrive``, one list made
at the cycle start and passed along the sweep; the train's link ``Draws``
for ``SignalArrive``, on the hop into the node; the frame list a return
relays (empty unless its sender sends left) for ``ReturnArrive``; the swap
count for ``SwapComplete``.

Each hop's signal train is one queue entry holding n reserved seqs (see
``engine``), dispatched once, at its last signal's arrival:
``_handle_signal_arrive`` resolves the whole train with ``on_train``, then
ends it (purification, the return message). Arrival times are computed,
not stored: fusilier k of an n-signal train dispatched at t arrives at
``start + k * tau`` with ``start = t - (n - 1) * tau``, and a slot's pair
was made when its fusilier's signal arrived. That equals one event per
signal because nothing touches the receiving node's fusilands between a
train's first and last signal: ``validate_config`` rejects a chain whose
return from the right-hand hop would come sooner, and a herald that comes
sooner (a cycle period below the safe bound) finds the bank still readied
and desynchronizes as it would mid-train.

The simulation keeps its own trace, each entry built once as its final
JSON line, byte-equal to ``json.dumps`` of its fields ``{t_ns, seq, kind,
node, detail}`` with sorted keys. With the trace on, each handler appends
its event's line at the event's (time, seq); a train appends one line per
signal, at its arrival and reserved seq, its outcome read from the
fusiliers column of the train's pairs; a finalized cycle appends one
``PairReady`` line per pair, now, under a seq reserved from the queue with
no event queued. ``execute`` sorts the entries by (time, seq) once and
strips each to its line in place.

Keyed seeds are expanded a block of cycles at a time, at the ``CycleStart``
of the block's first cycle (see ``engine``), and each cycle's rows hang on
its ``_CycleLedger``. Several cycles are in flight at once on a long chain,
so every draw of cycle c reads ledger c, which lives exactly as long as the
cycle. Each key is drawn once, in one vector call: a train's link draws
when the train is scheduled, n + m values (a signal draws at most once,
plus once more on a success); a node's swaps, two per swap, at most 2 *
min of its hops' slot counts; a hop's purification, six per trio, at most 6
* floor(m / 3). A domain whose largest such count is at most
``BATCH_MAX_DRAWS`` (64) draws every key of the block at the block's start,
in one ``pcg64_random`` call and one ``tolist``, and the ledger hands each
train, swap and purification a ``Draws`` over its key's values, releasing
them; a domain above it draws key by key from numpy's generator, which
costs less than the kernel there (see ``engine``). Long trains, such as the
paper chain's n + m = 644, stay on that native path. A block holds at most
``SEED_BLOCK`` cycles and at most ``BLOCK_MAX_VALUES`` (2**14) batched
values. A cycle keeps each batched key's values until the key is drawn, so
a chain with many cycles in flight also holds their undrawn values. Which
path draws a key, and how many cycles a block holds, changes no output.

The ledger is also the one owner of a cycle's hop pairs and swap outcomes,
held as columns rather than one object per pair or per swap; a node keeps
only its bank phases. A hop's kept pairs are the fusiliers that made them,
their creation times, and their error and frame bits packed in ints, bit k
for slot k; a node's swaps are its parity and X outcome bits, packed the
same way. A purified hop folds all its trios in one ``purify3_bits`` call.
A finalized cycle swaps all its slots at once, one ``swap_bits`` call per
intermediate node from left to right, and is kept as its delivered pairs, in
the same columns, and its hops' raw success counts (which the trace reads
from the ledger). A return's swap count is the shorter of the node's two
hops in the ledger. At run end each ``PairRecord`` and ``EndToEndRecord`` is
built once, in cycle order, with the pair's ``correction`` the herald share
XOR the left share, so the summary scores what was delivered; the model
fidelity, the same for every pair, is ``analytic_end_to_end_fidelity``,
computed once per run. Nothing is allocated per cycle before the run.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field
from enum import Enum
from json.encoder import encode_basestring_ascii as _escape
from typing import NamedTuple, Optional

from .engine import (
    DOMAINS,
    Draws,
    Event,
    EventKind,
    EventQueue,
    KEY_WORD_LIMIT,
    LINK_DOMAIN,
    PURIFY_DOMAIN,
    RngStream,
    SEED_BLOCK,
    SWAP_DOMAIN,
    channel_delay_ns,
    pcg64_random,
    run,
)
from .errors import ConfigurationError, DesynchronizationError, ProtocolError
from .machines import NodeState, on_herald, on_return, on_train
from .pair_algebra import (
    Endpoint,
    FRAMES,
    LinkModel,
    PairRecord,
    PauliFrame,
    chain_fidelity,
    purify3_analytic,
    purify3_bits,
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
    "BATCH_MAX_DRAWS",
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
    """One end-to-end pair delivered by a cycle, built once at run end.

    ``established_at_ns`` is the pipeline's deterministic availability
    instant at the right end node (the herald's arrival there for the
    cycle); the correction frame rides the next herald, so
    ``frame_available_at_ns`` is exactly one cycle period later.
    ``correction`` is the XOR-fold of the cycle's frame records for this
    slot as delivered: ``herald_correction``, the herald's share (everything,
    unless the butterfly split routes part leftward), XOR the left share.
    It equals ``pair.frame`` when no record was lost.
    Under the butterfly split ``left_frame_available_at_ns`` is when the
    slot's last left-bound record reached node 0 (the herald's arrival if
    none went left, None if one was still relaying when the run ended).
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
    cycle: int
    count: int
    x_bits: int
    z_bits: int


class _HopPairs(NamedTuple):
    """Pairs as columns: a hop's kept at the end of its train, or a cycle's delivered.

    Slot k's pair was made by fusilier ``fusiliers[k]`` (its left endpoint's
    slot) at ``created_at_ns[k]``; its error bit is bit k of ``errors`` and
    its frame bit k of ``frame_x`` and ``frame_z``.
    """

    fusiliers: list[int]
    created_at_ns: list[int]
    errors: int
    frame_x: int
    frame_z: int


_NO_PAIRS = _HopPairs([], [], 0, 0, 0)


def _trace_line(t_ns: int, seq: int, kind: str, node: int, detail: str) -> str:
    """One trace line: ``json.dumps`` of the fields with sorted keys, plus a
    newline (``kind`` and ``detail`` through the escaper ``json.dumps`` uses)."""
    return (
        f'{{"detail": {_escape(detail)}, "kind": {_escape(kind)}, '
        f'"node": {node}, "seq": {seq}, "t_ns": {t_ns}}}\n'
    )


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


# A train draws n + m values at once (see ``_schedule_signals``), so a hop
# may ask for at most this many; larger hops are rejected as configuration.
MAX_TRAIN_DRAWS = 2**24

# An RNG domain whose keys each draw at most this many values in a cycle
# draws every key of a seed block in one ``pcg64_random`` call; a domain
# above it draws key by key (``RngStream.draws``). It sits just below the
# measured break-even of the two (see ``engine``), and it keeps long
# trains, whose values would be held for every cycle in flight, native.
BATCH_MAX_DRAWS = 64
# The most values a block of batched draws may hold: the block is cut to
# fewer cycles when its keys would draw more.
BLOCK_MAX_VALUES = 2**14


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


def _batched_draws(config: NetworkConfig) -> list[int]:
    """Per RNG domain, the most values one of its keys draws in a cycle, or
    0 if the domain draws key by key: it draws nothing, or more than
    ``BATCH_MAX_DRAWS`` values a key."""
    slots = [effective_slots(link, config.strategy) for link in config.links]
    most = [0] * DOMAINS
    most[LINK_DOMAIN] = max(link.n_fusiliers + link.m_fusilands for link in config.links)
    most[SWAP_DOMAIN] = 2 * max(map(min, slots, slots[1:]), default=0)
    if config.strategy is Strategy.PURIFY3:
        most[PURIFY_DOMAIN] = 6 * max(slots)
    return [count if count <= BATCH_MAX_DRAWS else 0 for count in most]


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


class _CycleLedger:
    """Per-cycle bookkeeping used to compose end-to-end pairs."""

    __slots__ = ("seeds", "batched", "hop_pairs", "successes", "swaps", "outstanding")

    def __init__(self, seeds, batched: list, num_links: int, num_nodes: int) -> None:
        # seeds[domain, index]: the PCG64 seed row of the cycle's key;
        # batched[domain][index]: the key's values if its domain draws a
        # block at once, else batched[domain] is None.
        self.seeds = seeds
        self.batched = batched
        # hop_pairs[link]: the pairs the hop keeps at the end of its train
        # (after purification), from successes[link] raw ones; swaps[node]:
        # the node's swap outcomes, bit k of (parity_bits, x_bits) for slot k.
        self.hop_pairs: list[Optional[_HopPairs]] = [None] * num_links
        self.successes = [0] * num_links
        self.swaps: list[tuple[int, int]] = [(0, 0)] * num_nodes
        self.outstanding = set(range(num_nodes))

    def draws(self, rng: RngStream, domain: int, index: int, count: int) -> Draws:
        """The first ``count`` draws of the cycle's key (domain, index); a key
        is drawn once, so its batched values are released here."""
        batched = self.batched[domain]
        if batched is None:
            return rng.draws(self.seeds[domain, index], count)
        values, batched[index] = batched[index], None
        return Draws(values)


class _ChainSimulation:
    """One event-driven run of a configured chain."""

    def __init__(
        self,
        config: NetworkConfig,
        schedule: CycleSchedule,
        split_index: Optional[int],
        collect_trace: bool,
    ) -> None:
        self.config = config
        self.schedule = schedule
        self.collect_trace = collect_trace
        # (t_ns, seq, line) entries; execute strips each to its line.
        self.trace: list = []
        self.num_nodes = len(config.nodes)
        self.nodes = [
            NodeState(
                i,
                config.links[i].n_fusiliers if i < self.num_nodes - 1 else 0,
                config.links[i - 1].m_fusilands if i > 0 else 0,
            )
            for i in range(self.num_nodes)
        ]
        # Node i's frame outbox. Nodes below ``left_senders``, the butterfly
        # split (never node 0; 0 without a split), send it left on their
        # return message; every other node's leaves on the next herald.
        self.outboxes: list[list[FrameRecord]] = [[] for _ in range(self.num_nodes)]
        self.left_senders = split_index or 0
        # Every end-to-end pair has the same model fidelity.
        self.end_fidelity = analytic_end_to_end_fidelity(config)
        # A kept pair in slot k sits in the right node's fusiland 3k when
        # purified, k when raw.
        self.right_stride = 3 if config.strategy is Strategy.PURIFY3 else 1
        self.queue = EventQueue()
        self.rng = RngStream(config.seed)
        # Per domain, the values one key draws if the domain is batched, else
        # 0; a block is as many cycles as keep its batched values in bounds.
        self.batched = _batched_draws(config)
        per_cycle = len(config.links) * sum(self.batched)
        self.block = min(SEED_BLOCK, max(1, BLOCK_MAX_VALUES // max(1, per_cycle)))
        # Seed rows of the block holding the last cycle started, and per
        # domain its batched values by cycle and index (None if not batched).
        self.seed_rows = None
        self.block_draws: list = []
        self.ledgers: dict[int, _CycleLedger] = {}
        # finished[cycle] = (its delivered pairs, its hops' success counts).
        self.finished: dict[int, tuple[_HopPairs, list[int]]] = {}
        # Frames delivered for cycle c, slot k in bit k: herald_folds[c] =
        # (x_bits, z_bits, arrival_ns) at the right end, left_folds[c] =
        # [x_bits, z_bits, last_ns] at node 0, last_ns[k] per slot.
        self.herald_folds: dict[int, tuple[int, int, int]] = {}
        self.left_folds: dict[int, list] = {}

    # -- event handlers -------------------------------------------------

    def _handle_cycle_start(self, event: Event) -> None:
        cycle = event.cycle
        cycles = self.config.cycles
        generate = cycle < cycles
        if generate:
            num_links = len(self.config.links)
            offset = cycle % self.block
            if not offset:
                block = range(cycle, min(cycle + self.block, cycles))
                self.seed_rows = rows = self.rng.seed_block(block, num_links)
                self.block_draws = [
                    pcg64_random(rows[:, domain], count).tolist() if count else None
                    for domain, count in enumerate(self.batched)
                ]
            self.ledgers[cycle] = _CycleLedger(
                self.seed_rows[offset],
                [None if values is None else values[offset] for values in self.block_draws],
                num_links,
                self.num_nodes,
            )
        self._herald_at(0, cycle, [])
        if self.collect_trace:
            self._trace(event, f"cycle={cycle}" + ("" if generate else " flush"))

    def _handle_herald_arrive(self, event: Event) -> None:
        self._herald_at(event.node, event.cycle, event.data)
        if self.collect_trace:
            self._trace(event, f"cycle={event.cycle}")

    def _handle_signal_arrive(self, event: Event) -> None:
        # Dispatched at the train's last signal: resolves every signal, then
        # ends the train. Fusilier k arrived at start_ns + k * tau.
        node = self.nodes[event.node]
        link = self.config.links[event.node - 1]
        signals = link.n_fusiliers
        start_ns = event.time_ns - (signals - 1) * self.config.tau_slot_ns
        fusiliers, errors = on_train(node, link.model, event.data, signals)
        if self.collect_trace:
            self._train_lines(event, node, signals, start_ns, fusiliers)
        self._end_of_train(node, event.cycle, fusiliers, errors, start_ns)

    def _train_lines(
        self, event: Event, node: NodeState, count: int, start_ns: int, fusiliers: list[int]
    ) -> None:
        # Signal k of the train arrived at start_ns + k * tau under seq
        # event.seq - count + 1 + k. It succeeded if it filled a slot, was
        # discarded if it came after the bank filled, and failed otherwise.
        # Past the kind, a line holds only ints and fixed words, so it needs
        # no escaping.
        full = fusiliers[-1] + 1 if len(fusiliers) == node.m_fusilands else count
        outcomes = ["failure"] * full + ["discarded"] * (count - full)
        for slot, fusilier in enumerate(fusiliers):
            outcomes[fusilier] = f"success slot={slot}"
        head = f'{{"detail": "cycle={event.cycle} fusilier='
        mid = f'", "kind": {_escape(event.kind._value_)}, "node": {node.node_id}, "seq": '
        self.trace += [
            (t, seq, f'{head}{k} {outcome}{mid}{seq}, "t_ns": {t}}}\n')
            for k, t, seq, outcome in zip(
                itertools.count(),
                itertools.count(start_ns, self.config.tau_slot_ns),
                itertools.count(event.seq - count + 1),
                outcomes,
            )
        ]

    def _handle_return_arrive(self, event: Event) -> None:
        node_id = event.node
        cycle = event.cycle
        node = self.nodes[node_id]
        if node_id == 0:
            self._absorb_leftbound(event.data, self.queue.now_ns)
        else:
            self.outboxes[node_id].extend(event.data)
        ledger = self.ledgers[cycle]
        # Slot k swaps when both of the node's hops kept a pair in it; node 0
        # has no left hop. Two draws per swap: a parity bit, then an X bit.
        swaps = 0
        if node_id:
            swaps = min(
                len(ledger.hop_pairs[node_id - 1].fusiliers),
                len(ledger.hop_pairs[node_id].fusiliers),
            )
        if swaps:
            rng = ledger.draws(self.rng, SWAP_DOMAIN, node_id, 2 * swaps)
            ledger.swaps[node_id] = outcomes = on_return(node, cycle, swaps, rng)
            self.outboxes[node_id].append(FrameRecord(node_id, cycle, swaps, *outcomes))
            # The swap occupies the node for proc_ns; busy_until_ns guards the
            # occupancy window against early heralds.
            node.busy_until_ns = self.queue.now_ns + self.config.proc_ns
            self.queue.schedule(
                Event(node.busy_until_ns, EventKind.SWAP_COMPLETE, node_id, cycle, swaps)
            )
        else:
            on_return(node, cycle, 0, None)
            self._mark_complete(cycle, node_id)
        if node_id == 0:
            self._schedule_next_cycle(cycle)
        if self.collect_trace:
            matches = ledger.successes[node_id]
            self._trace(event, f"cycle={cycle} matches={matches} swaps={swaps}")

    def _schedule_next_cycle(self, cycle: int) -> None:
        # Launched once the left end finished its cycle so that, at the exact
        # period boundary, completion events precede the next CycleStart in
        # the (time, seq) order.
        start_ns = (cycle + 1) * self.schedule.cycle_period_ns
        if start_ns < self.queue.now_ns:
            raise DesynchronizationError(
                f"herald for cycle {cycle + 1} was due at {start_ns} ns but "
                f"node 0 finished cycle {cycle} only at {self.queue.now_ns} ns"
            )
        self.queue.schedule(Event(start_ns, EventKind.CYCLE_START, 0, cycle + 1, None))

    def _handle_swap_complete(self, event: Event) -> None:
        self._mark_complete(event.cycle, event.node)
        if self.collect_trace:
            self._trace(event, f"cycle={event.cycle} count={event.data}")

    # -- helpers ---------------------------------------------------------

    def _trace(self, event: Event, detail: str) -> None:
        t_ns, seq = event.time_ns, event.seq
        self.trace.append(
            (t_ns, seq, _trace_line(t_ns, seq, event.kind._value_, event.node, detail))
        )

    def _herald_at(self, node_id: int, cycle: int, frames: list[FrameRecord]) -> None:
        fired = on_herald(
            self.nodes[node_id], cycle, self.queue.now_ns, generate=cycle < self.config.cycles
        )
        if node_id >= self.left_senders:
            outbox = self.outboxes[node_id]
            frames += outbox
            outbox.clear()
        if node_id + 1 < self.num_nodes:
            # The herald is multiplexed ahead of the signal train: schedule
            # it first so it wins the (time, seq) tie at the next node.
            self.queue.schedule(
                Event(
                    self.queue.now_ns + self.schedule.link_delays_ns[node_id],
                    EventKind.HERALD_ARRIVE,
                    node_id + 1,
                    cycle,
                    frames,
                )
            )
        else:
            self._deliver_frames(cycle, frames)
        self._schedule_signals(node_id, cycle, fired)

    def _schedule_signals(self, node_id: int, cycle: int, fired: int) -> None:
        # One queue entry for the whole train, holding a seq per signal and
        # due at its last; fusilier k fires k slot times after the herald.
        if not fired:
            return
        start_ns = self.queue.now_ns + self.schedule.link_delays_ns[node_id]
        draws = self.ledgers[cycle].draws(
            self.rng, LINK_DOMAIN, node_id, fired + self.config.links[node_id].m_fusilands
        )
        self.queue.schedule(
            Event(
                start_ns + (fired - 1) * self.config.tau_slot_ns,
                EventKind.SIGNAL_ARRIVE,
                node_id + 1,
                cycle,
                draws,
            ),
            fired,
        )

    def _end_of_train(
        self, node: NodeState, cycle: int, fusiliers: list[int], errors: int, start_ns: int
    ) -> None:
        node_id = node.node_id
        link_idx = node_id - 1
        self.ledgers[cycle].successes[link_idx] = len(fusiliers)
        tau = self.config.tau_slot_ns
        created = [start_ns + fusilier * tau for fusilier in fusiliers]
        if self.config.strategy is Strategy.PURIFY3:
            hop = self._purify_hop(node_id, link_idx, cycle, fusiliers, created, errors)
        else:
            hop = _HopPairs(fusiliers, created, errors, 0, 0)
        self.ledgers[cycle].hop_pairs[link_idx] = hop
        relayed = []
        if node_id < self.left_senders:
            relayed, self.outboxes[node_id] = self.outboxes[node_id], []
        self.queue.schedule(
            Event(
                self.queue.now_ns + self.schedule.link_delays_ns[link_idx],
                EventKind.RETURN_ARRIVE,
                link_idx,
                cycle,
                relayed,
            )
        )
        if node_id == self.num_nodes - 1:
            # The right end gets no return; its cycle ends with the train.
            self._mark_complete(cycle, node_id)

    def _purify_hop(
        self,
        node_id: int,
        link_idx: int,
        cycle: int,
        fusiliers: list[int],
        created: list[int],
        errors: int,
    ) -> _HopPairs:
        # Trio t is slots 3t, 3t+1, 3t+2 and keeps slot 3t; its round is bit
        # t of every column handed to purify3_bits. Fusiliers increase within
        # a train, so the trio was made when its third member arrived.
        trios = len(fusiliers) // 3
        if not trios:
            return _NO_PAIRS
        coin = self.ledgers[cycle].draws(self.rng, PURIFY_DOMAIN, link_idx, 6 * trios).random
        e1 = e2 = e3 = tx12 = tx23 = tx_x2 = tx_x3 = rx_x2 = rx_x3 = 0
        for t in range(trios):
            bit = 1 << t
            # Transmit-side parities and the four X readouts are fair coins.
            if coin() < 0.5:
                tx12 |= bit
            if coin() < 0.5:
                tx23 |= bit
            if coin() < 0.5:
                tx_x2 |= bit
            if coin() < 0.5:
                tx_x3 |= bit
            if coin() < 0.5:
                rx_x2 |= bit
            if coin() < 0.5:
                rx_x3 |= bit
            trio = errors >> 3 * t
            if trio & 1:
                e1 |= bit
            if trio & 2:
                e2 |= bit
            if trio & 4:
                e3 |= bit
        # Receive-side parities reflect the true pairwise error syndrome,
        # keeping the decode statistics honest. A hop's pairs carry the
        # identity frame, so the kept pair's frame is the round's delta.
        kept_errors, frame_x, frame_z = purify3_bits(
            e1, tx12, tx23, tx12 ^ e1 ^ e2, tx23 ^ e2 ^ e3, tx_x2, tx_x3, rx_x2, rx_x3
        )
        self.outboxes[node_id].append(FrameRecord(node_id, cycle, trios, frame_x, frame_z))
        end = 3 * trios
        return _HopPairs(
            fusiliers[0:end:3],
            created[2:end:3],
            kept_errors,
            frame_x,
            frame_z,
        )

    def _absorb_leftbound(self, records: list[FrameRecord], at_ns: Optional[int]) -> None:
        for rec in records:
            fold = self.left_folds.setdefault(rec.cycle, [0, 0, []])
            fold[0] ^= rec.x_bits
            fold[1] ^= rec.z_bits
            fold[2][: rec.count] = [at_ns] * rec.count

    def _mark_complete(self, cycle: int, node_id: int) -> None:
        ledger = self.ledgers[cycle]
        ledger.outstanding.discard(node_id)
        if not ledger.outstanding:
            self._finalize_cycle(cycle, ledger)

    def _finalize_cycle(self, cycle: int, ledger: _CycleLedger) -> None:
        # Swap every intermediate node's slots, left to right, all slots at
        # once; a slot is delivered where every hop kept a pair.
        hops = ledger.hop_pairs
        first = hops[0]
        errors, frame_x, frame_z = first.errors, first.frame_x, first.frame_z
        for node_id in range(1, self.num_nodes - 1):
            hop = hops[node_id]
            errors, frame_x, frame_z = swap_bits(
                errors, hop.errors, frame_x, frame_z, hop.frame_x, hop.frame_z,
                *ledger.swaps[node_id],
            )
        created = [max(times) for times in zip(*(hop.created_at_ns for hop in hops))]
        pairs = _HopPairs(first.fusiliers[: len(created)], created, errors, frame_x, frame_z)
        self.finished[cycle] = (pairs, ledger.successes)
        if self.collect_trace:
            # Keyed like an event scheduled now, but nothing is queued.
            now_ns, node_id = self.queue.now_ns, self.num_nodes - 1
            for slot in range(len(created)):
                seq = self.queue.reserve()
                detail = f"cycle={cycle} slot={slot} x={errors >> slot & 1}"
                self.trace.append(
                    (now_ns, seq, _trace_line(now_ns, seq, "PairReady", node_id, detail))
                )
        del self.ledgers[cycle]

    def _deliver_frames(self, cycle: int, frames: list[FrameRecord]) -> None:
        # Herald for cycle c carries the records generated during cycle c-1.
        fold_x = fold_z = 0
        for rec in frames:
            if rec.cycle != cycle - 1:
                raise ProtocolError(
                    f"herald {cycle} picked up a stale frame record "
                    f"from cycle {rec.cycle} at node {rec.node}"
                )
            fold_x ^= rec.x_bits
            fold_z ^= rec.z_bits
        self.herald_folds[cycle - 1] = (fold_x, fold_z, self.queue.now_ns)

    # -- top level ---------------------------------------------------------

    def execute(self) -> RunResult:
        self.queue.schedule(Event(0, EventKind.CYCLE_START, 0, 0, None))
        handlers = {
            EventKind.CYCLE_START: self._handle_cycle_start,
            EventKind.HERALD_ARRIVE: self._handle_herald_arrive,
            EventKind.SIGNAL_ARRIVE: self._handle_signal_arrive,
            EventKind.RETURN_ARRIVE: self._handle_return_arrive,
            EventKind.SWAP_COMPLETE: self._handle_swap_complete,
        }
        run(self.queue, handlers)
        # A train's signals are traced at keys before the train's dispatch.
        # Seqs are unique, so the sort never compares two lines.
        trace = self.trace
        trace.sort()
        for index, (_t_ns, _seq, line) in enumerate(trace):
            trace[index] = line
        # Records still relaying when the run ends join the left folds with no
        # arrival time. A cycle is freed as its records are built; cycles finish
        # in order, since a node finishes each before the next herald reaches it.
        for outbox in self.outboxes[1 : self.left_senders]:
            self._absorb_leftbound(outbox, None)
        records, delivered, successes = [], [], []
        for cycle in range(self.config.cycles):
            pairs, hop_successes = self.finished.pop(cycle)
            records += self._cycle_records(cycle, pairs)
            delivered.append(len(pairs.fusiliers))
            successes.append(hop_successes)
        return RunResult(
            schedule=self.schedule,
            records=records,
            per_cycle_delivered=delivered,
            hop_success_counts=[list(counts) for counts in zip(*successes)],
            split_index=self.left_senders or None,
            left_frame_folds={
                (cycle, slot): FRAMES[x >> slot & 1][z >> slot & 1]
                for cycle, (x, z, last_ns) in self.left_folds.items()
                for slot in range(len(last_ns))
            },
            trace=trace,
        )

    def _cycle_records(self, cycle: int, pairs: _HopPairs) -> list[EndToEndRecord]:
        fusiliers, created, errors, frame_x, frame_z = pairs
        if cycle not in self.herald_folds:
            raise ProtocolError(f"no herald delivered the frame records of cycle {cycle}")
        herald_x, herald_z, at_ns = self.herald_folds.pop(cycle)
        left_x, left_z, last_ns = self.left_folds.get(cycle, (0, 0, ()))
        established = cycle * self.schedule.cycle_period_ns + self.schedule.herald_offsets_ns[-1]
        records = []
        for slot, fusilier in enumerate(fusiliers):
            x, z = herald_x >> slot & 1, herald_z >> slot & 1
            left_at_ns = None
            if self.left_senders:
                left_at_ns = last_ns[slot] if slot < len(last_ns) else at_ns
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
        return records


def run_network(config: NetworkConfig, collect_trace: bool = False) -> RunResult:
    """Validate a configuration and execute its herald sweep cycles.

    Returns every end-to-end pair record plus the per-cycle delivery and
    per-hop success statistics that the summary layer consumes. Warns when
    a ``cycle_period_ns`` override is below the safe bound, and aborts with
    a DesynchronizationError (naming the violating node) if a herald then
    overtakes unfinished swap work.
    """
    schedule = validate_config(config)
    bound = _safe_period_ns(config, schedule.link_delays_ns)
    if schedule.cycle_period_ns < bound:
        warnings.warn(
            f"cycle_period_ns={schedule.cycle_period_ns} is below the safe bound "
            f"{bound}; the run may abort with a desynchronization error",
            stacklevel=2,
        )
    split = butterfly_split(config) if config.butterfly else None
    sim = _ChainSimulation(config, schedule, split, collect_trace)
    return sim.execute()

"""Chain-level orchestration: herald sweep cycles, purification, butterfly.

A run executes a fixed number of generation cycles. Each cycle starts with a
herald pulse launched at the left end; the pulse initiates every fusillade
as it sweeps right, signal trains follow it down each fiber, return messages
confirm successes per hop, and intermediate nodes swap as soon as they hold
links on both sides. Frame records produced by purification and swapping
ride the *next* herald to the right end (or, under the butterfly split,
piggyback leftward on return messages), so every end-to-end pair's
correction becomes available exactly one cycle period after the pair is
established. One final frame-flush sweep (no generation) runs after the
last cycle so the last corrections are delivered too.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from .engine import (
    Event,
    EventKind,
    EventQueue,
    LINK_DOMAIN,
    PURIFY_DOMAIN,
    RngStream,
    SWAP_DOMAIN,
    TraceRecord,
    channel_delay_ns,
    run,
)
from .errors import ConfigurationError, DesynchronizationError, ProtocolError
from .machines import (
    FrameRecord,
    HeraldMessage,
    NodeState,
    SignalOutcome,
    build_return_message,
    on_herald,
    on_return,
    on_signal,
    release_cycle_resources,
)
# Not called here; perfbench/spans.py traces it under this module's name.
from .machines import pickup_frames  # noqa: F401
from .pair_algebra import (
    IDENTITY_FRAME,
    LinkModel,
    PairRecord,
    PauliFrame,
    PurifyMeasurements,
    purify3_apply,
    purify3_frame_delta,
    swap_apply,
)

__all__ = [
    "Strategy",
    "LinkSpec",
    "NetworkConfig",
    "CycleSchedule",
    "EndToEndRecord",
    "RunResult",
    "effective_slots",
    "validate_config",
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
    the cycle start; ``completion_deadlines_ns[i]`` bounds when node i's
    work for the cycle (train, return, swap) is done.
    """

    cycle_period_ns: int
    link_delays_ns: tuple[int, ...]
    herald_offsets_ns: tuple[int, ...]
    completion_deadlines_ns: tuple[int, ...]
    links_per_cycle: int

    @property
    def cycle_period_s(self) -> float:
        return self.cycle_period_ns * 1e-9


@dataclass
class EndToEndRecord:
    """One end-to-end pair delivered by a cycle.

    ``established_at_ns`` is the pipeline's deterministic availability
    instant at the right end node (the herald's arrival there for the
    cycle); the correction frame rides the next herald, so
    ``frame_available_at_ns`` is exactly one cycle period later.
    ``correction`` is the pair's full pending frame, which is the XOR-fold
    of the cycle's frame records for this slot; ``herald_correction`` is the
    share actually delivered by the herald (everything, unless the
    butterfly split routes part leftward).
    """

    cycle_id: int
    slot: int
    pair: PairRecord
    established_at_ns: int
    frame_available_at_ns: Optional[int] = None
    correction: PauliFrame = IDENTITY_FRAME
    herald_correction: Optional[PauliFrame] = None
    left_frame_available_at_ns: Optional[int] = None


@dataclass
class RunResult:
    """Everything a finished run produced."""

    config: NetworkConfig
    schedule: CycleSchedule
    records: list[EndToEndRecord]
    per_cycle_delivered: list[int]
    hop_success_counts: list[list[int]]
    split_index: Optional[int] = None
    left_frame_folds: dict = field(default_factory=dict)
    trace: list[TraceRecord] = field(default_factory=list)


def effective_slots(link: LinkSpec, strategy: Strategy) -> int:
    """End-to-end slot capacity a hop contributes per cycle."""
    if strategy is Strategy.PURIFY3:
        return link.m_fusilands // 3
    return link.m_fusilands


def _link_delays_ns(config: NetworkConfig) -> tuple[int, ...]:
    """One-way delay of every hop, left to right."""
    if config.signal_speed_m_per_s <= 0:
        raise ConfigurationError("signal_speed_m_per_s must be > 0")
    return tuple(
        channel_delay_ns(link.model.length_km, config.signal_speed_m_per_s)
        for link in config.links
    )


def validate_config(config: NetworkConfig) -> CycleSchedule:
    """Check a configuration and derive its cycle schedule.

    The computed cycle period is the slowest hop's round trip plus its
    signal-train and processing time, which guarantees the next herald
    arrives only after all swaps completed. An explicit ``cycle_period_ns``
    override below that bound is accepted with a warning; the run will then
    abort with a desynchronization error when the herald overtakes a node.
    """
    if len(config.nodes) < 2:
        raise ConfigurationError("a chain needs at least 2 nodes")
    if len(config.links) != len(config.nodes) - 1:
        raise ConfigurationError(
            f"{len(config.nodes)} nodes need {len(config.nodes) - 1} links, "
            f"got {len(config.links)}"
        )
    delays = _link_delays_ns(config)
    if config.tau_slot_ns < 0 or config.proc_ns < 0:
        raise ConfigurationError("tau_slot_ns and proc_ns must be >= 0")
    if config.cycles < 1:
        raise ConfigurationError("cycles must be >= 1")
    if config.seed < 0:
        raise ConfigurationError("seed must be >= 0")
    for idx, link in enumerate(config.links):
        if link.model.length_km <= 0:
            raise ConfigurationError(f"links[{idx}]: length_km must be > 0 in a chain")
        if link.n_fusiliers < 1:
            raise ConfigurationError(f"links[{idx}]: n_fusiliers must be >= 1")
        if link.m_fusilands < 1:
            raise ConfigurationError(f"links[{idx}]: m_fusilands must be >= 1")
        if config.strategy is Strategy.PURIFY3 and link.m_fusilands % 3 != 0:
            raise ConfigurationError(
                f"links[{idx}]: m_fusilands={link.m_fusilands} must be a "
                "multiple of 3 under the purify3 strategy"
            )

    bound = max(
        2 * d + link.n_fusiliers * config.tau_slot_ns + config.proc_ns
        for d, link in zip(delays, config.links)
    )
    if config.cycle_period_ns is None:
        period = bound
    else:
        period = config.cycle_period_ns
        if period <= 0:
            raise ConfigurationError("cycle_period_ns override must be > 0")
        if period < bound:
            warnings.warn(
                f"cycle_period_ns={period} is below the safe bound {bound}; "
                "the run may abort with a desynchronization error",
                stacklevel=2,
            )

    offsets = [0]
    for d in delays:
        offsets.append(offsets[-1] + d)
    num_nodes = len(config.nodes)
    deadlines = []
    for i in range(num_nodes):
        if i < num_nodes - 1:
            train = (config.links[i].n_fusiliers - 1) * config.tau_slot_ns
            done = offsets[i] + 2 * delays[i] + train
            if 0 < i:
                done += config.proc_ns  # swap follows the return
        else:
            train = (config.links[-1].n_fusiliers - 1) * config.tau_slot_ns
            done = offsets[i] + train
        deadlines.append(done)

    links_per_cycle = min(
        effective_slots(link, config.strategy) for link in config.links
    )
    return CycleSchedule(
        cycle_period_ns=period,
        link_delays_ns=delays,
        herald_offsets_ns=tuple(offsets),
        completion_deadlines_ns=tuple(deadlines),
        links_per_cycle=links_per_cycle,
    )


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

    __slots__ = (
        "hop_pairs",
        "swap_outcomes",
        "outstanding",
        "last_completion_ns",
    )

    def __init__(self, num_links: int, num_nodes: int) -> None:
        self.hop_pairs: list[Optional[list[PairRecord]]] = [None] * num_links
        self.swap_outcomes: dict[tuple[int, int], tuple[int, int]] = {}
        self.outstanding = set(range(num_nodes))
        self.last_completion_ns = 0


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
        self.split = split_index
        self.collect_trace = collect_trace
        self.num_nodes = len(config.nodes)
        self.nodes = [
            NodeState.new(
                i,
                config.links[i].n_fusiliers if i < self.num_nodes - 1 else 0,
                config.links[i - 1].m_fusilands if i > 0 else 0,
            )
            for i in range(self.num_nodes)
        ]
        self.queue = EventQueue()
        self.rng = RngStream(config.seed)
        self.ledgers: dict[int, _CycleLedger] = {}
        self.records: list[EndToEndRecord] = []
        self.records_by_cycle: dict[int, list[EndToEndRecord]] = {}
        self.per_cycle_delivered = [0] * config.cycles
        self.hop_success_counts = [[0] * config.cycles for _ in config.links]
        self.link_rngs: dict[tuple[int, int], object] = {}
        # Butterfly ledgers per (cycle, slot): leftbound frame records sent
        # toward node 0 (left_expected) and those that arrived there.
        self.left_folds: dict[tuple[int, int], PauliFrame] = {}
        self.left_arrivals: dict[tuple[int, int], int] = {}
        self.left_last_ns: dict[tuple[int, int], int] = {}
        self.left_expected: dict[tuple[int, int], int] = {}
        self.left_flushed: set[tuple[int, int]] = set()

    # -- event handlers -------------------------------------------------

    def _handle_cycle_start(self, event: Event) -> str:
        cycle = event.payload["cycle"]
        generate = cycle < self.config.cycles
        if generate:
            self.ledgers[cycle] = _CycleLedger(len(self.config.links), self.num_nodes)
        herald = HeraldMessage(cycle)
        emissions = on_herald(
            self.nodes[0],
            herald,
            self.queue.now_ns,
            tau_slot_ns=self.config.tau_slot_ns,
            incoming_train=0,
            generate=generate,
        )
        # The herald is multiplexed ahead of the signal train: schedule it
        # first so it wins the (time, seq) tie at the next node.
        self.queue.schedule(
            Event(
                self.queue.now_ns + self.schedule.link_delays_ns[0],
                EventKind.HERALD_ARRIVE,
                {"node": 1, "cycle": cycle, "herald": herald},
            )
        )
        self._schedule_signals(0, cycle, emissions)
        return f"cycle={cycle}" + ("" if generate else " flush")

    def _handle_herald_arrive(self, event: Event) -> str:
        node_id = event.payload["node"]
        cycle = event.payload["cycle"]
        herald: HeraldMessage = event.payload["herald"]
        generate = cycle < self.config.cycles
        node = self.nodes[node_id]
        incoming = self.config.links[node_id - 1].n_fusiliers if generate else 0
        emissions = on_herald(
            node,
            herald,
            self.queue.now_ns,
            tau_slot_ns=self.config.tau_slot_ns,
            incoming_train=incoming,
            generate=generate,
        )
        if node_id + 1 < self.num_nodes:
            # Herald first: it rides ahead of the signal train it announces.
            self.queue.schedule(
                Event(
                    self.queue.now_ns + self.schedule.link_delays_ns[node_id],
                    EventKind.HERALD_ARRIVE,
                    {"node": node_id + 1, "cycle": cycle, "herald": herald},
                )
            )
        else:
            self._deliver_frames(herald)
        self._schedule_signals(node_id, cycle, emissions)
        return f"cycle={cycle}"

    def _handle_signal_arrive(self, event: Event) -> str:
        node_id = event.payload["node"]
        link_idx = event.payload["link"]
        fusilier = event.payload["fusilier"]
        cycle = event.payload["cycle"]
        node = self.nodes[node_id]
        link = self.config.links[link_idx]
        rng = self.link_rngs.get((link_idx, cycle))
        if rng is None:
            rng = self.rng.substream(LINK_DOMAIN, link_idx, cycle)
            self.link_rngs[(link_idx, cycle)] = rng
        result = on_signal(
            node, link_idx, fusilier, link.model, rng, self.queue.now_ns
        )
        if result.outcome is SignalOutcome.SUCCESS:
            self.hop_success_counts[link_idx][cycle] += 1
        if fusilier == link.n_fusiliers - 1:
            self._end_of_train(node_id, link_idx, cycle)
        if result.slot is not None:
            return (
                f"cycle={cycle} fusilier={fusilier} "
                f"{result.outcome.value} slot={result.slot}"
            )
        return f"cycle={cycle} fusilier={fusilier} {result.outcome.value}"

    def _handle_return_arrive(self, event: Event) -> str:
        node_id = event.payload["node"]
        cycle = event.payload["cycle"]
        msg = event.payload["msg"]
        node = self.nodes[node_id]
        if msg.relayed_frames:
            if node_id == 0:
                self._absorb_leftbound(msg.relayed_frames)
            else:
                node.leftbound_frames.extend(msg.relayed_frames)
        rng = None
        if node.left_links and msg.usable_links:
            rng = self.rng.substream(SWAP_DOMAIN, node_id, cycle)
        swaps = on_return(node, msg, rng, self.queue.now_ns)
        ledger = self.ledgers[cycle]
        for swap in swaps:
            ledger.swap_outcomes[(node_id, swap.slot)] = (
                swap.parity_outcome,
                swap.x_outcome,
            )
        self._route_pending(node)
        # The swap occupies the node for proc_ns; states are released here
        # and busy_until_ns guards the occupancy window against early heralds.
        release_cycle_resources(node)
        if swaps:
            node.busy_until_ns = self.queue.now_ns + self.config.proc_ns
            self.queue.schedule(
                Event(
                    node.busy_until_ns,
                    EventKind.SWAP_COMPLETE,
                    {"node": node_id, "cycle": cycle, "count": len(swaps)},
                )
            )
        else:
            node.busy_until_ns = self.queue.now_ns
            self._mark_complete(cycle, node_id)
        if node_id == 0:
            self._schedule_next_cycle(cycle)
        return f"cycle={cycle} matches={len(msg.matches)} swaps={len(swaps)}"

    def _schedule_next_cycle(self, cycle: int) -> None:
        # Launched once the left end finished its cycle so that, at the exact
        # period boundary, completion events precede the next CycleStart in
        # the (time, seq) order.
        if cycle + 1 > self.config.cycles:
            return
        start_ns = (cycle + 1) * self.schedule.cycle_period_ns
        if start_ns < self.queue.now_ns:
            raise DesynchronizationError(
                f"herald for cycle {cycle + 1} was due at {start_ns} ns but "
                f"node 0 finished cycle {cycle} only at {self.queue.now_ns} ns"
            )
        self.queue.schedule(
            Event(start_ns, EventKind.CYCLE_START, {"node": 0, "cycle": cycle + 1})
        )

    def _handle_swap_complete(self, event: Event) -> str:
        self._mark_complete(event.payload["cycle"], event.payload["node"])
        return f"cycle={event.payload['cycle']} count={event.payload['count']}"

    def _handle_pair_ready(self, event: Event) -> str:
        return (
            f"cycle={event.payload['cycle']} slot={event.payload['slot']} "
            f"x={event.payload['x']}"
        )

    # -- helpers ---------------------------------------------------------

    def _schedule_signals(self, node_id: int, cycle: int, emissions) -> None:
        if not emissions:
            return
        delay = self.schedule.link_delays_ns[node_id]
        for fire_time, fusilier in emissions:
            self.queue.schedule(
                Event(
                    fire_time + delay,
                    EventKind.SIGNAL_ARRIVE,
                    {
                        "node": node_id + 1,
                        "cycle": cycle,
                        "link": node_id,
                        "fusilier": fusilier,
                    },
                )
            )

    def _end_of_train(self, node_id: int, link_idx: int, cycle: int) -> None:
        node = self.nodes[node_id]
        if self.config.strategy is Strategy.PURIFY3:
            self._purify_hop(node, link_idx, cycle)
        ledger = self.ledgers[cycle]
        ledger.hop_pairs[link_idx] = list(node.left_links)
        msg = build_return_message(node, cycle)
        self._route_pending(node)
        if self.split is not None:
            msg.relayed_frames = node.drain_leftbound()
        self.link_rngs.pop((link_idx, cycle), None)
        self.queue.schedule(
            Event(
                self.queue.now_ns + self.schedule.link_delays_ns[link_idx],
                EventKind.RETURN_ARRIVE,
                {"node": link_idx, "cycle": cycle, "msg": msg},
            )
        )
        if node_id == self.num_nodes - 1:
            # The right end gets no return; its cycle ends with the train.
            # Intermediate nodes keep their fusilands until the swap.
            release_cycle_resources(node)
            node.busy_until_ns = self.queue.now_ns
            self._mark_complete(cycle, node_id)

    def _purify_hop(self, node: NodeState, link_idx: int, cycle: int) -> None:
        raws = node.left_links
        if len(raws) < 3:
            node.left_links = []
            return
        rng = self.rng.substream(PURIFY_DOMAIN, link_idx, cycle)
        kept: list[PairRecord] = []
        for t in range(len(raws) // 3):
            trio = raws[3 * t : 3 * t + 3]
            # Transmit-side parities and the four X readouts are fair coins;
            # receive-side parities then reflect the true pairwise error
            # syndrome, keeping the decode statistics honest.
            tx12 = int(rng.random() < 0.5)
            tx23 = int(rng.random() < 0.5)
            tx_x2 = int(rng.random() < 0.5)
            tx_x3 = int(rng.random() < 0.5)
            rx_x2 = int(rng.random() < 0.5)
            rx_x3 = int(rng.random() < 0.5)
            meas = PurifyMeasurements(
                tx_parity_12=tx12,
                tx_parity_23=tx23,
                rx_parity_12=tx12 ^ trio[0].x_error ^ trio[1].x_error,
                rx_parity_23=tx23 ^ trio[1].x_error ^ trio[2].x_error,
                tx_x2=tx_x2,
                tx_x3=tx_x3,
                rx_x2=rx_x2,
                rx_x3=rx_x3,
            )
            kept.append(purify3_apply(trio, meas))
            delta = purify3_frame_delta(meas)
            node.pending_frame.append(FrameRecord(node.node_id, cycle, t, delta))
        node.left_links = kept

    def _route_pending(self, node: NodeState) -> None:
        # Butterfly: records generated left of the split travel to the left
        # end on return messages instead of riding the herald.
        if self.split is not None and node.node_id < self.split and node.pending_frame:
            for rec in node.pending_frame:
                key = (rec.cycle, rec.slot)
                self.left_expected[key] = self.left_expected.get(key, 0) + 1
            node.leftbound_frames.extend(node.pending_frame)
            node.pending_frame.clear()

    def _absorb_leftbound(self, records: list[FrameRecord]) -> None:
        for rec in records:
            key = (rec.cycle, rec.slot)
            self.left_folds[key] = self.left_folds.get(key, IDENTITY_FRAME).compose(
                rec.frame
            )
            self.left_arrivals[key] = self.left_arrivals.get(key, 0) + 1
            self.left_last_ns[key] = self.queue.now_ns

    def _mark_complete(self, cycle: int, node_id: int) -> None:
        ledger = self.ledgers[cycle]
        ledger.outstanding.discard(node_id)
        ledger.last_completion_ns = max(
            ledger.last_completion_ns, self.queue.now_ns
        )
        if not ledger.outstanding:
            self._finalize_cycle(cycle, ledger)

    def _finalize_cycle(self, cycle: int, ledger: _CycleLedger) -> None:
        delivered = min(len(pairs) for pairs in ledger.hop_pairs)
        self.per_cycle_delivered[cycle] = delivered
        established = (
            cycle * self.schedule.cycle_period_ns
            + self.schedule.herald_offsets_ns[-1]
        )
        bucket = self.records_by_cycle.setdefault(cycle, [])
        for slot in range(delivered):
            pair = ledger.hop_pairs[0][slot]
            for node_id in range(1, self.num_nodes - 1):
                a, b = ledger.swap_outcomes[(node_id, slot)]
                pair = swap_apply(pair, ledger.hop_pairs[node_id][slot], a, b)
            record = EndToEndRecord(
                cycle_id=cycle,
                slot=slot,
                pair=pair,
                established_at_ns=established,
                correction=pair.frame,
            )
            self.records.append(record)
            bucket.append(record)
            self.queue.schedule(
                Event(
                    ledger.last_completion_ns,
                    EventKind.PAIR_READY,
                    {
                        "node": self.num_nodes - 1,
                        "cycle": cycle,
                        "slot": slot,
                        "x": pair.x_error,
                    },
                )
            )
        del self.ledgers[cycle]

    def _deliver_frames(self, herald: HeraldMessage) -> None:
        # Herald for cycle c carries the records generated during cycle c-1.
        folds: dict[int, PauliFrame] = {}
        for rec in herald.frame_payload:
            if rec.cycle != herald.cycle_id - 1:
                raise ProtocolError(
                    f"herald {herald.cycle_id} picked up a stale frame record "
                    f"from cycle {rec.cycle} at node {rec.node}"
                )
            folds[rec.slot] = folds.get(rec.slot, IDENTITY_FRAME).compose(rec.frame)
        for record in self.records_by_cycle.pop(herald.cycle_id - 1, []):
            record.frame_available_at_ns = self.queue.now_ns
            record.herald_correction = folds.get(record.slot, IDENTITY_FRAME)

    # -- top level ---------------------------------------------------------

    def execute(self) -> RunResult:
        self.queue.schedule(
            Event(0, EventKind.CYCLE_START, {"node": 0, "cycle": 0})
        )
        handlers = {
            EventKind.CYCLE_START: self._handle_cycle_start,
            EventKind.HERALD_ARRIVE: self._handle_herald_arrive,
            EventKind.SIGNAL_ARRIVE: self._handle_signal_arrive,
            EventKind.RETURN_ARRIVE: self._handle_return_arrive,
            EventKind.SWAP_COMPLETE: self._handle_swap_complete,
            EventKind.PAIR_READY: self._handle_pair_ready,
        }
        trace = run(self.queue, handlers, collect_trace=self.collect_trace)
        if self.split is not None:
            self._flush_leftbound()
            self._assign_left_availability()
        return RunResult(
            config=self.config,
            schedule=self.schedule,
            records=self.records,
            per_cycle_delivered=self.per_cycle_delivered,
            hop_success_counts=self.hop_success_counts,
            split_index=self.split,
            left_frame_folds=dict(self.left_folds),
            trace=trace,
        )

    def _flush_leftbound(self) -> None:
        # Records still relaying hop-by-hop when the run ends are folded
        # into the left-end ledger without an arrival timestamp.
        for node in self.nodes[1:]:
            for rec in node.drain_leftbound():
                key = (rec.cycle, rec.slot)
                self.left_folds[key] = self.left_folds.get(
                    key, IDENTITY_FRAME
                ).compose(rec.frame)
                self.left_arrivals[key] = self.left_arrivals.get(key, 0) + 1
                self.left_flushed.add(key)

    def _assign_left_availability(self) -> None:
        for record in self.records:
            key = (record.cycle_id, record.slot)
            expected = self.left_expected.get(key, 0)
            if expected == 0:
                record.left_frame_available_at_ns = record.frame_available_at_ns
            elif key not in self.left_flushed and self.left_arrivals.get(key, 0) == expected:
                record.left_frame_available_at_ns = self.left_last_ns[key]


def run_network(config: NetworkConfig, collect_trace: bool = False) -> RunResult:
    """Validate a configuration and execute its herald sweep cycles.

    Returns every end-to-end pair record plus the per-cycle delivery and
    per-hop success statistics that the summary layer consumes. Aborts with
    a DesynchronizationError (naming the violating node) if a herald ever
    overtakes unfinished swap work.
    """
    schedule = validate_config(config)
    split = butterfly_split(config) if config.butterfly else None
    sim = _ChainSimulation(config, schedule, split, collect_trace)
    return sim.execute()

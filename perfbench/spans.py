"""Timing spans around the public calls into each fusenet layer.

The package is traced from outside; nothing under ``src/`` is edited. A
function is rebound to a traced wrapper in every module that imported it,
because that is where its callers look it up (``validate_config`` is traced
both where ``run_network`` and where ``summarize`` call it). The queue,
substream and frame methods are wrapped on their classes, and every handler
in the mapping passed to ``engine.run`` is wrapped. Spans are kept in
memory as parallel arrays and written out once, when the run ends.

A span is named ``<layer>.<qualified name>``, the layer being the fusenet
module that defines the callee. A layer's self time is the time its spans
cover minus the time their child spans cover.
"""

from __future__ import annotations

import functools
import gzip
import inspect
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

LAYERS = ("engine", "machines", "network", "pair_algebra", "metrics", "config", "cli")

# Names rebound to traced wrappers, per module whose callers look them up.
REBIND = {
    "network": (
        "run_network", "validate_config", "butterfly_split", "channel_delay_ns",
        "on_herald", "on_signal", "on_return", "build_return_message",
        "pickup_frames", "release_cycle_resources",
        "purify3_apply", "purify3_frame_delta", "swap_apply",
    ),
    "machines": ("success_probability", "pickup_frames"),
    "pair_algebra": ("failure_prob_multi",),
    "metrics": (
        "summarize", "plan_table", "rate_model", "validate_config",
        "min_fusiliers", "failure_prob_multi", "chain_fidelity", "purify3_analytic",
    ),
    "config": ("load_config", "parse_config"),
    "cli": (
        "main", "cmd_simulate", "load_config", "resolved_dict",
        "run_network", "summarize", "plan_table",
    ),
}
METHODS = (
    ("engine", "EventQueue", ("schedule", "pop")),
    ("engine", "RngStream", ("substream",)),
    ("pair_algebra", "PauliFrame", ("compose",)),
)
# Pair algebra the simulator runs, as opposed to the planner's binomial tail.
SIM_CALLS = (
    "pair_algebra.swap_apply",
    "pair_algebra.purify3_apply",
    "pair_algebra.purify3_frame_delta",
    "pair_algebra.PauliFrame.compose",
    "pair_algebra.success_probability",
)
TAIL = "pair_algebra.failure_prob_multi"
SEARCH = "pair_algebra.min_fusiliers"


def span_name(fn) -> str:
    target = inspect.unwrap(fn)
    return f"{target.__module__.rpartition('.')[2]}.{target.__qualname__}"


class Tracer:
    """Records one span per traced call and folds self time as spans close."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("I")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self._child = [0.0]
        self.calls: list[int] = []
        self.total: list[float] = []
        self.self_time: list[float] = []
        self.handler_ids: set[int] = set()
        self.signal_outcomes: Counter = Counter()
        self.tail_terms = 0
        self.missing: list[str] = []

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.total.append(0.0)
            self.self_time.append(0.0)
        return nid

    def wrap(self, fn, after=None):
        """Return ``fn`` wrapped in a span; ``after(args, kwargs, result)`` counts."""
        nid = self._id(span_name(fn))
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        stack, child = self._stack, self._child
        calls, total, self_time = self.calls, self.total, self.self_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            child.append(0.0)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                ends[idx] = end
                stack.pop()
                duration = end - starts[idx]
                calls[nid] += 1
                total[nid] += duration
                self_time[nid] += duration - child.pop()
                child[-1] += duration
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def install(self, modules: dict) -> None:
        """Rebind the traced names in the given ``{layer: module}`` mapping."""

        def count_outcome(args, kwargs, result):
            self.signal_outcomes[result.outcome.value] += 1

        def count_terms(args, kwargs, result):
            self.tail_terms += kwargs["m"] if "m" in kwargs else args[1]

        hooks = {"on_signal": count_outcome, "failure_prob_multi": count_terms}
        for layer, attrs in REBIND.items():
            module = modules[layer]
            for attr in attrs:
                if not hasattr(module, attr):
                    self.missing.append(f"{layer}.{attr}")
                    continue
                setattr(module, attr, self.wrap(getattr(module, attr), hooks.get(attr)))
        for layer, cls_name, attrs in METHODS:
            cls = getattr(modules[layer], cls_name, None)
            for attr in attrs:
                if cls is None or not hasattr(cls, attr):
                    self.missing.append(f"{layer}.{cls_name}.{attr}")
                    continue
                setattr(cls, attr, self.wrap(getattr(cls, attr)))

        network = modules["network"]
        if not hasattr(network, "run"):
            self.missing.append("network.run")
            return
        traced_run = self.wrap(network.run)

        def run(queue, handlers, *args, **kwargs):
            traced = {}
            for kind, handler in handlers.items():
                self.handler_ids.add(self._id(span_name(handler)))
                traced[kind] = self.wrap(handler)
            return traced_run(queue, traced, *args, **kwargs)

        network.run = run

    # -- aggregation -----------------------------------------------------

    def _ids_of(self, names) -> list[int]:
        return [self._ids[n] for n in names if n in self._ids]

    def calls_of(self, *names) -> int:
        return sum(self.calls[i] for i in self._ids_of(names))

    def total_of(self, *names) -> float:
        return sum(self.total[i] for i in self._ids_of(names))

    def self_of(self, *names) -> float:
        return sum(self.self_time[i] for i in self._ids_of(names))

    def layer_ids(self, layer: str) -> list[int]:
        return [i for i, n in enumerate(self.names) if n.startswith(layer + ".")]

    def layer_self(self, layer: str) -> float:
        return sum(self.self_time[i] for i in self.layer_ids(layer))

    def _named(self, name: str) -> np.ndarray:
        """Mask of the spans called ``name``."""
        names = np.frombuffer(self.span_name, dtype=np.uint32)
        if name not in self._ids:
            return np.zeros(len(names), dtype=bool)
        return names == self._ids[name]

    def _parent_named(self, name: str, parent: str) -> np.ndarray:
        """Mask of spans called ``name`` whose parent span is called ``parent``."""
        parents = np.frombuffer(self.span_parent, dtype=np.int32)
        return self._named(name) & (parents >= 0) & self._named(parent)[parents]

    def _durations(self, mask: np.ndarray) -> float:
        starts = np.frombuffer(self.span_start, dtype=np.float64)
        ends = np.frombuffer(self.span_end, dtype=np.float64)
        return float(np.sum(ends[mask] - starts[mask]))

    def layer_metrics(
        self, traced_wall: float, untraced_wall: float, cycles: int, extra: dict
    ) -> dict:
        """Per-layer numbers of the traced phase, keyed by metric name.

        ``traced_wall`` is the wall time the spans ran in, ``untraced_wall``
        the same work with tracing off, ``cycles`` the simulated cycles, and
        ``extra`` counts measured outside the spans.
        """
        handlers = [self.names[i] for i in sorted(self.handler_ids)]
        events = self.calls_of(*handlers)
        outcomes = self.signal_outcomes
        signals = sum(outcomes.values())
        on_signal = self.calls_of("machines.on_signal")
        searches = self.calls_of(SEARCH)
        layer_self = {layer: self.layer_self(layer) for layer in LAYERS}
        parse_alone = self._named("config.parse_config") & ~self._parent_named(
            "config.parse_config", "config.load_config"
        )
        m = {
            "engine.events": events,
            "engine.events_per_cycle": events / cycles if cycles else 0.0,
            "engine.dispatch_self_s": self.self_of("engine.run"),
            "engine.queue_calls": self.calls_of("engine.EventQueue.schedule", "engine.EventQueue.pop"),
            "engine.queue_s": self.total_of("engine.EventQueue.schedule", "engine.EventQueue.pop"),
            "engine.substreams": self.calls_of("engine.RngStream.substream"),
            "engine.substream_s": self.total_of("engine.RngStream.substream"),
            "machines.calls": sum(self.calls[i] for i in self.layer_ids("machines")),
            "machines.on_signal_calls": on_signal,
            "machines.on_signal_us": (
                self.total_of("machines.on_signal") / on_signal * 1e6 if on_signal else 0.0
            ),
            "machines.signal_success_ratio": outcomes["success"] / signals if signals else 0.0,
            "machines.signal_discarded_ratio": outcomes["discarded"] / signals if signals else 0.0,
            "network.handler_self_s": self.self_of(*handlers),
            "network.setup_s": self.total_of("network.validate_config", "network.butterfly_split"),
            "pair_algebra.sim_calls": self.calls_of(*SIM_CALLS),
            "pair_algebra.sim_self_s": self.self_of(*SIM_CALLS),
            "pair_algebra.tail_calls": self.calls_of(TAIL),
            "pair_algebra.tail_terms": self.tail_terms,
            "pair_algebra.tail_s": self.total_of(TAIL),
            "pair_algebra.search_steps": (
                int(self._parent_named(TAIL, SEARCH).sum()) / searches if searches else 0.0
            ),
            "metrics.summarize_s": self.total_of("metrics.summarize"),
            "metrics.plan_self_s": self.self_of("metrics.plan_table", "metrics.rate_model"),
            "config.load_s": self.total_of("config.load_config") + self._durations(parse_alone),
        }
        for layer in LAYERS:
            m[f"{layer}.self_s"] = layer_self[layer]
        m.update(extra)
        m["traced_wall_s"] = traced_wall
        m["trace_overhead_s"] = traced_wall - untraced_wall
        m["unattributed_s"] = traced_wall - sum(layer_self.values())
        m["traced_spans"] = len(self.span_name)
        return m

    def write(self, path) -> None:
        """Write every span as ``name layer start end parent`` (seconds, TSV, gzip)."""
        origin = self.span_start[0] if len(self.span_start) else 0.0
        names = self.names
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("name\tlayer\tstart_s\tend_s\tparent\n")
            for nid, parent, start, end in zip(
                self.span_name, self.span_parent, self.span_start, self.span_end
            ):
                name = names[nid]
                fh.write(
                    f"{name}\t{name.partition('.')[0]}\t{start - origin:.9f}\t"
                    f"{end - origin:.9f}\t{parent}\n"
                )

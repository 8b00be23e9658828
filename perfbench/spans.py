"""Outside-in layer spans: wrap the program's public layer functions.

Nothing in ``src/`` knows about these spans.  :func:`install` replaces each
layer function listed in :data:`LAYERS` with a wrapper *everywhere a caller
looks it up*: for a module-level function that is every ``repro.*`` module
attribute bound to the original object (``repro.lhcds.ippv`` imports
``derive_stable_groups`` by name, so patching only its defining module
would miss every call), for a method it is the class attribute.

A wrapper records nothing unless its thread is inside an operation opened
with :meth:`Tracer.op`.  Inside one, every call records a span; nested
spans subtract from their parent, so each layer gets its *self* time and
no second is counted twice.  ``OpTrace.covered`` is the wall time under
outermost spans; the rest of the operation's wall time is unattributed.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional


class OpTrace:
    """Self times, call counts and counters recorded during one operation."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Dict[str, float] = defaultdict(float)
        #: Seconds spent under outermost spans (the attributed wall time).
        self.covered = 0.0

    def to_json(self) -> Dict[str, Any]:
        return {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "covered": self.covered,
        }

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "OpTrace":
        trace = cls()
        trace.self_s.update(data["self_s"])
        trace.calls.update(data["calls"])
        trace.counts.update(data["counts"])
        trace.covered = data["covered"]
        return trace


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def summarize(traces: List[OpTrace], ops: int) -> Dict[str, float]:
    """Per-operation means of every layer's self time, calls and counters.

    Layers that never ran read 0, so every workload reports every name.
    """
    self_s: Dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    counts: Dict[str, float] = defaultdict(float)
    for trace in traces:
        for name, value in trace.self_s.items():
            self_s[name] += value
        calls.update(trace.calls)
        for name, value in trace.counts.items():
            counts[name] += value
    metrics: Dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer.name}_s"] = self_s[layer.name] / ops
        metrics[f"{layer.name}_calls"] = calls[layer.name] / ops
    for name in ("patterns.instance_count", "ippv.candidates_examined",
                 "ippv.refinements", "ippv.exact_splits"):
        metrics[name] = counts[name] / ops
    metrics["lhcds.prune_kept_ratio"] = _ratio(counts["lhcds.prune_kept"], counts["lhcds.prune_in"])
    short = counts["lhcds.short_circuits"]
    metrics["lhcds.short_circuit_ratio"] = _ratio(short, short + counts["lhcds.verify_flows"])
    return metrics


@dataclass(frozen=True)
class Layer:
    """One public layer function and the counters read at its boundary."""

    name: str
    #: ``"module:function"`` or ``"module:Class.method"``.
    target: str
    #: ``before(args, kwargs)`` -> token handed to ``after``.
    before: Optional[Callable[..., Any]] = None
    #: ``after(counts, args, kwargs, result, token)`` adds to the counters.
    after: Optional[Callable[..., None]] = None


def _arg(args: tuple, kwargs: dict, index: int, name: str) -> Any:
    return kwargs[name] if name in kwargs else args[index]


def _count_instances(counts, args, kwargs, result, token) -> None:
    counts["patterns.instance_count"] += result.num_instances


def _count_pruned(counts, args, kwargs, result, token) -> None:
    groups = _arg(args, kwargs, 2, "groups")
    counts["lhcds.prune_in"] += sum(len(g.vertices) for g in groups)
    counts["lhcds.prune_kept"] += sum(len(g.vertices) for g in result)


def _verify_snapshot(args, kwargs) -> Optional[tuple]:
    stats = kwargs.get("stats")
    if stats is None:
        return None
    return stats, stats.short_circuit_true + stats.short_circuit_false, stats.flow_verifications


def _count_verify(counts, args, kwargs, result, token) -> None:
    if token is None:
        return
    stats, short_before, flows_before = token
    short = stats.short_circuit_true + stats.short_circuit_false
    counts["lhcds.short_circuits"] += short - short_before
    counts["lhcds.verify_flows"] += stats.flow_verifications - flows_before


def _count_ippv(counts, args, kwargs, result, token) -> None:
    counts["ippv.candidates_examined"] += result.candidates_examined
    counts["ippv.refinements"] += result.refinements
    counts["ippv.exact_splits"] += result.exact_splits


#: The layers the benchmark times, in pipeline order.
LAYERS: List[Layer] = [
    Layer("patterns.instances", "repro.patterns.clique:CliquePattern.instances",
          after=_count_instances),
    Layer("graph.connected_components", "repro.graph.components:connected_components"),
    Layer("lhcds.initialize_bounds", "repro.lhcds.bounds:initialize_bounds"),
    Layer("lhcds.seq_kclist", "repro.lhcds.seq_kclist:seq_kclist_plus_plus"),
    Layer("lhcds.tentative_decomposition",
          "repro.lhcds.decomposition:tentative_decomposition"),
    Layer("lhcds.derive_stable_groups", "repro.lhcds.stable_groups:derive_stable_groups"),
    Layer("lhcds.prune_candidates", "repro.lhcds.prune:prune_candidates",
          after=_count_pruned),
    Layer("lhcds.is_densest", "repro.lhcds.verify:is_densest"),
    Layer("lhcds.verify_fast", "repro.lhcds.verify:verify_fast",
          before=_verify_snapshot, after=_count_verify),
    Layer("ippv.run", "repro.lhcds.ippv:IPPV.run", after=_count_ippv),
    Layer("densest.maximal_densest_subset", "repro.densest.exact:maximal_densest_subset"),
    Layer("flow.arc_collector_build", "repro.flow.network:FractionalArcCollector.build"),
    Layer("flow.solve_compact_network", "repro.flow.network:solve_compact_network"),
    Layer("flow.max_flow", "repro.flow.dinic:FlatFlowNetwork.max_flow"),
    Layer("engine.preprocess", "repro.engine.preprocess:preprocess"),
    Layer("engine.solve_prepared", "repro.engine.runtime:solve_prepared"),
    Layer("engine.incremental_apply_delta",
          "repro.engine.incremental:IncrementalSession.apply_delta"),
    Layer("engine.incremental_solve", "repro.engine.incremental:IncrementalSession.solve"),
]


class Tracer:
    """Per-thread span stacks feeding the operation open on that thread."""

    def __init__(self) -> None:
        self._local = threading.local()

    @contextlib.contextmanager
    def op(self) -> Iterator[OpTrace]:
        """Trace every layer call this thread makes inside the block."""
        trace = OpTrace()
        self._local.op = trace
        self._local.stack = []
        try:
            yield trace
        finally:
            self._local.op = None

    def wrap(self, layer: Layer, fn: Callable[..., Any]) -> Callable[..., Any]:
        local = self._local
        name = layer.name
        before, after = layer.before, layer.after

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            trace = getattr(local, "op", None)
            if trace is None:
                return fn(*args, **kwargs)
            token = before(args, kwargs) if before is not None else None
            stack = local.stack
            stack.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                children = stack.pop()
                trace.self_s[name] += elapsed - children
                trace.calls[name] += 1
                if stack:
                    stack[-1] += elapsed
                else:
                    trace.covered += elapsed
            if after is not None:
                after(trace.counts, args, kwargs, result, token)
            return result

        return wrapper


def _replace_everywhere(original: Any, wrapped: Any) -> int:
    """Rebind every ``repro.*`` module attribute that holds ``original``."""
    replaced = 0
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapped)
                replaced += 1
    return replaced


def install(tracer: Tracer, layers: List[Layer] = LAYERS) -> None:
    """Wrap every layer; import the consumers first so none is missed."""
    importlib.import_module("repro.engine")
    importlib.import_module("repro.server.service")
    for layer in layers:
        module_name, _, attr = layer.target.partition(":")
        module = importlib.import_module(module_name)
        owner_name, _, method = attr.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            original = owner.__dict__[method]
            setattr(owner, method, tracer.wrap(layer, original))
        else:
            original = getattr(module, attr)
            if not _replace_everywhere(original, tracer.wrap(layer, original)):
                raise RuntimeError(f"layer {layer.name}: {layer.target} is bound nowhere")

"""Incremental LhCDS over evolving graphs: sessions, deltas, warm re-solve.

A batch :func:`~repro.engine.runtime.solve` treats the graph as frozen and
pays the full pipeline — enumerate every pattern instance, split into
components, bound, solve — on every call.  An :class:`IncrementalSession`
keeps that preprocessing alive between calls and maintains it under
:class:`~repro.graph.delta.GraphDelta` batches:

* The session keeps the :class:`~repro.engine.request.PreparedComponent`
  that the cold pipeline's per-component builder
  (:func:`~repro.engine.preprocess.prepare_component`) makes for each
  active component.  Only components whose vertex set intersects the
  delta's *touched frontier* (every vertex the delta names, plus edge
  endpoints) are re-enumerated and rebuilt; every other component's
  subgraph, local instance set, and clique-core bounds carry over
  byte-for-byte.
* The component split is repaired, not redone.  The pre-delta components
  that meet the frontier (:func:`~repro.graph.components.components_touching`),
  instance-free ones included, are re-split with the frontier in the subset
  mode of :func:`~repro.graph.components.connected_components`, the rest
  are kept, and all are ordered by their first vertex in insertion order,
  as a whole-graph split orders them.  A kept component lost no vertex or
  edge and no new edge reaches it (fact 2), so it is still whole, and no
  re-split component can reach outside the re-split scope.
* Only the global instance count is kept.  Each instance lies inside one
  component (fact 1), and one that touches the frontier lies in an
  invalidated component or is new, so the count moves by the
  frontier-incident instances of the re-enumerated components
  (``instances_reenumerated``) minus those of the invalidated ones
  (``instances_dropped``); an instance off the frontier survives as it was.
* Per-component :class:`~repro.lhcds.ippv.LhCDSResult`\\ s from previous
  solves are kept per solver configuration, keyed by the component's vertex
  set, and handed to :func:`~repro.engine.runtime.solve_prepared` as the
  results it already knows.  The runtime solves only the other components
  and adds them to the store, and the serial early stop reads the known
  densities in the same order as a cold run, so on both backends every
  scheduling decision and statistic is a cold run's.

A delta therefore costs the components it touches.  What grows with the
graph is a few linear scans in C: the insertion-rank memo, the first-vertex
ranks and the vertex filter of :meth:`~repro.graph.graph.Graph.induced_subgraph`.

**Correctness contract** — the same style CI enforces across the
executor matrix: after *any* delta sequence, a session solve
returns a :class:`SolveReport` bit-identical — result *and* stats-relevant
fields — to a cold solve of the final graph.  The contract rests on two
structural facts:

1. *Component purity.*  With the canonical neighbour iteration in
   :func:`~repro.graph.ordering.degeneracy_ordering`, enumerating the whole
   graph and restricting to a component yields exactly the instances — in
   the same order — as enumerating the component's induced subgraph.  A
   rebuilt component can therefore be enumerated locally.
2. *Untouched means unchanged.*  A component disjoint from the frontier
   lost no vertex and no edge (any edge mutation names touched endpoints),
   and vertex insertion order within it is preserved by dict semantics, so
   its induced subgraph — and hence everything derived from it — is
   identical to what a cold run would build.

Each session carries its own reentrant lock: :meth:`IncrementalSession.
apply_delta` and :meth:`IncrementalSession.solve` serialise against each
other per session, with the lock discipline declared in the class's
``GUARDED_BY`` manifest and machine-checked by repro-lint rule CC01.  The
solve service still serialises *across* sessions behind its solve lock
(two sessions may share one graph object); the per-session lock is the
first concrete step toward retiring that global lock.
"""

from __future__ import annotations

import dataclasses
import json
import threading
import time
from typing import Any, Dict, FrozenSet, List, Optional, Set, Tuple

from ..errors import EngineError
from ..graph.components import components_touching, connected_components
from ..graph.delta import GraphDelta
from ..graph.graph import Graph, Vertex
from ..lhcds.ippv import LhCDSResult
from ..patterns.base import Pattern
from ..patterns.clique import CliquePattern
from .cache import pattern_identity
from .preprocess import prepare_component
from .request import PreparedComponent, PreprocessStats, SolveReport, SolveRequest
from .runtime import prepare_request, select_components, solve_prepared


#: Report keys excluded from :func:`report_signature`: work *placement*
#: (results are bit-identical across executors and jobs by the engine's
#: matrix guarantee), the constant ``kernel`` key, and wall-clock timings.
#: Everything else is covered by the incremental-equals-cold contract.
_PLACEMENT_REPORT_KEYS = (
    "jobs",
    "executor",
    "fallback_reason",
    "kernel",
    "timings",
)

#: Transport wrappers the service and CLI add around a report's JSON dict.
_TRANSPORT_KEYS = ("graph", "source", "cache", "timing", "incremental")


def json_report_signature(payload: Dict[str, Any]) -> str:
    """Canonical JSON of a serialised report's bit-identity-covered content.

    Accepts ``SolveReport.to_json_dict()`` output as well as the solve
    service's response payloads and the CLI's ``--json`` output, which wrap
    the report in transport extras (graph selector, cache verdict, timing
    split); those are stripped along with the placement keys and the
    second-resolution preprocessing fields.
    """
    data = {
        key: value
        for key, value in payload.items()
        if key not in _TRANSPORT_KEYS and key not in _PLACEMENT_REPORT_KEYS
    }
    data["preprocessing"] = {
        key: value
        for key, value in payload.get("preprocessing", {}).items()
        if not key.endswith("_seconds") and not key.startswith("cache_")
    }
    return json.dumps(data, sort_keys=True, default=str)


def report_signature(report: SolveReport) -> str:
    """:func:`json_report_signature` applied to a live :class:`SolveReport`.

    Two reports with equal signatures agree on every result and
    stats-relevant field.  This is the one definition of the bit-identity
    contract shared by the test suite, ``repro-lhcds deltas --cold``, and
    the CI streaming smoke.
    """
    return json_report_signature(report.to_json_dict())


@dataclasses.dataclass(frozen=True)
class DeltaStats:
    """What one applied delta changed and what the session reused."""

    #: Session epoch after the delta (number of deltas applied so far).
    epoch: int
    vertices_added: int
    vertices_removed: int
    edges_added: int
    edges_removed: int
    #: Size of the invalidation frontier (:attr:`GraphDelta.touched_vertices`).
    touched_vertices: int
    #: Pre-delta components dropped because they intersect the frontier.
    components_invalidated: int
    #: Post-delta components whose induced subgraph was re-enumerated.
    components_reenumerated: int
    #: Post-delta components whose preprocessing carried over untouched.
    components_reused: int
    #: Global instance rows dropped (incident to the frontier, pre-delta).
    instances_dropped: int
    #: Global instance rows re-enumerated (incident, post-delta).
    instances_reenumerated: int
    apply_seconds: float = 0.0

    def as_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)


@dataclasses.dataclass(frozen=True)
class IncrementalSolveStats:
    """How much of a session solve was served from per-component results."""

    #: Session epoch the solve ran at.
    epoch: int
    #: Active (solvable) components of the current graph.
    components_total: int
    #: Components whose ``LhCDSResult`` was reused from a previous solve.
    components_reused: int
    #: Components actually solved this call (and recorded for next time).
    components_solved: int
    solve_seconds: float = 0.0

    def as_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)


#: Solver options that change per-component results; everything else
#: (executor, jobs) only moves work and is bit-identical by the engine's
#: matrix guarantee.
_ConfigKey = Tuple[str, Optional[int], int, str, str]


class IncrementalSession:
    """A live graph plus warm preprocessing, maintained under deltas.

    Parameters
    ----------
    graph:
        The host graph.  The session holds a reference (so a service can
        share one graph object between its registry and the session); pass
        ``graph.copy()`` to decouple.  All mutations must go through
        :meth:`apply_delta` — the session detects out-of-band mutation via
        :attr:`Graph.delta_epoch` and refuses to serve stale state.
    pattern:
        A :class:`~repro.patterns.base.Pattern` or an integer ``h``
        (h-clique), pinned for the session's lifetime.
    """

    GUARDED_BY = {
        "_states": "_lock",
        "_results": "_lock",
        "_num_instances": "_lock",
        "_components": "_lock",
        "_epoch": "_lock",
        "_graph_epoch": "_lock",
        "_last_solve_stats": "_lock",
    }

    def __init__(self, graph: Graph, pattern: Pattern | int = 3) -> None:
        if graph.num_vertices == 0:
            raise EngineError("cannot open a session on an empty graph")
        if isinstance(pattern, int):
            pattern = CliquePattern(pattern)
        self._graph = graph
        self._pattern = pattern
        # Reentrant so a future composite operation can nest apply/solve.
        self._lock = threading.RLock()
        #: The prepared form of every active component, keyed by its vertices.
        self._states: Dict[FrozenSet[Vertex], PreparedComponent] = {}
        #: Per solver configuration, each solved component's result.
        self._results: Dict[_ConfigKey, Dict[FrozenSet[Vertex], LhCDSResult]] = {}
        #: Number of deltas applied so far.
        self._epoch = 0
        self._last_solve_stats: Optional[IncrementalSolveStats] = None

        instances = pattern.instances(self._graph)
        self._num_instances = instances.num_instances
        self._components: List[FrozenSet[Vertex]] = [
            frozenset(comp) for comp in connected_components(self._graph)
        ]
        for index, key in enumerate(self._components):
            local = instances.restrict(key)
            if local.num_instances:
                self._states[key] = prepare_component(
                    index, self._graph.induced_subgraph(key), local
                )
        self._graph_epoch = self._graph.delta_epoch

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def graph(self) -> Graph:
        """The session's current graph (mutate only via :meth:`apply_delta`)."""
        return self._graph

    @property
    def pattern(self) -> Pattern:
        return self._pattern

    @property
    def epoch(self) -> int:
        """Number of deltas applied to the session so far."""
        return self._epoch

    @property
    def num_instances(self) -> int:
        """Current global instance count (maintained incrementally)."""
        return self._num_instances

    @property
    def last_solve_stats(self) -> Optional[IncrementalSolveStats]:
        return self._last_solve_stats

    # ------------------------------------------------------------------
    # delta maintenance
    # ------------------------------------------------------------------
    def apply_delta(
        self, delta: GraphDelta, *, already_applied: bool = False
    ) -> DeltaStats:
        """Apply a delta and repair the session's preprocessing around it.

        With ``already_applied=True`` the graph object was mutated by the
        caller (the solve service applies each delta once to its shared
        graph, then repairs every session on it) and only the session state
        is updated.  Returns per-delta statistics.
        """
        with self._lock:
            self._check_epoch(expect_applied=already_applied, delta=delta)
            tick = time.perf_counter()
            if not already_applied:
                self._graph.apply_delta(delta)
            self._graph_epoch = self._graph.delta_epoch
            touched = delta.touched_vertices

            # Re-split the frontier plus every pre-delta component it meets
            # (see the module docstring).  The rebuild region covers the
            # frontier AND every vertex of an invalidated component: removing
            # a vertex can strand a remainder component that contains no
            # touched vertex but still needs fresh state (its old component's
            # state is gone).
            hit = components_touching(self._components, touched)
            scope: Set[Vertex] = set(touched)
            region: Set[Vertex] = set(touched)
            invalidated = 0
            dropped = 0
            for index in hit:
                key = self._components[index]
                scope |= key
                state = self._states.pop(key, None)
                if state is not None:
                    invalidated += 1
                    region |= key
                    dropped += len(state.instances.indices_incident(touched))
            # A result is keyed by its component's vertices, which is safe
            # because an untouched vertex set has untouched edges (fact 2).
            self._results = {
                config: {key: result for key, result in store.items() if key.isdisjoint(touched)}
                for config, store in self._results.items()
            }

            skip = set(hit)
            kept = [key for index, key in enumerate(self._components) if index not in skip]
            resplit = [frozenset(c) for c in connected_components(self._graph, scope)]
            rank = self._graph.insertion_rank()
            self._components = sorted(
                kept + resplit, key=lambda key: min(map(rank.__getitem__, key))
            )

            reenumerated = 0
            added = 0
            for index, key in enumerate(self._components):
                if key.isdisjoint(region):
                    # A kept component, or an instance-free remainder of a
                    # touched instance-free component: neither can gain an
                    # instance.
                    continue
                reenumerated += 1
                subgraph = self._graph.induced_subgraph(key)
                local = self._pattern.instances(subgraph)
                if local.num_instances:
                    added += len(local.indices_incident(touched))
                    self._states[key] = prepare_component(index, subgraph, local)
            self._num_instances += added - dropped
            self._epoch += 1
            return DeltaStats(
                epoch=self._epoch,
                vertices_added=len(delta.add_vertices),
                vertices_removed=len(delta.remove_vertices),
                edges_added=len(delta.add_edges),
                edges_removed=len(delta.remove_edges),
                touched_vertices=len(touched),
                components_invalidated=invalidated,
                components_reenumerated=reenumerated,
                components_reused=len(self._components) - reenumerated,
                instances_dropped=dropped,
                instances_reenumerated=added,
                apply_seconds=time.perf_counter() - tick,
            )

    # ------------------------------------------------------------------
    # solving
    # ------------------------------------------------------------------
    def solve(self, **options) -> SolveReport:
        """Solve the current graph; bit-identical to a cold engine solve.

        Accepts the same keyword options as :func:`repro.engine.solve`
        except ``graph`` and ``pattern``, which the session pins.  Untouched
        components are served from the per-component result store.
        """
        for pinned in ("graph", "pattern"):
            if pinned in options:
                raise EngineError(
                    f"the session pins {pinned!r}; open a new session to change it"
                )
        with self._lock:
            self._check_epoch(expect_applied=False, delta=None)
            request, spec = prepare_request(
                SolveRequest(graph=self._graph, pattern=self._pattern, **options)
            )
            start = time.perf_counter()
            components, stats = self._prepared()
            store = self._results.setdefault(self._config_key(request), {})
            scheduled, _ = select_components(components, spec, request.k)
            reused = sum(1 for component in scheduled if component.vertices in store)
            before = len(store)
            report = solve_prepared(request, components, stats, known=store, start=start)
            self._last_solve_stats = IncrementalSolveStats(
                epoch=self._epoch,
                components_total=len(components),
                components_reused=reused,
                components_solved=len(store) - before,
                solve_seconds=time.perf_counter() - start,
            )
            return report

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _check_epoch(
        self, *, expect_applied: bool, delta: Optional[GraphDelta]
    ) -> None:
        """Refuse to serve state for a graph mutated outside apply_delta."""
        expected = self._graph_epoch
        if expect_applied and delta is not None:
            if self._graph.delta_epoch == expected:
                raise EngineError(
                    "apply_delta(already_applied=True) but the graph's epoch "
                    "never moved; apply the delta to the graph first"
                )
            return
        if self._graph.delta_epoch != expected:
            raise EngineError(
                "session graph was mutated outside apply_delta; the warm state "
                "is stale — open a new session or route changes through deltas"
            )

    def _config_key(self, request: SolveRequest) -> _ConfigKey:
        return (
            request.solver,
            request.k,
            request.iterations,
            request.verification,
            pattern_identity(request.pattern),
        )

    def _prepared(self) -> Tuple[List[PreparedComponent], PreprocessStats]:
        """What :func:`~repro.engine.preprocess.cold_preprocess` returns, served warm.

        Each kept component gets its current discovery index, and the final
        ``(-upper_bound, index)`` ordering is the cold pipeline's, so the
        report carries identical statistics.
        """
        graph = self._graph
        stats = PreprocessStats(
            num_vertices=graph.num_vertices,
            num_edges=graph.num_edges,
            num_instances=self._num_instances,
            num_components=len(self._components),
        )
        prepared: List[PreparedComponent] = []
        for index, key in enumerate(self._components):
            component = self._states.get(key)
            if component is not None:
                prepared.append(dataclasses.replace(component, index=index))
        stats.num_active_components = len(prepared)
        prepared.sort(key=lambda c: (-c.upper_bound, c.index))
        return prepared, stats

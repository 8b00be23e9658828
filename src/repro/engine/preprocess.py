"""Shared preprocessing: enumerate once, split into components, bound each.

Every solve request — regardless of which solver runs — goes through the
same pipeline exactly once:

1. **Enumeration.**  The pattern's instances are enumerated on the full host
   graph (the single most expensive shared step; solvers never re-enumerate).
2. **Component split.**  Pattern instances are connected subgraphs, so every
   instance — and therefore every reported dense subgraph — lives inside one
   connected component.  The graph is split with
   :func:`~repro.graph.components.connected_components` and the instance set
   is restricted per component with the indexed restriction.  On a
   connected graph the one component covers every interned vertex, so the
   restriction is the global set itself (no scan, no copy, no second
   incidence index); only the component's subgraph is copied, because the
   cache's memory layer and incremental sessions keep it alive while the
   caller's graph may change.  The loop has no branch for this case.
3. **Clique-core bounds.**  Per component, Algorithm 1's
   :func:`~repro.lhcds.bounds.initialize_bounds` yields compact-number
   bounds; the component-level density window ``[c_max / h, c_max]`` follows
   from Proposition 3 and drives whole-component upper-bound pruning in the
   runtime (a component whose cap is beaten by >= k other components'
   guaranteed densities is never solved at all).  Every solver gets the
   bounds, whether or not it reads them: there is one pipeline, so one
   artifact per (graph, pattern).

:func:`prepare_component` is step 3 for one component.  The incremental
session keeps its output per component and re-runs it only for the
components a delta touches.

Components containing no instance are dropped: no solver ever reports a
subgraph with zero instances, so they cannot contribute output.

When the request names a cache directory (``SolveRequest.cache_dir``,
``--cache-dir``, ``$REPRO_CACHE``), :func:`preprocess` becomes a cache-aware
front door: the pipeline's output is keyed by the graph's content digest and
the pattern's identity (see :mod:`repro.engine.cache`), warm keys skip the
pipeline entirely, and cold keys store their artifact for the next request.
Hit or miss, the returned components are bit-identical.
"""

from __future__ import annotations

import time
from fractions import Fraction
from typing import List, Tuple

from ..graph.components import connected_components
from ..graph.graph import Graph
from ..instances import InstanceSet
from ..lhcds.bounds import initialize_bounds
from .cache import STATE_MISS, cache_for, cache_key, resolve_cache_dir
from .request import PreparedComponent, PreprocessStats, SolveRequest


def preprocess(request: SolveRequest) -> Tuple[List[PreparedComponent], PreprocessStats]:
    """Run the shared pipeline (or serve it warm from the artifact cache).

    Without a configured cache directory this is exactly the cold pipeline
    (:func:`cold_preprocess`).  With one, the pipeline's output is fetched
    by content key when warm and stored after computing when cold; the
    ``cache_state`` / ``cache_key`` / ``cache_seconds`` fields of the
    returned stats record which path ran.
    """
    root = resolve_cache_dir(request.cache_dir)
    if root is None:
        return cold_preprocess(request)
    cache = cache_for(root)
    tick = time.perf_counter()
    key = cache_key(request.graph, request.pattern)
    warm = cache.fetch(key)
    lookup_seconds = time.perf_counter() - tick
    if warm is not None:
        components, stats, state = warm
        stats.cache_state = state
        stats.cache_key = key
        stats.cache_seconds = lookup_seconds
        return components, stats
    components, stats = cold_preprocess(request)
    tick = time.perf_counter()
    cache.store(
        key,
        components,
        stats,
        meta={
            "pattern": request.pattern.name,
            "h": request.h,
            "num_vertices": stats.num_vertices,
            "num_edges": stats.num_edges,
            "num_instances": stats.num_instances,
            "num_active_components": stats.num_active_components,
        },
    )
    stats.cache_state = STATE_MISS
    stats.cache_key = key
    stats.cache_seconds = lookup_seconds + (time.perf_counter() - tick)
    return components, stats


def prepare_component(index: int, subgraph: Graph, instances: InstanceSet) -> PreparedComponent:
    """Bound one active component: its clique-core bounds and density window."""
    bounds, core = initialize_bounds(instances, subgraph.vertices())
    c_max = max(core.values(), default=0)
    return PreparedComponent(
        index=index,
        subgraph=subgraph,
        instances=instances,
        bounds=bounds,
        lower_bound=Fraction(c_max, instances.h),
        upper_bound=Fraction(c_max),
    )


def cold_preprocess(request: SolveRequest) -> Tuple[List[PreparedComponent], PreprocessStats]:
    """Run the shared pipeline; return solvable components plus statistics.

    The returned components are ordered by decreasing density upper bound
    (ties broken by discovery order), which is both the serial solve order
    and the parallel scheduling order.
    """
    graph = request.graph
    stats = PreprocessStats(
        num_vertices=graph.num_vertices,
        num_edges=graph.num_edges,
    )

    tick = time.perf_counter()
    instances = request.pattern.instances(graph)
    stats.enumeration_seconds = time.perf_counter() - tick
    stats.num_instances = instances.num_instances

    tick = time.perf_counter()
    components = connected_components(graph)
    stats.num_components = len(components)
    active: List[Tuple[int, Graph, InstanceSet]] = []
    for index, component in enumerate(components):
        local = instances.restrict(component)
        if local.num_instances == 0:
            continue
        active.append((index, graph.induced_subgraph(component), local))
    stats.split_seconds = time.perf_counter() - tick
    stats.num_active_components = len(active)

    tick = time.perf_counter()
    prepared = [prepare_component(*item) for item in active]
    stats.bounds_seconds = time.perf_counter() - tick

    prepared.sort(key=lambda c: (-c.upper_bound, c.index))
    return prepared, stats

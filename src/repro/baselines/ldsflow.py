"""LDSflow baseline (Qin et al. 2015) — top-k locally densest subgraphs, h = 2.

The original LDSflow algorithm proposes candidates without convex
programming and validates each with a maximum-flow computation over the
*whole* graph.  The paper attributes its slowness to exactly those traits,
so this re-implementation keeps them on top of our substrate:

* candidates are the maximal densest subsets of the not-yet-output region,
  each the first layer of a parametric min-cut search
  (:func:`~repro.densest.exact.maximal_densest_subset`) — no Frank–Wolfe
  weights, no compact-number bounds, no pruning,
* every candidate is verified with the **basic** (full-graph) flow network
  (:func:`~repro.lhcds.verify.verify_basic`).

The output is exact (same flow machinery as IPPV), only slower — which is
what the comparison in Figure 12 needs.
"""

from __future__ import annotations

import time
from fractions import Fraction
from typing import List, Optional

from ..densest.exact import maximal_densest_subset
from ..graph.components import connected_components
from ..graph.graph import Graph
from ..instances import InstanceSet
from ..lhcds.ippv import DenseSubgraph, LhCDSResult, StageTimings
from ..lhcds.verify import VerificationStats, is_densest, verify_basic


def _topk_by_extraction(
    graph: Graph, instances: InstanceSet, k: Optional[int], *, label: str
) -> LhCDSResult:
    """Shared skeleton of the LDSflow / LTDS baselines.

    Repeatedly extracts the maximal densest subgraph of the not-yet-output
    region, verifies it against the whole graph with the basic flow check,
    and removes it.  This mirrors the candidate-then-verify structure of the
    original algorithms while sharing our exact flow substrate.
    """
    timings = StageTimings()
    stats = VerificationStats()
    start = time.perf_counter()
    h = instances.h

    remaining = set(graph.vertices())
    found: List[DenseSubgraph] = []
    target = k if k is not None else graph.num_vertices

    while remaining and len(found) < target:
        working = instances.restrict(remaining)
        if working.num_instances == 0:
            break
        dense, _ = maximal_densest_subset(working, remaining)
        if not dense:
            break
        components = connected_components(graph, dense)
        progressed = False
        for component in sorted(components, key=lambda c: (-len(c), repr(sorted(c, key=repr)))):
            local = instances.restrict(component)
            if local.num_instances == 0:
                continue
            density = Fraction(local.num_instances, len(component))
            tick = time.perf_counter()
            stats.is_densest_calls += 1
            ok = is_densest(local, component) and verify_basic(
                graph, instances, component, density, stats=stats
            )
            timings.verification += time.perf_counter() - tick
            if ok:
                found.append(
                    DenseSubgraph(
                        vertices=frozenset(component),
                        density=density,
                        pattern_name=label,
                        h=h,
                    )
                )
                progressed = True
        remaining -= set(dense)
        if not progressed and not dense:
            break

    found.sort(key=lambda s: (-s.density, -len(s.vertices)))
    if k is not None:
        found = found[:k]
    timings.total = time.perf_counter() - start
    return LhCDSResult(
        subgraphs=found,
        timings=timings,
        verification=stats,
        candidates_examined=len(found),
    )


def lds_flow(
    graph: Graph, instances: InstanceSet, k: Optional[int] = None
) -> LhCDSResult:
    """Top-k locally densest subgraphs via the flow-heavy baseline.

    ``instances`` are the graph's edges as 2-cliques (h = 2).
    """
    return _topk_by_extraction(graph, instances, k, label="edge (LDSflow)")

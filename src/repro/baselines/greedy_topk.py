"""Greedy top-k h-clique densest subgraphs (the locality-free baseline).

The paper's ``Greedy`` baseline runs a kClist++-style greedy extraction of k
dense subgraphs with *no* locally-densest guarantee: the densest region is
found (approximately, by peeling), removed, and the process repeats.  The
returned subgraphs may be adjacent to each other or to previously returned
regions, which is exactly the deficiency Figure 14 illustrates.
"""

from __future__ import annotations

import time
from fractions import Fraction
from typing import List

from ..densest.greedy import greedy_densest_subset
from ..graph.components import connected_components
from ..graph.graph import Graph
from ..instances import InstanceSet
from ..lhcds.ippv import DenseSubgraph, LhCDSResult, StageTimings
from ..lhcds.verify import VerificationStats


def greedy_topk_cds(graph: Graph, instances: InstanceSet, k: int) -> LhCDSResult:
    """Return up to ``k`` greedily extracted dense subgraphs of ``graph``.

    ``instances`` are the graph's pattern instances (the engine's shared
    preprocessing enumerates them); ``h`` is their size.
    """
    timings = StageTimings()
    start = time.perf_counter()
    h = instances.h

    remaining = set(graph.vertices())
    found: List[DenseSubgraph] = []
    while remaining and len(found) < k:
        working = instances.restrict(remaining)
        if working.num_instances == 0:
            break
        subset, _ = greedy_densest_subset(working, remaining)
        if not subset:
            break
        # Report each connected component separately (like the paper's plots,
        # which show per-subgraph size and density points).
        for component in connected_components(graph, subset):
            local = instances.restrict(component)
            if local.num_instances == 0:
                continue
            density = Fraction(local.num_instances, len(component))
            found.append(
                DenseSubgraph(
                    vertices=frozenset(component),
                    density=density,
                    pattern_name=f"{h}-clique (greedy)",
                    h=h,
                )
            )
            if len(found) >= k:
                break
        remaining -= set(subset)

    found.sort(key=lambda s: (-s.density, -len(s.vertices)))
    timings.total = time.perf_counter() - start
    return LhCDSResult(
        subgraphs=found[:k],
        timings=timings,
        verification=VerificationStats(),
        candidates_examined=len(found),
    )

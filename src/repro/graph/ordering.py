"""The degeneracy ordering that drives the kClist-style h-clique enumerator.

Core numbers over pattern instances (edges included, as h = 2) come from
the one instance peel, :func:`repro.cores.clique_core.peel`.  This peel is
a different job: it orders the adjacency itself, and its tie-break carries
the component-purity contract described below.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Tuple

from .graph import Graph, Vertex


def degeneracy_ordering(graph: Graph) -> Tuple[List[Vertex], Dict[Vertex, int], int]:
    """Compute a degeneracy (smallest-last) ordering.

    Repeatedly removes a vertex of minimum remaining degree.  Returns the
    removal order, the position (rank) of each vertex in that order, and the
    graph degeneracy (the maximum degree seen at removal time).

    The ordering has the property that each vertex has at most *degeneracy*
    neighbours appearing later in the order, which bounds the branching of
    the clique enumerator.

    Ties (equal remaining degree) are broken by heap insertion counters, and
    every counter assignment walks vertices in the graph's *insertion order*
    — the initial heap fill directly, and each removal's neighbour updates
    through a canonically sorted adjacency.  That makes the ordering a pure
    function of the graph's structure and construction history, never of
    per-process set layout; in particular, the order restricted to one
    connected component is identical whether the ordering is computed on the
    full graph or on that component's induced subgraph (non-component events
    interleave without reordering a component's own heap entries).  The
    incremental engine's artifact reuse rests on this purity.
    """
    degrees: Dict[Vertex, int] = {v: graph.degree(v) for v in graph}
    index_of: Dict[Vertex, int] = {v: i for i, v in enumerate(graph)}
    neighbour_order: Dict[Vertex, List[Vertex]] = {
        v: sorted(graph.neighbors(v), key=index_of.__getitem__) for v in graph
    }
    # A lazy-deletion heap keyed by current degree keeps the loop O(m log n).
    heap: List[Tuple[int, int, Vertex]] = []
    counter = 0
    for v, d in degrees.items():
        heap.append((d, counter, v))
        counter += 1
    heapq.heapify(heap)

    removed: Dict[Vertex, bool] = {v: False for v in graph}
    order: List[Vertex] = []
    degeneracy = 0
    while heap:
        d, _, v = heapq.heappop(heap)
        if removed[v] or d != degrees[v]:
            continue
        removed[v] = True
        degeneracy = max(degeneracy, d)
        order.append(v)
        for u in neighbour_order[v]:
            if not removed[u]:
                degrees[u] -= 1
                counter += 1
                heapq.heappush(heap, (degrees[u], counter, u))
    rank = {v: i for i, v in enumerate(order)}
    return order, rank, degeneracy


def degeneracy(graph: Graph) -> int:
    """Return the degeneracy of the graph (0 for an empty graph)."""
    if graph.num_vertices == 0:
        return 0
    return degeneracy_ordering(graph)[2]

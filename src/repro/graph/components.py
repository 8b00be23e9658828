"""Connectivity helpers: BFS, connected components, distances, diameter.

:func:`connected_components` has a subset mode:
``connected_components(graph, S)`` returns exactly
``connected_components(graph.induced_subgraph(S))`` -- the same sets in the
same order -- without building the subgraph.  It runs a search over the host
adjacency that only follows neighbours inside ``S``, then orders the
components by their first vertex in the host's insertion order, which is
the order a split of the induced subgraph would visit them in (the
subgraph keeps its parent's vertex order).  That rank comes from
:meth:`Graph.insertion_rank`, a per-graph memo that any mutation drops,
so a loop of subset splits on one graph (IPPV's, one per popped
candidate) costs the sum of its subsets' host degrees and never a scan
of the whole graph per call.  The whole-graph split is the same loop
with every vertex kept.

After a delta the incremental session re-splits, in subset mode, only the
frontier and the old components :func:`components_touching` finds it meets.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..errors import GraphError
from .graph import Graph, Vertex


def bfs_order(graph: Graph, source: Vertex) -> List[Vertex]:
    """Return vertices reachable from ``source`` in BFS order."""
    if source not in graph:
        raise GraphError(f"source {source!r} not in graph")
    seen: Set[Vertex] = {source}
    order: List[Vertex] = [source]
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for u in graph.neighbors(v):
            if u not in seen:
                seen.add(u)
                order.append(u)
                queue.append(u)
    return order


def connected_components(
    graph: Graph, vertices: Optional[Iterable[Vertex]] = None
) -> List[Set[Vertex]]:
    """Return the connected components as a list of vertex sets.

    Components are ordered by their first-seen vertex (graph insertion
    order), which keeps results deterministic across runs.  With
    ``vertices`` this is the split of the induced subgraph ``G[vertices]``
    (vertices absent from the graph are ignored), computed on the host
    adjacency; see the module docstring.
    """
    rank = graph.insertion_rank()
    keep = rank if vertices is None else set(vertices)
    placed: Set[Vertex] = set()
    ranked: List[Tuple[int, Set[Vertex]]] = []
    for v in keep:
        if v in placed or v not in rank:
            continue
        comp = {v}
        stack = [v]
        while stack:
            for u in graph.neighbors(stack.pop()):
                if u in keep and u not in comp:
                    comp.add(u)
                    stack.append(u)
        placed |= comp
        ranked.append((min(rank[u] for u in comp), comp))
    ranked.sort(key=lambda item: item[0])
    return [comp for _, comp in ranked]


def components_touching(
    components: Iterable[Set[Vertex]], vertices: Iterable[Vertex]
) -> List[int]:
    """Return indices of the components that contain any of ``vertices``.

    The incremental session uses this to find the pre-delta components a
    delta's touched-vertex frontier meets: it re-splits those and keeps
    the others.  Indices are returned in component order (ascending), each
    at most once.
    """
    targets = set(vertices)
    touched: List[int] = []
    for index, comp in enumerate(components):
        if comp & targets:
            touched.append(index)
    return touched


def is_connected(graph: Graph) -> bool:
    """Return ``True`` for a connected, non-empty graph."""
    if graph.num_vertices == 0:
        return False
    first = next(iter(graph))
    return len(bfs_order(graph, first)) == graph.num_vertices


def shortest_path_lengths(graph: Graph, source: Vertex) -> Dict[Vertex, int]:
    """Return unweighted shortest-path lengths from ``source``."""
    if source not in graph:
        raise GraphError(f"source {source!r} not in graph")
    dist: Dict[Vertex, int] = {source: 0}
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for u in graph.neighbors(v):
            if u not in dist:
                dist[u] = dist[v] + 1
                queue.append(u)
    return dist


def eccentricity(graph: Graph, vertex: Vertex) -> int:
    """Return the eccentricity of ``vertex`` within its component."""
    dist = shortest_path_lengths(graph, vertex)
    return max(dist.values()) if dist else 0


def diameter(graph: Graph, vertices: Optional[Iterable[Vertex]] = None) -> int:
    """Return the diameter of the (sub)graph.

    When ``vertices`` is given, the diameter of the induced subgraph is
    computed.  A disconnected or empty graph raises :class:`GraphError`
    because the paper only reports diameters of connected LhCDSes.
    """
    g = graph if vertices is None else graph.induced_subgraph(vertices)
    if g.num_vertices == 0:
        raise GraphError("diameter of an empty graph is undefined")
    if not is_connected(g):
        raise GraphError("diameter of a disconnected graph is undefined")
    return max(eccentricity(g, v) for v in g)

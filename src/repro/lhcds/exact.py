"""Exact h-clique compact numbers and the LhCDSes they define.

Theorem 2 of the paper identifies the compact number ``phi_h(u)`` with the
optimal solution ``r*(u)`` of the convex program CP(G, h), and that is the
density of ``u``'s layer in the diminishingly dense decomposition, which
the breakpoint search of :mod:`repro.densest.exact` computes.  Vertices in
no instance get 0.  This module reads the LhCDSes off those numbers: each
is a connected component of a level set that touches no denser vertex.

It serves two purposes:

* the ``exact`` solver (a standalone "LhCDScvx-style" exact algorithm
  exposed in the public API), and
* a reference oracle for the IPPV pipeline's tests.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from ..densest.exact import diminishingly_dense_decomposition
from ..errors import AlgorithmError
from ..graph.components import connected_components
from ..graph.graph import Graph, Vertex
from ..instances import InstanceSet
from .ippv import vertex_set_sort_key


def exact_compact_numbers(
    instances: InstanceSet,
    vertices: Optional[Iterable[Vertex]] = None,
) -> Dict[Vertex, Fraction]:
    """Return the exact compact number ``phi_h(u)`` of every vertex.

    The decomposition's layers partition the universe, so every vertex gets
    its layer's density, and a vertex in no instance gets 0.
    """
    return {
        v: density
        for layer, density in diminishingly_dense_decomposition(instances, vertices)
        for v in layer
    }


def lhcds_at_level(
    graph: Graph,
    phi: Dict[Vertex, Fraction],
    rho: Fraction,
    level: Iterable[Vertex],
) -> Iterator[Set[Vertex]]:
    """Yield the vertices of every LhCDS at density ``rho``.

    ``level`` is the level set ``{v : phi(v) = rho}``, and ``phi`` needs
    only the vertices at ``rho`` or above (a missing vertex reads as 0).  A
    connected component of the level set is an LhCDS iff no member has a
    neighbour with a strictly larger compact number.  Components come in
    :func:`connected_components` order, which follows the graph's vertex
    order, so the enumeration is deterministic.
    """
    zero = Fraction(0)
    for component in connected_components(graph, level):
        touches_denser = any(
            phi.get(u, zero) > rho
            for v in component
            for u in graph.neighbors(v)
            if u not in component
        )
        if not touches_denser:
            yield component


def exact_top_k_lhcds(
    graph: Graph,
    instances: InstanceSet,
    k: Optional[int] = None,
) -> List[Tuple[Set[Vertex], Fraction]]:
    """Return the top-k LhCDSes by density, stopping once k are certified.

    An LhCDS is a connected component ``C`` of a level set
    ``{v : phi(v) = rho}`` such that no vertex of ``C`` has a neighbour with
    a strictly larger compact number (equivalently, ``C`` is also a component
    of ``{v : phi(v) >= rho}``).  Such components are automatically
    ``rho``-compact, maximal, and have density exactly ``rho``.

    The decomposition yields its layers in strictly decreasing density, so
    each layer is a whole level set and every denser vertex lies in an
    earlier layer: a layer's LhCDSes are read off as soon as it arrives, and
    once k are known no later layer can place, so the search stops.

    Returns (vertex set, density) pairs in the report's order: decreasing
    density, then :func:`~repro.lhcds.ippv.vertex_set_sort_key` (decreasing
    size, then the ``repr`` of the sorted vertices).  Each layer is sorted
    before it is cut at ``k``, so the first ``k`` pairs are the first ``k``
    of the full list and match IPPV's top-k on density ties.  Level-0
    components are excluded (an "LhCDS" containing no instance is never
    reported by the paper either).
    """
    if graph.num_vertices == 0:
        raise AlgorithmError("cannot decompose an empty graph")
    phi: Dict[Vertex, Fraction] = {}
    results: List[Tuple[Set[Vertex], Fraction]] = []
    for layer, rho in diminishingly_dense_decomposition(instances, graph.vertices()):
        if rho == 0:
            break
        phi.update(dict.fromkeys(layer, rho))
        found = sorted(lhcds_at_level(graph, phi, rho, layer), key=vertex_set_sort_key)
        results.extend((component, rho) for component in found)
        if k is not None and len(results) >= k:
            break
    return results if k is None else results[:k]

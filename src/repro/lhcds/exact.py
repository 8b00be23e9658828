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
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from ..densest.exact import diminishingly_dense_decomposition
from ..errors import AlgorithmError
from ..graph.components import connected_components
from ..graph.graph import Graph, Vertex
from ..instances import InstanceSet


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
    level: Sequence[Vertex],
) -> Iterator[Set[Vertex]]:
    """Yield the vertices of every LhCDS at density ``rho``.

    ``level`` is the level set ``{v : phi(v) = rho}``.  A connected
    component of it is an LhCDS iff no member has a neighbour with a
    strictly larger compact number.  Components come in
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


def lhcds_from_compact_numbers(
    graph: Graph,
    instances: InstanceSet,
    compact: Optional[Dict[Vertex, Fraction]] = None,
) -> List[Tuple[Set[Vertex], Fraction]]:
    """Enumerate every LhCDS exactly, given (or computing) exact compact numbers.

    An LhCDS is a connected component ``C`` of a level set
    ``{v : phi(v) = rho}`` such that no vertex of ``C`` has a neighbour with
    a strictly larger compact number (equivalently, ``C`` is also a component
    of ``{v : phi(v) >= rho}``).  Such components are automatically
    ``rho``-compact, maximal, and have density exactly ``rho``.

    Returns the list of (vertex set, density) pairs sorted by decreasing
    density.  Level-0 components are excluded (an "LhCDS" containing no
    instance is never reported by the paper either).
    """
    if graph.num_vertices == 0:
        raise AlgorithmError("cannot decompose an empty graph")
    phi = compact if compact is not None else exact_compact_numbers(instances, graph.vertices())
    # One pass groups the vertices by compact number.  Lists, not sets:
    # the subset split orders components by the graph's insertion order
    # either way, but keeping dict order here makes the
    # enumeration order visibly independent of per-process hashing.
    levels: Dict[Fraction, List[Vertex]] = {}
    for v, value in phi.items():
        if value > 0:
            levels.setdefault(value, []).append(v)
    results: List[Tuple[Set[Vertex], Fraction]] = []
    for rho in sorted(levels, reverse=True):
        for component in lhcds_at_level(graph, phi, rho, levels[rho]):
            results.append((component, rho))
    results.sort(key=lambda item: (-item[1], -len(item[0])))
    return results


def exact_top_k_lhcds(
    graph: Graph,
    instances: InstanceSet,
    k: Optional[int] = None,
) -> List[Tuple[Set[Vertex], Fraction]]:
    """Return the top-k LhCDSes by density using the exact decomposition."""
    all_results = lhcds_from_compact_numbers(graph, instances)
    if k is None:
        return all_results
    return all_results[:k]

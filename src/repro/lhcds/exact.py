"""Exact h-clique compact numbers via the diminishingly-dense decomposition.

Theorem 2 of the paper identifies the compact number ``phi_h(u)`` with the
optimal solution ``r*(u)`` of the convex program CP(G, h), and the theory of
densest-supermodular-set decompositions (Danisch et al., Harb et al.)
identifies ``r*`` with the *diminishingly dense decomposition*: a chain of
boundaries ``{} = B_0 < B_1 < ... < B_L`` whose layers ``B_i - B_(i-1)``
have strictly decreasing densities
``d_i = (|Psi(B_i)| - |Psi(B_(i-1))|) / (|B_i| - |B_(i-1)|)``.  Every
vertex's value is the density of its layer; vertices in no instance get 0.

With ``g(S) = |Psi(S)| - rho * |S|``, the boundary ``B_i`` is the largest
maximiser of ``g`` for every ``rho`` in ``(d_(i+1), d_i]``, and the largest
maximiser is what one minimum cut of
:func:`repro.flow.network.solve_compact_network` returns.  The layers are
found by the breakpoint search of the locally-dense decomposition (Tatti &
Gionis, "Density-friendly Graph Decomposition", WWW 2015).  Take two known
boundaries ``X = B_a < Y = B_b``, starting from the empty set and the
covered vertices, and cut once at
``rho = (|Psi(Y)| - |Psi(X)|) / (|Y| - |X|)``, the size-weighted mean of
``d_(a+1) .. d_b``, at which ``g(X) = g(Y)``:

* if ``b = a + 1`` then ``rho = d_b`` and the largest maximiser between
  ``X`` and ``Y`` is ``Y`` itself: ``Y - X`` is one layer of density ``rho``;
* otherwise ``d_b < rho < d_(a+1)`` and it is a boundary ``Z = B_j`` with
  ``a < j < b``, so both ``(X, Z)`` and ``(Z, Y)`` are searched next.

Each of the L positive-density layers is certified by one cut and each of
the L - 1 boundaries between them is found by one, so the search takes
exactly 2L - 1 cuts.  A work stack holds the open gaps with the denser one
on top, which emits the layers in decreasing density and finishes every
vertex of ``X`` before the gap ``(X, Y)`` is cut.

Each cut's network is restricted to the gap.  For ``X <= S <= Y`` only the
instances inside ``Y`` can count; those inside ``X`` count for every ``S``
and the rest of ``X`` is in every ``S``, so both shift ``g`` by a constant.
The network therefore holds only the instances inside ``Y`` that have a
member in ``Y - X``, found through the gap's incidence lists, with their
members in ``X`` forced to the source side; its largest maximiser, joined
with ``X``, is the largest maximiser of ``g`` between ``X`` and ``Y``.

The decomposition serves two purposes:

* the ``exact`` solver (a standalone "LhCDScvx-style" exact algorithm
  exposed in the public API), and
* a reference oracle for the IPPV pipeline's tests.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from ..errors import AlgorithmError
from ..flow.network import solve_compact_network
from ..graph.components import connected_components
from ..graph.graph import Graph, Vertex
from ..instances import InstanceSet


def diminishingly_dense_decomposition(
    instances: InstanceSet,
    vertices: Optional[Iterable[Vertex]] = None,
) -> List[Tuple[Set[Vertex], Fraction]]:
    """Return the nested decomposition as (new layer vertices, layer density) pairs.

    Layers are returned outer-to-inner in *decreasing* density order; their
    vertex sets partition the universe.  Vertices belonging to no instance
    form a final layer of density 0.  The module docstring describes the
    breakpoint search.
    """
    universe: Set[Vertex] = set(vertices) if vertices is not None else instances.vertices()
    if not universe:
        return []
    working = instances.restrict(universe)
    n_cov = working.num_interned
    layers: List[Tuple[Set[Vertex], Fraction]] = []
    if n_cov:
        h = working.h
        flat = working.flat_ids
        indptr = working.incidence_indptr
        incidence = working.incidence_indices
        vertex_at = working.vertex_at
        # A vertex is in X once its layer is finished.  Per instance,
        # members_in_x counts its members in X, and members_in_y (valid
        # when stamped with the current cut) its members in Y.
        finished = bytearray(n_cov)
        members_in_x = [0] * len(working)
        members_in_y = [0] * len(working)
        stamp = [0] * len(working)
        stack: List[List[int]] = [list(range(n_cov))]
        cut = 0
        while stack:
            gap = stack.pop()
            cut += 1
            touched: List[int] = []
            for vid in gap:
                for idx in incidence[indptr[vid] : indptr[vid + 1]]:
                    if stamp[idx] == cut:
                        members_in_y[idx] += 1
                    else:
                        stamp[idx] = cut
                        members_in_y[idx] = members_in_x[idx] + 1
                        touched.append(idx)
            chosen = [idx for idx in touched if members_in_y[idx] == h]
            forced = {
                vertex_at(u)
                for idx in chosen
                if members_in_x[idx]
                for u in flat[idx * h : (idx + 1) * h]
                if finished[u]
            }
            # |Psi(Y)| - |Psi(X)| counts exactly the chosen instances.
            rho = Fraction(len(chosen), len(gap))
            source_side = solve_compact_network(working.select(chosen), rho, forced=forced)
            if len(source_side) - len(forced) == len(gap):
                layers.append(({vertex_at(vid) for vid in gap}, rho))
                for vid in gap:
                    finished[vid] = 1
                    for idx in incidence[indptr[vid] : indptr[vid + 1]]:
                        members_in_x[idx] += 1
            else:
                stack.append([vid for vid in gap if vertex_at(vid) not in source_side])
                stack.append([vid for vid in gap if vertex_at(vid) in source_side])
    if len(universe) > n_cov:
        # Vertices in no instance: the density-0 layer.
        layers.append((universe - working.vertices(), Fraction(0)))
    return layers


def exact_compact_numbers(
    instances: InstanceSet,
    vertices: Optional[Iterable[Vertex]] = None,
) -> Dict[Vertex, Fraction]:
    """Return the exact compact number ``phi_h(u)`` of every vertex."""
    universe: Set[Vertex] = set(vertices) if vertices is not None else instances.vertices()
    numbers: Dict[Vertex, Fraction] = {}
    for layer, density in diminishingly_dense_decomposition(instances, universe):
        for v in layer:
            numbers[v] = density
    for v in universe:
        numbers.setdefault(v, Fraction(0))
    return numbers


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

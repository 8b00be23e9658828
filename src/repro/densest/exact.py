"""Exact densest subsets over an instance set: the breakpoint search.

Given an :class:`~repro.instances.InstanceSet` (h-cliques or any pattern),
the instance density of a vertex set is ``|Psi(S)| / |S|``.  The theory of
densest-supermodular-set decompositions (Danisch et al., Harb et al.)
splits a universe into its *diminishingly dense decomposition*: a chain of
boundaries ``{} = B_0 < B_1 < ... < B_L`` whose layers ``B_i - B_(i-1)``
have strictly decreasing densities
``d_i = (|Psi(B_i)| - |Psi(B_(i-1))|) / (|B_i| - |B_(i-1)|)``.  The first
boundary ``B_1`` is the maximal densest subset, and every vertex's layer
density is its exact compact number (Theorem 2 of the paper).

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
the L - 1 boundaries between them is found by one, so the whole search
takes exactly 2L - 1 cuts.  A work stack holds the open gaps with the
denser one on top, which emits the layers in decreasing density and
finishes every vertex of ``X`` before the gap ``(X, Y)`` is cut.  The
search is a generator that yields each layer as soon as its cut certifies
it, so a caller that wants only the maximal densest subset
(:func:`maximal_densest_subset`) pays only for the descent of the top gap:
every cut after the first runs on the previous cut's source side.

Each cut's network is restricted to the gap.  For ``X <= S <= Y`` only the
instances inside ``Y`` can count; those inside ``X`` count for every ``S``
and the rest of ``X`` is in every ``S``, so both shift ``g`` by a constant.
The network therefore holds only the instances inside ``Y`` that have a
member in ``Y - X``, found through the gap's incidence lists, with their
members in ``X`` forced to the source side; its largest maximiser, joined
with ``X``, is the largest maximiser of ``g`` between ``X`` and ``Y``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, List, Optional, Set, Tuple

from ..errors import AlgorithmError
from ..flow.network import solve_compact_network
from ..graph.graph import Vertex
from ..instances import InstanceSet


def diminishingly_dense_decomposition(
    instances: InstanceSet,
    vertices: Optional[Iterable[Vertex]] = None,
) -> Iterator[Tuple[Set[Vertex], Fraction]]:
    """Yield the nested decomposition as (new layer vertices, layer density) pairs.

    Layers come outer-to-inner in *decreasing* density, each as soon as its
    cut certifies it; their vertex sets partition the universe, which
    defaults to the vertices covered by ``instances``.  Vertices belonging
    to no instance form a final layer of density 0.  The module docstring
    describes the breakpoint search.
    """
    universe: Set[Vertex] = set(vertices) if vertices is not None else instances.vertices()
    if not universe:
        return
    working = instances.restrict(universe)
    n_cov = working.num_interned
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
                yield {vertex_at(vid) for vid in gap}, rho
                for vid in gap:
                    finished[vid] = 1
                    for idx in incidence[indptr[vid] : indptr[vid + 1]]:
                        members_in_x[idx] += 1
            else:
                stack.append([vid for vid in gap if vertex_at(vid) not in source_side])
                stack.append([vid for vid in gap if vertex_at(vid) in source_side])
    if len(universe) > n_cov:
        # Vertices in no instance: the density-0 layer.
        yield universe - working.vertices(), Fraction(0)


def maximal_densest_subset(
    instances: InstanceSet,
    vertices: Optional[Iterable[Vertex]] = None,
) -> Tuple[Set[Vertex], Fraction]:
    """Return the maximal densest vertex set and its exact density.

    This is the first layer of :func:`diminishingly_dense_decomposition`;
    the search stops once that layer's cut certifies it.

    Parameters
    ----------
    instances:
        Pattern instances of the working graph (only instances fully inside
        ``vertices`` are counted).
    vertices:
        Vertex universe; defaults to the vertices covered by ``instances``.

    Returns
    -------
    (subset, density):
        The maximal densest set and its density ``|Psi(S)| / |S|``.  A
        universe without instances is its own maximal densest set, of
        density 0.
    """
    for layer in diminishingly_dense_decomposition(instances, vertices):
        return layer
    raise AlgorithmError("cannot compute densest subset of an empty universe")

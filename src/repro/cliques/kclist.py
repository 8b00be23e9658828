"""h-clique listing via the kClist algorithm (Danisch et al.).

The enumerator orients each edge along a degeneracy ordering and recursively
lists cliques inside the out-neighbourhood DAG, which bounds the branching of
the recursion by the graph degeneracy.  This is the same enumeration strategy
the paper relies on (its SEQ-kClist++ component and all |Psi_h| statistics in
Table 2 are built on kClist).

The recursion itself runs in :mod:`repro.kernels.kclist_stdlib`: this
module builds the out-neighbour DAG once as a CSR over *rank space* (vertex
``order[i]`` becomes integer ``i``, neighbour lists ascending) and hands it to
:func:`~repro.kernels.kclist_stdlib.kclist_cliques`, which returns every
clique as ``h`` consecutive rank ids in one flat buffer.  Rank ids map back
through ``order``, so the emitted cliques list their vertices in degeneracy
order and follow the DAG's depth-first order.

For ``h >= 3``, :func:`clique_instances` hands that rank buffer straight to
:meth:`~repro.instances.InstanceSet.from_flat`, which remaps rank ids to
interned ids in first-appearance order -- the interning the builder would
give the same cliques -- without a tuple per clique.  Preprocessing calls
it once per solve on the whole graph (step 1 of
:mod:`repro.engine.preprocess`); on a connected graph that set then serves
the one component as is.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterator, List, Tuple

from ..errors import AlgorithmError
from ..graph.graph import Graph, Vertex
from ..graph.ordering import degeneracy_ordering
from ..instances import InstanceSet, InstanceSetBuilder
from ..kernels.kclist_stdlib import kclist_cliques


def _rank_csr(graph: Graph) -> Tuple[List[Vertex], array, array]:
    """Build the degeneracy-oriented out-neighbour DAG in rank space.

    Returns ``(order, indptr, nbrs)`` where rank ``i`` stands for vertex
    ``order[i]`` and ``nbrs[indptr[i]:indptr[i + 1]]`` lists the higher-rank
    neighbours of rank ``i`` in ascending order.
    """
    order, rank, _ = degeneracy_ordering(graph)
    n = len(order)
    indptr = array("q", bytes(8 * (n + 1)))
    nbrs = array("q")
    for rv, v in enumerate(order):
        indptr[rv] = len(nbrs)
        nbrs.extend(sorted(rank[u] for u in graph.neighbors(v) if rank[u] > rank[v]))
    indptr[n] = len(nbrs)
    return order, indptr, nbrs


def _flat_cliques(graph: Graph, h: int) -> Tuple[List[Vertex], array]:
    """Run the kernel recursion; cliques are ``h``-rank-id runs in the buffer."""
    order, indptr, nbrs = _rank_csr(graph)
    return order, kclist_cliques(len(order), indptr, nbrs, h)


def enumerate_cliques(graph: Graph, h: int) -> Iterator[Tuple[Vertex, ...]]:
    """Yield every h-clique of ``graph`` exactly once.

    For ``h == 1`` every vertex is a clique; for ``h == 2`` every edge is.
    Larger ``h`` uses the degeneracy-oriented DAG recursion of the kClist
    kernel (the flat result buffer is materialised up front; the iterator
    only wraps it tuple by tuple).

    The order of vertices inside a yielded clique follows the degeneracy
    ordering, so output is deterministic for a fixed graph.
    """
    if h < 1:
        raise AlgorithmError(f"h must be >= 1, got {h}")
    if graph.num_vertices == 0:
        return
    if h == 1:
        for v in graph:
            yield (v,)
        return

    if h == 2:
        order, rank, _ = degeneracy_ordering(graph)
        for v in order:
            for u in sorted(
                (u for u in graph.neighbors(v) if rank[u] > rank[v]),
                key=lambda u: rank[u],
            ):
                yield (v, u)
        return

    order, flat = _flat_cliques(graph, h)
    for base in range(0, len(flat), h):
        yield tuple(order[r] for r in flat[base : base + h])


def list_cliques(graph: Graph, h: int) -> List[Tuple[Vertex, ...]]:
    """Return all h-cliques as a list (see :func:`enumerate_cliques`)."""
    return list(enumerate_cliques(graph, h))


def clique_instances(graph: Graph, h: int) -> InstanceSet:
    """Return the h-cliques of ``graph`` packaged as an :class:`InstanceSet`.

    The enumerator guarantees arity and distinctness, so no per-instance
    validation is done.  Vertices are interned in emission order, which the
    kernel's ordering contract fixes: for ``h >= 3`` the kernel's flat rank
    buffer is interned in one pass, and smaller ``h`` stream into the
    indexed builder.
    """
    if h >= 3 and graph.num_vertices > 0:
        order, flat = _flat_cliques(graph, h)
        return InstanceSet.from_flat(h, order, flat)
    builder = InstanceSetBuilder(h)
    builder.extend(enumerate_cliques(graph, h))
    return builder.build()


def count_cliques(graph: Graph, h: int) -> int:
    """Return the number of h-cliques (|Psi_h(G)| in the paper)."""
    if h >= 3 and graph.num_vertices > 0:
        _, flat = _flat_cliques(graph, h)
        return len(flat) // h
    return sum(1 for _ in enumerate_cliques(graph, h))


def clique_degrees(graph: Graph, h: int) -> Dict[Vertex, int]:
    """Return ``deg_G(v, psi_h)`` for every vertex of the graph.

    Vertices contained in no h-clique get degree 0 (they still matter for
    density denominators and pruning).
    """
    degrees: Dict[Vertex, int] = {v: 0 for v in graph}
    if h >= 3 and graph.num_vertices > 0:
        # Count straight off the flat rank-id buffer — no tuple building.
        order, flat = _flat_cliques(graph, h)
        by_rank = [0] * len(order)
        for r in flat:
            by_rank[r] += 1
        for rv, v in enumerate(order):
            degrees[v] = by_rank[rv]
        return degrees
    for clique in enumerate_cliques(graph, h):
        for v in clique:
            degrees[v] += 1
    return degrees


def clique_density(graph: Graph, h: int):
    """Return the exact h-clique density ``|Psi_h(G)| / |V|`` as a Fraction."""
    from fractions import Fraction

    n = graph.num_vertices
    if n == 0:
        raise AlgorithmError("clique density of an empty graph is undefined")
    return Fraction(count_cliques(graph, h), n)

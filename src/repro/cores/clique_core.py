"""The one min-degree peel: (k, psi_h)-core numbers and the greedy densest suffix.

The (k, psi_h)-core of Definition 5 is the largest subgraph in which every
vertex is contained in at least ``k`` h-cliques (or, generally, pattern
instances).  Peeling finds every core number at once: repeatedly remove a
vertex of minimum remaining instance degree; the core number of a vertex
is the largest minimum degree seen up to its removal.  The same peel is
the greedy densest-subgraph heuristic (Charikar; Tsourakakis, WWW 2015,
for h-cliques): the densest suffix of the removal order is within a factor
``h`` of the densest subgraph.

:func:`peel` serves every consumer in one pass — Algorithm 1's bounds and
the Greedy baseline.  Algorithm 3's rule 2 does not peel again: it refines
the core numbers the bounds keep (see :mod:`repro.lhcds.prune`).  It works over the
:class:`~repro.instances.InstanceSet`'s interned ids and CSR incidence and
keeps the densest suffix from running instance counts, so nothing is
recounted.  Equal degrees are broken by ``repr`` rank, which makes the
removal order, and hence the suffix, a pure function of the input; core
numbers do not depend on the tie-break at all.

The queue is one lazy-deletion heap of unique ``degree * n + rank`` ints.
A removal first kills every alive instance of the removed vertex, then
pushes each vertex it touched once, at its final degree.  No pop happens
in between, so one push per degree decrement would only add entries that
are stale by the next pop: the live entries, and hence the pop order, are
the same.  On a 3.1k-vertex community graph with 23,768 triangles that
is 9,493 pushes and 12,624 pops instead of 47,536 and 50,667.  Instance
degrees are not bounded by the vertex count (a 4-clique degree in a
dense 200-vertex graph reaches C(199, 3)), so per-degree buckets would
cost memory and scan time in the largest degree; the heap keeps the peel
O(|Psi| log n).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Optional

from ..graph.graph import Vertex
from ..instances import InstanceSet


@dataclass(frozen=True)
class Peel:
    """The outcome of peeling one vertex universe."""

    #: Every universe vertex, in removal order.
    order: List[Vertex]
    #: ``core_G(u, psi_h)`` of every universe vertex (0 if in no instance).
    core: Dict[Vertex, int]
    #: Vertices removed before the densest suffix of :attr:`order` begins.
    suffix_start: int
    #: Instances fully inside the densest suffix.
    suffix_instances: int

    @property
    def densest_suffix(self) -> List[Vertex]:
        """The densest suffix of the removal order (the largest on ties)."""
        return self.order[self.suffix_start :]

    @property
    def density(self) -> Fraction:
        """Exact instance density of :attr:`densest_suffix`."""
        return Fraction(self.suffix_instances, len(self.order) - self.suffix_start)


def peel(
    instances: InstanceSet,
    vertices: Optional[Iterable[Vertex]] = None,
) -> Peel:
    """Peel ``vertices`` by minimum remaining instance degree.

    Only instances fully inside the universe count.  Vertices in no such
    instance have core number 0 and go first, in ``repr`` order.  The
    universe defaults to the vertices covered by the instances.
    """
    universe = set(vertices) if vertices is not None else instances.vertices()
    ranked = sorted(universe, key=repr)
    n = len(ranked)
    h = instances.h
    flat = instances.flat_ids
    indptr = instances.incidence_indptr
    incidence = instances.incidence_indices

    # ids[p] is the interned id of the vertex of rank p (-1 if it is in no
    # instance); rank_of inverts it.
    ids = [-1] * n
    rank_of = [-1] * instances.num_interned
    covered = 0
    for p, v in enumerate(ranked):
        vid = instances.vertex_id(v)
        if vid is not None:
            ids[p] = vid
            rank_of[vid] = p
            covered += 1

    # An instance stays alive while all of its members are in the universe
    # and none has been peeled; a vertex's degree counts its alive instances.
    degree = [0] * n
    if covered == instances.num_interned:
        alive = bytearray(b"\x01") * instances.num_instances
        for p, vid in enumerate(ids):
            if vid >= 0:
                degree[p] = indptr[vid + 1] - indptr[vid]
    else:
        alive = bytearray(instances.num_instances)
        inside = [0] * instances.num_instances
        for vid in ids:
            if vid < 0:
                continue
            for idx in incidence[indptr[vid] : indptr[vid + 1]]:
                count = inside[idx] + 1
                inside[idx] = count
                if count == h:
                    alive[idx] = 1
                    base = idx * h
                    for u in flat[base : base + h]:
                        degree[rank_of[u]] += 1
    remaining = sum(alive)

    # One integer per heap entry: degree first, then repr rank.
    heap = [d * n + p for p, d in enumerate(degree)]
    heapq.heapify(heap)
    removed = bytearray(n)
    order: List[int] = []
    core = [0] * n
    current = 0
    best_start, best_instances = 0, remaining
    while heap:
        d, p = divmod(heapq.heappop(heap), n)
        if removed[p] or d != degree[p]:
            continue
        removed[p] = 1
        if d > current:
            current = d
        core[p] = current
        order.append(p)
        # A vertex of degree 0 is in no alive instance.  Otherwise kill its
        # instances, then push each touched vertex once at its final degree
        # (the keys are unique, so the dict's first-touch order is moot).
        if d:
            touched: Dict[int, None] = {}
            vid = ids[p]
            for idx in incidence[indptr[vid] : indptr[vid + 1]]:
                if not alive[idx]:
                    continue
                alive[idx] = 0
                remaining -= 1
                base = idx * h
                for u in flat[base : base + h]:
                    q = rank_of[u]
                    if q != p:
                        degree[q] -= 1
                        touched[q] = None
            for q in touched:
                heapq.heappush(heap, degree[q] * n + q)
        # Keep the earliest suffix of strictly greater density.
        size = n - len(order)
        if size and remaining * (n - best_start) > best_instances * size:
            best_start, best_instances = len(order), remaining

    return Peel(
        order=[ranked[p] for p in order],
        core={ranked[p]: core[p] for p in order},
        suffix_start=best_start,
        suffix_instances=best_instances,
    )

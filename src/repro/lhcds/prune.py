"""Pruning of vertices that cannot belong to any LhCDS (Algorithm 3).

Proposition 5 gives two safe rules:

1. If an edge ``(u, v)`` has ``upper(v) < lower(u)``, then ``v`` cannot be in
   an LhCDS (its compact number is strictly below a neighbour's, violating
   Proposition 4).
2. After removing such vertices, if a surviving vertex's clique-core number
   in the pruned graph drops below its lower bound, it can no longer form an
   adequately compact subgraph without pruned vertices, so it is invalid too.

Every bound is an exact ``int`` or ``Fraction`` (see
:mod:`repro.lhcds.bounds`), so both rules compare with no slack.

Rule 1 makes one bound comparison per vertex, not one per edge endpoint.
Each universe vertex's lower bound is written once as an integer numerator
over one common denominator ``M`` (the lcm of the lower bounds'
denominators), and ``v`` is tested against the largest numerator among its
universe neighbours.  ``upper(v) < max_u lower(u)`` holds exactly when
``upper(v) < lower(u)`` for some ``u``, so this is the same predicate, and
the maximum is taken over ints instead of ``Fraction`` objects: rule 1
with a ``Fraction`` maximum took 2.7–2.9x as long on a 3.1k-vertex
community graph and a 3k-vertex Barabási–Albert graph.

Rule 2 keeps the largest set of rule 1's survivors in which every vertex's
core number, counted inside the set, meets its lower bound.  Core numbers
are integers, so a vertex meets it exactly when its core number reaches
the bound's ceiling, its threshold.  Core numbers only grow with the
universe, so a union of such sets is one, and re-peeling the survivors
until nothing drops reaches exactly this set.  This module reaches it
without peeling, by the local h-index refinement of core numbers
(Sariyüce, Seshadhri & Pinar, "Local Algorithms for Hierarchical Dense
Subgraph Discovery", PVLDB 2018):

* Every alive vertex ``x`` keeps an estimate ``tau(x)``, which starts at
  the core numbers Algorithm 1 computed (:attr:`CompactBounds.core`).  They
  bound from above the core numbers of any sub-universe of the same
  instances.
* A step lowers ``tau(x)`` to the h-index of ``x``'s alive instances, each
  scored by the smallest ``tau`` among its members.  Core numbers are a
  fixpoint of this step and the step is monotone, so ``tau`` never falls
  below the core numbers of the alive set.  Dropping ``x`` once ``tau(x)``
  is below its threshold therefore drops only vertices outside the
  largest set, and every drop is final.
* A vertex that starts below its threshold drops at once.  A step can
  change only where an instance died or a co-member's ``tau`` fell, so
  only those vertices are queued: the members of every instance that lost
  a member and, on each drop or decrease, the co-members of the vertex
  that moved.  Every other vertex keeps its start value, which is already
  its h-index.
* When the queue is empty, every alive ``x`` has ``tau(x)`` alive instances
  whose members all have ``tau >= tau(x)``, so ``tau`` is also at most the
  core numbers of the alive set: the two are equal, every alive vertex
  meets its threshold, and the alive set is the largest set.

The work is the part of the instance set that rule 1's kills reach,
instead of one peel of every survivor per round.  Bounds built by hand
carry no core numbers for the universe; they start from one
:func:`~repro.cores.peel` of it.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Dict, Iterable, List, Mapping, Sequence, Set

from ..cores.clique_core import peel
from ..graph.graph import Graph, Vertex
from ..instances import InstanceSet
from .bounds import CompactBounds
from .stable_groups import StableGroup


def prune_invalid_vertices(
    graph: Graph,
    instances: InstanceSet,
    bounds: CompactBounds,
    vertices: Iterable[Vertex] | None = None,
) -> Set[Vertex]:
    """Return the set of vertices that survive both pruning rules."""
    universe: Set[Vertex] = set(vertices) if vertices is not None else set(graph.vertices())

    # Rule 1: a neighbour with a strictly larger lower bound invalidates v.
    # upper(v) < lower(u) for some universe neighbour u exactly when upper(v)
    # falls below the largest of those bounds, so each vertex makes one
    # bound comparison however many neighbours it has.  The lower bounds
    # become numerators over one denominator, so the maximum compares ints.
    lowers = {u: bounds.lower_of(u) for u in universe}
    scale = math.lcm(*{value.denominator for value in lowers.values()})
    scaled = {u: value.numerator * (scale // value.denominator) for u, value in lowers.items()}
    invalid: Set[Vertex] = set()
    for v in universe:
        upper_v = bounds.upper_of(v)
        # None means unbounded, which can never fall below a lower bound.
        if upper_v is None or not graph.has_vertex(v):
            continue
        highest = max(
            (scaled[u] for u in graph.neighbors(v) if u in scaled),
            default=None,
        )
        if highest is not None and upper_v.numerator * scale < highest * upper_v.denominator:
            invalid.add(v)

    # Rule 2: refine core numbers of a superset universe down to those of
    # the survivors, dropping every vertex that falls below its threshold,
    # the ceiling of its lower bound.
    core: Mapping[Vertex, int] = bounds.core
    if not core.keys() >= universe:
        core = peel(instances, universe).core
    threshold = {u: -(-numerator // scale) for u, numerator in scaled.items()}
    return _refine(instances, universe - invalid, core, threshold)


def _refine(
    instances: InstanceSet,
    survivors: Set[Vertex],
    start: Mapping[Vertex, int],
    threshold: Dict[Vertex, int],
) -> Set[Vertex]:
    """Rule 2's fixpoint of ``survivors``, refined from ``start`` (see above)."""
    h = instances.h
    flat = instances.flat_ids
    indptr = instances.incidence_indptr
    incidence = instances.incidence_indices
    n = instances.num_interned

    # A vertex already below its threshold drops at once; one in no instance
    # has core number 0, so it survives exactly when it is not below.
    tau = [0] * n
    need = [0] * n
    alive_vertex = bytearray(n)
    dropped: List[Vertex] = []
    for v in survivors:
        if start[v] < threshold[v]:
            dropped.append(v)
            continue
        vid = instances.vertex_id(v)
        if vid is not None:
            alive_vertex[vid] = 1
            tau[vid] = start[v]
            need[vid] = threshold[v]

    # An instance is alive while all of its members are.
    alive = bytearray(b"\x01") * instances.num_instances
    queue: deque = deque()
    queued = bytearray(n)

    def kill(row: Iterable[int]) -> None:
        """Kill the alive instances in ``row`` and queue their alive members."""
        for idx in row:
            if alive[idx]:
                alive[idx] = 0
                for u in flat[idx * h : idx * h + h]:
                    if alive_vertex[u] and not queued[u]:
                        queued[u] = 1
                        queue.append(u)

    for vid in range(n):
        if not alive_vertex[vid]:
            kill(incidence[indptr[vid] : indptr[vid + 1]])

    score = tau.__getitem__
    while queue:
        x = queue.popleft()
        queued[x] = 0
        if not alive_vertex[x]:
            continue
        row = incidence[indptr[x] : indptr[x + 1]]
        # Each alive instance scores the smallest tau among its members;
        # x's own tau caps the scores, so the h-index is at most tau(x).
        scores = sorted(
            (min(map(score, flat[idx * h : idx * h + h])) for idx in row if alive[idx]),
            reverse=True,
        )
        current = tau[x]
        k = min(current, len(scores))
        while k and scores[k - 1] < k:
            k -= 1
        if k == current:
            continue
        tau[x] = k
        if k >= need[x]:
            # Only a co-member above k can have counted x's instances at a
            # level x no longer reaches.
            for idx in row:
                if alive[idx]:
                    for u in flat[idx * h : idx * h + h]:
                        if tau[u] > k and not queued[u]:
                            queued[u] = 1
                            queue.append(u)
            continue
        # x fell below its threshold: drop it and its alive instances.
        alive_vertex[x] = 0
        dropped.append(instances.vertex_at(x))
        kill(row)
    return survivors.difference(dropped)


def prune_candidates(
    graph: Graph,
    instances: InstanceSet,
    groups: Sequence[StableGroup],
    bounds: CompactBounds,
    vertices: Iterable[Vertex] | None = None,
) -> List[StableGroup]:
    """Intersect every candidate group with the surviving vertex set.

    Groups left empty after pruning are dropped.
    """
    survivors = prune_invalid_vertices(graph, instances, bounds, vertices)
    pruned: List[StableGroup] = []
    for group in groups:
        kept = [v for v in group.vertices if v in survivors]
        if kept:
            pruned.append(
                StableGroup(
                    vertices=kept,
                    r_min=group.r_min,
                    r_max=group.r_max,
                    stable=group.stable,
                )
            )
    return pruned

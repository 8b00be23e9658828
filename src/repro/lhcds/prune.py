"""Pruning of vertices that cannot belong to any LhCDS (Algorithm 3).

Proposition 5 gives two safe rules:

1. If an edge ``(u, v)`` has ``upper(v) < lower(u)``, then ``v`` cannot be in
   an LhCDS (its compact number is strictly below a neighbour's, violating
   Proposition 4).
2. After removing such vertices, if a surviving vertex's clique-core number
   in the pruned graph drops below its lower bound, it can no longer form an
   adequately compact subgraph without pruned vertices, so it is invalid too.

Floating-point bounds are compared with a conservative slack so rounding can
only make pruning *less* aggressive (exactness is never at risk).

Rule 1 makes one bound comparison per vertex, not one per edge endpoint.
Each universe vertex's threshold ``lower(u) - FLOAT_SLACK`` is computed
once, and ``v`` is tested against the largest threshold among its universe
neighbours.  ``upper(v) < max_u t(u)`` holds exactly when ``upper(v) <
t(u)`` for some ``u``, and Python compares ``Fraction`` and ``float``
values exactly, so this is the same predicate with no rounding.  The
bounds mix ``Fraction`` core bounds with DeriveSG's padded floats, and the
per-endpoint form converted a float for every edge.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Set

from ..cores.clique_core import peel
from ..graph.graph import Graph, Vertex
from ..instances import InstanceSet
from .bounds import CompactBounds
from .stable_groups import FLOAT_SLACK, StableGroup


def prune_invalid_vertices(
    graph: Graph,
    instances: InstanceSet,
    bounds: CompactBounds,
    vertices: Iterable[Vertex] | None = None,
) -> Set[Vertex]:
    """Return the set of vertices that survive both pruning rules."""
    universe: Set[Vertex] = set(vertices) if vertices is not None else set(graph.vertices())

    # Rule 1: a neighbour with a strictly larger lower bound invalidates v.
    # upper(v) < lower(u) - slack for some universe neighbour u exactly when
    # upper(v) falls below the largest of those thresholds, so each vertex
    # makes one bound comparison however many neighbours it has.
    threshold = {u: bounds.lower_of(u) - FLOAT_SLACK for u in universe}
    invalid: Set[Vertex] = set()
    for v in universe:
        upper_v = bounds.upper_of(v)
        # None means unbounded, which can never fall below a threshold.
        if upper_v is None or not graph.has_vertex(v):
            continue
        highest = max(
            (threshold[u] for u in graph.neighbors(v) if u in threshold),
            default=None,
        )
        if highest is not None and upper_v < highest:
            invalid.add(v)

    survivors = universe - invalid

    # Rule 2: iterate clique-core recomputation until a fixpoint.
    while True:
        core = peel(instances, survivors).core
        newly_invalid = {v for v in survivors if core.get(v, 0) < threshold[v]}
        if not newly_invalid:
            break
        survivors -= newly_invalid
    return survivors


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

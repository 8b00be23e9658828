"""Clique-count utilities beyond plain enumeration.

These helpers back Table 2 (per-dataset |Psi_3|, |Psi_5| statistics),
subset clique counts, and a cross-check used by the test suite (triangle
counting by a second method).
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from ..graph.graph import Graph, Vertex
from ..instances import InstanceSet
from .kclist import count_cliques


def triangle_count(graph: Graph) -> int:
    """Count triangles by neighbourhood intersection (independent of kClist).

    Used as a cross-check of the generic enumerator in the test suite.
    """
    total = 0
    index = {v: i for i, v in enumerate(graph.vertices())}
    for u, v in graph.edges():
        if index[u] > index[v]:
            u, v = v, u
        common = graph.neighbors(u) & graph.neighbors(v)
        for w in common:
            if index[w] > index[v]:
                total += 1
    return total


def clique_count_profile(graph: Graph, max_h: int) -> Dict[int, int]:
    """Return ``{h: |Psi_h(G)|}`` for ``h`` from 1 to ``max_h``."""
    return {h: count_cliques(graph, h) for h in range(1, max_h + 1)}


def subgraph_clique_count(
    graph: Graph,
    h: int,
    vertices: Iterable[Vertex],
    instances: Optional[InstanceSet] = None,
) -> int:
    """Count h-cliques fully inside ``vertices``.

    When ``instances`` (cliques of the *whole* graph) is supplied, the count
    is a filter over it; otherwise cliques are enumerated on the induced
    subgraph directly.
    """
    if instances is not None:
        return instances.count_within(vertices)
    return count_cliques(graph.induced_subgraph(vertices), h)

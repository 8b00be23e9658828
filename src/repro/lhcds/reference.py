"""Brute-force reference implementations (test oracles only).

Everything here enumerates subsets exhaustively, so it is exponential in the
graph size and meant exclusively for cross-checking the fast algorithms on
tiny graphs (roughly |V| <= 12).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, combinations
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..errors import AlgorithmError
from ..graph.components import is_connected
from ..graph.graph import Graph, Vertex
from ..instances import InstanceSet

_MAX_BRUTE_FORCE_VERTICES = 16


def _check_size(graph: Graph) -> None:
    if graph.num_vertices > _MAX_BRUTE_FORCE_VERTICES:
        raise AlgorithmError(
            "brute-force reference limited to "
            f"{_MAX_BRUTE_FORCE_VERTICES} vertices, got {graph.num_vertices}"
        )


def _nonempty_subsets(items: List[Vertex]) -> Iterable[Tuple[Vertex, ...]]:
    return chain.from_iterable(combinations(items, r) for r in range(1, len(items) + 1))


def compactness_of(graph: Graph, instances: InstanceSet, subset: Set[Vertex]) -> Fraction:
    """Exact compactness of ``G[subset]`` (0 for disconnected subgraphs).

    The compactness of a connected graph is ``min over non-empty removals S'``
    of ``(#instances destroyed) / |S'|`` where instances are counted inside
    ``G[subset]``.
    """
    sub = graph.induced_subgraph(subset)
    if not is_connected(sub):
        return Fraction(0)
    inner = instances.restrict(subset)
    total = inner.num_instances
    members = sorted(subset, key=repr)
    best = None
    for removal in _nonempty_subsets(members):
        remaining = subset - set(removal)
        destroyed = total - inner.count_within(remaining)
        ratio = Fraction(destroyed, len(removal))
        if best is None or ratio < best:
            best = ratio
    return best if best is not None else Fraction(0)


def brute_force_compact_numbers(
    graph: Graph, instances: InstanceSet
) -> Dict[Vertex, Fraction]:
    """Exact compact numbers by enumerating every connected subset."""
    _check_size(graph)
    vertices = graph.vertices()
    phi: Dict[Vertex, Fraction] = {v: Fraction(0) for v in vertices}
    for subset in _nonempty_subsets(vertices):
        value = compactness_of(graph, instances, set(subset))
        for v in subset:
            if value > phi[v]:
                phi[v] = value
    return phi


def brute_force_lhcds(
    graph: Graph, instances: InstanceSet, k: Optional[int] = None
) -> List[Tuple[Set[Vertex], Fraction]]:
    """Enumerate every LhCDS by checking Definition 2 literally."""
    _check_size(graph)
    vertices = graph.vertices()
    candidates: List[Tuple[Set[Vertex], Fraction]] = []
    subsets = [set(s) for s in _nonempty_subsets(vertices)]
    densities = {frozenset(s): instances.density_of(s) for s in subsets}
    compact_cache: Dict[frozenset, Fraction] = {}

    def compactness(s: Set[Vertex]) -> Fraction:
        key = frozenset(s)
        if key not in compact_cache:
            compact_cache[key] = compactness_of(graph, instances, s)
        return compact_cache[key]

    for subset in subsets:
        density = densities[frozenset(subset)]
        if density == 0:
            continue
        if compactness(subset) < density:
            continue
        # Maximality: no strict superset is density-compact at this level.
        maximal = True
        others = [v for v in vertices if v not in subset]
        for extra in _nonempty_subsets(others):
            superset = subset | set(extra)
            if compactness(superset) >= density:
                maximal = False
                break
        if maximal:
            candidates.append((subset, density))
    candidates.sort(key=lambda item: (-item[1], -len(item[0])))
    if k is not None:
        return candidates[:k]
    return candidates

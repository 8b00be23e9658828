"""Importable test helpers (not fixtures).

Test modules previously did ``from conftest import random_graph``, which
resolves whichever ``conftest.py`` pytest put on ``sys.path`` first — on this
repo that was ``benchmarks/conftest.py``, breaking collection of every module
using the helper.  Plain helpers therefore live here, in a module name that
exists only under ``tests/``; ``tests/conftest.py`` re-exports the fixtures.
"""

from __future__ import annotations

import heapq
from collections import Counter
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.cliques.kclist import enumerate_cliques
from repro.datasets.synthetic import gnp_graph
from repro.flow.network import solve_compact_network
from repro.graph import Graph, GraphDelta, complete_graph, cycle_graph, union_graph
from repro.graph.components import bfs_order
from repro.graph.graph import Vertex
from repro.instances import InstanceSet, InstanceSetBuilder
from repro.cores.clique_core import peel
from repro.lhcds.bounds import CompactBounds
from repro.lhcds.decomposition import TentativeDecomposition
from repro.lhcds.exact import exact_compact_numbers
from repro.lhcds.ippv import vertex_set_sort_key
from repro.lhcds.seq_kclist import WeightState
from repro.lhcds.stable_groups import StableGroup


def random_graph(n: int, p: float, seed: int) -> Graph:
    """Deterministic G(n, p) helper used by several test modules."""
    return gnp_graph(n, p, seed=seed)


def shifted(graph: Graph, offset: int) -> Graph:
    """The graph with every vertex id shifted (for disjoint unions)."""
    return Graph(
        vertices=[v + offset for v in graph.vertices()],
        edges=[(u + offset, v + offset) for u, v in graph.edges()],
    )


def multi_component_graph() -> Graph:
    """Disjoint K6, K5, K4 plus a triangle-bearing cycle and an instance-free path."""
    parts = [complete_graph(6), shifted(complete_graph(5), 100), shifted(complete_graph(4), 200)]
    sparse = cycle_graph(6)
    sparse.add_edge(0, 2)
    parts.append(shifted(sparse, 300))
    parts.append(Graph(edges=[(400, 401), (401, 402)]))
    return union_graph(*parts)


def signature(report):
    """The bit-comparable output: ordered (vertex set, exact density) pairs."""
    return [(frozenset(s.vertices), s.density) for s in report.subgraphs]


def small_random_graphs():
    """A deterministic family of small random graphs for cross-checks."""
    graphs = []
    for seed in range(8):
        n = 5 + seed % 4
        p = 0.35 + 0.1 * (seed % 3)
        graphs.append(random_graph(n, p, seed))
    return graphs


def reference_induced_subgraph(graph: Graph, vertices: Iterable[Vertex]) -> Graph:
    """The old ``Graph.induced_subgraph``: one ``add_edge`` per kept edge.

    Oracle for the set-intersection build and for the subset mode of
    ``connected_components``, which must split exactly this subgraph.
    """
    keep = {v for v in vertices if v in graph}
    sub = Graph()
    for v in graph:
        if v in keep:
            sub.add_vertex(v)
    for v in sub:
        for u in graph.neighbors(v):
            if u in keep:
                sub.add_edge(u, v)
    return sub


def reference_connected_components(
    graph: Graph, vertices: Optional[Iterable[Vertex]] = None
) -> List[Set[Vertex]]:
    """The old split: copy ``G[vertices]``, then one BFS per unseen vertex.

    Oracle for both modes of ``connected_components``: the components of
    the (sub)graph, ordered by their first vertex in insertion order.
    """
    g = graph if vertices is None else reference_induced_subgraph(graph, vertices)
    seen: Set[Vertex] = set()
    components: List[Set[Vertex]] = []
    for v in g:
        if v not in seen:
            comp = set(bfs_order(g, v))
            seen |= comp
            components.append(comp)
    return components


def reference_clique_instances(graph: Graph, h: int) -> InstanceSet:
    """The old ``clique_instances``: each clique as a tuple through the builder."""
    builder = InstanceSetBuilder(h)
    builder.extend(enumerate_cliques(graph, h))
    return builder.build()


def reference_delta_stats(
    before: Graph, after: Graph, delta: GraphDelta, h: int
) -> Dict[str, int]:
    """Every count of an h-clique session's ``DeltaStats``, from scratch.

    Oracle for the incremental session's bookkeeping, computed the old way:
    whole-graph splits and fresh enumerations of the graph before and after
    ``delta``.  A pre-delta component is invalidated when it holds an
    instance and meets the frontier.  A post-delta component is
    re-enumerated when it meets the frontier or an invalidated component.
    The instance counts are each enumeration's frontier-incident instances.
    """
    touched = delta.touched_vertices
    old_rows = reference_clique_instances(before, h).instances
    new_rows = reference_clique_instances(after, h).instances
    covered = {v for row in old_rows for v in row}
    invalidated = [
        comp
        for comp in reference_connected_components(before)
        if comp & touched and comp & covered
    ]
    region = set(touched).union(*invalidated)
    components = reference_connected_components(after)
    reenumerated = sum(1 for comp in components if comp & region)
    return {
        "vertices_added": len(delta.add_vertices),
        "vertices_removed": len(delta.remove_vertices),
        "edges_added": len(delta.add_edges),
        "edges_removed": len(delta.remove_edges),
        "touched_vertices": len(touched),
        "components_invalidated": len(invalidated),
        "components_reenumerated": reenumerated,
        "components_reused": len(components) - reenumerated,
        "instances_dropped": sum(1 for row in old_rows if touched.intersection(row)),
        "instances_reenumerated": sum(1 for row in new_rows if touched.intersection(row)),
    }


def reference_tentative_decomposition(
    state: WeightState,
    vertices: Sequence[Vertex],
) -> TentativeDecomposition:
    """The TentativeGD oracle for ``tentative_decomposition``.

    Builds one ``Fraction`` per prefix and walks the instances as vertex
    tuples, with one set of subset indices per instance.  Like the real
    stage, it redistributes ``state.alpha`` in place, splitting a moved
    weight evenly and exactly, and recomputes ``state.r``.
    """
    order = sorted(vertices, key=lambda v: (-state.received(v), repr(v)))
    instances = state.instances
    n = len(order)
    position = {v: i for i, v in enumerate(order)}
    ends_at = [0] * (n + 1)
    for inst in instances.instances:
        if all(v in position for v in inst):
            ends_at[max(position[v] for v in inst) + 1] += 1
    densities = [Fraction(0)]
    inside = 0
    for q in range(1, n + 1):
        inside += ends_at[q]
        densities.append(Fraction(inside, q))

    # A position p is a breakpoint when no longer prefix is denser.
    suffix_max = Fraction(-1)
    is_breakpoint = [False] * (n + 1)
    for p in range(n, 0, -1):
        if densities[p] >= suffix_max:
            is_breakpoint[p] = True
        suffix_max = max(suffix_max, densities[p])
    subsets: List[List[Vertex]] = []
    prefix_densities: List[Fraction] = []
    start = 0
    for p in range(1, n + 1):
        if is_breakpoint[p]:
            subsets.append(order[start:p])
            prefix_densities.append(densities[p])
            start = p

    block_of = {v: b for b, block in enumerate(subsets) for v in block}
    alpha = state.alpha
    h = instances.h
    for i, inst in enumerate(instances.instances):
        if not all(v in block_of for v in inst):
            continue
        blocks = {block_of[v] for v in inst}
        if len(blocks) <= 1:
            continue
        lowest = max(blocks)
        base = i * h
        moved = 0
        receivers = []
        for j, v in enumerate(inst):
            if block_of[v] != lowest:
                moved += alpha[base + j]
                alpha[base + j] = 0
            else:
                receivers.append(j)
        if receivers and moved:
            share = Fraction(moved, len(receivers))
            assert share.denominator == 1, "a moved weight must split evenly"
            for j in receivers:
                alpha[base + j] += share.numerator

    state.recompute_r(list(vertices))
    return TentativeDecomposition(
        subsets=subsets, order=order, prefix_densities=prefix_densities
    )


def reference_prune_invalid_vertices(
    graph: Graph,
    instances: InstanceSet,
    bounds: CompactBounds,
    vertices: Iterable[Vertex],
    rounds: Optional[List[Set[Vertex]]] = None,
) -> Set[Vertex]:
    """The pruning oracle for ``prune_invalid_vertices``.

    Rule 1 compares bounds once per edge endpoint: ``v`` is invalid when
    ``upper(v) < lower(u)`` for a universe neighbour ``u`` (``None``
    uppers never are).  Rule 2 then peels the survivors afresh until no
    core number falls below its lower bound, ignoring the core numbers the
    bounds keep.  ``rounds``, when given, receives the set
    each of rule 2's peels removes.
    """
    universe = set(vertices)
    invalid: Set[Vertex] = set()
    for u in universe:
        if not graph.has_vertex(u):
            continue
        lower_u = bounds.lower_of(u)
        for v in graph.neighbors(u):
            if v not in universe:
                continue
            upper_v = bounds.upper_of(v)
            if upper_v is not None and upper_v < lower_u:
                invalid.add(v)
    survivors = universe - invalid
    while True:
        core = peel(instances, survivors).core
        newly_invalid = {
            v for v in survivors if core.get(v, 0) < bounds.lower_of(v)
        }
        if not newly_invalid:
            return survivors
        if rounds is not None:
            rounds.append(newly_invalid)
        survivors -= newly_invalid


def _reference_verdict(
    group: List[Vertex],
    universe: Sequence[Vertex],
    state: WeightState,
) -> str:
    """Check Definition 6 for ``group`` by rescanning the whole universe.

    Returns ``"stable"``, or the first failed check: ``"condition 1"`` or
    ``"conditions 2/3"``.
    """
    members = set(group)
    r = state.received
    r_min = min(r(v) for v in group)
    r_max = max(r(v) for v in group)

    above: set = set()
    below: set = set()
    for v in universe:
        if v in members:
            continue
        rv = r(v)
        if rv > r_max:
            above.add(v)
        elif rv < r_min:
            below.add(v)
        else:
            # r(v) falls inside the group's range.
            return "condition 1"

    # Conditions 2 and 3 only involve instances incident to the group.
    instances = state.instances
    alpha = state.alpha
    h = instances.h
    flat = instances.flat_ids
    indptr = instances.incidence_indptr
    incidence = instances.incidence_indices
    above_ids = {vid for v in above if (vid := instances.vertex_id(v)) is not None}
    below_ids = {vid for v in below if (vid := instances.vertex_id(v)) is not None}
    member_ids = {vid for v in members if (vid := instances.vertex_id(v)) is not None}
    checked: set = set()
    for u in group:
        uid = instances.vertex_id(u)
        if uid is None:
            continue
        for pos in range(indptr[uid], indptr[uid + 1]):
            idx = incidence[pos]
            if idx in checked:
                continue
            checked.add(idx)
            base = idx * h
            ids = flat[base : base + h]
            for j, vid in enumerate(ids):
                if vid in above_ids and alpha[base + j] > 0:
                    return "conditions 2/3"
            if any(vid in below_ids for vid in ids):
                for j, vid in enumerate(ids):
                    if vid in member_ids and alpha[base + j] > 0:
                        return "conditions 2/3"
    return "stable"


def reference_stable_groups(
    decomposition: TentativeDecomposition,
    state: WeightState,
    bounds: CompactBounds,
    verdicts: Optional[Counter] = None,
) -> Tuple[List[StableGroup], CompactBounds]:
    """The Definition-6 oracle for ``derive_stable_groups``.

    Accumulates the tentative subsets and rescans the whole universe for
    every accumulated group, then tightens the bounds of the stable groups
    as Theorem 4 allows, one exact ``Fraction`` comparison per member.  When ``verdicts`` is given, it counts the outcome
    of every check (plus ``"unstable tail"`` for a trailing group), so a
    test can show that its cases reach every branch.
    """
    universe = list(decomposition.order)
    groups: List[StableGroup] = []
    current: List[Vertex] = []

    def group_of(vertices: List[Vertex], stable: bool) -> StableGroup:
        r_values = [Fraction(state.received(v), state.denominator) for v in vertices]
        return StableGroup(
            vertices=list(vertices), r_min=min(r_values), r_max=max(r_values), stable=stable
        )

    for subset in decomposition.subsets:
        current.extend(subset)
        verdict = _reference_verdict(current, universe, state)
        if verdicts is not None:
            verdicts[verdict] += 1
        if verdict == "stable":
            groups.append(group_of(current, True))
            current = []
    if current:
        if verdicts is not None:
            verdicts["unstable tail"] += 1
        groups.append(group_of(current, False))

    for group in groups:
        if not group.stable:
            continue
        for v in group.vertices:
            upper = bounds.upper_of(v)
            if upper is None or group.r_max < upper:
                bounds.upper[v] = group.r_max
            if group.r_min > bounds.lower_of(v):
                bounds.lower[v] = group.r_min
    return groups, bounds


def seeded_densest_subset(
    instances: InstanceSet,
    vertices: Iterable[Vertex],
    seed: Iterable[Vertex],
) -> Tuple[Set[Vertex], Fraction]:
    """Constrained Dinkelbach search: the seed-containing set of maximal marginal density.

    Maximises ``(|Psi(S)| - |Psi(seed)|) / (|S| - |seed|)`` over
    ``seed < S <= vertices`` (the seed a strict subset of ``vertices``,
    which must contain every instance), forcing the seed into every flow
    network, and returns the largest maximiser with that marginal density.
    """
    universe = set(vertices)
    seed = set(seed)
    seed_count = instances.count_within(seed) if seed else 0

    def marginal_density(subset: Set[Vertex]) -> Fraction:
        return Fraction(instances.count_within(subset) - seed_count, len(subset) - len(seed))

    best_set = set(universe)
    rho = marginal_density(best_set)
    while True:
        candidate = solve_compact_network(instances, rho, vertices=universe, forced=seed)
        if len(candidate) <= len(seed):
            return best_set, rho
        cand_density = marginal_density(candidate)
        if cand_density > rho:
            rho = cand_density
            best_set = candidate
            continue
        if cand_density == rho:
            best_set = candidate
        return best_set, rho


def reference_decomposition(
    instances: InstanceSet,
    vertices: Optional[Iterable[Vertex]] = None,
) -> List[Tuple[Set[Vertex], Fraction]]:
    """The decomposition oracle for ``diminishingly_dense_decomposition``.

    Peels one layer per constrained Dinkelbach search on the whole
    universe: each layer is the set of maximal marginal density beyond the
    layers found so far, which are forced into every network.  Layers come
    in decreasing density; instance-free vertices form a last layer of
    density 0.
    """
    universe: Set[Vertex] = set(vertices) if vertices is not None else instances.vertices()
    if not universe:
        return []
    layers: List[Tuple[Set[Vertex], Fraction]] = []
    shell: Set[Vertex] = set()
    working = instances.restrict(universe)
    while shell != universe:
        subset, density = seeded_densest_subset(working, universe, shell)
        new_vertices = subset - shell
        if not new_vertices or density <= 0:
            # Remaining vertices participate in no further instances.
            layers.append((universe - shell, Fraction(0)))
            break
        layers.append((new_vertices, density))
        shell = set(subset)
    return layers


def reference_lhcds(graph: Graph, instances: InstanceSet) -> List[Tuple[Set[Vertex], Fraction]]:
    """Every LhCDS, read off the whole decomposition: the oracle for ``exact_top_k_lhcds``.

    Groups every vertex by its compact number, splits each positive level
    set into components and keeps those with no neighbour of a larger
    compact number, sorted as the report sorts: decreasing density, then
    decreasing size, then the ``repr`` of the sorted vertices.
    """
    phi = exact_compact_numbers(instances, graph.vertices())
    levels: Dict[Fraction, List[Vertex]] = {}
    for v, value in phi.items():
        if value > 0:
            levels.setdefault(value, []).append(v)
    results: List[Tuple[Set[Vertex], Fraction]] = []
    for rho in sorted(levels, reverse=True):
        for component in reference_connected_components(graph, levels[rho]):
            if all(phi[u] <= rho for v in component for u in graph.neighbors(v)):
                results.append((component, rho))
    results.sort(key=lambda item: (-item[1], *vertex_set_sort_key(item[0])))
    return results


def reference_peel(
    instances: InstanceSet,
    vertices: Optional[Iterable[Vertex]] = None,
) -> Tuple[List[Vertex], Dict[Vertex, int], Set[Vertex], Fraction]:
    """The peel oracle for :func:`repro.cores.clique_core.peel`.

    A heap peel over hashable vertices and dict degrees, keyed by
    (remaining degree, ``repr``), then a quadratic scan that recounts every
    suffix of the removal order.  Returns the order, the core numbers, the
    densest suffix (the largest on ties) and its density; an empty
    universe has density 0.
    """
    universe: Set[Vertex] = set(vertices) if vertices is not None else instances.vertices()
    degrees = {v: 0 for v in universe}
    alive_instance = [False] * instances.num_instances
    for idx in instances.indices_within(universe):
        alive_instance[idx] = True
        for v in instances.instances[idx]:
            degrees[v] += 1

    heap: List[Tuple[int, str, Vertex]] = [(d, repr(v), v) for v, d in degrees.items()]
    heapq.heapify(heap)
    removed: Set[Vertex] = set()
    order: List[Vertex] = []
    core: Dict[Vertex, int] = {}
    current = 0
    while heap:
        d, _, v = heapq.heappop(heap)
        if v in removed or d != degrees[v]:
            continue
        removed.add(v)
        order.append(v)
        current = max(current, d)
        core[v] = current
        for idx in instances.instances_containing(v):
            if not alive_instance[idx]:
                continue
            alive_instance[idx] = False
            for u in instances.instances[idx]:
                if u != v and u not in removed and u in degrees:
                    degrees[u] -= 1
                    heapq.heappush(heap, (degrees[u], repr(u), u))

    if not universe:
        return order, core, set(), Fraction(0)
    best_set: Set[Vertex] = set(universe)
    best_density = instances.density_of(universe)
    remaining = set(universe)
    for v in order[:-1]:
        remaining = remaining - {v}
        density = instances.density_of(remaining)
        if density > best_density:
            best_density = density
            best_set = set(remaining)
    return order, core, best_set, best_density

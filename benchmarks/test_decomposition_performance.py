"""Scaling benchmark: DeriveSG must stay linear in the graph size.

``derive_stable_groups`` checks Definition 6 for every tentative subset.
Rescanning the whole universe for each check made it quadratic, which only
showed at thousands of vertices.  This benchmark builds the Frank--Wolfe
state (SEQ-kClist++ then TentativeGD, as IPPV's first proposal does) on two
community graphs, one twice the size of the other, and times DeriveSG on a
fresh copy of the bounds, alternating small and large in the shared rounds.
It asserts that the median of the per-round large/small ratios stays under
3x, so a host slow phase slows both graphs of a round alike.  The larger
graph's best time is recorded as ``lhcds.derive_stable_groups_s``.
"""

from __future__ import annotations

from repro.cliques.kclist import clique_instances
from repro.datasets.synthetic import hybrid_community_graph
from repro.lhcds import (
    derive_stable_groups,
    initialize_bounds,
    seq_kclist_plus_plus,
    tentative_decomposition,
)

H = 3
FW_ITERATIONS = 20
#: Linear growth doubles the time per doubling of the graph; the quadratic
#: universe rescan made it 3.8x.
MAX_DOUBLING_RATIO = 3.0


def _proposal_inputs(n_communities: int):
    """(vertex count, decomposition, state, bounds) of IPPV's first proposal."""
    graph = hybrid_community_graph(n_communities, 14, seed=0)
    vertices = graph.vertices()
    instances = clique_instances(graph, H)
    bounds, _ = initialize_bounds(instances, vertices)
    state = seq_kclist_plus_plus(instances, FW_ITERATIONS, vertices)
    decomposition = tentative_decomposition(state, vertices)
    return graph.num_vertices, decomposition, state, bounds


def test_derive_stable_groups_scales_linearly(bench_metrics, alternating_rounds, median_ratio):
    (small_n, *small), (large_n, *large) = (_proposal_inputs(n) for n in (80, 160))

    def derive(decomposition, state, bounds):
        # DeriveSG tightens the bounds in place, so every run gets a copy.
        return lambda: derive_stable_groups(decomposition, state, bounds.copy())

    small_times, large_times = alternating_rounds([derive(*small), derive(*large)])
    ratio = median_ratio(small_times, large_times)
    small_s, large_s = min(small_times), min(large_times)
    bench_metrics["lhcds.derive_stable_groups_s"] = large_s
    print()
    print(
        f"DeriveSG {small_n} V: {small_s * 1000:.2f}ms, "
        f"{large_n} V: {large_s * 1000:.2f}ms (median ratio {ratio:.2f}x)"
    )
    assert ratio < MAX_DOUBLING_RATIO, (
        f"DeriveSG grew {ratio:.2f}x from {small_n} to {large_n} vertices"
    )

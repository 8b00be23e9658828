"""Scaling benchmark: DeriveSG must stay linear in the graph size.

``derive_stable_groups`` checks Definition 6 for every tentative subset.
Rescanning the whole universe for each check made it quadratic, which only
showed at thousands of vertices.  This benchmark builds the Frank--Wolfe
state (SEQ-kClist++ then TentativeGD, as IPPV's first proposal does) on two
community graphs, one twice the size of the other, times DeriveSG alone
(minimum of five runs each) and asserts that doubling the graph less than
triples the time.  The larger graph's timing is recorded as
``lhcds.derive_stable_groups_s``.
"""

from __future__ import annotations

import time

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
ROUNDS = 5
#: Linear growth doubles the time per doubling of the graph; the quadratic
#: universe rescan made it 3.8x.
MAX_DOUBLING_RATIO = 3.0


def _proposal_inputs(n_communities: int):
    """(decomposition, state, bounds) of IPPV's first proposal on the graph."""
    graph = hybrid_community_graph(n_communities, 14, seed=0)
    vertices = graph.vertices()
    instances = clique_instances(graph, H)
    bounds, _ = initialize_bounds(instances, vertices)
    state = seq_kclist_plus_plus(instances, FW_ITERATIONS, vertices)
    decomposition = tentative_decomposition(state, vertices)
    return graph, decomposition, state, bounds


def _derive_sg_seconds(decomposition, state, bounds) -> float:
    best = float("inf")
    for _ in range(ROUNDS):
        # DeriveSG tightens the bounds in place, so every run gets a copy.
        fresh = bounds.copy()
        start = time.perf_counter()
        derive_stable_groups(decomposition, state, fresh)
        best = min(best, time.perf_counter() - start)
    return best


def test_derive_stable_groups_scales_linearly(bench_metrics):
    timings = {}
    for n_communities in (80, 160):
        graph, decomposition, state, bounds = _proposal_inputs(n_communities)
        timings[graph.num_vertices] = _derive_sg_seconds(decomposition, state, bounds)

    (small_n, small_s), (large_n, large_s) = sorted(timings.items())
    ratio = large_s / small_s
    bench_metrics["lhcds.derive_stable_groups_s"] = large_s
    print()
    print(
        f"DeriveSG {small_n} V: {small_s * 1000:.2f}ms, "
        f"{large_n} V: {large_s * 1000:.2f}ms ({ratio:.2f}x)"
    )
    assert ratio < MAX_DOUBLING_RATIO, (
        f"DeriveSG grew {ratio:.2f}x from {small_n} to {large_n} vertices"
    )

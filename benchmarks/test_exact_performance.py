"""Scaling benchmark: the exact decomposition must not grow like layers x graph.

``diminishingly_dense_decomposition`` finds its layers with a breakpoint
search of 2L - 1 minimum cuts, each on the network of the gap between two
known layer boundaries.  The per-layer Dinkelbach search it replaced ran
several cuts per layer on the whole component, so its time grew with the
layer count times the graph: about 7x per doubling of a community graph.  This
benchmark decomposes two community graphs, one twice the size of the other
(and with about twice the layers), times the decomposition alone (minimum
of three runs each) and asserts that doubling the graph less than
quadruples the time.  The larger graph's timing is recorded as
``lhcds.decomposition_s``.
"""

from __future__ import annotations

import time

from repro.cliques.kclist import clique_instances
from repro.datasets.synthetic import hybrid_community_graph
from repro.densest import diminishingly_dense_decomposition

H = 3
ROUNDS = 3
#: The per-layer Dinkelbach search grew about 7x per doubling here.
MAX_DOUBLING_RATIO = 4.0


def _decomposition_seconds(n_communities: int):
    """(vertices, positive-density layers, best time) of the decomposition."""
    graph = hybrid_community_graph(n_communities, 14, seed=0)
    vertices = graph.vertices()
    instances = clique_instances(graph, H)
    best = float("inf")
    for _ in range(ROUNDS):
        start = time.perf_counter()
        layers = list(diminishingly_dense_decomposition(instances, vertices))
        best = min(best, time.perf_counter() - start)
    return graph.num_vertices, sum(1 for _, density in layers if density > 0), best


def test_decomposition_scales_with_the_graph(bench_metrics):
    small_n, small_layers, small_s = _decomposition_seconds(40)
    large_n, large_layers, large_s = _decomposition_seconds(80)
    ratio = large_s / small_s
    bench_metrics["lhcds.decomposition_s"] = large_s
    print()
    print(
        f"decomposition {small_n} V / {small_layers} layers: {small_s:.3f}s, "
        f"{large_n} V / {large_layers} layers: {large_s:.3f}s ({ratio:.2f}x)"
    )
    assert ratio < MAX_DOUBLING_RATIO, (
        f"the decomposition grew {ratio:.2f}x from {small_n} to {large_n} vertices"
    )

"""Scaling benchmark: the greedy peel must stay near-linear in the graph size.

``greedy_densest_subset`` peels by minimum instance degree and keeps the
densest suffix of the removal order.  Recounting the density of every
suffix made it quadratic: one call grew 4.6x per doubling of a community
graph.  This benchmark times it (minimum of five runs each) on two
community graphs, one twice the size of the other, and asserts that
doubling the graph less than triples the time.  The larger graph's
timings are recorded as ``densest.greedy_peel_s`` and, for the bare
peel, ``cores.peel_s``.
"""

from __future__ import annotations

import time

from repro.cliques.kclist import clique_instances
from repro.cores import peel
from repro.datasets.synthetic import hybrid_community_graph
from repro.densest import greedy_densest_subset

H = 3
ROUNDS = 5
#: A heap peel grows by about 2x per doubling; the suffix recount made it 4.6x.
MAX_DOUBLING_RATIO = 3.0


def _best_of(fn) -> float:
    best = float("inf")
    for _ in range(ROUNDS):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_greedy_peel_scales_near_linearly(bench_metrics):
    timings = {}
    for n_communities in (80, 160):
        graph = hybrid_community_graph(n_communities, 14, seed=0)
        vertices = graph.vertices()
        instances = clique_instances(graph, H)
        greedy_s = _best_of(lambda: greedy_densest_subset(instances, vertices))
        peel_s = _best_of(lambda: peel(instances, vertices))
        timings[graph.num_vertices] = (greedy_s, peel_s)

    (small_n, (small_s, _)), (large_n, (large_s, large_peel_s)) = sorted(timings.items())
    ratio = large_s / small_s
    bench_metrics["densest.greedy_peel_s"] = large_s
    bench_metrics["cores.peel_s"] = large_peel_s
    print()
    print(
        f"greedy peel {small_n} V: {small_s * 1000:.2f}ms, "
        f"{large_n} V: {large_s * 1000:.2f}ms ({ratio:.2f}x); "
        f"bare peel {large_n} V: {large_peel_s * 1000:.2f}ms"
    )
    assert ratio < MAX_DOUBLING_RATIO, (
        f"greedy peel grew {ratio:.2f}x from {small_n} to {large_n} vertices"
    )

"""Scaling benchmarks: the greedy peel and the degeneracy order stay near-linear.

``greedy_densest_subset`` peels by minimum instance degree and keeps the
densest suffix of the removal order.  Recounting the density of every
suffix made it quadratic: one call grew 4.6x per doubling of a community
graph.  ``degeneracy_ordering`` orders the adjacency for kClist with
per-degree FIFO buckets; a scan for the minimum over every remaining
vertex would make it quadratic.

Each check times its layer on two community graphs, one twice the size of
the other, alternating small and large in the shared rounds, and asserts
that the median of the per-round large/small ratios stays under 3x: a
host slow phase then slows both graphs of a round alike.  The larger
graph's best times are recorded as ``densest.greedy_peel_s``,
``cores.peel_s`` (the bare peel) and ``graph.degeneracy_ordering_s``.
"""

from __future__ import annotations

from repro.cliques.kclist import clique_instances
from repro.cores import peel
from repro.datasets.synthetic import hybrid_community_graph
from repro.densest import greedy_densest_subset
from repro.graph.ordering import degeneracy_ordering

H = 3
#: A heap peel grows by about 2x per doubling; the suffix recount made it 4.6x.
MAX_DOUBLING_RATIO = 3.0


def _graphs():
    return [hybrid_community_graph(n_communities, 14, seed=0) for n_communities in (80, 160)]


def test_greedy_peel_scales_near_linearly(bench_metrics, alternating_rounds, median_ratio):
    small, large = [(g.num_vertices, g.vertices(), clique_instances(g, H)) for g in _graphs()]
    small_n, small_vertices, small_instances = small
    large_n, large_vertices, large_instances = large
    small_times, large_times, peel_times = alternating_rounds([
        lambda: greedy_densest_subset(small_instances, small_vertices),
        lambda: greedy_densest_subset(large_instances, large_vertices),
        lambda: peel(large_instances, large_vertices),
    ])
    ratio = median_ratio(small_times, large_times)
    small_s, large_s, large_peel_s = min(small_times), min(large_times), min(peel_times)
    bench_metrics["densest.greedy_peel_s"] = large_s
    bench_metrics["cores.peel_s"] = large_peel_s
    print()
    print(
        f"greedy peel {small_n} V: {small_s * 1000:.2f}ms, "
        f"{large_n} V: {large_s * 1000:.2f}ms (median ratio {ratio:.2f}x); "
        f"bare peel {large_n} V: {large_peel_s * 1000:.2f}ms"
    )
    assert ratio < MAX_DOUBLING_RATIO, (
        f"greedy peel grew {ratio:.2f}x from {small_n} to {large_n} vertices"
    )


def test_degeneracy_ordering_scales_linearly(bench_metrics, alternating_rounds, median_ratio):
    small, large = _graphs()
    small_times, large_times = alternating_rounds([
        lambda: degeneracy_ordering(small),
        lambda: degeneracy_ordering(large),
    ])
    ratio = median_ratio(small_times, large_times)
    small_s, large_s = min(small_times), min(large_times)
    bench_metrics["graph.degeneracy_ordering_s"] = large_s
    print()
    print(
        f"degeneracy ordering {small.num_vertices} V: {small_s * 1000:.2f}ms, "
        f"{large.num_vertices} V: {large_s * 1000:.2f}ms (median ratio {ratio:.2f}x)"
    )
    assert ratio < MAX_DOUBLING_RATIO, (
        f"degeneracy ordering grew {ratio:.2f}x from {small.num_vertices} "
        f"to {large.num_vertices} vertices"
    )

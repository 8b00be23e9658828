"""Scaling benchmark: subset splits and cold preprocessing must stay linear.

IPPV splits every popped candidate into connected components, and the
engine's cold preprocessing enumerates, splits and bounds the whole graph.
``connected_components(graph, S)`` splits ``S`` on the host adjacency
under a per-graph insertion-rank memo; recomputing the rank by scanning
the whole graph on every call would make IPPV's loop quadratic.  This
benchmark builds two community graphs, one twice the size of the other,
and times, alternating small and large in the shared rounds:

* the subset split over every 20-vertex block of the graph, in graph
  order, ten passes per sample, so the number of calls doubles with the
  graph while each call's work stays the same;
* ``cold_preprocess`` of an h = 3 request.

It asserts that the median of each layer's per-round large/small ratios
stays under 3x, so a host slow phase slows both graphs of a round alike.
The larger graph's best times are recorded as
``graph.connected_components_subset_s`` and ``engine.cold_preprocess_s``.
"""

from __future__ import annotations

from repro.datasets.synthetic import hybrid_community_graph
from repro.engine import SolveRequest
from repro.engine.preprocess import cold_preprocess
from repro.graph import connected_components

H = 3
BLOCK = 20
PASSES = 10
#: Linear growth doubles the time per doubling of the graph; a split that
#: scans the whole graph per call grows about 3.4x.
MAX_DOUBLING_RATIO = 3.0


def _layers(n_communities: int):
    """(vertex count, subset split, cold preprocess) on the graph."""
    graph = hybrid_community_graph(n_communities, 14, seed=0)
    order = graph.vertices()
    blocks = [order[i : i + BLOCK] for i in range(0, len(order), BLOCK)]

    def split_blocks():
        for _ in range(PASSES):
            for block in blocks:
                connected_components(graph, block)

    request = SolveRequest(graph=graph, pattern=H)
    return graph.num_vertices, split_blocks, lambda: cold_preprocess(request)


def test_split_and_cold_preprocess_scale_linearly(
    bench_metrics, alternating_rounds, median_ratio
):
    (small_n, small_split, small_preprocess), (large_n, large_split, large_preprocess) = (
        _layers(n) for n in (80, 160)
    )
    split_times = alternating_rounds([small_split, large_split])
    preprocess_times = alternating_rounds([small_preprocess, large_preprocess])
    split_ratio = median_ratio(*split_times)
    preprocess_ratio = median_ratio(*preprocess_times)
    small_split_s, split_s = map(min, split_times)
    small_preprocess_s, preprocess_s = map(min, preprocess_times)
    bench_metrics["graph.connected_components_subset_s"] = split_s
    bench_metrics["engine.cold_preprocess_s"] = preprocess_s
    print()
    print(
        f"subset split {small_n} V: {small_split_s * 1000:.2f}ms, "
        f"{large_n} V: {split_s * 1000:.2f}ms (median ratio {split_ratio:.2f}x); "
        f"cold preprocess {small_preprocess_s * 1000:.2f}ms, {preprocess_s * 1000:.2f}ms "
        f"(median ratio {preprocess_ratio:.2f}x)"
    )
    assert split_ratio < MAX_DOUBLING_RATIO, (
        f"subset split grew {split_ratio:.2f}x from {small_n} to {large_n} vertices"
    )
    assert preprocess_ratio < MAX_DOUBLING_RATIO, (
        f"cold preprocess grew {preprocess_ratio:.2f}x from {small_n} to {large_n} vertices"
    )

"""Scaling benchmark: subset splits and cold preprocessing must stay linear.

IPPV splits every popped candidate into connected components, and the
engine's cold preprocessing enumerates, splits and bounds the whole graph.
``connected_components(graph, S)`` splits ``S`` on the host adjacency
under a per-graph insertion-rank memo; recomputing the rank by scanning
the whole graph on every call would make IPPV's loop quadratic.  This
benchmark builds two community graphs, one twice the size of the other,
and times (minimum of five samples each):

* the subset split over every 20-vertex block of the graph, in graph
  order, ten passes per sample, so the number of calls doubles with the
  graph while each call's work stays the same;
* ``cold_preprocess`` of an h = 3 request.

It asserts that doubling the graph less than triples each time.  The
larger graph's timings are recorded as
``graph.connected_components_subset_s`` and ``engine.cold_preprocess_s``.
"""

from __future__ import annotations

import time

from repro.datasets.synthetic import hybrid_community_graph
from repro.engine import SolveRequest
from repro.engine.preprocess import cold_preprocess
from repro.graph import connected_components

H = 3
ROUNDS = 5
BLOCK = 20
PASSES = 10
#: Linear growth doubles the time per doubling of the graph; a split that
#: scans the whole graph per call grows about 3.4x.
MAX_DOUBLING_RATIO = 3.0


def _best_of(fn) -> float:
    best = float("inf")
    for _ in range(ROUNDS):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_split_and_cold_preprocess_scale_linearly(bench_metrics):
    timings = {}
    for n_communities in (80, 160):
        graph = hybrid_community_graph(n_communities, 14, seed=0)
        order = graph.vertices()
        blocks = [order[i : i + BLOCK] for i in range(0, len(order), BLOCK)]

        def split_blocks():
            for _ in range(PASSES):
                for block in blocks:
                    connected_components(graph, block)

        request = SolveRequest(graph=graph, pattern=H)
        split_s = _best_of(split_blocks)
        preprocess_s = _best_of(lambda: cold_preprocess(request))
        timings[graph.num_vertices] = (split_s, preprocess_s)

    (small_n, small), (large_n, large) = sorted(timings.items())
    split_ratio = large[0] / small[0]
    preprocess_ratio = large[1] / small[1]
    bench_metrics["graph.connected_components_subset_s"] = large[0]
    bench_metrics["engine.cold_preprocess_s"] = large[1]
    print()
    print(
        f"subset split {small_n} V: {small[0] * 1000:.2f}ms, "
        f"{large_n} V: {large[0] * 1000:.2f}ms ({split_ratio:.2f}x); "
        f"cold preprocess {small[1] * 1000:.2f}ms, {large[1] * 1000:.2f}ms "
        f"({preprocess_ratio:.2f}x)"
    )
    assert split_ratio < MAX_DOUBLING_RATIO, (
        f"subset split grew {split_ratio:.2f}x from {small_n} to {large_n} vertices"
    )
    assert preprocess_ratio < MAX_DOUBLING_RATIO, (
        f"cold preprocess grew {preprocess_ratio:.2f}x from {small_n} to {large_n} vertices"
    )

"""Warm-path benchmark: the preprocess cache and the resident solve service.

Preprocessing (instance enumeration, component split, clique-core bounds)
dominates repeat-query latency, and it is pure function of (graph, pattern,
stage flags) — exactly what :mod:`repro.engine.cache` memoizes.  This
benchmark times the cold pipeline against a warm fetch on the shared
multi-component benchmark graph and records the resident service's warm
end-to-end solve time, so the BENCH trajectory tracks all three:

* ``cache.preprocess_cold_s``  — full cold pipeline,
* ``cache.preprocess_warm_s``  — cache-aware front door, artifact resident
  (the median of 200 calls),
* ``server.solve_warm_s``      — whole ``/solve`` round-trip through
  :class:`~repro.server.service.SolveService` with a warm cache.

The headline assertion is the issue's bar: a warm preprocess must be at
least 5x faster than the cold pipeline.
"""

from __future__ import annotations

import statistics
import time

from test_engine_performance import _multi_component_graph, _shifted, _signature

from repro.datasets.synthetic import planted_communities_graph
from repro.engine import SolveRequest, cache_for, preprocess, solve
from repro.graph.graph import union_graph
from repro.server import SolveService

H = 3
K = 5


def _enumeration_heavy_graph():
    """Dense communities: enough triangles that cold enumeration dominates.

    The cold/warm gap being measured is structural (full pipeline vs a
    dictionary fetch), so the graph is sized to keep the cold side well
    clear of timer noise on shared CI runners.
    """
    parts = []
    offset = 0
    for seed, sizes in ((31, [22, 18, 16]), (32, [20, 17, 15]), (33, [14, 12])):
        g, _ = planted_communities_graph(
            sizes, p_in=0.9, p_out=0.03, seed=seed, background=15
        )
        parts.append(_shifted(g, offset))
        offset += 1000
    return union_graph(*parts)


def _best_of(fn, rounds: int = 3) -> float:
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _median_of(fn, rounds: int) -> float:
    """Median per-call time: one sub-millisecond call is mostly host noise."""
    times = []
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def test_warm_preprocess_beats_cold(bench_metrics, tmp_path):
    graph = _enumeration_heavy_graph()
    root = str(tmp_path / "cache")

    cold_request = SolveRequest(graph=graph, pattern=H, k=K)
    warm_request = SolveRequest(graph=graph, pattern=H, k=K, cache_dir=root)

    cold = _best_of(lambda: preprocess(cold_request))
    preprocess(warm_request)  # prime the cache
    warm = _median_of(lambda: preprocess(warm_request), rounds=200)

    # Disk path (fresh-process shape): drop the memory layer each round.
    cache = cache_for(root)

    def from_disk():
        cache._memory.clear()
        components, stats = preprocess(warm_request)
        assert stats.cache_state == "hit"
        return components

    disk = _best_of(from_disk)

    _, warm_stats = preprocess(warm_request)
    assert warm_stats.cache_state == "hit-memory"

    print()
    print(
        f"graph: n={graph.num_vertices} m={graph.num_edges} "
        f"|Psi{H}|={warm_stats.num_instances}"
    )
    print(f"preprocess cold {cold:.4f}s  warm(memory) {warm:.4f}s  "
          f"warm(disk) {disk:.4f}s  speedup {cold / warm:.1f}x")

    bench_metrics["cache.preprocess_cold_s"] = cold
    bench_metrics["cache.preprocess_warm_s"] = warm
    bench_metrics["cache.preprocess_disk_s"] = disk

    # The issue's bar: the warm path amortizes preprocessing >= 5x.
    assert warm * 5 <= cold, (
        f"warm preprocess not >=5x faster: warm {warm:.4f}s vs cold {cold:.4f}s"
    )


def test_served_warm_solve_timed_and_identical(bench_metrics, tmp_path):
    graph = _multi_component_graph()
    reference = solve(graph=graph, pattern=H, k=K, solver="ippv")

    service = SolveService(cache_dir=str(tmp_path / "server-cache"))
    try:
        service.register_graph("bench", edges=[[u, v] for u, v in graph.edges()])
        payload = {"graph": "bench", "h": H, "k": K, "solver": "ippv"}

        start = time.perf_counter()
        first = service.solve(payload)
        cold_total = time.perf_counter() - start
        assert first["cache"]["state"] == "miss"

        responses = []
        warm_total = _best_of(lambda: responses.append(service.solve(payload)))
        assert all(r["cache"]["state"] == "hit-memory" for r in responses)

        served = [
            (frozenset(s["vertices"]), s["density"]) for s in responses[-1]["subgraphs"]
        ]
        expected = [
            (frozenset(s.as_sorted_list()), str(s.density))
            for s in reference.subgraphs
        ]
        assert served == expected
        assert _signature(reference.subgraphs)  # non-empty answer

        print()
        print(f"served solve cold {cold_total:.4f}s  warm {warm_total:.4f}s  "
              f"(warm preprocess {responses[-1]['timing']['preprocess_seconds']:.4f}s)")

        bench_metrics["server.solve_cold_s"] = cold_total
        bench_metrics["server.solve_warm_s"] = warm_total

        # Warm serving must never be slower than the cold round-trip.
        assert warm_total <= cold_total
    finally:
        service.close()

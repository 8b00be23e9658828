"""End-to-end engine benchmark on a multi-component synthetic graph.

The engine's shared preprocessing (single enumeration, component split,
clique-core bounds, whole-component upper-bound skipping, the serial early
stop) must make solving through the engine no slower than the direct
calls.  Both direct calls stop once k LhCDSes are certified, so on this
graph the engine and the direct path cost about the same; what the engine
still saves is whole components, which its early stop never solves.  This
benchmark builds a graph with several independent components of very
different density, times the engine path against the direct call for the
``exact`` and ``ippv`` solvers, and records serial-vs-parallel engine
timings.

This seeds the BENCH trajectory: rerun after runtime changes and compare the
printed table.
"""

from __future__ import annotations

import statistics
import time

from repro.cliques.kclist import clique_instances
from repro.datasets.synthetic import planted_communities_graph
from repro.engine import solve
from repro.graph.graph import Graph, union_graph
from repro.lhcds.exact import exact_top_k_lhcds
from repro.lhcds.ippv import find_lhcds

H = 3
K = 5


def _shifted(graph: Graph, offset: int) -> Graph:
    return Graph(
        vertices=[v + offset for v in graph.vertices()],
        edges=[(u + offset, v + offset) for u, v in graph.edges()],
    )


def _multi_component_graph() -> Graph:
    """Six disjoint components: two clique-rich, four mostly sparse."""
    parts = []
    offset = 0
    for seed, sizes, p_in in (
        (21, [12, 10, 9], 0.95),
        (22, [11, 9, 8], 0.9),
        (23, [6, 5], 0.7),
        (24, [6, 5], 0.7),
        (25, [5, 4], 0.65),
        (26, [5, 4], 0.65),
    ):
        g, _ = planted_communities_graph(sizes, p_in=p_in, p_out=0.04, seed=seed, background=12)
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


def _signature(subgraphs):
    return [(frozenset(s.vertices), s.density) for s in subgraphs]


def _median_ratio(rounds) -> float:
    """Median over rounds of the second path's time over the first's."""
    first, second = rounds
    return statistics.median(b / a for a, b in zip(first, second))


def test_engine_not_slower_than_direct_calls(bench_metrics, alternating_rounds):
    graph = _multi_component_graph()

    # -- exact: the direct call decomposes the whole graph until k LhCDSes
    # are certified; the engine splits, bounds, and stops early.
    exact_rounds = alternating_rounds([
        lambda: exact_top_k_lhcds(graph, clique_instances(graph, H), K),
        lambda: solve(graph=graph, pattern=H, k=K, solver="exact", jobs=1),
    ])

    # -- ippv: the direct driver already early-stops via its bound-keyed
    # heap, so the engine path only has to break even.
    ippv_rounds = alternating_rounds([
        lambda: find_lhcds(graph, h=H, k=K),
        lambda: solve(graph=graph, pattern=H, k=K, solver="ippv", jobs=1),
    ])
    direct_exact, engine_exact = map(min, exact_rounds)
    direct_ippv, engine_ippv = map(min, ippv_rounds)
    exact_ratio = _median_ratio(exact_rounds)
    ippv_ratio = _median_ratio(ippv_rounds)

    # -- serial vs parallel engine runs (recorded; process spawn overhead
    # dominates at this graph size, so no assertion on the parallel time).
    parallel_exact = _best_of(
        lambda: solve(graph=graph, pattern=H, k=K, solver="exact", jobs=4), rounds=1
    )

    report = solve(graph=graph, pattern=H, k=K, solver="exact", jobs=1)
    print()
    print(
        f"graph: n={graph.num_vertices} m={graph.num_edges} "
        f"components={report.preprocessing.num_components} "
        f"(active {report.preprocessing.num_active_components}, "
        f"skipped {report.preprocessing.num_skipped_components}) "
        f"|Psi{H}|={report.preprocessing.num_instances} k={K}"
    )
    print(
        f"early-stopped components {report.preprocessing.num_early_stopped_components}"
    )
    print(f"exact  direct {direct_exact:.4f}s  engine {engine_exact:.4f}s  "
          f"median engine/direct {exact_ratio:.2f}x")
    print(f"ippv   direct {direct_ippv:.4f}s  engine {engine_ippv:.4f}s  "
          f"median engine/direct {ippv_ratio:.2f}x")
    print(f"exact  engine serial {engine_exact:.4f}s  parallel(4) {parallel_exact:.4f}s")

    bench_metrics["engine.exact_direct_s"] = direct_exact
    bench_metrics["engine.exact_engine_s"] = engine_exact
    bench_metrics["engine.exact_parallel4_s"] = parallel_exact
    bench_metrics["engine.ippv_direct_s"] = direct_ippv
    bench_metrics["engine.ippv_engine_s"] = engine_ippv

    # Same answers before comparing speeds.
    direct_pairs = exact_top_k_lhcds(graph, clique_instances(graph, H), K)
    engine_report = solve(graph=graph, pattern=H, k=K, solver="exact", jobs=1)
    assert _signature(engine_report.subgraphs) == [
        (frozenset(vs), d) for vs, d in direct_pairs
    ]
    direct_result = find_lhcds(graph, h=H, k=K)
    ippv_report = solve(graph=graph, pattern=H, k=K, solver="ippv", jobs=1)
    assert _signature(ippv_report.subgraphs) == _signature(direct_result.subgraphs)

    # The engine's serial early stop never solves some of the graph's
    # active components: the saving the engine still has over the direct
    # calls, which stop at k themselves.  A count, so it cannot flake.
    assert report.preprocessing.num_early_stopped_components >= 1
    # Both paths of each pair stop at k, so their timings are near-equal by
    # design.  Each pair is compared as the median of its per-round ratios,
    # which both paths' shared host phases cancel out of, and the slack
    # absorbs the jitter left over, hence 25%.
    assert exact_ratio <= 1.25, (
        f"engine exact path slower than direct: median ratio {exact_ratio:.2f}x "
        f"(best {engine_exact:.4f}s vs {direct_exact:.4f}s)"
    )
    assert ippv_ratio <= 1.25, (
        f"engine ippv path slower than direct: median ratio {ippv_ratio:.2f}x "
        f"(best {engine_ippv:.4f}s vs {direct_ippv:.4f}s)"
    )


def test_parallel_engine_identical_on_benchmark_graph():
    graph = _multi_component_graph()
    for solver in ("exact", "ippv", "greedy"):
        serial = solve(graph=graph, pattern=H, k=K, solver=solver, jobs=1)
        parallel = solve(graph=graph, pattern=H, k=K, solver=solver, jobs=4)
        assert _signature(serial.subgraphs) == _signature(parallel.subgraphs)


def test_ippv_verification_stage_timed(bench_metrics):
    """IPPV's in-process verification stage (IsDensest plus the
    maximal-compactness check) on one component, best of three, for the
    BENCH trend."""
    graph, _ = planted_communities_graph(
        [12, 10, 9], p_in=0.95, p_out=0.04, seed=21, background=12
    )
    best = None
    for _ in range(3):
        report = solve(graph=graph, pattern=H, k=K, solver="ippv", jobs=1, executor="serial")
        if best is None or report.timings.verification < best.timings.verification:
            best = report
    assert best.verification.is_densest_calls == best.candidates_examined

    bench_metrics["engine.ippv_verify_serial_s"] = best.timings.verification
    print()
    print(f"ippv verification stage: serial {best.timings.verification:.4f}s")


def test_executor_backends_identical_and_timed(bench_metrics):
    """Both execution backends on the benchmark graph: identical output,
    per-backend wall-clock recorded for the BENCH trajectory."""
    graph = _multi_component_graph()
    reference = solve(graph=graph, pattern=H, k=K, solver="exact", jobs=1)
    timings = {}
    for executor in ("serial", "process"):
        tick = time.perf_counter()
        report = solve(
            graph=graph, pattern=H, k=K, solver="exact", jobs=4, executor=executor
        )
        timings[executor] = time.perf_counter() - tick
        assert _signature(report.subgraphs) == _signature(reference.subgraphs)
        assert report.executor == executor
        assert report.fallback_reason is None
        bench_metrics[f"engine.executor_{executor}_s"] = timings[executor]
    print()
    for executor, seconds in timings.items():
        print(f"exact jobs=4 via {executor:8} {seconds:.4f}s")

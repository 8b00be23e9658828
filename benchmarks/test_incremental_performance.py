"""Incremental-engine benchmark: delta re-solve vs cold solve.

The incremental engine exists to make the evolving-graph workload cheap:
after a delta that touches one component of a many-component graph, a warm
:class:`~repro.engine.IncrementalSession` re-enumerates and re-solves only
that component and serves every untouched component from its cache, while
a cold solve pays full enumeration + component split + solve for the whole
graph.  This benchmark times both sides of that trade on a workload of
several dense communities where a delta perturbs exactly one of them, and
records:

* ``incremental.resolve_delta_s`` — apply one delta + warm re-solve,
* ``incremental.cold_s``          — cold solve of the same final graph.

The headline assertion is the issue's bar: the delta re-solve must be at
least 3x faster than the cold solve.  Bit-identity of the two answers is
asserted too — speed means nothing if the warm path drifts.

A second check times ``apply_delta`` alone on the ``serve-stream`` shape,
12 and 48 ``hybrid_community_graph(10, 12)`` parts, with a one-edge delta
in part 0 (``incremental.apply_delta_12_s`` / ``incremental.apply_delta_48_s``).
A delta re-enumerates and re-splits only the components it touches, so the
4x-larger graph must cost less than 1.6x as much.
"""

from __future__ import annotations

import itertools
import time

from test_engine_performance import _shifted

from repro.datasets.synthetic import hybrid_community_graph, planted_communities_graph
from repro.engine import IncrementalSession, SolveRequest, report_signature, solve
from repro.graph import GraphDelta
from repro.graph.graph import union_graph

H = 3
K = 5
ROUNDS = 4

#: Offset of the (small) component the benchmark deltas perturb.
TOUCHED_OFFSET = 7000


def _many_component_graph():
    """Eight disjoint dense communities; cold enumeration dominates."""
    parts = []
    offset = 0
    for seed, sizes in (
        (41, [16, 13, 11]),
        (42, [15, 12, 10]),
        (43, [13, 11]),
        (44, [12, 10]),
        (45, [11, 9]),
        (46, [10, 9]),
        (47, [9, 8]),
        (48, [8, 7]),
    ):
        g, _ = planted_communities_graph(
            sizes, p_in=0.9, p_out=0.05, seed=seed, background=10
        )
        parts.append(_shifted(g, offset))
        offset += 1000
    return union_graph(*parts)


def test_delta_resolve_beats_cold(bench_metrics):
    graph = _many_component_graph()
    session = IncrementalSession(graph.copy(), H)
    options = dict(solver="ippv", k=K)
    session.solve(**options)  # warm the per-component result cache

    anchors = sorted(v for v in session.graph.vertices() if v >= TOUCHED_OFFSET)[:2]
    probe = TOUCHED_OFFSET + 900  # fresh vertex grafted onto one component

    # Alternate attach/detach so every round applies a real delta that
    # touches exactly one component, and an even round count restores the
    # pre-benchmark graph content.
    resolve = float("inf")
    last_report = None
    for round_index in range(ROUNDS):
        if round_index % 2 == 0:
            delta = GraphDelta(
                add_vertices=(probe,),
                add_edges=tuple((probe, a) for a in anchors),
            )
        else:
            delta = GraphDelta(remove_vertices=(probe,))
        start = time.perf_counter()
        session.apply_delta(delta)
        last_report = session.solve(**options)
        resolve = min(resolve, time.perf_counter() - start)
        # The delta touches one part; at most it and a part it displaces
        # from the top-k are solved.  Parts the serial early stop never
        # solves count as neither reused nor solved.
        assert session.last_solve_stats.components_solved <= 2

    def cold_solve():
        return solve(SolveRequest(graph=session.graph.copy(), pattern=H, **options))

    cold = float("inf")
    cold_report = None
    for _ in range(ROUNDS):
        start = time.perf_counter()
        cold_report = cold_solve()
        cold = min(cold, time.perf_counter() - start)

    assert report_signature(last_report) == report_signature(cold_report)
    assert last_report.subgraphs  # non-empty answer

    print()
    print(
        f"graph: n={session.graph.num_vertices} m={session.graph.num_edges} "
        f"components={session.last_solve_stats.components_total}"
    )
    print(
        f"delta re-solve {resolve:.4f}s  cold {cold:.4f}s  "
        f"speedup {cold / resolve:.1f}x"
    )

    bench_metrics["incremental.resolve_delta_s"] = resolve
    bench_metrics["incremental.cold_s"] = cold

    # The issue's bar: touching one of many components must re-solve >= 3x
    # faster than a cold solve of the final graph.
    assert resolve * 3 <= cold, (
        f"delta re-solve not >=3x faster: resolve {resolve:.4f}s vs cold {cold:.4f}s"
    )


def _stream_graph(parts: int):
    """``parts`` disjoint ``hybrid_community_graph(10, 12)`` parts, as in
    perfbench's ``serve-stream``, and the first edge of part 0."""
    graph = union_graph(
        *(_shifted(hybrid_community_graph(10, 12, seed=1000 + i), i * 1000) for i in range(parts))
    )
    return graph, next(iter(graph.edges()))


def _toggler(parts: int):
    """A session on ``parts`` parts and a call that toggles part 0's edge."""
    graph, edge = _stream_graph(parts)
    session = IncrementalSession(graph, H)
    deltas = itertools.cycle(
        (GraphDelta(remove_edges=(edge,)), GraphDelta(add_edges=(edge,)))
    )

    def toggle():
        assert session.apply_delta(next(deltas)).components_reenumerated == 1

    return toggle


def test_apply_delta_scales_with_touched_components(bench_metrics, best_alternating):
    # Alternating rounds put both sizes through the same host phases.
    small, large = best_alternating([_toggler(12), _toggler(48)])
    print()
    print(
        f"apply_delta 12 parts {small:.4f}s  48 parts {large:.4f}s  "
        f"ratio {large / small:.2f}x"
    )
    bench_metrics["incremental.apply_delta_12_s"] = small
    bench_metrics["incremental.apply_delta_48_s"] = large
    # The touched component costs the same on both graphs; what grows with
    # the graph is a few linear scans in C (see repro.engine.incremental).
    assert large < 1.6 * small, (
        f"apply_delta grew {large / small:.2f}x on a 4x-larger graph"
    )

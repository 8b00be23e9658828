"""Flow-kernel benchmark: the flat-buffer Dinic on verification-shaped networks.

``solve_compact_network`` is the one flow-network builder (every IPPV
verification and every cut of the exact densest search runs through it),
so this benchmark times it on the two network shapes verification
produces — ``DeriveCompact`` (rho below the working graph's density,
non-trivial cut) and ``IsDensest`` (rho just above a candidate's
density) — and records the result as ``flow.dinic_maxflow_s``.  The
Frank--Wolfe kernel rides along as ``fw.seq_kclist_s``.
"""

from __future__ import annotations

import time
from fractions import Fraction

from repro.cliques.kclist import clique_instances
from repro.datasets.synthetic import planted_communities_graph
from repro.flow import solve_compact_network
from repro.graph.components import connected_components
from repro.lhcds.seq_kclist import seq_kclist_plus_plus

H = 3
FW_ITERATIONS = 20


def _verification_workload():
    """(instances, rho, vertices) triples shaped like IPPV verification."""
    workload = []

    # DeriveCompact: rho below the graph's density, non-trivial maximal cut.
    graph, _ = planted_communities_graph(
        [14, 12, 10], p_in=0.9, p_out=0.05, seed=7, background=20
    )
    instances = clique_instances(graph, H)
    rho = Fraction(instances.num_instances, graph.num_vertices) + Fraction(1, 3)
    workload.append((instances, rho, set(graph.vertices())))

    # IsDensest: per-component networks with rho just above the density.
    graph, _ = planted_communities_graph(
        [12, 10, 9], p_in=0.95, p_out=0.04, seed=21, background=12
    )
    instances = clique_instances(graph, H)
    for component in sorted(connected_components(graph), key=len, reverse=True)[:6]:
        local = instances.restrict(component)
        if local.num_instances == 0:
            continue
        n = len(component)
        density = Fraction(local.num_instances, n)
        workload.append((local, density + Fraction(1, n * (n + 1)), component))
    return workload


def _best_of(fn, rounds: int = 7):
    best = float("inf")
    result = None
    for _ in range(rounds):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def test_flat_dinic_timed(bench_metrics):
    workload = _verification_workload()

    flat_s, _ = _best_of(
        lambda: [
            solve_compact_network(inst, rho, vertices=universe)
            for inst, rho, universe in workload
        ]
    )

    bench_metrics["flow.dinic_maxflow_s"] = flat_s
    print()
    print(
        f"derive-compact/is-densest workload ({len(workload)} networks): "
        f"flat {flat_s * 1000:.2f}ms"
    )


def test_frank_wolfe_kernel_timed(bench_metrics):
    graph, _ = planted_communities_graph(
        [14, 12, 10], p_in=0.9, p_out=0.05, seed=7, background=20
    )
    instances = clique_instances(graph, H)

    fw_s, state = _best_of(
        lambda: seq_kclist_plus_plus(instances, FW_ITERATIONS),
        rounds=3,
    )
    # Exactly feasible: every instance's weight numerators sum to D.
    alpha, h = state.alpha, instances.h
    assert all(sum(alpha[i : i + h]) == state.denominator for i in range(0, len(alpha), h))

    bench_metrics["fw.seq_kclist_s"] = fw_s
    print()
    print(
        f"SEQ-kClist++ T={FW_ITERATIONS} on |Psi{H}|={instances.num_instances}: "
        f"{fw_s * 1000:.2f}ms"
    )

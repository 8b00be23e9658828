"""Scaling benchmark: IPPV's proposal stage must stay linear in the graph size.

The proposal stage of IPPV's first round is SEQ-kClist++ (Frank--Wolfe,
T = 20), TentativeGD and pruning (Algorithms 2 and 3).  This benchmark
builds two community graphs, one twice the size of the other, times each
of the three layers on both, alternating small and large in the shared
rounds, and asserts that the median of each layer's per-round large/small
ratios stays under 3x, so a host slow phase slows both graphs of a round
alike.  The larger graph's best times are recorded as
``lhcds.seq_kclist_s``, ``lhcds.tentative_decomposition_s`` and
``lhcds.prune_candidates_s``.

Prune rule 2 refines the core numbers Algorithm 1 computed instead of
peeling again, so a second check times ``prune_invalid_vertices`` against
one ``peel`` of the same universe on the larger graph, with the shared
alternating timer, and requires the whole prune to cost under 0.8x the
peel.  They are recorded as ``lhcds.prune_invalid_vertices_s`` and
``cores.peel_prune_universe_s``.  Peeling again made the prune about 1.6x
the peel.
"""

from __future__ import annotations

from repro.cliques.kclist import clique_instances
from repro.cores import peel
from repro.datasets.synthetic import hybrid_community_graph
from repro.lhcds import (
    derive_stable_groups,
    initialize_bounds,
    prune_candidates,
    prune_invalid_vertices,
    seq_kclist_plus_plus,
    tentative_decomposition,
)

H = 3
FW_ITERATIONS = 20
#: Linear growth doubles the time per doubling of the graph.
MAX_DOUBLING_RATIO = 3.0
#: The whole prune, rule 1 included, against one peel of its universe.
MAX_PRUNE_TO_PEEL = 0.8


def _proposal_layers(n_communities: int):
    """(vertex count, one call per layer) of IPPV's first proposal on the graph."""
    graph = hybrid_community_graph(n_communities, 14, seed=0)
    vertices = graph.vertices()
    instances = clique_instances(graph, H)
    bounds, _ = initialize_bounds(instances, vertices)
    state = seq_kclist_plus_plus(instances, FW_ITERATIONS, vertices)
    pristine = state.working_copy()
    decomposition = tentative_decomposition(state, vertices)
    groups, _ = derive_stable_groups(decomposition, state, bounds)
    layers = {
        "lhcds.seq_kclist_s": lambda: seq_kclist_plus_plus(instances, FW_ITERATIONS, vertices),
        # TentativeGD moves weight in place, so every run gets a fresh copy.
        "lhcds.tentative_decomposition_s": lambda: tentative_decomposition(
            pristine.working_copy(), vertices
        ),
        "lhcds.prune_candidates_s": lambda: prune_candidates(
            graph, instances, groups, bounds, vertices
        ),
    }
    return graph.num_vertices, layers


def test_proposal_stage_scales_linearly(bench_metrics, alternating_rounds, median_ratio):
    (small_n, small), (large_n, large) = (_proposal_layers(n) for n in (80, 160))
    print()
    for name in small:
        small_times, large_times = alternating_rounds([small[name], large[name]])
        ratio = median_ratio(small_times, large_times)
        bench_metrics[name] = min(large_times)
        print(
            f"{name} {small_n} V: {min(small_times) * 1000:.2f}ms, "
            f"{large_n} V: {min(large_times) * 1000:.2f}ms (median ratio {ratio:.2f}x)"
        )
        assert ratio < MAX_DOUBLING_RATIO, (
            f"{name} grew {ratio:.2f}x from {small_n} to {large_n} vertices"
        )


def test_prune_costs_less_than_one_peel(bench_metrics, best_alternating):
    graph = hybrid_community_graph(160, 14, seed=0)
    vertices = graph.vertices()
    instances = clique_instances(graph, H)
    bounds, _ = initialize_bounds(instances, vertices)
    # Prune reads the bounds DeriveSG tightened, as in IPPV's first round.
    state = seq_kclist_plus_plus(instances, FW_ITERATIONS, vertices)
    derive_stable_groups(tentative_decomposition(state, vertices), state, bounds)
    prune_s, peel_s = best_alternating(
        [
            lambda: prune_invalid_vertices(graph, instances, bounds, vertices),
            lambda: peel(instances, vertices),
        ]
    )
    ratio = prune_s / peel_s
    bench_metrics["lhcds.prune_invalid_vertices_s"] = prune_s
    bench_metrics["cores.peel_prune_universe_s"] = peel_s
    print()
    print(
        f"prune {graph.num_vertices} V: {prune_s * 1000:.2f}ms, "
        f"one peel: {peel_s * 1000:.2f}ms ({ratio:.2f}x)"
    )
    assert ratio < MAX_PRUNE_TO_PEEL, (
        f"prune cost {ratio:.2f}x one peel of its universe"
    )

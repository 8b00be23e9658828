"""Micro-benchmark: indexed restriction vs the full-scan baseline.

The IPPV pipeline re-restricts the global instance set to candidate
subgraphs constantly; the indexed :class:`~repro.instances.InstanceSet`
answers those queries by scanning only the instances *incident* to the
candidate (plus an LRU for repeated candidates), while the seed
implementation scanned every instance on every call.  This benchmark times
both paths on the figure-scale synthetic graphs and asserts the headline
speedup the refactor exists to deliver (>= 3x on community-sized
candidates), printing the raw timings alongside.
"""

from __future__ import annotations

from fractions import Fraction

from repro.cliques.kclist import clique_instances
from repro.datasets.synthetic import planted_communities_graph


def _build_figure_scale():
    """A CA-CondMat-style stand-in: several dense communities + background."""
    graph, communities = planted_communities_graph(
        [13, 12, 10, 9, 8, 7, 6], p_in=0.92, p_out=0.01, seed=16, background=30
    )
    instances = clique_instances(graph, 3)
    groups = {}
    for v, c in communities.items():
        groups.setdefault(c, set()).add(v)
    candidates = [members for c, members in sorted(groups.items()) if c >= 0]
    return graph, instances, candidates


def test_indexed_restriction_beats_full_scan(bench_metrics, best_alternating):
    graph, instances, candidates = _build_figure_scale()
    assert instances.num_instances > 500, "figure-scale graph should be clique-rich"
    repeats = 50

    # Correctness first: both paths agree on every candidate.
    for cand in candidates:
        assert instances.count_within(cand) == instances.scan_count_within(cand)
        assert instances.restrict(cand) == instances.scan_restrict(cand)

    def indexed_counts_cold():
        # Clear the LRU so the timing shows the raw incidence-driven count,
        # not a cache hit from the correctness check above.
        instances._restrict_cache.clear()
        for cand in candidates:
            instances.count_within(cand)

    def scan_counts():
        for cand in candidates:
            instances.scan_count_within(cand)

    indexed_s, scan_s = best_alternating([indexed_counts_cold, scan_counts], repeats)
    count_speedup = scan_s / indexed_s

    # Restriction: clear the LRU between rounds so the timing shows the raw
    # indexed build, then time the cached path separately.
    def indexed_restrict_cold():
        instances._restrict_cache.clear()
        for cand in candidates:
            instances.restrict(cand)

    def indexed_restrict_cached():
        for cand in candidates:
            instances.restrict(cand)

    def scan_restrict():
        for cand in candidates:
            instances.scan_restrict(cand)

    cold_s, cached_s, scan_restrict_s = best_alternating(
        [indexed_restrict_cold, indexed_restrict_cached, scan_restrict], repeats
    )
    restrict_speedup = scan_restrict_s / cold_s
    cached_speedup = scan_restrict_s / cached_s

    print()
    print(f"graph: n={graph.num_vertices} m={graph.num_edges} "
          f"|Psi3|={instances.num_instances} candidates={len(candidates)} x{repeats}")
    print(f"count_within   indexed {indexed_s:.4f}s  full-scan {scan_s:.4f}s  "
          f"speedup {count_speedup:.1f}x")
    print(f"restrict cold  indexed {cold_s:.4f}s  full-scan {scan_restrict_s:.4f}s  "
          f"speedup {restrict_speedup:.1f}x")
    print(f"restrict LRU   indexed {cached_s:.4f}s  full-scan {scan_restrict_s:.4f}s  "
          f"speedup {cached_speedup:.1f}x")

    bench_metrics["instances.count_within_indexed_s"] = indexed_s
    bench_metrics["instances.count_within_scan_s"] = scan_s
    bench_metrics["instances.restrict_cold_s"] = cold_s
    bench_metrics["instances.restrict_cached_s"] = cached_s
    bench_metrics["instances.restrict_scan_s"] = scan_restrict_s

    assert count_speedup >= 3.0, f"count_within speedup only {count_speedup:.2f}x"
    assert restrict_speedup >= 3.0, f"restrict speedup only {restrict_speedup:.2f}x"
    # The cached path is orders of magnitude faster; asserting a modest
    # floor keeps this robust against scheduler noise on shared CI runners.
    assert cached_speedup >= 3.0, f"cached speedup only {cached_speedup:.2f}x"


def test_indexed_restriction_is_exact_on_random_subsets():
    """Exactness sweep over non-community subsets (includes Fraction densities)."""
    import random

    graph, instances, _ = _build_figure_scale()
    rng = random.Random(7)
    vertices = graph.vertices()
    for _ in range(25):
        subset = set(rng.sample(vertices, rng.randint(2, 30)))
        assert instances.count_within(subset) == instances.scan_count_within(subset)
        indexed = instances.restrict(subset)
        scanned = instances.scan_restrict(subset)
        assert indexed == scanned
        assert instances.density_of(subset) == Fraction(
            scanned.num_instances, len(subset)
        )

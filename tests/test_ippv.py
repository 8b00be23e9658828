"""End-to-end tests of the IPPV driver, including exactness cross-checks."""

from fractions import Fraction

import pytest

from repro.cliques import clique_instances
from repro.datasets.synthetic import hybrid_community_graph
from repro.engine import solve
from repro.errors import AlgorithmError
from repro.graph import Graph, complete_graph, union_graph
from repro.lhcds import IPPV, IPPVConfig, exact_top_k_lhcds, find_lhcds, find_lhxpds
from repro.lhcds.bounds import CompactBounds
from repro.lhcds.reference import brute_force_lhcds
from repro.patterns import DiamondPattern, FourLoopPattern, get_pattern

from helpers import random_graph


def as_set(result):
    return {(frozenset(s.vertices), s.density) for s in result.subgraphs}


def reference_set(pairs):
    return {(frozenset(s), d) for s, d in pairs}


class TestFigure2Semantics:
    def test_top_l3cds(self, figure2):
        result = find_lhcds(figure2, h=3, k=2)
        assert [sorted(s.vertices) for s in result.subgraphs] == [
            [12, 13, 14, 15, 16, 17],
            [2, 3, 4, 5, 6],
        ]
        assert result.subgraphs[0].density == Fraction(13, 6)
        assert result.subgraphs[1].density == Fraction(2)

    def test_top_l4cds_both_density_one(self, figure2):
        result = find_lhcds(figure2, h=4, k=2)
        assert {s.density for s in result.subgraphs} == {Fraction(1)}
        assert {frozenset(s.vertices) for s in result.subgraphs} == {
            frozenset(range(12, 18)),
            frozenset(range(2, 7)),
        }

    def test_lhcds_disjointness(self, figure2):
        result = find_lhcds(figure2, h=3)
        seen = set()
        for s in result.subgraphs:
            assert not (seen & set(s.vertices))
            seen |= set(s.vertices)

    def test_densities_are_non_increasing(self, figure2):
        result = find_lhcds(figure2, h=3)
        densities = result.densities()
        assert densities == sorted(densities, reverse=True)


class TestExactness:
    @pytest.mark.parametrize("h", [2, 3])
    def test_matches_brute_force_on_random_graphs(self, h, small_random_graphs):
        for g in small_random_graphs:
            inst = clique_instances(g, h)
            expected = reference_set(brute_force_lhcds(g, inst))
            actual = as_set(find_lhcds(g, h=h))
            assert actual == expected

    @pytest.mark.parametrize("h", [3, 4, 5])
    def test_matches_exact_decomposition_on_larger_randoms(self, h):
        # h = 5 gets denser graphs, so that every case holds 5-cliques.
        p = 0.65 if h == 5 else 0.4
        for seed in range(4):
            g = random_graph(16, p, seed + 200)
            inst = clique_instances(g, h)
            assert h < 5 or inst.num_instances > 0
            expected = reference_set(exact_top_k_lhcds(g, inst))
            actual = as_set(find_lhcds(g, h=h))
            assert actual == expected

    def test_fast_and_basic_verification_agree(self, small_random_graphs):
        for g in small_random_graphs:
            fast = find_lhcds(g, h=3, verification="fast")
            basic = find_lhcds(g, h=3, verification="basic")
            assert as_set(fast) == as_set(basic)

    def test_low_iteration_budget_still_exact(self, two_cliques):
        # Even a very coarse Frank-Wolfe solution must not break exactness
        # thanks to the refinement / exact-split fallback.
        result = find_lhcds(two_cliques, h=3, iterations=1)
        inst = clique_instances(two_cliques, 3)
        assert as_set(result) == reference_set(brute_force_lhcds(two_cliques, inst))

    def test_k_limits_output_and_keeps_best(self, figure2):
        all_results = find_lhcds(figure2, h=3)
        top1 = find_lhcds(figure2, h=3, k=1)
        assert len(top1.subgraphs) == 1
        assert top1.subgraphs[0] == all_results.subgraphs[0]


class TestDriverBehaviour:
    def test_invalid_k_rejected(self, k5):
        with pytest.raises(AlgorithmError):
            find_lhcds(k5, h=3, k=0)

    def test_invalid_verification_mode_rejected(self, k5):
        with pytest.raises(AlgorithmError):
            IPPV(k5, 3, IPPVConfig(verification="turbo"))

    def test_empty_graph_rejected(self):
        with pytest.raises(AlgorithmError):
            IPPV(Graph(), 3)

    def test_graph_without_cliques_returns_nothing(self):
        g = Graph(edges=[(0, 1), (1, 2), (2, 3)])
        assert find_lhcds(g, h=3).subgraphs == []

    def test_single_clique_graph(self, k5):
        result = find_lhcds(k5, h=3)
        assert len(result.subgraphs) == 1
        assert result.subgraphs[0].vertices == frozenset(range(5))

    def test_two_equal_cliques_both_reported(self):
        g = union_graph(complete_graph(4))
        for u in range(10, 14):
            for v in range(u + 1, 14):
                g.add_edge(u, v)
        result = find_lhcds(g, h=3)
        assert len(result.subgraphs) == 2
        assert {s.density for s in result.subgraphs} == {Fraction(1)}

    def test_timings_populated(self, figure2):
        result = find_lhcds(figure2, h=3, k=2)
        timings = result.timings.as_dict()
        assert timings["total"] > 0
        assert timings["enumeration"] >= 0
        assert result.verification.is_densest_calls >= 1

    def test_result_helpers(self, figure2):
        result = find_lhcds(figure2, h=3, k=2)
        assert len(result) == 2
        assert result.vertex_sets()[0] == set(range(12, 18))
        assert result.subgraphs[0].size == 6
        assert result.subgraphs[0].as_sorted_list() == [12, 13, 14, 15, 16, 17]

    def test_integer_pattern_argument(self, k5):
        result = IPPV(k5, 4).run()
        assert result.subgraphs[0].h == 4


class TestPatternDiscovery:
    def test_diamond_pattern_on_figure2(self, figure2):
        result = find_lhxpds(figure2, DiamondPattern(), k=1)
        assert len(result.subgraphs) == 1
        # The K6-minus-two-edges region is by far the diamond-densest.
        assert result.subgraphs[0].vertices == frozenset(range(12, 18))

    def test_four_loop_pattern_runs(self, figure2):
        result = find_lhxpds(figure2, FourLoopPattern(), k=2)
        assert all(s.h == 4 for s in result.subgraphs)

    def test_pattern_by_name(self, figure2):
        result = find_lhxpds(figure2, get_pattern("c3-star"), k=1)
        assert result.subgraphs[0].pattern_name == "c3-star"

    def test_pattern_disjointness(self, figure2):
        result = find_lhxpds(figure2, get_pattern("3-star"), k=3)
        seen = set()
        for s in result.subgraphs:
            assert not (seen & set(s.vertices))
            seen |= set(s.vertices)

    def test_lhxpds_matches_brute_force_for_4clique(self, small_random_graphs):
        # The 4-clique pattern must coincide with find_lhcds(h=4).
        for g in small_random_graphs[:4]:
            via_pattern = find_lhxpds(g, get_pattern("4-clique"))
            via_clique = find_lhcds(g, h=4)
            assert as_set(via_pattern) == as_set(via_clique)


class TestExactEarlyStop:
    """Regressions for the float-epsilon early stop.

    The old driver compared ``float(kth) >= best_remaining - 1e-12`` over
    ``float()``-coerced heap priorities, so two densities closer than the
    tolerance — or closer than one float ulp — were conflated: the run
    could certify its top-k while a remaining candidate still had a
    strictly larger upper bound.  Priorities and the stop test are exact
    now.
    """

    EPS = Fraction(1, 10**15)

    def test_colliding_float_images_are_distinguished_exactly(self):
        kth = Fraction(1, 3)
        remaining = Fraction(1, 3) + self.EPS
        # The old float comparison certifies the stop...
        assert float(kth) >= float(remaining) - 1e-12
        # ...but the certificate does not hold: the remaining candidate's
        # exact bound is strictly larger, so it may still contain a
        # strictly denser subgraph.
        assert not kth >= remaining
        # The exact comparison also stops on true ties (never "too late").
        assert Fraction(1, 3) >= Fraction(1, 3)

    @staticmethod
    def _two_triangles() -> Graph:
        return Graph(edges=[(0, 1), (1, 2), (0, 2), (10, 11), (11, 12), (10, 12)])

    @staticmethod
    def _without_pruning(monkeypatch) -> None:
        # Isolate the heap: every proposed group reaches it unpruned.
        import repro.lhcds.ippv as ippv_module

        monkeypatch.setattr(
            ippv_module, "prune_candidates", lambda graph, instances, groups, *rest: list(groups)
        )

    @staticmethod
    def _bounds_with(uppers) -> CompactBounds:
        bounds = CompactBounds()
        for v, upper in uppers.items():
            bounds.lower[v] = Fraction(0)
            bounds.upper[v] = upper
        return bounds

    def test_push_keeps_priorities_exact(self):
        graph = self._two_triangles()
        ippv = IPPV(graph, 3)
        ippv._bounds = self._bounds_with(
            {v: Fraction(1, 3) + self.EPS for v in graph.vertices()}
        )
        ippv._loads = dict.fromkeys(graph.vertices(), 1)
        heap = []
        ippv._push(heap, 0, frozenset({0, 1, 2}), 0)
        priority = heap[0][0]
        assert isinstance(priority, Fraction)
        assert priority == -(Fraction(1, 3) + self.EPS)

    def test_push_rejects_an_unbounded_vertex(self):
        # A raise, not an assert: the check must survive ``python -O``.
        graph = self._two_triangles()
        ippv = IPPV(graph, 3)
        uppers = {v: Fraction(1, 3) for v in graph.vertices()}
        uppers[1] = None
        ippv._bounds = self._bounds_with(uppers)
        ippv._loads = dict.fromkeys(graph.vertices(), 1)
        heap = []
        with pytest.raises(AlgorithmError, match="upper bound"):
            ippv._push(heap, 0, frozenset({0, 1, 2}), 0)
        assert heap == []

    def test_no_stop_while_a_remaining_bound_exceeds_kth(self, monkeypatch):
        # Both triangles have exact density 1/3.  The sound upper bounds
        # differ by ~1e-15 — far inside the old 1e-12 tolerance — so the
        # old driver stopped after verifying the first (higher-bound)
        # triangle and returned it.  The exact driver must keep going,
        # verify the second triangle too, and let the deterministic sort
        # pick the winner ({0, 1, 2} by vertex order).
        graph = self._two_triangles()
        uppers = {v: Fraction(1, 3) + 2 * self.EPS for v in (10, 11, 12)}
        uppers.update({v: Fraction(1, 3) + self.EPS for v in (0, 1, 2)})
        self._without_pruning(monkeypatch)
        result = IPPV(graph, 3, bounds=self._bounds_with(uppers)).run(1)
        assert result.candidates_examined == 2
        assert sorted(result.subgraphs[0].vertices) == [0, 1, 2]
        assert result.subgraphs[0].density == Fraction(1, 3)

    def test_exact_tie_does_not_stop(self, monkeypatch):
        # When the k-th best *equals* the best remaining bound, a remaining
        # LhCDS of that density may still sort first, so IPPV must not
        # stop: it examines the second triangle too, and the deterministic
        # sort returns {0, 1, 2}, as with no stop at all.
        graph = self._two_triangles()
        uppers = {v: Fraction(1, 3) + self.EPS for v in (10, 11, 12)}
        uppers.update({v: Fraction(1, 3) for v in (0, 1, 2)})
        self._without_pruning(monkeypatch)
        result = IPPV(graph, 3, bounds=self._bounds_with(uppers)).run(1)
        assert result.candidates_examined == 2
        assert sorted(result.subgraphs[0].vertices) == [0, 1, 2]

    def test_load_cap_lets_the_strict_stop_fire(self, monkeypatch):
        # A K4 (density 1) beside a triangle (density 1/3).  The triangle's
        # core number is 1, so without the Frank–Wolfe cap its priority
        # would equal the K4's density and the strict stop could not fire.
        # Its loads cap it at 44/126 = 22/63 (D = h(T + 1)L = 3 * 21 * 2),
        # so the run stops after the K4.
        graph = union_graph(complete_graph(4), Graph(edges=[(10, 11), (11, 12), (10, 12)]))
        self._without_pruning(monkeypatch)
        ippv = IPPV(graph, 3)
        result = ippv.run(1)
        assert ippv._load_denominator == 126
        assert [ippv._loads[v] for v in (0, 10, 11, 12)] == [126, 44, 44, 38]
        assert result.candidates_examined == 1
        assert sorted(result.subgraphs[0].vertices) == [0, 1, 2, 3]

    def test_push_takes_the_smaller_of_the_two_maxima(self):
        # The cap is min(max upper, max W / D) over the whole candidate.  A
        # per-vertex min(upper, W / D) would give 2 here, which bounds
        # nothing: the two bounds come from different certificates.
        graph = self._two_triangles()
        ippv = IPPV(graph, 3)
        ippv._bounds = self._bounds_with({0: 1, 1: 5, 2: 1})
        ippv._loads = {0: 8, 1: 4, 2: 2}
        ippv._load_denominator = 2
        heap = []
        ippv._push(heap, 0, frozenset({0, 1, 2}), 0)
        assert heap[0][0] == -4
        # Where the core bound is the smaller maximum, it is kept.
        ippv._bounds = self._bounds_with({0: 1, 1: 3, 2: 1})
        heap = []
        ippv._push(heap, 0, frozenset({0, 1, 2}), 0)
        assert heap[0][0] == -3


class TestCertifiedStopCounters:
    """The certified stop fires early: a deterministic counter, not a timing."""

    @pytest.mark.parametrize("h", [3, 4, 5])
    def test_top_10_examines_at_most_2k_candidates(self, h):
        # With core-number priorities alone the stop could not fire until
        # the heap was nearly empty: 38, 36 and 34 candidates at h = 3, 4
        # and 5.  The Frank–Wolfe cap brings them to 10, 13 and 10.
        report = solve(graph=hybrid_community_graph(40, 14, seed=0), pattern=h, k=10)
        assert len(report.subgraphs) == 10
        assert report.candidates_examined <= 2 * 10


class TestInlineVerification:
    """Each popped candidate is verified in-process, inline in ``IPPV.run``:
    ``is_densest`` first, then — for a self-densest candidate only — the
    configured maximal-compactness check."""

    @staticmethod
    def _trace(monkeypatch):
        import repro.lhcds.ippv as ippv_module

        calls = []
        real_is_densest = ippv_module.is_densest

        def is_densest(instances, candidate):
            verdict = real_is_densest(instances, candidate)
            calls.append(("is_densest", candidate, verdict))
            return verdict

        def recording(name, real):
            def verify(graph, instances, candidate, *args, **kwargs):
                calls.append((name, candidate, kwargs))
                return real(graph, instances, candidate, *args, **kwargs)

            return verify

        monkeypatch.setattr(ippv_module, "is_densest", is_densest)
        for name in ("verify_fast", "verify_basic"):
            monkeypatch.setattr(
                ippv_module, name, recording(name, getattr(ippv_module, name))
            )
        return calls

    @pytest.mark.parametrize("mode", ["fast", "basic"])
    def test_is_densest_then_verify_per_candidate(self, monkeypatch, mode):
        # One Frank-Wolfe iteration leaves a candidate that is not
        # self-densest, so both outcomes of the first check occur.
        graph = random_graph(16, 0.4, 200)
        calls = self._trace(monkeypatch)
        result = IPPV(graph, 3, IPPVConfig(iterations=1, verification=mode)).run()
        checks = [call for call in calls if call[0] == "is_densest"]
        assert {verdict for _, _, verdict in checks} == {True, False}
        assert len(checks) == result.verification.is_densest_calls
        assert len(checks) == result.candidates_examined
        verifications = 0
        for position, (name, candidate, _) in enumerate(calls):
            if name == "is_densest":
                continue
            verifications += 1
            assert name == f"verify_{mode}"
            assert calls[position - 1] == ("is_densest", candidate, True)
        assert verifications == sum(1 for call in checks if call[2])
        assert as_set(result) == reference_set(
            exact_top_k_lhcds(graph, clique_instances(graph, 3))
        )

    def test_verify_fast_receives_stats_by_keyword(self, monkeypatch, figure2):
        calls = self._trace(monkeypatch)
        result = IPPV(figure2, 3).run(2)
        keywords = [kwargs for name, _, kwargs in calls if name == "verify_fast"]
        assert keywords
        for kwargs in keywords:
            assert kwargs.keys() == {"stats"}
            assert kwargs["stats"] is result.verification

    @pytest.mark.parametrize(
        "field",
        [
            "verify_executor",
            "verify_batch",
            "verify_jobs",
            "verify_queue_dir",
            "kernel",
            "prune",
            "max_refinement_rounds",
        ],
    )
    def test_removed_fan_out_fields_rejected(self, field):
        with pytest.raises(TypeError, match=field):
            IPPVConfig(**{field: 2})

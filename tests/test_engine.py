"""Tests for the unified solver engine: registry, preprocessing, parity,
serial/parallel bit-identity, and the CLI integration."""

from __future__ import annotations

import json
import random
import sys
import threading
from collections import Counter
from fractions import Fraction

import pytest

from repro.cli import main as cli_main
from repro.datasets.synthetic import hybrid_community_graph
from repro.engine import (
    SolveRequest,
    available_solvers,
    get_solver,
    preprocess,
    report_signature,
    solve,
)
from repro.engine.cache import cache_for
from repro.engine.runtime import rank_by_load_cap
from repro.errors import EngineError
from repro.graph import Graph, complete_graph, cycle_graph, union_graph
from repro.datasets import load_dataset
from repro.lhcds import exact_top_k_lhcds, find_lhcds
from repro.lhcds import ippv as ippv_module
from repro.lhcds.ippv import StageTimings, held_proposal
from repro.cliques import clique_instances
from repro.patterns import get_pattern

from helpers import random_graph


def _shifted(graph: Graph, offset: int) -> Graph:
    return Graph(
        vertices=[v + offset for v in graph.vertices()],
        edges=[(u + offset, v + offset) for u, v in graph.edges()],
    )


def _multi_component_graph() -> Graph:
    """Disjoint K6, K5, K4 plus a triangle-bearing cycle and an instance-free path."""
    parts = [complete_graph(6), _shifted(complete_graph(5), 100), _shifted(complete_graph(4), 200)]
    sparse = cycle_graph(6)
    sparse.add_edge(0, 2)
    parts.append(_shifted(sparse, 300))
    path = Graph(edges=[(400, 401), (401, 402)])
    parts.append(path)
    return union_graph(*parts)


def _signature(report):
    """The bit-comparable output: ordered (vertex set, exact density) pairs."""
    return [(frozenset(s.vertices), s.density) for s in report.subgraphs]


class TestRegistry:
    def test_all_five_solvers_registered(self):
        assert set(available_solvers()) >= {"ippv", "exact", "greedy", "ldsflow", "ltds"}

    def test_unknown_solver_rejected(self):
        with pytest.raises(EngineError, match="unknown solver"):
            solve(graph=complete_graph(4), pattern=3, k=1, solver="nope")

    def test_fixed_h_enforced(self):
        with pytest.raises(EngineError, match="only supports h = 2"):
            solve(graph=complete_graph(4), pattern=3, k=1, solver="ldsflow")
        with pytest.raises(EngineError, match="only supports h = 3"):
            solve(graph=complete_graph(4), pattern=2, k=1, solver="ltds")

    def test_greedy_requires_k(self):
        with pytest.raises(EngineError, match="needs an explicit k"):
            solve(graph=complete_graph(4), pattern=3, solver="greedy")

    def test_invalid_request_parameters(self):
        with pytest.raises(EngineError, match="k must be positive"):
            SolveRequest(graph=complete_graph(4), k=0)
        with pytest.raises(EngineError, match="jobs must be"):
            SolveRequest(graph=complete_graph(4), jobs=-1)
        for solver in ("ippv", "exact"):
            with pytest.raises(EngineError, match="iterations must be non-negative"):
                SolveRequest(graph=complete_graph(4), solver=solver, iterations=-1)
        assert SolveRequest(graph=complete_graph(4), iterations=0).iterations == 0
        with pytest.raises(EngineError, match="empty graph"):
            solve(graph=Graph(), pattern=3, k=1)

    def test_spec_metadata(self):
        assert get_solver("ippv").exact
        assert not get_solver("greedy").exact
        assert get_solver("ldsflow").fixed_h == 2


class TestPreprocessing:
    def test_components_split_and_zero_instance_drop(self):
        graph = _multi_component_graph()
        components, stats = preprocess(SolveRequest(graph=graph, pattern=3))
        assert stats.num_components == 5
        # The 3-vertex path hosts no triangle, so it is not solvable.
        assert stats.num_active_components == 4
        assert len(components) == 4
        assert stats.num_instances == clique_instances(graph, 3).num_instances

    def test_components_carry_restricted_instances_and_bounds(self):
        graph = _multi_component_graph()
        components, _ = preprocess(SolveRequest(graph=graph, pattern=3))
        # Ordered by decreasing upper bound: K6 first.
        assert components[0].subgraph.num_vertices == 6
        total = sum(c.instances.num_instances for c in components)
        assert total == clique_instances(graph, 3).num_instances
        for comp in components:
            assert comp.lower_bound <= comp.upper_bound
            assert all(
                comp.bounds.lower_of(v) <= comp.bounds.upper_of(v)
                for v in comp.subgraph.vertices()
            )

    def test_every_solver_gets_the_same_bounded_components(self):
        # One preprocessing path: greedy gets the clique-core bounds and the
        # upper-bound ordering like every other solver.
        graph = _multi_component_graph()

        def prepared(solver):
            components, _ = preprocess(SolveRequest(graph=graph, pattern=3, k=4, solver=solver))
            return [(c.index, c.upper_bound, c.bounds.lower, c.bounds.upper) for c in components]

        reference = prepared("ippv")
        assert [upper for _, upper, _, _ in reference] == sorted(
            (upper for _, upper, _, _ in reference), reverse=True
        )
        for solver in ("exact", "greedy"):
            assert prepared(solver) == reference

    def test_component_skipping_only_for_exact_solvers(self):
        graph = _multi_component_graph()
        exact = solve(graph=graph, pattern=3, k=1, solver="exact")
        assert exact.preprocessing.num_skipped_components > 0
        greedy = solve(graph=graph, pattern=3, k=1, solver="greedy")
        assert greedy.preprocessing.num_skipped_components == 0
        # Skipping must not change the answer.
        assert _signature(exact)[0] == (frozenset(range(6)), Fraction(20, 6))


class TestCrossSolverParity:
    @pytest.mark.parametrize("abbr", ["HA", "GQ"])
    def test_top1_density_agrees_exact_ippv_greedy(self, abbr):
        graph = load_dataset(abbr)
        densities = {}
        for solver in ("exact", "ippv", "greedy"):
            report = solve(graph=graph, pattern=3, k=5, solver=solver)
            assert report.subgraphs, f"{solver} found nothing on {abbr}"
            densities[solver] = report.subgraphs[0].density
        assert densities["exact"] == densities["ippv"]
        assert densities["exact"] == densities["greedy"]
        assert isinstance(densities["exact"], Fraction)

    def test_exact_solvers_agree_on_full_topk(self):
        graph = _multi_component_graph()
        reports = {
            solver: solve(graph=graph, pattern=3, k=4, solver=solver)
            for solver in ("exact", "ippv", "ltds")
        }
        assert _signature(reports["exact"]) == _signature(reports["ippv"])
        assert _signature(reports["exact"]) == _signature(reports["ltds"])

    def test_engine_matches_direct_ippv_call(self):
        for graph in (load_dataset("HA"), _multi_component_graph()):
            direct = find_lhcds(graph, h=3, k=5)
            engine = solve(graph=graph, pattern=3, k=5, solver="ippv")
            assert _signature(engine) == [
                (frozenset(s.vertices), s.density) for s in direct.subgraphs
            ]

    def test_engine_matches_direct_exact_call(self):
        graph = _multi_component_graph()
        direct = exact_top_k_lhcds(graph, clique_instances(graph, 3), 4)
        engine = solve(graph=graph, pattern=3, k=4, solver="exact")
        assert _signature(engine) == [
            (frozenset(vertices), density) for vertices, density in direct
        ]


def _tie_shaped_graph(rng: random.Random, h: int) -> Graph:
    """2–4 equal cliques joined to a hub vertex 0 that lies in no h-clique.

    The cliques are LhCDSes of one density, so only the report's tie-break
    (size, then the ``repr`` of the sorted vertices) orders them.  They are
    inserted in descending ``repr`` order, against that tie-break, and some
    offsets sort differently as numbers and as strings (``100 < 20``).
    """
    size = rng.randint(h + 1, 6)
    offsets = rng.sample([10, 20, 30, 100, 200, 300, 1000], rng.randint(2, 4))
    offsets.sort(key=lambda offset: repr(list(range(offset, offset + size))), reverse=True)
    graph = union_graph(*[_shifted(complete_graph(size), offset) for offset in offsets])
    for offset in offsets:
        graph.add_edge(0, offset)
    return graph


class TestFiniteKDifferential:
    """``ippv`` and ``exact`` at a finite k report the first k of ``exact``'s full list.

    Seeded G(n, p) graphs (n 6–40, h 2–4; denser ones at h = 5, where
    deg/h has no exact float, so a rounding Frank–Wolfe kernel would
    decide exact ties) and tie-shaped graphs (h 3–5), through
    :func:`repro.engine.solve`, so the component split, the component
    skip, the early stop and the merge all take part.
    """

    @staticmethod
    def _cases():
        rng = random.Random(26)
        for case in range(60):
            n = rng.randint(6, 40)
            yield f"gnp-{case}", random_graph(n, rng.uniform(0.1, 0.5), 2600 + case), 2 + case % 3
        for case in range(20):
            h = 3 + case % 2
            yield f"ties-{case}", _tie_shaped_graph(rng, h), h
        for case in range(12):
            n = rng.randint(14, 24)
            yield f"gnp-h5-{case}", random_graph(n, rng.uniform(0.6, 0.8), 2700 + case), 5
        for case in range(4):
            yield f"ties-h5-{case}", _tie_shaped_graph(rng, 5), 5

    def test_finite_k_is_a_prefix_of_the_full_list(self):
        mismatches = []
        for name, graph, h in self._cases():
            report = solve(graph=graph, pattern=h, k=None, solver="exact")
            # Every h = 5 case holds 5-cliques, so ippv's proposal runs.
            assert h < 5 or report.preprocessing.num_instances > 0, name
            full = _signature(report)
            for k in (1, 2, 3, 5):
                for solver in ("ippv", "exact"):
                    report = solve(graph=graph, pattern=h, k=k, solver=solver)
                    if _signature(report) != full[:k]:
                        mismatches.append((name, h, k, solver))
        assert mismatches == []


def _stream_shaped_graph(base_seed: int) -> Graph:
    """12 disjoint ``hybrid_community_graph(10, 12)`` parts (perfbench's serve-stream)."""
    return union_graph(
        *(
            _shifted(hybrid_community_graph(10, 12, seed=base_seed + i), 1000 * i)
            for i in range(12)
        )
    )


class TestLoadCapRanking:
    """Serial ippv ranks and stops components by their held iterates' load caps.

    Ranked by Algorithm 1's ``c_max`` alone (18–40 on these parts, far
    above their densest LhCDSes), no part of either graph stops early, and
    the top-10 examines 129 and 126 candidates.
    """

    @pytest.mark.parametrize(
        "base_seed,min_stopped,max_candidates", [(2000, 4, 80), (1000, 2, 100)]
    )
    def test_stop_fires_on_the_serve_stream_shape(self, base_seed, min_stopped, max_candidates):
        graph = _stream_shaped_graph(base_seed)
        report = solve(graph=graph, pattern=3, k=10, solver="ippv", executor="serial")
        assert report.preprocessing.num_early_stopped_components >= min_stopped
        assert report.candidates_examined <= max_candidates
        exact = solve(graph=graph, pattern=3, k=10, solver="exact", executor="serial")
        pooled = solve(
            graph=graph, pattern=3, k=10, solver="ippv", executor="process", jobs=2
        )
        assert pooled.executor == "process"
        assert _signature(report) == _signature(exact) == _signature(pooled)

    def test_caps_bound_each_component_and_fill_its_memo(self):
        request = SolveRequest(graph=_stream_shaped_graph(2000), pattern=3, k=10)
        components, _ = preprocess(request)
        ranked = rank_by_load_cap(components, request.iterations)
        assert [c.index for c in ranked] != [c.index for c in components]
        by_index = {c.index: c for c in components}
        for capped in ranked:
            component = by_index[capped.index]
            assert capped.memo is component.memo
            assert set(component.memo) == {request.iterations}
            best = exact_top_k_lhcds(component.subgraph, component.instances, 1)[0][1]
            assert best <= capped.upper_bound < component.upper_bound
        caps = [c.upper_bound for c in ranked]
        assert caps == sorted(caps, reverse=True)

    def test_memo_holds_one_iterate_per_component(self, tmp_path):
        # A warm artifact asked for many T keeps each component's latest
        # iterate, not one per T, and every warm report equals a cold one.
        graph = union_graph(
            *(_shifted(hybrid_community_graph(3, 8, seed=seed), 100 * seed) for seed in range(3))
        )
        root = str(tmp_path / "cache")
        for iterations in (1, 2, 3, 5, 8, 13, 20, 1):
            options = dict(graph=graph, pattern=3, k=5, iterations=iterations, executor="serial")
            warm = solve(cache_dir=root, **options)
            assert report_signature(warm) == report_signature(solve(**options))
            memos = [
                c.memo for components, _ in cache_for(root)._memory.values()
                for c in components
            ]
            assert len(memos) > 1
            assert all(set(memo) <= {iterations} for memo in memos)
            assert any(memo for memo in memos)


def _held_digest(iterate, proposal):
    """Everything a held memo entry holds, as a comparable value."""
    return repr((
        iterate.alpha,
        sorted((repr(v), r) for v, r in iterate.r.items()),
        iterate.denominator,
        [(sorted(map(repr, g.vertices)), g.r_min, g.r_max, g.stable) for g in proposal.groups],
        sorted((repr(v), value) for v, value in proposal.bounds.lower.items()),
        sorted((repr(v), value) for v, value in proposal.bounds.upper.items()),
    ))


class TestHeldProposal:
    """Each component holds IPPV's first proposal next to its iterate."""

    def test_warm_solve_runs_no_first_proposal(self, monkeypatch, tmp_path):
        # A cache hit reads each solved component's first proposal, so
        # TentativeGD and DeriveSG run only for refinements and the prune
        # never runs.
        options = dict(
            graph=_stream_shaped_graph(2000), pattern=3, k=10, solver="ippv",
            executor="serial", cache_dir=str(tmp_path / "cache"),
        )
        cold = solve(**options)
        calls = Counter()
        for name in ("tentative_decomposition", "derive_stable_groups", "prune_candidates"):
            def counted(*args, _stage=getattr(ippv_module, name), _name=name, **kwargs):
                calls[_name] += 1
                return _stage(*args, **kwargs)

            monkeypatch.setattr(ippv_module, name, counted)
        warm = solve(**options)
        assert warm.preprocessing.cache_state == "hit-memory"
        assert report_signature(warm) == report_signature(cold)
        assert warm.refinements > 0
        assert calls["tentative_decomposition"] == warm.refinements
        assert calls["derive_stable_groups"] == warm.refinements
        assert calls["prune_candidates"] == 0

    def test_ranking_fills_no_proposal(self, tmp_path):
        request = SolveRequest(
            graph=_stream_shaped_graph(2000), pattern=3, k=10, cache_dir=str(tmp_path / "cache")
        )
        components, stats = preprocess(request)
        assert stats.cache_state == "miss"
        rank_by_load_cap(components, request.iterations)
        assert all(list(c.memo) == [request.iterations] for c in components)
        assert all(c.memo[request.iterations].proposal is None for c in components)

    def test_concurrent_fills_return_the_serial_proposal(self):
        # Threads filling one entry at once each build their own proposal;
        # every one must equal a serial fill, the memo must keep one entry,
        # and the component's own bounds must stay untightened.
        graph = union_graph(
            hybrid_community_graph(3, 8, seed=4), _shifted(hybrid_community_graph(3, 8, seed=5), 100)
        )
        request = SolveRequest(graph=graph, pattern=3, k=5)
        component = preprocess(request)[0][0]
        iterations = request.iterations
        args = (component.subgraph, component.instances, component.bounds, iterations)
        serial = _held_digest(*held_proposal({}, *args, StageTimings()))
        bounds_before = repr((component.bounds.lower, component.bounds.upper))
        workers = 8
        results = [None] * workers
        barrier = threading.Barrier(workers, timeout=60)

        def fill(slot):
            barrier.wait()
            results[slot] = held_proposal(component.memo, *args, StageTimings())

        threads = [threading.Thread(target=fill, args=(slot,)) for slot in range(workers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert all(result is not None and _held_digest(*result) == serial for result in results)
        assert list(component.memo) == [iterations]
        entry = component.memo[iterations]
        assert _held_digest(entry.iterate, entry.proposal) == serial
        assert repr((component.bounds.lower, component.bounds.upper)) == bounds_before


class TestSerialParallelIdentity:
    @pytest.mark.parametrize(
        "solver,h", [("ippv", 3), ("exact", 3), ("greedy", 3), ("ldsflow", 2), ("ltds", 3)]
    )
    @pytest.mark.parametrize("jobs", [2, 4])
    def test_parallel_output_bit_identical_to_serial(self, solver, h, jobs):
        graph = _multi_component_graph()
        serial = solve(graph=graph, pattern=h, k=4, solver=solver, jobs=1)
        parallel = solve(graph=graph, pattern=h, k=4, solver=solver, jobs=jobs)
        assert _signature(serial) == _signature(parallel)
        assert serial.jobs_used == 1
        # Guards against a silent serial fallback: the graph has >= 4
        # solvable components for every solver, so unless the run was
        # forced onto the serial backend (REPRO_EXECUTOR in the CI matrix)
        # the parallel backend must actually engage.
        assert parallel.fallback_reason is None
        if parallel.executor == "serial":
            assert parallel.jobs_used == 1
        else:
            assert parallel.jobs_used == jobs

    def test_jobs_zero_means_cpu_count(self):
        graph = _multi_component_graph()
        serial = solve(graph=graph, pattern=3, k=4, solver="exact", jobs=1)
        auto = solve(graph=graph, pattern=3, k=4, solver="exact", jobs=0)
        assert _signature(serial) == _signature(auto)


class TestPatternsThroughEngine:
    def test_non_clique_pattern(self):
        graph = load_dataset("HA")
        report = solve(graph=graph, pattern=get_pattern("2-triangle"), k=2, solver="ippv")
        assert report.h == 4
        assert report.pattern_name == "2-triangle"
        assert all(s.density > 0 for s in report.subgraphs)


class TestReport:
    def test_report_carries_engine_metadata(self):
        graph = _multi_component_graph()
        report = solve(graph=graph, pattern=3, k=2, solver="ippv", jobs=1)
        assert report.solver == "ippv"
        assert report.k == 2
        assert report.preprocessing.num_vertices == graph.num_vertices
        assert report.preprocessing.num_instances > 0
        assert report.timings.total > 0

    def test_json_dict_round_trips(self):
        report = solve(graph=complete_graph(5), pattern=3, k=1, solver="exact")
        payload = json.loads(json.dumps(report.to_json_dict(), default=str))
        assert payload["solver"] == "exact"
        assert Fraction(payload["subgraphs"][0]["density"]) == Fraction(10, 5)
        assert payload["subgraphs"][0]["density_float"] == 2.0
        assert payload["subgraphs"][0]["vertices"] == [0, 1, 2, 3, 4]
        assert "preprocessing" in payload and "timings" in payload


class TestCLI:
    def test_topk_json_output(self, capsys):
        assert cli_main(["topk", "--dataset", "HA", "--k", "2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["solver"] == "ippv"
        assert len(payload["subgraphs"]) == 2
        top = payload["subgraphs"][0]
        assert Fraction(top["density"]) == Fraction(35, 3)
        assert top["vertices"]
        assert "timings" in payload and "preprocessing" in payload

    @pytest.mark.parametrize("solver", ["ippv", "exact", "greedy", "ltds"])
    def test_topk_runs_every_solver(self, solver, capsys):
        assert cli_main(["topk", "--dataset", "HA", "--k", "2", "--solver", solver]) == 0
        assert "density=" in capsys.readouterr().out

    def test_topk_ldsflow_needs_h2(self, capsys):
        assert cli_main(["topk", "--dataset", "HA", "--k", "2", "--solver", "ldsflow"]) == 1
        assert "only supports h = 2" in capsys.readouterr().err
        assert cli_main(
            ["topk", "--dataset", "HA", "--h", "2", "--k", "2", "--solver", "ldsflow"]
        ) == 0

    def test_topk_pattern_flag(self, capsys):
        assert cli_main(
            ["topk", "--dataset", "HA", "--pattern", "2-triangle", "--k", "1"]
        ) == 0
        assert "2-triangle" in capsys.readouterr().out

    def test_topk_jobs_flag_matches_serial(self, capsys):
        assert cli_main(["topk", "--dataset", "HA", "--k", "2", "--json"]) == 0
        serial = json.loads(capsys.readouterr().out)
        assert cli_main(["topk", "--dataset", "HA", "--k", "2", "--json", "--jobs", "2"]) == 0
        parallel = json.loads(capsys.readouterr().out)
        assert serial["subgraphs"] == parallel["subgraphs"]

    def test_solvers_subcommand(self, capsys):
        assert cli_main(["solvers"]) == 0
        out = capsys.readouterr().out
        for name in ("ippv", "exact", "greedy", "ldsflow", "ltds"):
            assert name in out

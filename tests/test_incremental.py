"""Tests for the incremental engine: :class:`IncrementalSession` solves must
be bit-identical — result AND stats-relevant fields — to a cold solve of the
final graph, after any delta sequence, on every executor."""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro.cliques import clique_instances
from repro.datasets.synthetic import barabasi_albert_graph, hybrid_community_graph
from repro.engine import (
    IncrementalSession,
    SolveRequest,
    report_signature,
    solve,
)
from repro.errors import EngineError
from repro.graph import Graph, GraphDelta, complete_graph, connected_components, union_graph

from helpers import multi_component_graph, random_graph, reference_delta_stats, shifted


def cold_signature(graph: Graph, **options) -> str:
    return report_signature(
        solve(SolveRequest(graph=graph.copy(), pattern=options.pop("h", 3), **options))
    )


def random_delta(graph: Graph, rng: random.Random) -> GraphDelta:
    """A random valid delta: edge/vertex inserts and deletes, interleaved."""
    vertices = sorted(graph.vertices())
    choice = rng.random()
    if choice < 0.3 and len(vertices) >= 2:
        # insert a bundle of edges (may merge components / create vertices)
        edges = []
        for _ in range(rng.randint(1, 3)):
            u = rng.choice(vertices)
            v = rng.choice(vertices + [max(vertices) + rng.randint(1, 3)])
            if u != v and not graph.has_edge(u, v):
                edges.append((u, v))
        if edges:
            return GraphDelta(add_edges=tuple(edges))
    if choice < 0.55 and graph.num_edges > 1:
        # delete edges (may split a component)
        all_edges = sorted(graph.edges())
        picks = rng.sample(all_edges, min(rng.randint(1, 2), len(all_edges)))
        return GraphDelta(remove_edges=tuple(picks))
    if choice < 0.8 and len(vertices) > 4:
        return GraphDelta(remove_vertices=(rng.choice(vertices),))
    fresh = max(vertices) + rng.randint(1, 5)
    anchors = rng.sample(vertices, min(2, len(vertices)))
    return GraphDelta(
        add_vertices=(fresh,),
        add_edges=tuple((fresh, a) for a in anchors),
    )


class TestBitIdentityRandomized:
    """Property-style: incremental == cold after random delta sequences."""

    @pytest.mark.parametrize(
        "options",
        [
            dict(solver="ippv", k=2),
            dict(solver="exact", k=3),
            dict(solver="greedy", k=2),
            dict(solver="ippv", k=None),
        ],
        ids=["ippv-k2", "exact-k3", "greedy-k2", "ippv-all"],
    )
    def test_random_delta_sequences(self, options):
        for seed in range(4):
            rng = random.Random(seed * 101 + 7)
            graph = random_graph(14 + seed, 0.3, seed=seed)
            session = IncrementalSession(graph.copy(), 3)
            applied = []
            for _ in range(5):
                delta = random_delta(session.graph, rng)
                if delta.is_empty:
                    continue
                session.apply_delta(delta)
                applied.append(delta)
                if session.graph.num_vertices == 0:
                    break
                warm = report_signature(session.solve(**options))
                assert warm == cold_signature(session.graph, **options), (
                    f"seed={seed} deltas={applied}"
                )

    def test_split_then_merge_component(self):
        """A bridge removal splits one component; re-adding it merges back."""
        left = complete_graph(4)
        right = shifted(complete_graph(4), 10)
        graph = union_graph(left, right)
        graph.add_edge(0, 10)  # bridge
        session = IncrementalSession(graph.copy(), 3)
        options = dict(solver="exact", k=2)
        base = report_signature(session.solve(**options))
        assert base == cold_signature(session.graph, **options)

        split = GraphDelta(remove_edges=((0, 10),))
        stats = session.apply_delta(split)
        assert stats.components_invalidated == 1
        assert stats.components_reenumerated == 2  # both halves rebuilt
        assert report_signature(session.solve(**options)) == cold_signature(
            session.graph, **options
        )

        merge = GraphDelta(add_edges=((0, 10),))
        stats = session.apply_delta(merge)
        assert stats.components_invalidated == 2
        assert stats.components_reenumerated == 1
        assert report_signature(session.solve(**options)) == cold_signature(
            session.graph, **options
        )

    def test_vertex_removal_strands_remainder_component(self):
        """Removing a cut vertex leaves remainder components that contain no
        touched vertex but still need fresh state (regression: they used to
        be skipped, leaving zero active components)."""
        graph = Graph(edges=[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)])
        session = IncrementalSession(graph.copy(), 3)
        session.apply_delta(GraphDelta(remove_vertices=(3,)))
        options = dict(solver="ippv", k=2)
        report = session.solve(**options)
        assert report.preprocessing.num_active_components == 1
        assert report_signature(report) == cold_signature(session.graph, **options)


class TestExecutorMatrix:
    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_matrix_bit_identity(self, executor):
        graph = multi_component_graph()
        session = IncrementalSession(graph.copy(), 3)
        options = dict(solver="exact", k=3, executor=executor, jobs=2)
        session.solve(**options)
        deltas = [
            GraphDelta(remove_vertices=(0,)),  # touch the K6
            GraphDelta(add_edges=((301, 303),)),  # touch the sparse cycle
            GraphDelta(add_vertices=(500,), add_edges=((500, 100), (500, 101))),
        ]
        for delta in deltas:
            session.apply_delta(delta)
            warm = report_signature(session.solve(**options))
            assert warm == cold_signature(session.graph, **options)


class TestResultReuse:
    def test_untouched_components_are_served_from_cache(self):
        graph = multi_component_graph()
        session = IncrementalSession(graph.copy(), 3)
        options = dict(solver="exact", k=5)
        session.solve(**options)
        first = session.last_solve_stats
        assert first.components_solved > 0 and first.components_reused == 0

        # Touch only the K4 component (vertices 200..203).
        session.apply_delta(GraphDelta(remove_vertices=(203,)))
        session.solve(**options)
        second = session.last_solve_stats
        assert second.components_reused >= 2  # K6, K5, cycle carry over
        assert second.components_solved <= 2

    def test_repeat_solve_is_fully_cached(self):
        graph = multi_component_graph()
        session = IncrementalSession(graph.copy(), 3)
        options = dict(solver="exact", k=5)
        first = report_signature(session.solve(**options))
        second_report = session.solve(**options)
        stats = session.last_solve_stats
        assert report_signature(second_report) == first
        assert stats.components_solved == 0
        assert stats.components_reused == stats.components_total

    def test_stats_report_measured_times_only(self):
        # Only measured seconds ride on the delta and solve stats; how much
        # a session saves over a cold start is the benchmarks' to measure.
        session = IncrementalSession(multi_component_graph(), 3)
        delta_stats = session.apply_delta(GraphDelta(remove_vertices=(203,)))
        session.solve(solver="exact", k=5)
        solve_stats = session.last_solve_stats.as_dict()
        assert [key for key in delta_stats.as_dict() if "seconds" in key] == ["apply_seconds"]
        assert [key for key in solve_stats if "seconds" in key] == ["solve_seconds"]
        assert set(solve_stats) == {
            "epoch",
            "components_total",
            "components_reused",
            "components_solved",
            "solve_seconds",
        }

    def test_config_change_does_not_reuse_stale_results(self):
        graph = multi_component_graph()
        session = IncrementalSession(graph.copy(), 3)
        session.solve(solver="exact", k=1)
        session.solve(solver="exact", k=5)  # different k: fresh solve
        assert session.last_solve_stats.components_reused == 0
        assert report_signature(session.solve(solver="exact", k=5)) == cold_signature(
            session.graph, solver="exact", k=5
        )


class TestDeltaStatsAndGuards:
    def test_delta_stats_counts(self):
        graph = multi_component_graph()
        session = IncrementalSession(graph.copy(), 3)
        stats = session.apply_delta(
            GraphDelta(add_vertices=(900,), remove_vertices=(0,))
        )
        assert stats.epoch == 1 == session.epoch
        assert stats.vertices_added == 1 and stats.vertices_removed == 1
        assert stats.touched_vertices == 2
        assert stats.components_invalidated == 1  # only the K6
        assert stats.components_reused >= 4
        assert stats.instances_dropped > 0

    def test_out_of_band_mutation_detected(self):
        graph = complete_graph(4)
        session = IncrementalSession(graph, 3)  # shares the object
        graph.add_edge(0, 99)
        with pytest.raises(EngineError, match="outside apply_delta"):
            session.solve(solver="ippv", k=1)
        with pytest.raises(EngineError, match="outside apply_delta"):
            session.apply_delta(GraphDelta(add_vertices=(7,)))

    def test_already_applied_requires_moved_epoch(self):
        graph = complete_graph(4)
        session = IncrementalSession(graph, 3)
        with pytest.raises(EngineError, match="epoch"):
            session.apply_delta(
                GraphDelta(add_vertices=(9,)), already_applied=True
            )

    def test_session_pins_graph_and_pattern(self):
        session = IncrementalSession(complete_graph(4), 3)
        with pytest.raises(EngineError, match="pins"):
            session.solve(graph=complete_graph(3))
        with pytest.raises(EngineError, match="pins"):
            session.solve(pattern=4)
        # The kernel is no session parameter: there is only one.
        with pytest.raises(TypeError, match="kernel"):
            IncrementalSession(complete_graph(4), 3, kernel="stdlib")

    def test_empty_graph_rejected(self):
        with pytest.raises(EngineError, match="empty graph"):
            IncrementalSession(Graph(), 3)

    def test_invalid_delta_leaves_session_consistent(self):
        session = IncrementalSession(complete_graph(4), 3)
        with pytest.raises(Exception):
            session.apply_delta(GraphDelta(remove_vertices=(42,)))
        assert session.epoch == 0
        options = dict(solver="exact", k=1)
        assert report_signature(session.solve(**options)) == cold_signature(
            session.graph, **options
        )


def _delta_shapes(before: Graph, after: Graph, delta: GraphDelta, h: int):
    """Which of the shapes the oracle test must cover this delta has."""
    touched = delta.touched_vertices
    old = connected_components(before)
    home = {v: index for index, comp in enumerate(old) for v in comp}
    hit = [comp for comp in old if comp & touched]
    covered = {v for row in clique_instances(before, h) for v in row}
    shapes = set()
    if any(v not in before for v in touched):
        shapes.add("new vertex")
    if any(not comp & covered for comp in hit):
        shapes.add("instance-free")
    for comp in connected_components(after):
        if len({home[v] for v in comp if v in home}) > 1:
            shapes.add("merge")
        if delta.remove_vertices and not comp & touched and any(comp < c for c in hit):
            shapes.add("stranded")
    return shapes


class TestDeltaStatsOracle:
    """The per-component bookkeeping equals a whole-graph recount: every
    ``DeltaStats`` count, the instance count and the component list."""

    def test_random_steps_match_whole_graph_recount(self):
        steps = 0
        shapes = Counter()
        for seed in range(80):
            rng = random.Random(seed)
            h = 2 + seed % 3
            n = rng.randint(10, 22)
            graph = random_graph(n, rng.choice((0.1, 0.2, 0.3)), seed=seed)
            session = IncrementalSession(graph.copy(), h)
            applied = []
            for _ in range(8):
                before = session.graph.copy()
                delta = random_delta(before, rng)
                if delta.is_empty:
                    continue
                stats = session.apply_delta(delta)
                applied.append(delta)
                after = session.graph
                counts = {
                    key: value for key, value in stats.as_dict().items() if "seconds" not in key
                }
                expected = reference_delta_stats(before, after, delta, h)
                assert counts == {"epoch": session.epoch, **expected}, (
                    f"seed={seed} deltas={applied}"
                )
                assert session.num_instances == clique_instances(after, h).num_instances
                assert session._components == connected_components(after)
                shapes.update(_delta_shapes(before, after, delta, h))
                steps += 1
        assert steps >= 500
        for shape in ("stranded", "merge", "new vertex", "instance-free"):
            assert shapes[shape] > 0, shapes


class TestWarmBoundsStayCold:
    """Regression: IPPV tightened a held component's bounds in place, so a
    session solve after one with another ``iterations`` started from bounds
    a cold solve never has."""

    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_other_iterations_after_a_solve_match_cold(self, executor):
        graph = barabasi_albert_graph(90, 4, seed=12)
        session = IncrementalSession(graph.copy(), 3)
        options = dict(k=10, executor=executor, jobs=2)
        session.solve(iterations=20, **options)
        warm = session.solve(iterations=5, **options)
        cold = solve(SolveRequest(graph=graph.copy(), pattern=3, iterations=5, **options))
        assert warm.candidates_examined == cold.candidates_examined == 4
        assert report_signature(warm) == report_signature(cold)

    def test_seeded_sweep_of_iteration_pairs(self):
        divergent = []
        for seed in range(120):
            rng = random.Random(seed)
            if seed % 3 == 0:
                graph = random_graph(rng.randint(20, 45), rng.choice((0.2, 0.3, 0.4)), seed=seed)
            elif seed % 3 == 1:
                graph = hybrid_community_graph(rng.randint(2, 4), rng.randint(6, 10), seed=seed)
            else:
                graph = barabasi_albert_graph(rng.randint(30, 70), rng.randint(3, 5), seed=seed)
            h = rng.choice((3, 4))
            k = rng.choice((None, 3, 10))
            first, second = rng.sample((0, 1, 2, 3, 5, 20, 40), 2)
            session = IncrementalSession(graph.copy(), h)
            session.solve(k=k, iterations=first)
            warm = report_signature(session.solve(k=k, iterations=second))
            if warm != cold_signature(graph, h=h, k=k, iterations=second):
                divergent.append((seed, h, k, first, second))
        assert divergent == []


class TestLoadCapStop:
    """Serial ippv sessions rank components by their held iterates' load caps."""

    def test_seeded_deltas_keep_the_stop_firing_and_match_cold(self):
        # Six parts; each delta toggles one original edge of a random part,
        # so the touched part is rebuilt with an empty memo while the rest
        # keep theirs, and parts the stop skipped stay unsolved.
        parts = [hybrid_community_graph(3, 10, seed=300 + i) for i in range(6)]
        graph = union_graph(*(shifted(part, 100 * i) for i, part in enumerate(parts)))
        edges = sorted(graph.edges())
        options = dict(solver="ippv", k=3, executor="serial")
        session = IncrementalSession(graph.copy(), 3)
        rng = random.Random(27)
        removed = set()
        for step in range(12):
            if step:
                edge = rng.choice(edges)
                if edge in removed:
                    removed.discard(edge)
                    session.apply_delta(GraphDelta(add_edges=(edge,)))
                else:
                    removed.add(edge)
                    session.apply_delta(GraphDelta(remove_edges=(edge,)))
            warm = session.solve(**options)
            assert warm.preprocessing.num_early_stopped_components > 0, step
            assert report_signature(warm) == cold_signature(session.graph, **options), step


class TestSessionLock:
    """Each session carries its own reentrant lock; concurrent apply/solve
    calls serialize per session and stay bit-identical to the cold solve
    of whatever graph content they observe."""

    def test_concurrent_solves_match_cold_signature(self):
        import threading

        graph = multi_component_graph()
        session = IncrementalSession(graph.copy(), 3)
        expected = cold_signature(graph, k=1)
        results, errors = [], []

        def worker():
            try:
                for _ in range(5):
                    results.append(report_signature(session.solve(k=1)))
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert results and set(results) == {expected}

    def test_interleaved_deltas_and_solves_stay_consistent(self):
        import threading

        graph = complete_graph(6)
        session = IncrementalSession(graph.copy(), 3)
        session.solve(k=1)
        # The two graph states the toggling delta flips between.
        without = graph.copy()
        without.apply_delta(GraphDelta(remove_edges=((0, 1),)))
        allowed = {cold_signature(graph, k=1), cold_signature(without, k=1)}
        errors = []
        stop = threading.Event()

        def toggler():
            try:
                removed = False
                while not stop.is_set():
                    if removed:
                        session.apply_delta(GraphDelta(add_edges=((0, 1),)))
                    else:
                        session.apply_delta(GraphDelta(remove_edges=((0, 1),)))
                    removed = not removed
                if removed:
                    session.apply_delta(GraphDelta(add_edges=((0, 1),)))
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        def solver():
            try:
                for _ in range(10):
                    signature = report_signature(session.solve(k=1))
                    assert signature in allowed
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        toggle = threading.Thread(target=toggler)
        solvers = [threading.Thread(target=solver) for _ in range(3)]
        toggle.start()
        for thread in solvers:
            thread.start()
        for thread in solvers:
            thread.join()
        stop.set()
        toggle.join(timeout=10)
        assert errors == []
        # After the toggler restored the edge, the session is back on the
        # complete graph and still bit-identical to the cold solve.
        assert report_signature(session.solve(k=1)) == cold_signature(graph, k=1)

"""Tests for the two execution backends: name and env resolution,
bit-identity across both backends, what the runtime hands each runner and
the serial early stop, known results passed as data, the removed backends
and knobs, and the infrastructure-vs-solver failure split."""

from __future__ import annotations

import dataclasses
import json
import pickle
from types import SimpleNamespace

import pytest

from helpers import multi_component_graph, shifted, signature

import repro.engine.executors as executors_module
import repro.engine.runtime as runtime_module
import repro.engine.solvers as solvers_module
from repro.cli import main as cli_main
from repro.datasets.synthetic import gnp_graph, planted_communities_graph
from repro.engine import (
    IncrementalSession,
    SolverSpec,
    SolveRequest,
    available_executors,
    cold_preprocess,
    describe_executor,
    report_signature,
    solve,
    solve_prepared,
)
from repro.engine.executors import solve_in_worker
from repro.errors import EngineError
from repro.graph import GraphDelta, complete_graph, union_graph

ALL_EXECUTORS = ("serial", "process")


def _one_component_graph():
    """One multi-level dense component plus three isolated vertices."""
    graph, _ = planted_communities_graph(
        [12, 10, 9], p_in=0.95, p_out=0.04, seed=21, background=12
    )
    return graph


def _early_stop_graph():
    """Four G(9, 0.55) components whose bounds overlap, so for k=1 the
    serial early stop (not the bound-based skipping) drops the tail."""
    return union_graph(*[shifted(gnp_graph(9, 0.55, seed=i), 100 * i) for i in range(4)])


@pytest.fixture
def runs(monkeypatch):
    """Record every call the runtime makes to a backend runner: the
    components it hands over, the vertex sets already known at the call,
    and the runner's last argument (``early_stop_k`` or ``jobs``)."""
    seen = []

    def recording(backend, runner):
        def record(components, request, known, option):
            seen.append(
                SimpleNamespace(
                    backend=backend,
                    components=list(components),
                    known=set(known),
                    option=option,
                )
            )
            return runner(components, request, known, option)

        return record

    monkeypatch.setattr(
        runtime_module, "run_serial", recording("serial", runtime_module.run_serial)
    )
    monkeypatch.setattr(
        runtime_module, "run_pool", recording("process", runtime_module.run_pool)
    )
    return seen


@pytest.fixture
def pools(monkeypatch):
    """Record every process pool the pool runner starts: its worker count
    and the (component, request) tasks it ships to the workers."""
    started = []
    real_pool = executors_module.ProcessPoolExecutor

    class SpyPool(real_pool):
        def __init__(self, max_workers):
            super().__init__(max_workers=max_workers)
            self.max_workers = max_workers
            self.shipped = []
            started.append(self)

        def map(self, fn, tasks, **kwargs):
            tasks = list(tasks)
            self.shipped.extend(tasks)
            return super().map(fn, tasks, **kwargs)

    monkeypatch.setattr(executors_module, "ProcessPoolExecutor", SpyPool)
    return started


class TestBackendSelection:
    def test_both_backends_listed(self):
        assert available_executors() == ["process", "serial"]
        for name in available_executors():
            assert describe_executor(name)
            assert describe_executor(f" {name.upper()} ") == describe_executor(name)

    def test_unknown_executor_rejected(self):
        with pytest.raises(EngineError, match="unknown executor"):
            describe_executor("rocket")
        with pytest.raises(EngineError, match="unknown executor"):
            solve(graph=complete_graph(4), pattern=3, k=1, executor="rocket")

    @pytest.mark.parametrize("name", ["queue", "thread"])
    def test_removed_backends_rejected(self, name):
        with pytest.raises(EngineError, match="available: process, serial"):
            solve(graph=complete_graph(4), pattern=3, k=1, executor=name)

    def test_env_variable_selects_backend(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR", "process")
        report = solve(graph=complete_graph(4), pattern=3, k=1, solver="exact")
        assert report.executor == "process"

    def test_invalid_env_variable_fails_loudly(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR", "not-a-backend")
        with pytest.raises(EngineError, match="unknown executor"):
            solve(graph=complete_graph(4), pattern=3, k=1)

    @pytest.mark.parametrize("name", ["queue", "thread"])
    def test_removed_backend_in_env_fails_loudly(self, monkeypatch, name):
        monkeypatch.setenv("REPRO_EXECUTOR", name)
        with pytest.raises(EngineError, match="available: process, serial"):
            solve(graph=complete_graph(4), pattern=3, k=1)

    def test_auto_backend_is_serial_for_one_component(self, monkeypatch):
        monkeypatch.delenv("REPRO_EXECUTOR", raising=False)
        report = solve(
            graph=_one_component_graph(), pattern=3, k=5, solver="exact", jobs=4
        )
        assert report.executor == "serial"
        assert report.jobs_used == 1

    def test_auto_backend_is_process_for_many_components(self, monkeypatch):
        monkeypatch.delenv("REPRO_EXECUTOR", raising=False)
        report = solve(
            graph=multi_component_graph(), pattern=3, k=4, solver="ippv", jobs=2
        )
        assert report.executor == "process"
        assert report.jobs_used == 2
        assert report.fallback_reason is None

    def test_request_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR", "process")
        report = solve(
            graph=complete_graph(4), pattern=3, k=1, solver="exact", executor="serial"
        )
        assert report.executor == "serial"

    @pytest.mark.parametrize(
        "knob", ["shards", "queue_dir", "verify_batch", "verify_executor", "verify_jobs"]
    )
    def test_removed_knobs_rejected(self, knob):
        with pytest.raises(TypeError, match=knob):
            solve(graph=complete_graph(4), pattern=3, k=1, **{knob: 2})


class TestBitIdentityAcrossBackends:
    """The acceptance criterion: every registered solver, every backend."""

    @pytest.mark.parametrize(
        "solver,h",
        [("ippv", 3), ("exact", 3), ("greedy", 3), ("ldsflow", 2), ("ltds", 3)],
    )
    @pytest.mark.parametrize("executor", ALL_EXECUTORS)
    def test_every_solver_identical_on_every_backend(self, solver, h, executor):
        graph = multi_component_graph()
        reference = solve(
            graph=graph, pattern=h, k=4, solver=solver, jobs=1, executor="serial"
        )
        report = solve(
            graph=graph, pattern=h, k=4, solver=solver, jobs=2, executor=executor
        )
        assert signature(report) == signature(reference)
        # The requested backend must actually have run — a fallback here
        # would make the matrix assertion vacuous.
        assert report.executor == executor
        assert report.fallback_reason is None

    @pytest.mark.parametrize("executor", ALL_EXECUTORS)
    def test_k_none_identical_on_every_backend(self, executor):
        graph = multi_component_graph()
        reference = solve(
            graph=graph, pattern=3, k=None, solver="exact", jobs=1, executor="serial"
        )
        report = solve(
            graph=graph, pattern=3, k=None, solver="exact", jobs=2, executor=executor
        )
        assert signature(report) == signature(reference)

    @pytest.mark.parametrize("jobs", [2, 5])
    @pytest.mark.parametrize("executor", ALL_EXECUTORS)
    @pytest.mark.parametrize("solver", ["ippv", "exact"])
    def test_one_component_identical_for_any_jobs(self, solver, executor, jobs):
        # A graph with a single solvable component is one task: the work,
        # and every statistic about it, must not depend on the parallelism.
        graph = _one_component_graph()
        reference = solve(
            graph=graph, pattern=3, k=5, solver=solver, jobs=1, executor="serial"
        )
        report = solve(
            graph=graph, pattern=3, k=5, solver=solver, jobs=jobs, executor=executor
        )
        assert report_signature(report) == report_signature(reference)
        assert report.verification == reference.verification
        assert report.refinements == reference.refinements
        assert report.exact_splits == reference.exact_splits
        assert report.executor == executor
        assert report.fallback_reason is None
        assert report.jobs_used == 1


class TestComponentRuns:
    """What the runtime hands the runners: one call, one entry per component."""

    @pytest.mark.parametrize(
        "solver,h",
        [("ippv", 3), ("exact", 3), ("greedy", 3), ("ldsflow", 2), ("ltds", 3)],
    )
    def test_one_run_with_one_component_per_scheduled_component(self, runs, solver, h):
        report = solve(
            graph=multi_component_graph(), pattern=h, k=4, solver=solver,
            jobs=2, executor="serial",
        )
        (run,) = runs
        assert run.backend == "serial"
        stats = report.preprocessing
        assert len(run.components) == (
            stats.num_active_components - stats.num_skipped_components
        )
        indices = [component.index for component in run.components]
        assert len(set(indices)) == len(indices)
        # A cold solve knows nothing in advance.
        assert run.known == set()

    @pytest.mark.parametrize(
        "solver,h,k,expected",
        [
            ("exact", 3, 2, 2),
            ("ippv", 3, 2, 2),
            ("ltds", 3, 2, 2),
            ("ldsflow", 2, 2, 2),
            ("exact", 3, None, None),
            ("greedy", 3, 2, None),
        ],
    )
    def test_early_stop_armed_for_exact_top_k(self, runs, solver, h, k, expected):
        # jobs > 1 must not disarm the early stop on the serial backend.
        solve(
            graph=multi_component_graph(), pattern=h, k=k, solver=solver,
            jobs=4, executor="serial",
        )
        (run,) = runs
        assert run.option == expected

    def test_pool_capped_to_component_count(self, runs, pools):
        report = solve(
            graph=_one_component_graph(), pattern=3, k=5, solver="exact",
            jobs=4, executor="process",
        )
        (run,) = runs
        assert run.backend == "process"
        assert len(run.components) == 1
        assert run.option == 4
        (pool,) = pools
        assert pool.max_workers == 1
        assert len(pool.shipped) == 1
        assert report.executor == "process"
        assert report.jobs_used == 1

    @pytest.mark.parametrize("jobs", [2, 4, 8])
    def test_serial_early_stop_independent_of_jobs(self, jobs):
        graph = _early_stop_graph()
        reference = solve(
            graph=graph, pattern=3, k=1, solver="exact", jobs=1, executor="serial"
        )
        report = solve(
            graph=graph, pattern=3, k=1, solver="exact", jobs=jobs, executor="serial"
        )
        assert reference.preprocessing.num_early_stopped_components > 0
        assert report_signature(report) == report_signature(reference)
        assert report.verification == reference.verification

    def test_parallel_backend_solves_every_component(self):
        # The process backend has no early stop: it solves the components
        # the serial run skipped, and the merge discards their subgraphs.
        graph = _early_stop_graph()
        serial = solve(
            graph=graph, pattern=3, k=1, solver="exact", jobs=1, executor="serial"
        )
        parallel = solve(
            graph=graph, pattern=3, k=1, solver="exact", jobs=2, executor="process"
        )
        assert signature(parallel) == signature(serial)
        assert serial.preprocessing.num_early_stopped_components > 0
        assert parallel.preprocessing.num_early_stopped_components == 0
        assert parallel.executor == "process"


class TestKnownResults:
    """Results a caller already holds are data: never solved, never shipped."""

    OPTIONS = dict(solver="ippv", k=4, executor="process", jobs=2)

    def test_fully_warm_session_starts_no_pool(self, pools):
        graph = multi_component_graph()
        session = IncrementalSession(graph.copy(), 3)
        session.solve(**self.OPTIONS)
        (cold_pool,) = pools
        assert len(cold_pool.shipped) == 4
        warm = session.solve(**self.OPTIONS)
        assert len(pools) == 1  # no second pool was constructed
        cold = solve(graph=graph.copy(), pattern=3, **self.OPTIONS)
        assert report_signature(warm) == report_signature(cold)
        assert warm.executor == "process"
        assert warm.fallback_reason is None
        # No worker started.
        assert warm.jobs_used == 1
        stats = session.last_solve_stats
        assert stats.components_solved == 0
        assert stats.components_reused == stats.components_total == 4

    def test_partially_warm_session_ships_only_unknown_components(self, pools):
        graph = multi_component_graph()
        session = IncrementalSession(graph.copy(), 3)
        session.solve(**self.OPTIONS)
        # Touch only the K4 (vertices 200..203); the K6, K5 and cycle carry over.
        session.apply_delta(GraphDelta(remove_vertices=(203,)))
        warm = session.solve(**self.OPTIONS)
        assert len(pools) == 2
        shipped = [frozenset(component.vertices) for component, _ in pools[1].shipped]
        assert shipped == [frozenset({200, 201, 202})]
        assert pools[1].max_workers == 1
        assert warm.jobs_used == 1
        cold = solve(graph=session.graph.copy(), pattern=3, **self.OPTIONS)
        assert report_signature(warm) == report_signature(cold)
        stats = session.last_solve_stats
        assert (stats.components_reused, stats.components_solved) == (3, 1)

    @pytest.mark.parametrize("executor", ALL_EXECUTORS)
    def test_solve_prepared_adds_what_it_solves_and_skips_what_is_known(
        self, monkeypatch, executor
    ):
        request = SolveRequest(
            graph=multi_component_graph(), pattern=3, k=4, solver="ippv",
            executor=executor, jobs=2,
        )
        known = {}
        cold = solve_prepared(request, *cold_preprocess(request), known=known)
        components, stats = cold_preprocess(request)
        assert set(known) == {component.vertices for component in components}

        def no_solve(component, request):
            raise AssertionError("a known component was solved again")

        monkeypatch.setattr(executors_module, "solve_component", no_solve)
        monkeypatch.setattr(executors_module, "solve_in_worker", no_solve)
        warm = solve_prepared(request, components, stats, known=dict(known))
        assert report_signature(warm) == report_signature(cold)

    def test_serial_early_stop_counts_known_components_as_stopped(self):
        # The pool solves every scheduled component, so afterwards all are
        # known; the serial early stop still skips the same tail as a cold
        # run and reports it as early-stopped.
        graph = _early_stop_graph()
        options = dict(solver="exact", k=1)
        cold = solve(graph=graph.copy(), pattern=3, executor="serial", **options)
        session = IncrementalSession(graph.copy(), 3)
        session.solve(executor="process", jobs=2, **options)
        warm = session.solve(executor="serial", **options)
        assert cold.preprocessing.num_early_stopped_components > 0
        assert report_signature(warm) == report_signature(cold)
        stats = session.last_solve_stats
        scheduled = (
            cold.preprocessing.num_active_components
            - cold.preprocessing.num_skipped_components
        )
        assert stats.components_solved == 0
        assert stats.components_reused == scheduled


class TestFailureChannels:
    """Infrastructure failures fall back (surfaced); solver bugs raise."""

    def test_broken_pool_falls_back_to_identical_serial_output(self, monkeypatch):
        from concurrent.futures.process import BrokenProcessPool

        class ExplodingPool:
            def __init__(self, max_workers):
                raise BrokenProcessPool("simulated dead pool")

        monkeypatch.setattr(executors_module, "ProcessPoolExecutor", ExplodingPool)
        graph = multi_component_graph()
        reference = solve(
            graph=graph, pattern=3, k=4, solver="exact", jobs=1, executor="serial"
        )
        report = solve(
            graph=graph, pattern=3, k=4, solver="exact", jobs=2, executor="process"
        )
        assert signature(report) == signature(reference)
        assert report.executor == "serial"
        assert report.jobs_used == 1
        assert "BrokenProcessPool" in report.fallback_reason
        assert "simulated dead pool" in report.fallback_reason

    def test_pickling_failure_falls_back_to_identical_serial_output(self, monkeypatch):
        class UnpicklablePool:
            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                raise pickle.PicklingError("simulated unpicklable payload")

        monkeypatch.setattr(executors_module, "ProcessPoolExecutor", UnpicklablePool)
        graph = multi_component_graph()
        reference = solve(graph=graph, pattern=3, k=4, solver="ippv", jobs=1)
        report = solve(
            graph=graph, pattern=3, k=4, solver="ippv", jobs=2, executor="process"
        )
        assert signature(report) == signature(reference)
        assert report.executor == "serial"
        assert "PicklingError" in report.fallback_reason

    @pytest.mark.parametrize("executor", ALL_EXECUTORS)
    def test_solver_exception_raises_engine_error_not_silent_retry(
        self, monkeypatch, executor
    ):
        def exploding_solver(component, request):
            raise ValueError("solver bug 0xdead")

        monkeypatch.setitem(
            solvers_module.SOLVERS,
            "explosive",
            SolverSpec(
                name="explosive",
                description="raises on every component (test only)",
                solve=exploding_solver,
                exact=False,
                requires_k=True,
            ),
        )
        graph = multi_component_graph()
        with pytest.raises(EngineError, match="solver bug 0xdead"):
            solve(
                graph=graph, pattern=3, k=2, solver="explosive",
                jobs=2, executor=executor,
            )

    def test_task_failure_envelope_round_trips(self):
        request = SolveRequest(graph=complete_graph(4), pattern=3, k=1)
        (component,), _ = cold_preprocess(request)
        task = (component, dataclasses.replace(request, solver="no-such-solver"))
        status, failure = solve_in_worker(task)
        assert status == "error"
        rebuilt = pickle.loads(pickle.dumps(failure))
        assert rebuilt.error_type == "EngineError"
        assert "no-such-solver" in rebuilt.message
        with pytest.raises(EngineError, match="no-such-solver"):
            rebuilt.raise_as_engine_error()


class TestReportSurface:
    def test_report_records_backend_and_no_fallback(self):
        graph = multi_component_graph()
        report = solve(graph=graph, pattern=3, k=2, solver="exact", jobs=2,
                       executor="process")
        assert report.executor == "process"
        assert report.fallback_reason is None
        payload = report.to_json_dict()
        assert payload["executor"] == "process"
        assert payload["fallback_reason"] is None
        assert "shards" not in payload and "verify_batch" not in payload

    def test_cli_executor_flag(self, capsys):
        assert cli_main(
            ["topk", "--dataset", "HA", "--k", "2", "--executor", "process",
             "--jobs", "2", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["executor"] == "process"

    @pytest.mark.parametrize(
        "argv",
        [
            ["topk", "--dataset", "HA", "--shards", "2"],
            ["topk", "--dataset", "HA", "--verify-batch", "2"],
            ["topk", "--dataset", "HA", "--queue-dir", "d"],
            ["workers"],
            ["topk", "--dataset", "HA", "--kernel", "stdlib"],
            ["deltas", "--dataset", "HA", "--deltas", "stream.jsonl", "--kernel", "stdlib"],
            ["kernels"],
        ],
    )
    def test_cli_removed_options_are_usage_errors(self, argv):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(argv)
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("name", ["queue", "thread"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["topk", "--dataset", "HA"],
            ["deltas", "--dataset", "HA", "--deltas", "stream.jsonl"],
        ],
        ids=["topk", "deltas"],
    )
    def test_cli_removed_backends_are_usage_errors(self, capsys, argv, name):
        with pytest.raises(SystemExit) as excinfo:
            cli_main([*argv, "--executor", name])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err and name in err
        assert "process" in err and "serial" in err

    def test_cli_executors_subcommand(self, capsys):
        assert cli_main(["executors"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in lines] == ["process", "serial"]
        for line, name in zip(lines, ["process", "serial"]):
            assert describe_executor(name) in line

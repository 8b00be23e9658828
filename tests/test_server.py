"""Tests for the persistent solve service: the HTTP-free ``SolveService``
core (registry, solve surface, warm-path behaviour, error mapping) and the
``http.server`` front end (routes, status codes, JSON envelopes).

The acceptance criterion carried over from the cache tests: a served solve
must be bit-identical to a cold in-process solve — same subgraphs, same
verification counters, same preprocessing stats (wall-clock and cache
fields excluded)."""

from __future__ import annotations

import contextlib
import http.client
import json
import os
import socket
import statistics
import threading
import time
import urllib.error
import urllib.request

import pytest

from helpers import multi_component_graph

from repro.datasets.registry import load_dataset
from repro.datasets.synthetic import barabasi_albert_graph
from repro.cli import main as cli_main
from repro.engine import cache_for, json_report_signature, report_signature, solve
from repro.server import ServiceError, SolveService, create_server
from repro.server.app import SolveRequestHandler
from repro.server.app import main as server_main


def _served_signature(payload):
    """The bit-identical portion of a served (or to_json_dict) report."""
    return {
        "solver": payload["solver"],
        "pattern": payload["pattern"],
        "h": payload["h"],
        "k": payload["k"],
        "executor": payload["executor"],
        "kernel": payload["kernel"],
        "subgraphs": payload["subgraphs"],
        "candidates_examined": payload["candidates_examined"],
        "preprocessing": {
            key: value
            for key, value in payload["preprocessing"].items()
            if not key.endswith("_seconds") and not key.startswith("cache_")
        },
    }


def _edge_payload(graph):
    return [[u, v] for u, v in graph.edges()]


@pytest.fixture()
def service(tmp_path):
    svc = SolveService(cache_dir=str(tmp_path / "cache"))
    yield svc
    svc.close()


class TestRegistry:
    def test_register_inline_graph(self, service):
        record = service.register_graph("toy", edges=[[0, 1], [1, 2], [2, 0]])
        assert record["name"] == "toy"
        assert record["source"] == "inline"
        assert record["vertices"] == 3
        assert record["edges"] == 3
        assert [g["name"] for g in service.graphs()] == ["toy"]

    def test_register_dataset_graph(self, service):
        abbreviation = service.datasets()[0]
        record = service.register_graph("ds", dataset=abbreviation)
        assert record["vertices"] > 0
        assert record["source"] != "inline"

    def test_duplicate_is_conflict_unless_replace(self, service):
        service.register_graph("toy", edges=[[0, 1]])
        with pytest.raises(ServiceError) as excinfo:
            service.register_graph("toy", edges=[[1, 2]])
        assert excinfo.value.status == 409
        record = service.register_graph("toy", edges=[[1, 2], [2, 3]], replace=True)
        assert record["edges"] == 2

    def test_exactly_one_source(self, service):
        with pytest.raises(ServiceError, match="exactly one source"):
            service.register_graph("toy")
        with pytest.raises(ServiceError, match="exactly one source"):
            service.register_graph("toy", dataset="HA", edges=[[0, 1]])

    def test_bad_names_and_datasets(self, service):
        with pytest.raises(ServiceError, match="non-empty string"):
            service.register_graph("", edges=[[0, 1]])
        with pytest.raises(ServiceError):
            service.register_graph("x", dataset="no-such-dataset")
        with pytest.raises(ServiceError, match="bad edge list"):
            service.register_graph("x", edges=[[0]])


#: Mistyped graph fields of ``POST /v1/graphs``: body, the field the 400
#: must name.  Each one was a 500 or a silent rewrite before.
BAD_REGISTER_BODIES = [
    ({"name": "x", "dataset": 5}, "dataset"),
    ({"name": 5, "edges": [[0, 1]]}, "name"),
    ({"name": ["x"], "edges": [[0, 1]]}, "name"),
    ({"name": "x", "edges": [[True, 1], [1.0, 2]]}, "edges"),
    ({"name": "x", "edges": [[1.5, 2]]}, "edges"),
    ({"name": "x", "edges": [[0]]}, "edges"),
    ({"name": "x", "edges": "ab"}, "edges"),
    ({"name": "x", "edges": [[0, 1]], "vertices": "ab"}, "vertices"),
    ({"name": "x", "vertices": [0.5]}, "vertices"),
    ({"name": "x", "vertices": [False]}, "vertices"),
    ({"name": "x", "vertices": [[0]]}, "vertices"),
]

#: ``replace`` values that are neither JSON booleans nor ``null``; the
#: truthy ones used to replace.
BAD_REPLACE_VALUES = ["false", "no", 1, 0]

#: Mistyped graph selectors of ``POST /v1/solve``: body, named field.
BAD_SOLVE_SELECTORS = [
    ({"graph": ["g"], "h": 3}, "graph"),
    ({"graph": 7, "h": 3}, "graph"),
    ({"dataset": 5, "h": 3}, "dataset"),
    ({"dataset": {"name": "HA"}, "h": 3}, "dataset"),
]


class TestGraphFieldTypes:
    @pytest.mark.parametrize("body, field", BAD_REGISTER_BODIES)
    def test_mistyped_register_field_is_400(self, service, body, field):
        with pytest.raises(ServiceError) as excinfo:
            service.register_from_payload(body)
        assert excinfo.value.status == 400
        assert excinfo.value.code == "bad_register_request"
        assert excinfo.value.detail == {"field": field}
        assert repr(field) in str(excinfo.value)
        assert service.graphs() == []
        assert service.stats()["counters"]["errors"] == 0

    @pytest.mark.parametrize("value", BAD_REPLACE_VALUES)
    def test_non_boolean_replace_replaces_nothing(self, service, value):
        service.register_graph("g", edges=TRIANGLE_PAIR)
        service.solve_incremental("g", {"h": 3, "solver": "ippv", "k": 1})
        with pytest.raises(ServiceError) as excinfo:
            service.register_from_payload(
                {"name": "g", "edges": [[0, 1]], "replace": value}
            )
        assert excinfo.value.code == "bad_register_request"
        assert excinfo.value.detail == {"field": "replace"}
        assert service.graphs()[0]["edges"] == len(TRIANGLE_PAIR)
        assert len(service.sessions()) == 1

    def test_boolean_replace_still_works(self, service):
        service.register_from_payload({"name": "g", "edges": [[0, 1]]})
        with pytest.raises(ServiceError) as excinfo:
            service.register_from_payload(
                {"name": "g", "edges": [[0, 1], [1, 2]], "replace": False}
            )
        assert excinfo.value.status == 409
        record = service.register_from_payload(
            {"name": "g", "edges": [[0, 1], [1, 2]], "replace": True}
        )
        assert record["edges"] == 2

    def test_null_replace_reads_as_absent(self, service):
        record = service.register_from_payload(
            {"name": "g", "edges": [[0, 1]], "replace": None}
        )
        assert record["edges"] == 1
        with pytest.raises(ServiceError) as excinfo:
            service.register_from_payload(
                {"name": "g", "edges": [[0, 1], [1, 2]], "replace": None}
            )
        assert excinfo.value.status == 409
        assert service.graphs()[0]["edges"] == 1

    def test_int_and_string_labels_register_as_given(self, service):
        record = service.register_from_payload(
            {"name": "g", "edges": [[1, "1"], ["a", 2]], "vertices": ["z", 9]}
        )
        assert (record["vertices"], record["edges"]) == (6, 2)
        assert record["source"] == "inline"

    @pytest.mark.parametrize("body, field", BAD_SOLVE_SELECTORS)
    def test_mistyped_solve_selector_is_400(self, service, body, field):
        service.register_graph("g", edges=TRIANGLE_PAIR)
        with pytest.raises(ServiceError) as excinfo:
            service.solve(body)
        assert excinfo.value.status == 400
        assert excinfo.value.code == "bad_solve_request"
        assert excinfo.value.detail == {"field": field}
        assert [g["name"] for g in service.graphs()] == ["g"]
        assert service.stats()["counters"] == {"solves": 0, "deltas": 0, "errors": 0}


class TestSolveSurface:
    def test_unknown_keys_rejected(self, service):
        service.register_graph("toy", edges=[[0, 1], [1, 2], [2, 0]])
        with pytest.raises(ServiceError, match="unknown solve key"):
            service.solve({"graph": "toy", "k": 1, "sovler": "exact"})

    def test_graph_xor_dataset(self, service):
        with pytest.raises(ServiceError, match="exactly one of"):
            service.solve({"k": 1})
        with pytest.raises(ServiceError, match="exactly one of"):
            service.solve({"graph": "toy", "dataset": "HA", "k": 1})

    def test_unknown_graph_is_404(self, service):
        with pytest.raises(ServiceError) as excinfo:
            service.solve({"graph": "nope", "k": 1})
        assert excinfo.value.status == 404

    def test_bad_request_options_are_400(self, service):
        service.register_graph("toy", edges=[[0, 1], [1, 2], [2, 0]])
        with pytest.raises(ServiceError, match="unknown solver"):
            service.solve({"graph": "toy", "k": 1, "solver": "no-such-solver"})
        with pytest.raises(ServiceError, match="executor"):
            service.solve({"graph": "toy", "k": 1, "executor": "no-such-executor"})
        with pytest.raises(ServiceError):
            service.solve({"graph": "toy", "k": 1, "pattern": "no-such-pattern"})
        with pytest.raises(ServiceError, match="bad 'h'"):
            service.solve({"graph": "toy", "k": 1, "h": "three"})

    @pytest.mark.parametrize(
        "field,value",
        [
            ("jobs", 1.5),
            ("executor", 3),
            ("kernel", 3),
            ("solver", 3),
            ("k", True),
            ("iterations", "20"),
            ("verification", None),
            ("k", "3"),
            ("k", 2.0),
            ("jobs", True),
            ("jobs", "2"),
            ("jobs", None),
            ("iterations", False),
            ("iterations", None),
            ("solver", None),
            ("executor", ["serial"]),
            ("kernel", False),
            ("verification", 1),
            ("kernel", "numpy"),
        ],
    )
    def test_mistyped_fields_are_400_on_both_endpoints(self, service, field, value):
        service.register_graph("toy", edges=[[0, 1], [1, 2], [2, 0]])
        calls = (
            lambda body: service.solve({"graph": "toy", **body}),
            lambda body: service.solve_incremental("toy", body),
        )
        for call in calls:
            with pytest.raises(ServiceError, match=repr(field)) as excinfo:
                call({"k": 1, field: value})
            assert excinfo.value.status == 400
            assert excinfo.value.code == "bad_solve_request"
            assert excinfo.value.detail == {"field": field}
        assert service.stats()["counters"]["errors"] == 0

    def test_null_accepted_where_documented(self, service):
        service.register_graph("toy", edges=[[0, 1], [1, 2], [2, 0]])
        body = {"k": None, "executor": None, "kernel": None}
        assert service.solve({"graph": "toy", **body})["subgraphs"]
        assert service.solve_incremental("toy", body)["subgraphs"]

    @pytest.mark.parametrize(
        "field,value",
        [
            ("k", 2),
            ("solver", "exact"),
            ("jobs", 2),
            ("executor", "serial"),
            ("kernel", "stdlib"),
            ("iterations", 5),
            ("verification", "basic"),
        ],
    )
    def test_well_typed_fields_reach_the_solve(self, service, field, value):
        # The type check must pass valid values through unchanged: each
        # endpoint's report equals a cold in-process solve with the option.
        from repro.graph import Graph

        service.register_graph("g", edges=TRIANGLE_PAIR)
        body = {"k": 1, field: value}
        cold = solve(graph=Graph(edges=TRIANGLE_PAIR), pattern=3, **body)
        for response in (
            service.solve({"graph": "g", **body}),
            service.solve_incremental("g", body),
        ):
            assert json_report_signature(response) == report_signature(cold)

    @pytest.mark.parametrize(
        "key", ["shards", "queue_dir", "verify_batch", "verify_executor", "verify_jobs"]
    )
    def test_removed_parallel_knobs_are_unknown_keys(self, service, key):
        service.register_graph("toy", edges=[[0, 1], [1, 2], [2, 0]])
        for call in (
            lambda: service.solve({"graph": "toy", "k": 1, key: 2}),
            lambda: service.solve_incremental("toy", {"k": 1, key: 2}),
        ):
            with pytest.raises(ServiceError) as excinfo:
                call()
            assert excinfo.value.status == 400
            assert excinfo.value.code == "unknown_key"
            assert excinfo.value.detail["unknown"] == [key]

    def test_prune_stats_is_an_unknown_key(self, service):
        service.register_graph("toy", edges=[[0, 1], [1, 2], [2, 0]])
        for call in (
            lambda: service.solve({"graph": "toy", "k": 1, "prune_stats": True}),
            lambda: service.solve_incremental("toy", {"k": 1, "prune_stats": True}),
        ):
            with pytest.raises(ServiceError) as excinfo:
                call()
            assert excinfo.value.status == 400
            assert excinfo.value.code == "unknown_key"
            assert excinfo.value.detail["unknown"] == ["prune_stats"]

    def test_prune_is_an_unknown_key(self, service):
        # Pruning always runs: the option that turned it off is gone.
        service.register_graph("toy", edges=[[0, 1], [1, 2], [2, 0]])
        for call in (
            lambda: service.solve({"graph": "toy", "k": 1, "prune": False}),
            lambda: service.solve_incremental("toy", {"k": 1, "prune": False}),
        ):
            with pytest.raises(ServiceError) as excinfo:
                call()
            assert excinfo.value.status == 400
            assert excinfo.value.code == "unknown_key"
            assert excinfo.value.detail["unknown"] == ["prune"]

    @pytest.mark.parametrize("value", [3.9, True, "4", 2.0])
    def test_mistyped_h_is_400_on_both_endpoints(self, service, value):
        # h used to pass through int(): 3.9 solved h = 3, true solved
        # 1-cliques and "4" solved h = 4.
        service.register_graph("toy", edges=[[0, 1], [1, 2], [2, 0]])
        for call in (
            lambda: service.solve({"graph": "toy", "k": 1, "h": value}),
            lambda: service.solve_incremental("toy", {"k": 1, "h": value}),
        ):
            with pytest.raises(ServiceError, match="'h'") as excinfo:
                call()
            assert excinfo.value.status == 400
            assert excinfo.value.code == "bad_pattern"
        counters = service.stats()["counters"]
        assert counters["solves"] == 0
        assert counters["errors"] == 0

    def test_dataset_solve_lazily_registers(self, service):
        abbreviation = service.datasets()[0]
        response = service.solve({"dataset": abbreviation, "k": 2})
        assert response["graph"] == abbreviation
        assert [g["name"] for g in service.graphs()] == [abbreviation]
        # The lazy registration is warm on the second call.
        again = service.solve({"dataset": abbreviation, "k": 2})
        assert again["cache"]["state"] in ("hit", "hit-memory")

    def test_dataset_selector_never_solves_another_graph_of_that_name(self, service):
        service.register_graph("HA", edges=[[1, 2], [2, 3], [1, 3]])
        with pytest.raises(ServiceError) as excinfo:
            service.solve({"dataset": "HA", "h": 3, "k": 1})
        assert (excinfo.value.status, excinfo.value.code) == (409, "conflict")
        assert "inline" in str(excinfo.value)
        # The inline graph stays registered and solvable by name.
        assert service.graphs()[0]["vertices"] == 3
        response = service.solve({"graph": "HA", "h": 3, "k": 1})
        assert response["subgraphs"][0]["vertices"] == [1, 2, 3]
        # A graph registered from another dataset is no stand-in either.
        service.register_graph("GQ", dataset="HA")
        with pytest.raises(ServiceError) as excinfo:
            service.solve({"dataset": "GQ", "k": 1})
        assert excinfo.value.status == 409

    @pytest.mark.parametrize("selector", ["ha", " HA ", "soc-hamsterster"])
    def test_dataset_selector_resolves_to_the_abbreviation(self, service, selector):
        reference = service.solve({"dataset": "HA", "k": 2})
        response = service.solve({"dataset": selector, "k": 2})
        assert response["graph"] == "HA"
        assert [g["name"] for g in service.graphs()] == ["HA"]
        assert service.graphs()[0]["vertices"] == load_dataset("HA").num_vertices
        assert response["cache"]["state"] in ("hit", "hit-memory")
        assert _served_signature(response) == _served_signature(reference)

    def test_dataset_selector_refuses_a_graph_changed_by_a_delta(self, service):
        service.solve({"dataset": "HA", "k": 1})
        service.apply_delta("HA", {"remove_vertices": [0]})
        with pytest.raises(ServiceError) as excinfo:
            service.solve({"dataset": "ha", "k": 1})
        assert (excinfo.value.status, excinfo.value.code) == (409, "conflict")
        assert "1 delta" in str(excinfo.value)
        # The changed graph is still served by name.
        assert service.solve({"graph": "HA", "k": 1})["graph"] == "HA"
        # Replacing it with the dataset makes the selector valid again.
        service.register_graph("HA", dataset="HA", replace=True)
        assert service.solve({"dataset": "HA", "k": 1})["graph"] == "HA"

    def test_response_reports_cache_and_timing_split(self, service):
        service.register_graph("toy", edges=_edge_payload(multi_component_graph()))
        cold = service.solve({"graph": "toy", "k": 3})
        assert cold["cache"]["state"] == "miss"
        assert cold["cache"]["key"]
        warm = service.solve({"graph": "toy", "k": 3})
        assert warm["cache"]["state"] in ("hit", "hit-memory")
        assert warm["cache"]["key"] == cold["cache"]["key"]
        for response in (cold, warm):
            timing = response["timing"]
            assert timing["total_seconds"] >= timing["solve_seconds"]
            assert timing["lock_wait_seconds"] >= 0
            assert timing["preprocess_seconds"] >= 0
            assert timing["preprocess_seconds"] <= timing["total_seconds"]

    @pytest.mark.parametrize("endpoint", ["solve", "session"])
    def test_lock_wait_is_not_preprocessing(self, service, endpoint):
        service.register_graph("toy", edges=[[0, 1], [1, 2], [2, 0]])
        call = {
            "solve": lambda: service.solve({"graph": "toy", "k": 1}),
            "session": lambda: service.solve_incremental("toy", {"k": 1}),
        }[endpoint]
        held = threading.Event()

        def hold_lock():
            with service._solve_lock:
                held.set()
                time.sleep(0.3)

        holder = threading.Thread(target=hold_lock)
        holder.start()
        assert held.wait(5)
        timing = call()["timing"]
        holder.join()
        assert timing["lock_wait_seconds"] >= 0.25
        assert timing["preprocess_seconds"] < 0.25
        assert timing["lock_wait_seconds"] + timing["solve_seconds"] + timing[
            "preprocess_seconds"
        ] == pytest.approx(timing["total_seconds"])

    @pytest.mark.parametrize(
        "solver,h",
        [("ippv", 3), ("exact", 3), ("greedy", 3), ("ldsflow", 2), ("ltds", 3)],
    )
    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_served_solve_identical_to_cold(self, service, solver, h, executor):
        graph = multi_component_graph()
        service.register_graph("toy", edges=_edge_payload(graph))
        payload = {
            "graph": "toy",
            "h": h,
            "k": 4,
            "solver": solver,
            "executor": executor,
            "jobs": 2,
        }
        cold = solve(
            graph=graph, pattern=h, k=4, solver=solver, executor=executor, jobs=2
        )
        reference = _served_signature(cold.to_json_dict())
        first = service.solve(payload)
        second = service.solve(payload)
        assert first["cache"]["state"] == "miss"
        assert second["cache"]["state"] in ("hit", "hit-memory")
        assert _served_signature(first) == reference
        assert _served_signature(second) == reference

    def test_solves_serialized_but_correct_under_threads(self, service):
        service.register_graph("toy", edges=_edge_payload(multi_component_graph()))
        results = []

        def worker():
            results.append(service.solve({"graph": "toy", "k": 3}))

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        signatures = {json.dumps(_served_signature(r), sort_keys=True) for r in results}
        assert len(signatures) == 1
        assert service.stats()["counters"]["solves"] == 4

    def test_stats_counters_and_cache_summary(self, service):
        service.register_graph("toy", edges=_edge_payload(multi_component_graph()))
        service.solve({"graph": "toy", "k": 2})
        service.solve({"graph": "toy", "k": 2})
        stats = service.stats()
        assert stats["counters"]["solves"] == 2
        assert stats["counters"]["errors"] == 0
        assert stats["graphs"][0]["solves"] == 2
        assert stats["cache"]["num_entries"] == 1
        assert stats["cache"]["counters"]["hits"] == 1
        assert stats["uptime_seconds"] >= 0

    def test_cache_dir_from_env_when_unconfigured(self, tmp_path, monkeypatch):
        root = str(tmp_path / "envcache")
        monkeypatch.setenv("REPRO_CACHE", root)
        service = SolveService()
        try:
            assert service.cache_dir == root
            service.register_graph("toy", edges=[[0, 1], [1, 2], [2, 0]])
            service.solve({"graph": "toy", "k": 1})
            assert cache_for(root).counters()["stores"] == 1
        finally:
            service.close()
        assert os.path.isdir(root)  # not a private directory: close keeps it

    def test_private_cache_dir_when_unconfigured(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        service = SolveService()
        try:
            assert service.cache_dir
            service.register_graph("toy", edges=[[0, 1], [1, 2], [2, 0]])
            response = service.solve({"graph": "toy", "k": 1})
            assert response["cache"]["state"] == "miss"
        finally:
            service.close()


# ----------------------------------------------------------------------
# HTTP layer
# ----------------------------------------------------------------------
def _request(base, method, path, payload=None):
    data = None if payload is None else json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(
        base + path,
        data=data,
        method=method,
        headers={"Content-Type": "application/json"} if data else {},
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read().decode("utf-8"))
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read().decode("utf-8"))


@contextlib.contextmanager
def _serving(tmp_path, handler=SolveRequestHandler):
    """A served ``create_server`` whose connections ``handler`` answers."""
    server, service = create_server(port=0, cache_dir=str(tmp_path / "cache"))
    server.RequestHandlerClass = handler
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    try:
        yield f"http://{host}:{port}", service
    finally:
        server.shutdown()
        server.server_close()
        service.close()
        thread.join(timeout=5)


@pytest.fixture()
def http_server(tmp_path):
    with _serving(tmp_path) as served:
        yield served


class TestHTTPServer:
    def test_health_and_introspection_routes(self, http_server):
        base, _service = http_server
        for path in ("/", "/v1/health"):
            status, body = _request(base, "GET", path)
            assert (status, body) == (200, {"ok": True, "data": {"status": "ok"}})
        status, body = _request(base, "GET", "/v1/solvers")
        assert status == 200
        assert {"ippv", "exact", "greedy"} <= {s["name"] for s in body["data"]}
        status, body = _request(base, "GET", "/v1/executors")
        assert [e["name"] for e in body["data"]] == ["process", "serial"]
        status, body = _request(base, "GET", "/v1/datasets")
        assert status == 200 and body["data"]

    def test_unknown_paths_are_404(self, http_server):
        base, _service = http_server
        for method, path, payload in (
            ("GET", "/nope", None),
            ("GET", "/health", None),
            ("POST", "/nope", {}),
            ("POST", "/graphs", {"name": "x", "edges": [[0, 1]]}),
            ("GET", "/v1/kernels", None),
        ):
            status, body = _request(base, method, path, payload)
            assert status == 404
            assert body["ok"] is False and body["error"]["code"] == "not_found"

    def test_dataset_selector_conflict_is_409(self, http_server):
        base, _service = http_server
        status, _body = _request(
            base, "POST", "/v1/graphs", {"name": "HA", "edges": [[1, 2], [2, 3], [1, 3]]}
        )
        assert status == 201
        status, body = _request(base, "POST", "/v1/solve", {"dataset": "HA", "k": 1})
        assert status == 409
        assert body["ok"] is False and body["error"]["code"] == "conflict"

    def test_register_solve_round_trip(self, http_server):
        base, _service = http_server
        graph = multi_component_graph()
        status, body = _request(
            base, "POST", "/v1/graphs", {"name": "toy", "edges": _edge_payload(graph)}
        )
        assert status == 201
        assert body["data"]["vertices"] == graph.num_vertices

        status, _body = _request(
            base, "POST", "/v1/graphs", {"name": "toy", "edges": [[0, 1]]}
        )
        assert status == 409

        payload = {"graph": "toy", "k": 3, "solver": "ippv"}
        status, body = _request(base, "POST", "/v1/solve", payload)
        assert status == 200
        first = body["data"]
        assert first["cache"]["state"] == "miss"
        status, body = _request(base, "POST", "/v1/solve", payload)
        assert status == 200
        second = body["data"]
        assert second["cache"]["state"] in ("hit", "hit-memory")

        cold = solve(graph=graph, pattern=3, k=3, solver="ippv")
        reference = _served_signature(cold.to_json_dict())
        assert _served_signature(first) == reference
        assert _served_signature(second) == reference

        status, body = _request(base, "GET", "/v1/graphs")
        assert body["data"][0]["solves"] == 2
        status, body = _request(base, "GET", "/v1/stats")
        assert body["data"]["counters"]["solves"] == 2
        assert body["data"]["cache"]["counters"]["hits"] == 1

    def test_error_envelopes(self, http_server):
        base, _service = http_server
        status, body = _request(base, "POST", "/v1/solve", {"graph": "nope", "k": 1})
        assert status == 404 and body["error"]["code"] == "not_found"
        status, body = _request(base, "POST", "/v1/solve", {"k": 1})
        assert status == 400 and body["error"]["code"] == "bad_request"
        status, body = _request(base, "POST", "/v1/graphs", {"name": "x"})
        assert status == 400 and body["ok"] is False
        status, body = _request(
            base, "POST", "/v1/graphs", {"name": "x", "edges": [[0, 1]], "bogus": 1}
        )
        assert status == 400
        assert "unknown register key" in body["error"]["message"]

    def test_mistyped_solve_field_is_400(self, http_server):
        base, service = http_server
        service.register_graph("toy", edges=[[0, 1], [1, 2], [2, 0]])
        status, body = _request(base, "POST", "/v1/solve", {"graph": "toy", "jobs": 1.5})
        assert status == 400
        assert body["error"]["code"] == "bad_solve_request"
        assert body["error"]["detail"] == {"field": "jobs"}
        assert service.stats()["counters"]["errors"] == 0

    def test_mistyped_session_solve_field_is_400(self, http_server):
        base, service = http_server
        service.register_graph("toy", edges=[[0, 1], [1, 2], [2, 0]])
        status, body = _request(base, "POST", "/v1/graphs/toy/solve", {"executor": 3})
        assert status == 400
        assert body["error"]["code"] == "bad_solve_request"
        assert body["error"]["detail"] == {"field": "executor"}
        # Rejected before the session registry is touched.
        assert service.sessions() == []
        assert service.stats()["counters"]["errors"] == 0

    @pytest.mark.parametrize(
        "body",
        [
            {"k": 0},
            {"verification": "turbo"},
            {"iterations": -1},
            {"iterations": -1, "solver": "exact"},
        ],
        ids=["k", "verification", "iterations", "iterations-exact"],
    )
    @pytest.mark.parametrize("path", ["/v1/solve", "/v1/graphs/toy/solve"])
    def test_out_of_range_solve_field_is_400_before_any_work(self, http_server, path, body):
        base, service = http_server
        service.register_graph("toy", edges=[[0, 1], [1, 2], [2, 0]])
        payload = {"graph": "toy", **body} if path == "/v1/solve" else body
        status, reply = _request(base, "POST", path, payload)
        assert status == 400
        assert reply["error"]["code"] == "bad_solve_request"
        field = next(iter(body))
        assert field in reply["error"]["message"]
        counters = service.stats()["counters"]
        assert counters["solves"] == 0
        assert counters["errors"] == 0
        # The session endpoint rejects the options before opening a session.
        assert service.sessions() == []

    @pytest.mark.parametrize("path", ["/v1/solve", "/v1/graphs/toy/solve"])
    def test_zero_iterations_accepted(self, http_server, path):
        base, service = http_server
        service.register_graph("toy", edges=[[0, 1], [1, 2], [2, 0]])
        payload = {"k": 1, "iterations": 0}
        if path == "/v1/solve":
            payload["graph"] = "toy"
        status, reply = _request(base, "POST", path, payload)
        assert status == 200
        assert reply["data"]["subgraphs"]

    @pytest.mark.parametrize("path", ["/v1/solve", "/v1/graphs/g/solve"])
    def test_oversized_h_is_an_empty_answer(self, http_server, path):
        # No h-clique fits in four vertices: an empty answer, not a 500
        # from sizing a buffer by h.
        base, service = http_server
        service.register_graph("g", edges=[[0, 1], [1, 2], [2, 0], [2, 3]])
        payload = {"h": 10**12}
        if path == "/v1/solve":
            payload["graph"] = "g"
        errors = service.stats()["counters"]["errors"]
        status, reply = _request(base, "POST", path, payload)
        assert status == 200
        assert reply["data"]["subgraphs"] == []
        assert service.stats()["counters"]["errors"] == errors

    def test_solvers_route_has_no_parallel_columns(self, http_server):
        base, _service = http_server
        status, body = _request(base, "GET", "/v1/solvers")
        assert status == 200
        for row in body["data"]:
            assert set(row) == {"name", "description", "exact", "fixed_h", "requires_k"}

    def test_malformed_body_is_400(self, http_server):
        base, _service = http_server
        request = urllib.request.Request(
            base + "/v1/solve",
            data=b"{ not json",
            method="POST",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 400
        # Empty body is rejected, not a crash.
        request = urllib.request.Request(base + "/v1/solve", data=b"", method="POST")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 400


def _raw_post(base, path, content_length, body=b""):
    """POST ``body`` with a hand-written ``Content-Length`` header."""
    host, port = base.split("//", 1)[1].split(":")
    connection = http.client.HTTPConnection(host, int(port), timeout=30)
    try:
        connection.putrequest("POST", path)
        connection.putheader("Content-Type", "application/json")
        connection.putheader("Content-Length", content_length)
        connection.endheaders(body)
        response = connection.getresponse()
        return response.status, json.loads(response.read().decode("utf-8"))
    finally:
        connection.close()


class TestBadInputOverHTTP:
    def test_non_numeric_content_length_is_400(self, http_server):
        base, service = http_server
        status, body = _raw_post(base, "/v1/solve", "twelve")
        assert status == 400
        assert body["error"]["code"] == "invalid_body"
        assert "Content-Length" in body["error"]["message"]
        status, body = _raw_post(base, "/v1/graphs", "1e3")
        assert status == 400 and body["error"]["code"] == "invalid_body"
        # A client error, not an internal one.
        assert service.stats()["counters"]["errors"] == 0

    def test_internal_error_is_500_and_counted(self, http_server, monkeypatch):
        base, service = http_server

        def broken_solve(payload):
            raise RuntimeError("solver exploded")

        monkeypatch.setattr(service, "solve", broken_solve)
        payload = b'{"graph": "g"}'
        status, body = _raw_post(base, "/v1/solve", str(len(payload)), payload)
        assert status == 500
        assert body["error"]["code"] == "internal_error"
        status, body = _raw_post(base, "/v1/solve", str(len(payload)), payload)
        assert status == 500 and "solver exploded" in body["error"]["message"]
        status, body = _request(base, "GET", "/v1/stats")
        assert status == 200
        assert body["data"]["counters"]["errors"] == 2


class TestGraphFieldTypesOverHTTP:
    @pytest.mark.parametrize("body, field", BAD_REGISTER_BODIES)
    def test_mistyped_register_field_is_400(self, http_server, body, field):
        base, service = http_server
        status, reply = _request(base, "POST", "/v1/graphs", body)
        assert status == 400
        assert reply["error"]["code"] == "bad_register_request"
        assert reply["error"]["detail"] == {"field": field}
        assert service.graphs() == []
        assert service.stats()["counters"]["errors"] == 0

    @pytest.mark.parametrize("value", BAD_REPLACE_VALUES)
    def test_non_boolean_replace_is_400(self, http_server, value):
        base, service = http_server
        status, _reply = _request(
            base, "POST", "/v1/graphs", {"name": "g", "edges": TRIANGLE_PAIR}
        )
        assert status == 201
        status, _reply = _request(
            base, "POST", "/v1/graphs/g/solve", {"h": 3, "solver": "ippv", "k": 1}
        )
        assert status == 200
        status, reply = _request(
            base, "POST", "/v1/graphs", {"name": "g", "edges": [[0, 1]], "replace": value}
        )
        assert status == 400
        assert reply["error"]["detail"] == {"field": "replace"}
        status, reply = _request(base, "GET", "/v1/graphs")
        assert reply["data"][0]["edges"] == len(TRIANGLE_PAIR)
        assert len(service.sessions()) == 1
        assert service.stats()["counters"]["errors"] == 0

    def test_null_replace_reads_as_absent(self, http_server):
        base, service = http_server
        body = {"name": "g", "edges": [[0, 1]], "replace": None}
        status, _reply = _request(base, "POST", "/v1/graphs", body)
        assert status == 201
        status, _reply = _request(base, "POST", "/v1/graphs", body)
        assert status == 409
        assert service.stats()["counters"]["errors"] == 0

    @pytest.mark.parametrize("body, field", BAD_SOLVE_SELECTORS)
    def test_mistyped_solve_selector_is_400(self, http_server, body, field):
        base, service = http_server
        status, reply = _request(base, "POST", "/v1/solve", body)
        assert status == 400
        assert reply["error"]["code"] == "bad_solve_request"
        assert reply["error"]["detail"] == {"field": field}
        assert service.graphs() == []
        assert service.stats()["counters"]["errors"] == 0


class TestServerMain:
    def test_register_flag_needs_name_equals_dataset(self, capsys):
        assert server_main(["--register", "bad-flag"]) == 2
        assert "NAME=DATASET" in capsys.readouterr().err

    def test_register_flag_unknown_dataset_fails_cleanly(self, capsys):
        assert server_main(["--port", "0", "--register", "x=no-such-dataset"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_cli_serve_forwards_to_server_main(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli_main(["serve", "--help"])
        assert exit_info.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: repro-lhcds serve")
        assert "--cache-dir" in out and "--register" in out


# ----------------------------------------------------------------------
# v1 API: envelope, spec, deltas, incremental sessions
# ----------------------------------------------------------------------
def _request_with_headers(base, method, path, payload=None):
    data = None if payload is None else json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(
        base + path,
        data=data,
        method=method,
        headers={"Content-Type": "application/json"} if data else {},
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return (
                response.status,
                dict(response.headers),
                json.loads(response.read().decode("utf-8")),
            )
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers), json.loads(error.read().decode("utf-8"))


TRIANGLE_PAIR = [[0, 1], [1, 2], [0, 2], [10, 11], [11, 12], [10, 12], [12, 13]]


class TestV1Envelope:
    def test_success_envelope(self, http_server):
        base, _service = http_server
        status, _headers, body = _request_with_headers(base, "GET", "/v1/health")
        assert status == 200
        assert body == {"ok": True, "data": {"status": "ok"}}

    def test_error_envelope_has_code_message_detail(self, http_server):
        base, _service = http_server
        status, _headers, body = _request_with_headers(
            base, "POST", "/v1/solve", {"graph": "nope", "k": 1}
        )
        assert status == 404
        assert body["ok"] is False
        assert body["error"]["code"] == "not_found"
        assert "message" in body["error"] and "detail" in body["error"]
        status, _headers, body = _request_with_headers(base, "GET", "/v1/no-such")
        assert status == 404 and body["error"]["code"] == "not_found"

    def test_unknown_key_detail_enumerates_accepted(self, http_server):
        from repro.server.service import SOLVE_KEYS

        base, _service = http_server
        status, _headers, body = _request_with_headers(
            base, "POST", "/v1/solve", {"graph": "x", "bogus": 1}
        )
        assert status == 400
        assert body["error"]["code"] == "unknown_key"
        assert body["error"]["detail"]["unknown"] == ["bogus"]
        assert body["error"]["detail"]["accepted"] == sorted(SOLVE_KEYS)

    def test_unversioned_solve_is_not_found(self, http_server):
        base, _service = http_server
        status, _headers, body = _request_with_headers(
            base, "POST", "/solve", {"dataset": "HA", "k": 1}
        )
        assert status == 404
        assert body["ok"] is False and body["error"]["code"] == "not_found"

    @pytest.mark.parametrize(
        "method,path,payload",
        [
            ("GET", "/health", None),
            ("GET", "/spec", None),
            ("GET", "/solvers", None),
            ("GET", "/executors", None),
            ("GET", "/kernels", None),
            ("GET", "/datasets", None),
            ("GET", "/graphs", None),
            ("GET", "/stats", None),
            ("POST", "/solve", {"graph": "g", "k": 1}),
            ("POST", "/graphs", {"name": "x", "edges": [[0, 1]]}),
            ("POST", "/graphs/g/deltas", {"add_edges": [[13, 14]]}),
            ("POST", "/graphs/g/solve", {"k": 1}),
        ],
    )
    def test_former_bare_aliases_are_not_found(self, http_server, method, path, payload):
        base, service = http_server
        service.register_graph("g", edges=TRIANGLE_PAIR)
        status, headers, body = _request_with_headers(base, method, path, payload)
        assert status == 404
        assert body == {
            "ok": False,
            "error": {
                "code": "not_found",
                "message": f"unknown path {path!r}",
                "detail": None,
            },
        }
        assert "Deprecation" not in headers and "Link" not in headers
        # Nothing behind the old alias ran.
        assert service.stats()["counters"] == {"solves": 0, "deltas": 0, "errors": 0}
        assert [record["name"] for record in service.graphs()] == ["g"]
        assert service.graphs()[0]["edges"] == len(TRIANGLE_PAIR)

    def test_v1_routes_have_no_deprecation_header(self, http_server):
        base, _service = http_server
        _status, headers, _body = _request_with_headers(base, "GET", "/v1/health")
        assert "Deprecation" not in headers

    def test_spec_lists_only_versioned_routes(self, http_server):
        base, _service = http_server
        _status, _headers, body = _request_with_headers(base, "GET", "/v1/spec")
        paths = [route["path"] for route in body["data"]["routes"]]
        assert paths and all(path.startswith("/v1/") for path in paths)

    def test_spec_lists_routes_and_keys(self, http_server):
        from repro.server.service import (
            DELTA_KEYS,
            REGISTER_KEYS,
            SESSION_SOLVE_KEYS,
            SOLVE_KEYS,
        )

        base, _service = http_server
        status, _headers, body = _request_with_headers(base, "GET", "/v1/spec")
        assert status == 200 and body["ok"]
        spec = body["data"]
        assert spec["api_version"] == "v1"
        by_path = {
            (route["method"], route["path"]): route for route in spec["routes"]
        }
        assert by_path[("POST", "/v1/solve")]["keys"] == sorted(SOLVE_KEYS)
        assert by_path[("POST", "/v1/graphs")]["keys"] == sorted(REGISTER_KEYS)
        assert by_path[("POST", "/v1/graphs/{name}/deltas")]["keys"] == sorted(
            DELTA_KEYS
        )
        assert by_path[("POST", "/v1/graphs/{name}/solve")]["keys"] == sorted(
            SESSION_SOLVE_KEYS
        )
        assert ("GET", "/v1/spec") in by_path
        assert "deprecated_aliases" not in spec

    def test_session_solve_keys_mirror_solve_keys(self):
        from repro.server.service import SESSION_SOLVE_KEYS, SOLVE_KEYS

        assert SESSION_SOLVE_KEYS == SOLVE_KEYS - {"graph", "dataset"}


class TestDeltasService:
    def test_delta_roundtrip_bit_identity(self, service):
        service.register_graph("g", edges=TRIANGLE_PAIR)
        options = {"solver": "ippv", "k": 2, "h": 3}
        warm = service.solve_incremental("g", options)
        cold = service.solve({"graph": "g", **options})
        assert json_report_signature(warm) == json_report_signature(cold)

        service.apply_delta("g", {"add_edges": [[2, 10]], "remove_edges": [[0, 1]]})
        warm = service.solve_incremental("g", options)
        cold = service.solve({"graph": "g", **options})
        assert json_report_signature(warm) == json_report_signature(cold)
        assert warm["incremental"]["epoch"] == 1

    def test_delta_poisons_preprocess_cache_key(self, service):
        """Regression: a delta must change the cache key, so a post-delta
        solve can never be served a pre-delta artifact."""
        service.register_graph("g", edges=TRIANGLE_PAIR)
        options = {"graph": "g", "solver": "ippv", "k": 1, "h": 3}
        first = service.solve(options)
        assert first["cache"]["state"] == "miss"
        warm = service.solve(options)
        assert warm["cache"]["state"] in ("hit", "hit-memory")
        service.apply_delta("g", {"remove_edges": [[0, 1]]})
        after = service.solve(options)
        assert after["cache"]["state"] not in ("hit", "hit-memory")
        assert after["cache"]["key"] != first["cache"]["key"]

    def test_delta_repairs_every_session_and_counts(self, service):
        service.register_graph("g", edges=TRIANGLE_PAIR)
        service.solve_incremental("g", {"h": 3, "solver": "ippv", "k": 1})
        service.solve_incremental("g", {"h": 2, "solver": "ippv", "k": 1})
        out = service.apply_delta("g", {"add_edges": [[13, 14]]})
        assert len(out["sessions"]) == 2  # one per pattern
        assert out["epoch"] == 1
        assert out["graph_state"]["edges"] == len(TRIANGLE_PAIR) + 1
        stats = service.stats()
        assert stats["counters"]["deltas"] == 1
        assert len(stats["sessions"]) == 2
        assert all(s["epoch"] == 1 for s in stats["sessions"])

    def test_delta_validation_and_errors(self, service):
        from repro.server.service import DELTA_KEYS

        service.register_graph("g", edges=[[0, 1]])
        with pytest.raises(ServiceError) as excinfo:
            service.apply_delta("g", {"bogus": 1})
        assert excinfo.value.code == "unknown_key"
        assert excinfo.value.detail["accepted"] == sorted(DELTA_KEYS)
        with pytest.raises(ServiceError) as excinfo:
            service.apply_delta("missing", {"add_edges": [[1, 2]]})
        assert excinfo.value.status == 404
        with pytest.raises(ServiceError) as excinfo:
            service.apply_delta("g", {"remove_vertices": [42]})
        assert excinfo.value.code == "bad_delta"
        with pytest.raises(ServiceError) as excinfo:
            service.apply_delta("g", {})
        assert excinfo.value.code == "bad_delta"

    def test_rejected_delta_leaves_graph_intact(self, service):
        service.register_graph("g", edges=TRIANGLE_PAIR)
        before = service.solve({"graph": "g", "h": 3, "solver": "ippv", "k": 1})
        with pytest.raises(ServiceError):
            service.apply_delta(
                "g", {"add_edges": [[50, 51]], "remove_vertices": [42]}
            )
        after = service.solve({"graph": "g", "h": 3, "solver": "ippv", "k": 1})
        assert _served_signature(after) == _served_signature(before)
        assert service.stats()["counters"]["deltas"] == 0

    def test_replace_drops_sessions(self, service):
        service.register_graph("g", edges=TRIANGLE_PAIR)
        service.solve_incremental("g", {"h": 3, "solver": "ippv", "k": 1})
        assert len(service.sessions()) == 1
        service.register_graph("g", edges=[[0, 1], [1, 2], [0, 2]], replace=True)
        assert service.sessions() == []

    def test_session_rejects_unknown_and_selector_keys(self, service):
        service.register_graph("g", edges=TRIANGLE_PAIR)
        with pytest.raises(ServiceError, match="unknown solve key"):
            service.solve_incremental("g", {"graph": "g", "h": 3})
        with pytest.raises(ServiceError, match="unknown solve key"):
            service.solve_incremental("g", {"dataset": "HA"})


class TestDeltasHTTP:
    def test_http_delta_stream_matches_cold(self, http_server):
        base, _service = http_server
        status, _h, body = _request_with_headers(
            base, "POST", "/v1/graphs", {"name": "g", "edges": TRIANGLE_PAIR}
        )
        assert status == 201 and body["ok"]
        options = {"solver": "exact", "k": 2, "h": 3}
        for delta in (
            {"add_edges": [[2, 20], [20, 21], [2, 21]]},
            {"remove_vertices": [12]},
            {"add_vertices": [99]},
        ):
            status, _h, body = _request_with_headers(
                base, "POST", "/v1/graphs/g/deltas", delta
            )
            assert status == 200 and body["ok"], body
            status, _h, warm = _request_with_headers(
                base, "POST", "/v1/graphs/g/solve", options
            )
            assert status == 200 and warm["ok"], warm
            status, _h, cold = _request_with_headers(
                base, "POST", "/v1/solve", {"graph": "g", **options}
            )
            assert json_report_signature(warm["data"]) == json_report_signature(
                cold["data"]
            )

    def test_quoted_graph_names(self, http_server):
        base, _service = http_server
        status, _h, body = _request_with_headers(
            base,
            "POST",
            "/v1/graphs",
            {"name": "my graph", "edges": [[0, 1], [1, 2], [0, 2]]},
        )
        assert status == 201
        status, _h, body = _request_with_headers(
            base, "POST", "/v1/graphs/my%20graph/solve", {"h": 3, "k": 1}
        )
        assert status == 200 and body["ok"]


class TestAtomicReplace:
    """Regression for the register/replace vs session-solve race.

    The registry swap and the session purge are one atomic step under the
    solve lock: a replace must wait for an in-flight session solve, and
    once it returns no stale session may pair the old graph with the new
    registry entry.
    """

    def test_replace_blocks_on_solve_lock_then_purges_sessions(self, service):
        service.register_graph("g", edges=[[0, 1], [1, 2], [2, 0]])
        service.solve_incremental("g", {"pattern": "triangle", "k": 1})
        assert [s["graph"] for s in service.sessions()] == ["g"]

        done = threading.Event()

        def replace():
            service.register_graph(
                "g", edges=[[0, 1], [1, 2], [2, 3], [3, 0]], replace=True
            )
            done.set()

        # Simulate an in-flight session solve by holding the solve lock.
        with service._solve_lock:
            thread = threading.Thread(target=replace)
            thread.start()
            assert not done.wait(0.2), "replace must block behind the solve lock"
        thread.join(timeout=5)
        assert done.is_set()
        # The stale session (bound to the triangle graph) is gone...
        assert service.sessions() == []
        # ...and a fresh session solve sees the 4-cycle, not the triangle.
        report = service.solve_incremental("g", {"pattern": "edge", "k": 1})
        record = next(g for g in service.graphs() if g["name"] == "g")
        assert record["vertices"] == 4
        assert record["edges"] == 4
        assert report["graph"] == "g"


class TestWarmSolveAfterOtherIterations:
    def test_second_solve_matches_cold(self, http_server):
        """Regression: IPPV tightened the cached component's bounds in place,
        so a warm ``/v1/solve`` after one with another ``iterations`` started
        from bounds a cold solve never has."""
        base, _service = http_server
        graph = barabasi_albert_graph(90, 4, seed=12)
        status, _body = _request(
            base,
            "POST",
            "/v1/graphs",
            {"name": "ba", "vertices": list(graph.vertices()), "edges": _edge_payload(graph)},
        )
        assert status == 201
        options = {"graph": "ba", "h": 3, "k": 10, "solver": "ippv"}
        _request(base, "POST", "/v1/solve", {**options, "iterations": 20})
        status, body = _request(base, "POST", "/v1/solve", {**options, "iterations": 5})
        cold = solve(graph=graph.copy(), pattern=3, k=10, solver="ippv", iterations=5)
        assert status == 200
        assert body["data"]["cache"]["state"] == "hit-memory"
        assert body["data"]["candidates_examined"] == cold.candidates_examined == 4
        assert json_report_signature(body["data"]) == report_signature(cold)


class TestTransport:
    """The handler sends a response's headers and body in two writes; with
    Nagle's algorithm on, the body waits for the client's delayed ACK of the
    headers (about 40 ms on every keep-alive response)."""

    def test_accepted_sockets_have_nodelay(self, tmp_path):
        seen = []

        class Recording(SolveRequestHandler):
            def setup(self):
                super().setup()
                seen.append(self.connection.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY))

        with _serving(tmp_path, Recording) as (base, _service):
            status, _body = _request(base, "GET", "/v1/health")
        assert status == 200
        assert seen and all(seen)

    def test_keep_alive_responses_do_not_stall(self, http_server):
        base, _service = http_server
        host, port = base.removeprefix("http://").split(":")
        connection = http.client.HTTPConnection(host, int(port), timeout=30)

        def overhead(path, payload):
            """Client latency minus the service's own time (the delta
            endpoint reports none, so all of its latency counts)."""
            start = time.perf_counter()
            connection.request(
                "POST", path, body=json.dumps(payload).encode("utf-8"),
                headers={"Content-Type": "application/json"},
            )
            envelope = json.loads(connection.getresponse().read())
            latency = time.perf_counter() - start
            assert envelope["ok"], envelope
            return latency - envelope["data"].get("timing", {}).get("total_seconds", 0.0)

        options = {"solver": "ippv", "k": 2, "h": 3}
        overheads = []
        try:
            overhead("/v1/graphs", {"name": "g", "edges": TRIANGLE_PAIR})
            for round_index in range(10):
                change = "remove_edges" if round_index % 2 == 0 else "add_edges"
                overheads.append(overhead("/v1/graphs/g/deltas", {change: [[0, 1]]}))
                overheads.append(overhead("/v1/graphs/g/solve", options))
                overheads.append(overhead("/v1/solve", {"graph": "g", **options}))
        finally:
            connection.close()
        assert statistics.median(overheads) < 0.020, sorted(overheads)

"""The resident solve service: named graphs + warm artifacts, no sockets.

:class:`SolveService` is the HTTP-free core of ``python -m repro.server``:
it owns the registry of named graphs, funnels every solve through the
engine with a shared cache directory (so the preprocess artifacts stay
warm in :mod:`repro.engine.cache`'s memory layer between requests), keeps
per-graph :class:`~repro.engine.incremental.IncrementalSession`\\ s alive
under :class:`~repro.graph.delta.GraphDelta` streams, and keeps the
counters the ``/v1/stats`` endpoint reports.  Keeping it free of
``http.server`` types makes the full solve surface testable in-process.

Request validation is centralised here: every endpoint body goes through
:func:`validate_keys` against one of the public key sets (:data:`SOLVE_KEYS`,
:data:`SESSION_SOLVE_KEYS`, :data:`DELTA_KEYS`, :data:`REGISTER_KEYS`), so
an unknown key is rejected with the accepted keys enumerated in the error
detail, and the delta/session endpoints accept exactly the same
solver/executor keys as ``/v1/solve``.

Solves and delta applications are serialized by an internal lock: warm
artifacts and sessions are *shared* objects, and the restriction LRUs of
the instance sets they contain are not safe under concurrent restriction.
Registration and read-only introspection stay concurrent.
"""

from __future__ import annotations

import os
import tempfile
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from ..datasets.registry import dataset_abbreviations, get_spec, load_dataset
from ..engine import (
    IncrementalSession,
    SolveRequest,
    available_executors,
    available_solvers,
    cache_for,
    describe_executor,
    get_solver,
    resolve_cache_dir,
    solve,
)
from ..engine.cache import pattern_identity
from ..engine.request import check_kernel
from ..errors import EngineError, ReproError
from ..graph.delta import GraphDelta, json_edges, json_labels
from ..graph.graph import Graph
from ..patterns.base import Pattern
from ..patterns.clique import CliquePattern
from ..patterns.registry import get_pattern

#: Default machine-readable error code per HTTP status (override per raise).
_DEFAULT_CODES = {
    400: "bad_request",
    404: "not_found",
    409: "conflict",
    413: "payload_too_large",
}


class ServiceError(ReproError):
    """A request the service cannot honour (maps to an HTTP 4xx).

    Carries the three fields of the v1 error envelope: a stable
    machine-readable ``code``, the human ``message``, and an optional
    structured ``detail`` (e.g. the accepted keys on validation failures).
    """

    def __init__(
        self,
        message: str,
        status: int = 400,
        *,
        code: Optional[str] = None,
        detail: Any = None,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.code = code or _DEFAULT_CODES.get(status, "bad_request")
        self.detail = detail


#: Solve keys forwarded verbatim into :class:`SolveRequest`, each with the
#: JSON type its value must have and whether ``null`` is accepted too.
_REQUEST_FIELDS: Dict[str, Tuple[type, bool]] = {
    "k": (int, True),
    "solver": (str, False),
    "jobs": (int, False),
    "executor": (str, True),
    "kernel": (str, True),
    "iterations": (int, False),
    "verification": (str, False),
}

#: How a type is named in a ``bad_solve_request`` message.
_JSON_TYPE_NAMES = {int: "an integer", str: "a string"}

#: Every key ``POST /v1/solve`` understands.
SOLVE_KEYS = frozenset(_REQUEST_FIELDS) | {"graph", "dataset", "pattern", "h"}
#: Every key ``POST /v1/graphs/{name}/solve`` understands: the full solver/
#: executor surface of ``/v1/solve``, minus the graph selector (the path
#: names the graph).
SESSION_SOLVE_KEYS = frozenset(_REQUEST_FIELDS) | {"pattern", "h"}
#: Every key ``POST /v1/graphs/{name}/deltas`` understands.
DELTA_KEYS = frozenset(GraphDelta.json_keys())
#: Every key ``POST /v1/graphs`` understands.
REGISTER_KEYS = frozenset({"name", "dataset", "edges", "vertices", "replace"})


def _string_field(payload: Dict[str, Any], key: str, code: str) -> Optional[str]:
    """The string field ``key`` of a body (``None`` when absent or null).

    Any other JSON type is a 400 with ``code`` naming the field, so a
    number or a list never reaches a registry lookup or a dataset loader.
    """
    value = payload.get(key)
    if value is not None and not isinstance(value, str):
        raise ServiceError(
            f"bad {key!r}: must be a string, got {type(value).__name__}",
            code=code,
            detail={"field": key},
        )
    return value


def validate_keys(payload: Any, accepted: frozenset, *, what: str = "request") -> None:
    """The one request-body validator every endpoint shares.

    Rejects non-object bodies and unknown keys; the error detail enumerates
    both the offending and the accepted keys so clients can self-correct
    without consulting the docs (``GET /v1/spec`` serves the same sets).
    """
    if not isinstance(payload, dict):
        raise ServiceError(
            f"{what} body must be a JSON object", code="invalid_body"
        )
    unknown = sorted(set(payload) - accepted)
    if unknown:
        raise ServiceError(
            f"unknown {what} key(s): {', '.join(unknown)}",
            code="unknown_key",
            detail={"unknown": unknown, "accepted": sorted(accepted)},
        )


class SolveService:
    """Named graphs plus warm preprocess/session state behind a solve API.

    The cache directory is ``cache_dir``, then ``$REPRO_CACHE``, then a
    private temporary directory that :meth:`close` removes.

    Lock ordering: ``_solve_lock`` outer, ``_registry_lock`` inner — every
    method that needs both acquires them in that order, so the pair cannot
    deadlock.  The :data:`GUARDED_BY` manifest below is machine-checked by
    repro-lint rule CC01: mutating a listed field outside a
    ``with self.<lock>:`` block fails the lint gate.
    """

    GUARDED_BY = {
        "_graphs": "_registry_lock",
        "_records": "_registry_lock",
        "_counters": "_registry_lock",
        "_sessions": "_solve_lock",
    }

    def __init__(self, cache_dir: Optional[str] = None) -> None:
        self._graphs: Dict[str, Graph] = {}
        self._records: Dict[str, Dict[str, Any]] = {}
        self._registry_lock = threading.Lock()
        self._solve_lock = threading.Lock()
        #: Live incremental sessions, keyed (graph name, pattern identity).
        self._sessions: Dict[Tuple[str, str], IncrementalSession] = {}
        self._counters: Dict[str, int] = {"solves": 0, "deltas": 0, "errors": 0}
        self._started = time.time()
        cache_dir = resolve_cache_dir(cache_dir)
        if cache_dir is None:
            # A private directory keeps the cache on (memory layer included)
            # even when the operator did not ask for a persistent one.
            self._tempdir: Optional[tempfile.TemporaryDirectory] = (
                tempfile.TemporaryDirectory(prefix="repro-server-cache-")
            )
            cache_dir = self._tempdir.name
        else:
            self._tempdir = None
            os.makedirs(cache_dir, exist_ok=True)
        self.cache_dir = cache_dir

    # ------------------------------------------------------------------
    # graph registry
    # ------------------------------------------------------------------
    def register_graph(
        self,
        name: str,
        *,
        dataset: Optional[str] = None,
        edges: Optional[List[List[Any]]] = None,
        vertices: Optional[List[Any]] = None,
        replace: bool = False,
    ) -> Dict[str, Any]:
        """Register a named graph from a dataset abbreviation or an edge list."""
        if not name or not isinstance(name, str):
            raise ServiceError("graph name must be a non-empty string")
        if (dataset is None) == (edges is None and vertices is None):
            raise ServiceError(
                "register exactly one source: 'dataset', or 'edges'/'vertices'"
            )
        if dataset is not None:
            try:
                graph = load_dataset(dataset)
                source = get_spec(dataset).name
            except ReproError as exc:
                raise ServiceError(str(exc)) from exc
        else:
            try:
                graph = Graph(
                    edges=[(u, v) for u, v in (edges or [])],
                    vertices=vertices,
                )
            except (ReproError, TypeError, ValueError) as exc:
                raise ServiceError(f"bad edge list: {exc}") from exc
            source = "inline"
        # The registry swap and the session purge must be one atomic step
        # under the solve lock: if the swap happened first, a concurrent
        # session solve could pair the *new* registry graph with a session
        # still bound to the *old* graph object and serve stale results.
        with self._solve_lock:
            with self._registry_lock:
                if name in self._graphs and not replace:
                    raise ServiceError(
                        f"graph {name!r} is already registered", status=409
                    )
                replacing = name in self._graphs
                self._graphs[name] = graph
                self._records[name] = {
                    "name": name,
                    "source": source,
                    "vertices": graph.num_vertices,
                    "edges": graph.num_edges,
                    "registered_at": time.time(),
                    "solves": 0,
                    "deltas": 0,
                }
                record = dict(self._records[name])
            if replacing:
                # Sessions hold the *old* graph object; a replacement starts
                # the delta history over, so their warm state must not
                # survive.
                for key in [k for k in self._sessions if k[0] == name]:
                    del self._sessions[key]
        return record

    def register_from_payload(self, payload: Any) -> Dict[str, Any]:
        """Validate and apply one ``POST /v1/graphs`` body.

        ``name`` and ``dataset`` must be strings and ``replace`` a boolean;
        ``edges`` must be a list of ``[u, v]`` pairs and ``vertices`` a
        list, with integer or string labels only (the delta endpoint's
        rule).  As for every other field, ``null`` reads as absent.  A bad
        field is a 400 ``bad_register_request`` naming it, raised before
        the registry is touched.
        """
        validate_keys(payload, REGISTER_KEYS, what="register")
        code = "bad_register_request"
        name = _string_field(payload, "name", code)
        dataset = _string_field(payload, "dataset", code)
        replace = payload.get("replace")
        if replace is None:
            replace = False
        elif not isinstance(replace, bool):
            raise ServiceError(
                f"bad 'replace': must be a boolean, got {type(replace).__name__}",
                code=code,
                detail={"field": "replace"},
            )

        def inline(key: str, read) -> Optional[list]:
            if payload.get(key) is None:
                return None
            try:
                return read(payload, key)
            except ReproError as exc:
                raise ServiceError(
                    f"bad {key!r}: {exc}", code=code, detail={"field": key}
                ) from exc

        return self.register_graph(
            name or "",
            dataset=dataset,
            edges=inline("edges", json_edges),
            vertices=inline("vertices", json_labels),
            replace=replace,
        )

    def graphs(self) -> List[Dict[str, Any]]:
        """Registered graphs, sorted by name."""
        with self._registry_lock:
            return [dict(self._records[name]) for name in sorted(self._records)]

    def _named_graph(self, name: str) -> Graph:
        with self._registry_lock:
            graph = self._graphs.get(name)
        if graph is None:
            raise ServiceError(f"unknown graph {name!r}", status=404)
        return graph

    def _resolve_graph(self, payload: Dict[str, Any]) -> tuple:
        name = _string_field(payload, "graph", "bad_solve_request")
        dataset = _string_field(payload, "dataset", "bad_solve_request")
        if (name is None) == (dataset is None):
            raise ServiceError("name exactly one of 'graph' or 'dataset'")
        if name is not None:
            return name, self._named_graph(name)
        # Dataset solves lazily register the graph under the dataset's
        # abbreviation, so repeat queries stay warm exactly like registered
        # graphs.  A graph under that name that is not the unchanged dataset
        # (registered from another source, or changed by a delta) is a
        # conflict: it is never solved in the dataset's place.
        try:
            spec = get_spec(dataset)
        except ReproError as exc:
            raise ServiceError(str(exc)) from exc
        key = spec.abbreviation
        with self._registry_lock:
            missing = key not in self._graphs
        if missing:
            try:
                self.register_graph(key, dataset=key)
            except ServiceError as exc:
                # A 409 means another request registered the name first; the
                # check below decides whether that graph is the dataset.
                if exc.status != 409:
                    raise
        with self._registry_lock:
            graph = self._graphs[key]
            source = self._records[key]["source"]
            deltas = self._records[key]["deltas"]
        if source != spec.name or deltas:
            why = f"changed by {deltas} delta(s)" if deltas else f"registered from {source!r}"
            raise ServiceError(
                f"graph {key!r} is not dataset {spec.name!r} ({why}); "
                f"solve it with {{'graph': {key!r}}}",
                status=409,
            )
        return key, graph

    @staticmethod
    def _resolve_pattern(payload: Dict[str, Any]) -> Pattern:
        """The pattern selector shared by the solve and session endpoints.

        ``h`` must be a JSON integer (not a boolean) wherever it appears,
        like every other solve field.
        """
        h = payload.get("h", 3)
        if not isinstance(h, int) or isinstance(h, bool):
            raise ServiceError(
                f"bad 'h': must be an integer, got {type(h).__name__}",
                code="bad_pattern",
            )
        if payload.get("pattern") is not None:
            try:
                return get_pattern(str(payload["pattern"]))
            except ReproError as exc:
                raise ServiceError(str(exc), code="unknown_pattern") from exc
        try:
            return CliquePattern(h)
        except ReproError as exc:
            raise ServiceError(f"bad 'h': {exc}", code="bad_pattern") from exc

    @staticmethod
    def _request_options(payload: Dict[str, Any]) -> Dict[str, Any]:
        """The :class:`SolveRequest` fields present in a validated payload.

        Each value must have its field's JSON type (booleans are not
        integers here), and ``kernel`` must name the one kernel, so a bad
        field is a 400 naming it rather than an error deep inside the solve.
        """
        options = {}
        for field, (expected, nullable) in _REQUEST_FIELDS.items():
            if field not in payload:
                continue
            value = payload[field]
            well_typed = isinstance(value, expected) and not (
                expected is int and isinstance(value, bool)
            )
            if not well_typed and not (value is None and nullable):
                allowed = _JSON_TYPE_NAMES[expected] + (" or null" if nullable else "")
                raise ServiceError(
                    f"bad solve request: {field!r} must be {allowed}, "
                    f"got {type(value).__name__}",
                    code="bad_solve_request",
                    detail={"field": field},
                )
            options[field] = value
        try:
            check_kernel(options.get("kernel"))
        except EngineError as exc:
            raise ServiceError(
                f"bad solve request: 'kernel': {exc}",
                code="bad_solve_request",
                detail={"field": "kernel"},
            ) from exc
        return options

    @staticmethod
    def _solve_request(**fields: Any) -> SolveRequest:
        """Build a :class:`SolveRequest`; a field it rejects is a 400."""
        try:
            return SolveRequest(**fields)
        except (ReproError, TypeError, ValueError) as exc:
            raise ServiceError(
                f"bad solve request: {exc}", code="bad_solve_request"
            ) from exc

    @staticmethod
    def _timing(total: float, lock_wait: float, solve_seconds: float) -> Dict[str, float]:
        """The per-request timing split both solve endpoints report.

        ``total_seconds`` runs from just before the solve lock is requested
        to the report; ``lock_wait_seconds`` is the wait for that lock, and
        ``preprocess_seconds`` is everything else outside the component
        solves: cache lookup or cold pipeline, planning, merge.  On a warm
        hit it collapses to the artifact load time.
        """
        return {
            "total_seconds": total,
            "lock_wait_seconds": lock_wait,
            "solve_seconds": solve_seconds,
            "preprocess_seconds": max(total - lock_wait - solve_seconds, 0),
        }

    # ------------------------------------------------------------------
    # solving
    # ------------------------------------------------------------------
    def solve(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Run one solve described by a JSON payload; return the JSON report.

        The payload carries the full :class:`SolveRequest` surface plus the
        graph selector (``graph`` = registered name, or ``dataset``) and the
        pattern selector (``pattern`` name, or ``h``).  The response embeds
        the engine report plus a per-request preprocess-vs-solve timing
        split and the cache verdict, so warm-path amortization is
        observable per call.
        """
        validate_keys(payload, SOLVE_KEYS, what="solve")
        name, graph = self._resolve_graph(payload)
        pattern = self._resolve_pattern(payload)
        options = self._request_options(payload)
        request = self._solve_request(
            graph=graph, pattern=pattern, cache_dir=self.cache_dir, **options
        )
        start = time.perf_counter()
        with self._solve_lock:
            lock_wait = time.perf_counter() - start
            try:
                report = solve(request)
            except ReproError as exc:
                with self._registry_lock:
                    self._counters["errors"] += 1
                raise ServiceError(str(exc), code="engine_error") from exc
        total_seconds = time.perf_counter() - start
        with self._registry_lock:
            self._counters["solves"] += 1
            record = self._records.get(name)
            if record is not None:
                record["solves"] += 1
        stats = report.preprocessing
        return {
            "graph": name,
            **report.to_json_dict(),
            "cache": {
                "state": stats.cache_state,
                "key": stats.cache_key,
                "seconds": stats.cache_seconds,
            },
            "timing": self._timing(total_seconds, lock_wait, report.solve_seconds),
        }

    # ------------------------------------------------------------------
    # incremental sessions
    # ------------------------------------------------------------------
    def apply_delta(self, name: str, payload: Any) -> Dict[str, Any]:
        """Apply one delta to a named graph and repair its live sessions.

        The delta mutates the shared registry graph exactly once; every
        session opened on that graph (one per pattern identity) is then
        repaired in place via
        :meth:`~repro.engine.incremental.IncrementalSession.apply_delta`
        with ``already_applied=True``.  Because the graph's memoised
        content key is invalidated by the mutation, subsequent
        ``/v1/solve`` calls key the preprocess cache on the *post-delta*
        content — a delta can never serve a stale cached artifact.
        """
        validate_keys(payload, DELTA_KEYS, what="delta")
        try:
            delta = GraphDelta.from_json_dict(payload)
        except (ReproError, TypeError, ValueError) as exc:
            raise ServiceError(f"bad delta: {exc}", code="bad_delta") from exc
        if delta.is_empty:
            raise ServiceError(
                "delta must name at least one change", code="bad_delta"
            )
        with self._solve_lock:
            graph = self._named_graph(name)
            try:
                graph.apply_delta(delta)
            except ReproError as exc:
                with self._registry_lock:
                    self._counters["errors"] += 1
                raise ServiceError(
                    f"delta rejected: {exc}", code="bad_delta"
                ) from exc
            session_stats = []
            for key in sorted(self._sessions):
                if key[0] != name:
                    continue
                stats = self._sessions[key].apply_delta(delta, already_applied=True)
                session_stats.append({"pattern": key[1], **stats.as_dict()})
            with self._registry_lock:
                self._counters["deltas"] += 1
                record = self._records.get(name)
                if record is not None:
                    record["vertices"] = graph.num_vertices
                    record["edges"] = graph.num_edges
                    record["deltas"] = record.get("deltas", 0) + 1
                    epoch = record["deltas"]
                else:  # pragma: no cover - records track graphs 1:1
                    epoch = 0
        return {
            "graph": name,
            "epoch": epoch,
            "delta": {
                "content_key": delta.content_key(),
                "add_vertices": len(delta.add_vertices),
                "remove_vertices": len(delta.remove_vertices),
                "add_edges": len(delta.add_edges),
                "remove_edges": len(delta.remove_edges),
                "touched_vertices": len(delta.touched_vertices),
            },
            "graph_state": {
                "vertices": graph.num_vertices,
                "edges": graph.num_edges,
            },
            "sessions": session_stats,
        }

    def solve_incremental(self, name: str, payload: Any) -> Dict[str, Any]:
        """Solve a named graph through its warm incremental session.

        Accepts exactly the solver/executor surface of
        :meth:`solve` minus the graph selector (the path names the graph).
        The session is opened lazily per (graph, pattern) and reused across
        calls and deltas; its report is bit-identical to a cold solve of
        the graph's current content.
        """
        validate_keys(payload, SESSION_SOLVE_KEYS, what="solve")
        pattern = self._resolve_pattern(payload)
        options = self._request_options(payload)
        # Reject bad options before the solve lock: a request that cannot
        # run must neither wait for the lock nor open a session.
        self._solve_request(graph=self._named_graph(name), pattern=pattern, **options)
        start = time.perf_counter()
        with self._solve_lock:
            lock_wait = time.perf_counter() - start
            graph = self._named_graph(name)
            key = (name, pattern_identity(pattern))
            session = self._sessions.get(key)
            try:
                if session is None:
                    session = IncrementalSession(graph, pattern)
                    self._sessions[key] = session
                report = session.solve(**options)
            except (ReproError, TypeError, ValueError) as exc:
                with self._registry_lock:
                    self._counters["errors"] += 1
                raise ServiceError(str(exc), code="engine_error") from exc
        total_seconds = time.perf_counter() - start
        with self._registry_lock:
            self._counters["solves"] += 1
            record = self._records.get(name)
            if record is not None:
                record["solves"] += 1
        solve_stats = session.last_solve_stats
        return {
            "graph": name,
            **report.to_json_dict(),
            "incremental": {
                "pattern": key[1],
                **(solve_stats.as_dict() if solve_stats is not None else {}),
            },
            "timing": self._timing(total_seconds, lock_wait, report.solve_seconds),
        }

    def sessions(self) -> List[Dict[str, Any]]:
        """Live incremental sessions (graph, pattern, epoch, instance count).

        Lock-free so ``/v1/stats`` answers during a long solve: the dict
        snapshot is atomic under CPython, and the per-session counters read
        here are plain attributes.
        """
        snapshot = dict(self._sessions)
        return [
            {
                "graph": key[0],
                "pattern": key[1],
                "epoch": snapshot[key].epoch,
                "num_instances": snapshot[key].num_instances,
            }
            for key in sorted(snapshot)
        ]

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def solvers(self) -> List[Dict[str, Any]]:
        """Registered solvers with their scheduling metadata."""
        rows = []
        for name in available_solvers():
            spec = get_solver(name)
            rows.append(
                {
                    "name": name,
                    "description": spec.description,
                    "exact": spec.exact,
                    "fixed_h": spec.fixed_h,
                    "requires_k": spec.requires_k,
                }
            )
        return rows

    def executors(self) -> List[Dict[str, Any]]:
        """The two execution backends."""
        return [
            {"name": name, "description": describe_executor(name)}
            for name in available_executors()
        ]

    def datasets(self) -> List[str]:
        """Dataset abbreviations accepted by the ``dataset`` selector."""
        return list(dataset_abbreviations())

    def record_internal_error(self) -> None:
        """Count a request that failed unexpectedly (an HTTP 500)."""
        with self._registry_lock:
            self._counters["errors"] += 1

    def stats(self) -> Dict[str, Any]:
        """Service counters plus the cache ledger summary."""
        with self._registry_lock:
            counters = dict(self._counters)
            graphs = [dict(self._records[name]) for name in sorted(self._records)]
        return {
            "uptime_seconds": time.time() - self._started,
            "counters": counters,
            "graphs": graphs,
            "sessions": self.sessions(),
            "cache": cache_for(self.cache_dir).summary(),
        }

    def close(self) -> None:
        """Release the private cache directory (if the service owns one)."""
        if self._tempdir is not None:
            self._tempdir.cleanup()
            self._tempdir = None

"""HTTP front end for the resident solve service (versioned ``/v1`` API).

A thin :mod:`http.server` layer over :class:`~repro.server.service.SolveService`:

====== ============================== =======================================
Method Path                           Meaning
====== ============================== =======================================
GET    ``/v1/health``                 liveness probe
GET    ``/v1/spec``                   machine-readable API description
GET    ``/v1/solvers``                registered solvers (name, metadata)
GET    ``/v1/executors``              the two execution backends
GET    ``/v1/datasets``               dataset abbreviations
GET    ``/v1/graphs``                 registered graphs
GET    ``/v1/stats``                  service counters + cache summary
POST   ``/v1/graphs``                 register a graph
POST   ``/v1/solve``                  run a solve (full request surface)
POST   ``/v1/graphs/{name}/deltas``   apply a :class:`GraphDelta` to a graph
POST   ``/v1/graphs/{name}/solve``    solve via the warm incremental session
====== ============================== =======================================

Every ``/v1`` response is JSON in a uniform envelope: ``{"ok": true,
"data": ...}`` on success, ``{"ok": false, "error": {"code", "message",
"detail"}}`` on failure (4xx for client errors, 500 for internal failures
— which never take the server down).  The accepted body keys for each
POST route are served by ``GET /v1/spec`` and enumerated in the error
detail when an unknown key is rejected.  ``GET /`` answers as
``/v1/health``; any other path outside the table gets a 404 ``not_found``
envelope.

The server is a ``ThreadingHTTPServer``: introspection endpoints answer
concurrently while the service serializes solves and delta applications
(see :class:`~repro.server.service.SolveService`).
"""

from __future__ import annotations

import argparse
import json
import sys
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple
from urllib.parse import unquote

from .service import (
    DELTA_KEYS,
    REGISTER_KEYS,
    SESSION_SOLVE_KEYS,
    SOLVE_KEYS,
    ServiceError,
    SolveService,
)

#: Default bind address (loopback: the service has no authentication).
DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8765

#: Largest accepted request body (a graph upload), in bytes.
MAX_BODY_BYTES = 64 * 1024 * 1024

#: API version segment for the current route namespace.
API_VERSION = "v1"

#: Introspection routes ``GET /v1/<name>``: name -> (service) -> payload.
_GET_ROUTES: Dict[str, Callable[[SolveService], Any]] = {
    "health": lambda service: {"status": "ok"},
    "solvers": lambda service: service.solvers(),
    "executors": lambda service: service.executors(),
    "datasets": lambda service: service.datasets(),
    "graphs": lambda service: service.graphs(),
    "stats": lambda service: service.stats(),
}


def api_spec() -> Dict[str, Any]:
    """The machine-readable API description served by ``GET /v1/spec``.

    Lists every route with its method, path template, and (for POST
    routes) the exact set of accepted body keys — the same sets the
    shared validator enforces, so the spec can never drift from the
    implementation.
    """
    routes: List[Dict[str, Any]] = [
        {"method": "GET", "path": f"/{API_VERSION}/{name}"}
        for name in sorted(_GET_ROUTES)
    ]
    routes.append({"method": "GET", "path": f"/{API_VERSION}/spec"})
    routes.extend(
        [
            {
                "method": "POST",
                "path": f"/{API_VERSION}/graphs",
                "keys": sorted(REGISTER_KEYS),
            },
            {
                "method": "POST",
                "path": f"/{API_VERSION}/solve",
                "keys": sorted(SOLVE_KEYS),
            },
            {
                "method": "POST",
                "path": f"/{API_VERSION}/graphs/{{name}}/deltas",
                "keys": sorted(DELTA_KEYS),
            },
            {
                "method": "POST",
                "path": f"/{API_VERSION}/graphs/{{name}}/solve",
                "keys": sorted(SESSION_SOLVE_KEYS),
            },
        ]
    )
    routes.sort(key=lambda r: (r["path"], r["method"]))
    return {
        "api_version": API_VERSION,
        "envelope": {
            "success": {"ok": True, "data": "..."},
            "error": {
                "ok": False,
                "error": {"code": "...", "message": "...", "detail": "..."},
            },
        },
        "routes": routes,
    }


class SolveRequestHandler(BaseHTTPRequestHandler):
    """Route HTTP requests into the owning server's :class:`SolveService`."""

    server_version = "repro-lhcds/2"
    protocol_version = "HTTP/1.1"
    #: The handler writes the headers and the body of a response in two
    #: sends.  With Nagle's algorithm on, the body waits for the client's
    #: delayed ACK of the headers, about 40 ms per keep-alive response.
    disable_nagle_algorithm = True

    @property
    def service(self) -> SolveService:
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        """Route access logs to stderr only when the server asks for them."""
        if getattr(self.server, "verbose", False):
            super().log_message(format, *args)

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def _send_json(self, status: int, payload: Any) -> None:
        body = json.dumps(payload, indent=2, default=str).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _read_json_body(self) -> Any:
        header = self.headers.get("Content-Length") or "0"
        try:
            length = int(header)
        except ValueError:
            # The body cannot be framed, so the connection cannot be reused.
            self.close_connection = True
            raise ServiceError(
                f"Content-Length is not an integer: {header!r}", code="invalid_body"
            ) from None
        if length <= 0:
            raise ServiceError("request body must be a JSON object")
        if length > MAX_BODY_BYTES:
            raise ServiceError(
                f"request body exceeds {MAX_BODY_BYTES} bytes",
                413,
            )
        raw = self.rfile.read(length)
        try:
            return json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise ServiceError(
                f"request body is not valid JSON: {exc}", code="invalid_body"
            ) from exc

    def _dispatch_v1(self, handler: Callable[[], Tuple[int, Any]]) -> None:
        """Run a handler and wrap the outcome in the v1 envelope."""
        try:
            status, payload = handler()
        except ServiceError as exc:
            self._send_v1_error(exc.status, exc.code, str(exc), exc.detail)
        except Exception as exc:  # defensive 500: the server keeps serving
            self.service.record_internal_error()
            self._send_v1_error(500, "internal_error", f"internal error: {exc}", None)
        else:
            self._send_json(status, {"ok": True, "data": payload})

    def _send_v1_error(
        self, status: int, code: str, message: str, detail: Any
    ) -> None:
        self._send_json(
            status,
            {
                "ok": False,
                "error": {"code": code, "message": message, "detail": detail},
            },
        )

    @staticmethod
    def _segments(path: str) -> List[str]:
        """Decoded, non-empty path segments (query strings are not used)."""
        return [unquote(part) for part in path.split("/") if part]

    # ------------------------------------------------------------------
    # routes
    # ------------------------------------------------------------------
    def _not_found(self) -> None:
        self._send_v1_error(404, "not_found", f"unknown path {self.path!r}", None)

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        segments = self._segments(self.path) or [API_VERSION, "health"]
        if len(segments) != 2 or segments[0] != API_VERSION:
            self._not_found()
        elif segments[1] == "spec":
            self._dispatch_v1(lambda: (200, api_spec()))
        elif segments[1] in _GET_ROUTES:
            route = _GET_ROUTES[segments[1]]
            self._dispatch_v1(lambda: (200, route(self.service)))
        else:
            self._not_found()

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        service = self.service
        segments = self._segments(self.path)
        if not segments or segments[0] != API_VERSION:
            self._not_found()
            return
        segments = segments[1:]
        if segments == ["solve"]:
            self._dispatch_v1(lambda: (200, service.solve(self._read_json_body())))
        elif segments == ["graphs"]:
            self._dispatch_v1(
                lambda: (201, service.register_from_payload(self._read_json_body()))
            )
        elif len(segments) == 3 and segments[0] == "graphs" and segments[2] == "deltas":
            name = segments[1]
            self._dispatch_v1(
                lambda: (200, service.apply_delta(name, self._read_json_body()))
            )
        elif len(segments) == 3 and segments[0] == "graphs" and segments[2] == "solve":
            name = segments[1]
            self._dispatch_v1(
                lambda: (200, service.solve_incremental(name, self._read_json_body()))
            )
        else:
            self._not_found()


def create_server(
    host: str = DEFAULT_HOST,
    port: int = 0,
    *,
    service: Optional[SolveService] = None,
    cache_dir: Optional[str] = None,
    verbose: bool = False,
) -> Tuple[ThreadingHTTPServer, SolveService]:
    """Build a bound (not yet serving) server plus its service.

    ``port=0`` binds an ephemeral port (tests, the CI smoke legs); the bound
    address is ``server.server_address``.  The caller owns both lifetimes:
    ``server.shutdown()`` / ``server.server_close()`` and
    ``service.close()``.
    """
    if service is None:
        service = SolveService(cache_dir=cache_dir)
    server = ThreadingHTTPServer((host, port), SolveRequestHandler)
    server.daemon_threads = True
    server.service = service  # type: ignore[attr-defined]
    server.verbose = verbose  # type: ignore[attr-defined]
    return server, service


def _build_parser(prog: str) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=prog,
        description="persistent LhCDS solve service with a warm preprocess cache",
    )
    parser.add_argument("--host", default=DEFAULT_HOST, help="bind address")
    parser.add_argument(
        "--port", type=int, default=DEFAULT_PORT, help="bind port (0 = ephemeral)"
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="preprocess-cache directory (default: $REPRO_CACHE, then a "
        "private temporary directory)",
    )
    parser.add_argument(
        "--register",
        action="append",
        default=[],
        metavar="NAME=DATASET",
        help="register a dataset graph at startup (repeatable)",
    )
    parser.add_argument(
        "--verbose", action="store_true", help="log each request to stderr"
    )
    return parser


def main(argv: Optional[Sequence[str]] = None, prog: str = "python -m repro.server") -> int:
    """Serve until interrupted (returns a process exit code)."""
    args = _build_parser(prog).parse_args(argv)
    registrations = []
    for item in args.register:
        name, separator, dataset = item.partition("=")
        if not separator or not name or not dataset:
            print(f"error: --register needs NAME=DATASET, got {item!r}", file=sys.stderr)
            return 2
        registrations.append((name, dataset))
    server, service = create_server(
        args.host, args.port, cache_dir=args.cache_dir, verbose=args.verbose
    )
    try:
        for name, dataset in registrations:
            record = service.register_graph(name, dataset=dataset)
            print(
                f"registered {name!r} <- {dataset} "
                f"({record['vertices']} vertices, {record['edges']} edges)",
                file=sys.stderr,
            )
        host, port = server.server_address[:2]
        print(
            f"repro-lhcds server on http://{host}:{port} "
            f"(cache: {service.cache_dir})",
            file=sys.stderr,
            flush=True,
        )
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        server.server_close()
        service.close()
    return 0

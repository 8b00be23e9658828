"""``python -m repro.server`` with the benchmark's layer spans installed.

Usage::

    python3 perfbench/traced_server.py RECORDS.json [repro.server arguments...]

Each call into a ``SolveService`` endpoint method is one traced operation.
When the server stops (SIGINT), one record per call, in call order, is
written to ``RECORDS.json``: the endpoint, the method's wall time and its
span trace.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

import spans

#: SolveService method -> endpoint name used in the benchmark's metrics.
ENDPOINTS = {
    "register_from_payload": "register",
    "solve": "solve",
    "apply_delta": "deltas",
    "solve_incremental": "session_solve",
}


def _traced_endpoint(tracer: spans.Tracer, endpoint: str, method, records: list):
    @functools.wraps(method)
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        with tracer.op() as trace:
            try:
                return method(*args, **kwargs)
            finally:
                records.append(
                    {
                        "endpoint": endpoint,
                        "wall": time.perf_counter() - start,
                        "trace": trace.to_json(),
                    }
                )

    return wrapper


def main(argv) -> int:
    record_path, server_args = argv[0], argv[1:]
    tracer = spans.Tracer()
    spans.install(tracer)
    from repro.server.app import main as serve
    from repro.server.service import SolveService

    records: list = []
    for method, endpoint in ENDPOINTS.items():
        original = getattr(SolveService, method)
        setattr(SolveService, method, _traced_endpoint(tracer, endpoint, original, records))
    try:
        return serve(server_args)
    finally:
        partial = record_path + ".partial"
        with open(partial, "w", encoding="utf-8") as handle:
            json.dump(records, handle)
        os.replace(partial, record_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

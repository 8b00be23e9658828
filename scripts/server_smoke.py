#!/usr/bin/env python3
"""CI smoke test for the persistent solve service.

Boots ``python -m repro.server`` as a real subprocess on an ephemeral port,
registers a synthetic graph over HTTP, issues the same ``/v1/solve``
request twice, and asserts:

* the second response reports a preprocess-cache hit,
* both responses carry bit-identical solve output (subgraphs, counters,
  preprocessing stats — wall-clock and cache bookkeeping excluded),
* ``/v1/stats`` reflects the two solves and the cache's one store + one hit.

Usage::

    PYTHONPATH=src python scripts/server_smoke.py

Exits 0 on success, 1 on any assertion failure, with the server's stderr
echoed for post-mortem.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import time
import urllib.error
import urllib.request

SRC_DIR = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))
sys.path.insert(0, SRC_DIR)

from repro.datasets.synthetic import planted_communities_graph  # noqa: E402

URL_RE = re.compile(r"http://([0-9.]+):(\d+)")
STARTUP_TIMEOUT_S = 30


def _request(base: str, method: str, path: str, payload=None):
    """Send one request and return the ``data`` of its v1 success envelope."""
    data = None if payload is None else json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(base + path, data=data, method=method)
    with urllib.request.urlopen(request, timeout=60) as response:
        body = json.loads(response.read().decode("utf-8"))
    assert body.get("ok") is True, f"expected ok envelope: {body}"
    return body["data"]


def _bit_identical_part(response: dict) -> dict:
    """Everything in a /v1/solve response that must match across repeat calls."""
    return {
        "solver": response["solver"],
        "pattern": response["pattern"],
        "h": response["h"],
        "k": response["k"],
        "executor": response["executor"],
        "kernel": response["kernel"],
        "subgraphs": response["subgraphs"],
        "candidates_examined": response["candidates_examined"],
        "preprocessing": {
            key: value
            for key, value in response["preprocessing"].items()
            if not key.endswith("_seconds") and not key.startswith("cache_")
        },
    }


def main() -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.server", "--port", "0"],
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )
    base = None
    try:
        # The server prints its bound address to stderr once it is up.
        deadline = time.time() + STARTUP_TIMEOUT_S
        banner = ""
        while time.time() < deadline:
            line = process.stderr.readline()
            if not line:
                time.sleep(0.05)
                continue
            banner += line
            match = URL_RE.search(line)
            if match:
                base = f"http://{match.group(1)}:{match.group(2)}"
                break
        if base is None:
            print(f"FAIL: server never announced its address\n{banner}")
            return 1
        print(f"server up at {base}")

        assert _request(base, "GET", "/v1/health") == {"status": "ok"}

        graph, _ = planted_communities_graph(
            [10, 8, 7], p_in=0.9, p_out=0.05, seed=11, background=10
        )
        record = _request(
            base,
            "POST",
            "/v1/graphs",
            {"name": "smoke", "edges": [[u, v] for u, v in graph.edges()]},
        )
        print(f"registered: {record['vertices']} vertices, {record['edges']} edges")

        payload = {"graph": "smoke", "h": 3, "k": 3, "solver": "ippv"}
        first = _request(base, "POST", "/v1/solve", payload)
        second = _request(base, "POST", "/v1/solve", payload)

        if first["cache"]["state"] != "miss":
            print(f"FAIL: first solve should miss, got {first['cache']['state']!r}")
            return 1
        if second["cache"]["state"] not in ("hit", "hit-memory"):
            print(f"FAIL: second solve should hit, got {second['cache']['state']!r}")
            return 1
        if second["cache"]["key"] != first["cache"]["key"]:
            print("FAIL: cache keys differ between identical requests")
            return 1
        if _bit_identical_part(first) != _bit_identical_part(second):
            print("FAIL: warm response differs from cold response")
            print(json.dumps(_bit_identical_part(first), indent=2))
            print(json.dumps(_bit_identical_part(second), indent=2))
            return 1
        if not first["subgraphs"]:
            print("FAIL: solve returned no subgraphs")
            return 1

        stats = _request(base, "GET", "/v1/stats")
        if stats["counters"]["solves"] != 2:
            print(f"FAIL: expected 2 solves, stats say {stats['counters']}")
            return 1
        cache = stats["cache"]["counters"]
        if cache["stores"] != 1 or cache["hits"] != 1:
            print(f"FAIL: expected 1 store + 1 hit, cache says {cache}")
            return 1

        top = first["subgraphs"][0]
        print(
            f"OK: cold={first['cache']['state']} warm={second['cache']['state']} "
            f"top density={top['density']} |S|={top['size']} "
            f"warm preprocess={second['timing']['preprocess_seconds']:.4f}s"
        )
        return 0
    except (AssertionError, urllib.error.URLError, OSError) as exc:
        print(f"FAIL: {type(exc).__name__}: {exc}")
        return 1
    finally:
        process.terminate()
        try:
            process.wait(timeout=10)
        except subprocess.TimeoutExpired:
            process.kill()


if __name__ == "__main__":
    sys.exit(main())

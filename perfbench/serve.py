"""The serve-stream workload: ``python -m repro.server`` over loopback HTTP.

The server holds two registered graphs, each twelve disjoint
``hybrid_community_graph(10, 12, ·)`` parts.  One client in a closed loop
alternates a write and a read:

* write: a seeded delta that toggles one original edge of one part of the
  ``writes`` graph (``POST /v1/graphs/writes/deltas``), then the refreshed
  top-k from its incremental session (``POST /v1/graphs/writes/solve``);
* read: ``POST /v1/solve`` on the ``reads`` graph, warm in the preprocess
  cache.

Every read must match a cold in-process solve of ``reads``; every
``CHECK_EVERY``-th write must match a cold in-process solve of the client's
mirror of ``writes``.
"""

from __future__ import annotations

import gc
import http.client
import json
import os
import random
import re
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from support import H, K, PLACEMENT, ROOT, SETUP_REPEATS, SRC, Outcome, SpeedProbe, Tally
from support import at_reference_speed, median, percentile, pinned_environment
from support import placement_problem, relabel

PARTS = 12
#: Generator seeds of the two graphs' parts (part ``i`` uses ``seed + i``).
GRAPH_SEEDS = {"writes": 1000, "reads": 2000}
#: Label offset between parts; each part has fewer vertices than this.
PART_OFFSET = 1000
#: Every this-many writes, the served report is checked against a cold solve.
CHECK_EVERY = 8
SOLVE = {"h": H, "k": K, "solver": "ippv", **PLACEMENT}
READ_PATH = "/v1/solve"
DELTA_PATH = "/v1/graphs/writes/deltas"
SESSION_PATH = "/v1/graphs/writes/solve"
BANNER = re.compile(r"http://([0-9.]+):(\d+)")
STARTUP_TIMEOUT_S = 60
STOP_TIMEOUT_S = 30
REQUEST_TIMEOUT_S = 120
TRANSPORT_ERRORS = (OSError, http.client.HTTPException, ValueError)


class RequestFailed(Exception):
    """The server answered with an error envelope."""


@dataclass
class StreamGraph:
    vertices: list
    edges: list
    #: Each part's edges, under the run's labels.
    part_edges: List[List[Tuple[int, int]]]

    def registration(self, name: str) -> dict:
        return {"name": name, "vertices": self.vertices, "edges": [list(e) for e in self.edges]}

    def graph(self):
        """A local graph built exactly as the server builds the registered one."""
        from repro.graph.graph import Graph

        return Graph(edges=[(u, v) for u, v in self.edges], vertices=self.vertices)


def build_stream_graph(base_seed: int, seed: int) -> StreamGraph:
    from repro.datasets.synthetic import hybrid_community_graph
    from repro.graph.graph import Graph

    parts = [hybrid_community_graph(10, 12, seed=base_seed + i) for i in range(PARTS)]
    union = Graph()
    for index, part in enumerate(parts):
        offset = index * PART_OFFSET
        for v in part.vertices():
            union.add_vertex(v + offset)
        for u, v in part.edges():
            union.add_edge(u + offset, v + offset)
    graph, mapping = relabel(union, seed)
    part_edges = [
        [(mapping[u + i * PART_OFFSET], mapping[v + i * PART_OFFSET]) for u, v in part.edges()]
        for i, part in enumerate(parts)
    ]
    return StreamGraph(list(graph.vertices()), list(graph.edges()), part_edges)


class Server:
    """One server subprocess and a keep-alive connection to it."""

    def __init__(self, argv: List[str], log_path: str) -> None:
        env = pinned_environment(os.environ)
        env["PYTHONPATH"] = SRC
        self.requests = 0
        self._log = open(log_path, "w", encoding="utf-8")
        self.process = subprocess.Popen(
            argv, stdout=self._log, stderr=subprocess.STDOUT, env=env, cwd=ROOT
        )
        self.connection: Optional[http.client.HTTPConnection] = None
        try:
            host, port = self._wait_for_banner(log_path)
        except Exception:
            self.stop()
            raise
        self.connection = http.client.HTTPConnection(host, port, timeout=REQUEST_TIMEOUT_S)

    def _wait_for_banner(self, log_path: str) -> Tuple[str, int]:
        deadline = time.monotonic() + STARTUP_TIMEOUT_S
        while time.monotonic() < deadline:
            with open(log_path, encoding="utf-8") as handle:
                match = BANNER.search(handle.read())
            if match:
                return match.group(1), int(match.group(2))
            if self.process.poll() is not None:
                break
            time.sleep(0.02)
        raise RuntimeError(f"server did not start; see {log_path}")

    def post(self, path: str, payload: dict) -> Tuple[float, dict]:
        """Send one request; return the client latency and the response data."""
        body = json.dumps(payload).encode("utf-8")
        start = time.perf_counter()
        self.connection.request("POST", path, body=body,
                                headers={"Content-Type": "application/json"})
        response = self.connection.getresponse()
        raw = response.read()
        latency = time.perf_counter() - start
        self.requests += 1
        envelope = json.loads(raw)
        if not envelope.get("ok"):
            raise RequestFailed(f"POST {path}: HTTP {response.status} {envelope.get('error')}")
        return latency, envelope["data"]

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.process.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        """Close the connection, interrupt the server and wait for it to exit."""
        if self.connection is not None:
            self.connection.close()
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._log.close()


def _cold_signature(graph) -> str:
    from repro.engine import json_report_signature, solve

    report = solve(graph=graph, pattern=H, **{k: v for k, v in SOLVE.items() if k != "h"})
    return json_report_signature(report.to_json_dict())


def _served_problem(data: dict, expected: Optional[str]) -> Optional[str]:
    from repro.engine import json_report_signature

    problem = placement_problem(data["executor"], data["kernel"], data["fallback_reason"])
    if problem is None and expected is not None and json_report_signature(data) != expected:
        problem = "served report differs from a cold in-process solve"
    return problem


@dataclass
class Stack:
    """Running servers holding the registered, warmed-up graphs."""

    servers: List[Server]
    writes: StreamGraph
    reads: StreamGraph
    warm_reads: List[dict]
    warm_writes: List[dict]

    def stop(self) -> None:
        for server in self.servers:
            server.stop()


def _start(argvs: List[List[str]], seed: int, run_dir: str, tag: str) -> Stack:
    """Generate graphs, start servers, register, run one warm-up solve per graph."""
    writes = build_stream_graph(GRAPH_SEEDS["writes"], seed)
    reads = build_stream_graph(GRAPH_SEEDS["reads"], seed)
    stack = Stack([], writes, reads, [], [])
    try:
        for index, argv in enumerate(argvs):
            server = Server(argv, os.path.join(run_dir, f"server-{tag}-{index}.log"))
            stack.servers.append(server)
            server.post("/v1/graphs", writes.registration("writes"))
            server.post("/v1/graphs", reads.registration("reads"))
            stack.warm_reads.append(server.post(READ_PATH, {"graph": "reads", **SOLVE})[1])
            stack.warm_writes.append(server.post(SESSION_PATH, SOLVE)[1])
    except BaseException:
        stack.stop()
        raise
    return stack


def _server_argv(run_dir: str, tag: str, record_path: Optional[str] = None) -> List[str]:
    cache_dir = os.path.join(run_dir, f"cache-{tag}")
    tail = ["--port", "0", "--cache-dir", cache_dir]
    if record_path is None:
        return [sys.executable, "-m", "repro.server", *tail]
    here = os.path.dirname(os.path.abspath(__file__))
    return [sys.executable, os.path.join(here, "traced_server.py"), record_path, *tail]


@dataclass
class Samples:
    """One server's timed requests."""

    reads: List[float] = field(default_factory=list)
    updates: List[float] = field(default_factory=list)
    #: (endpoint, client latency, response data) for every timed request.
    requests: List[Tuple[str, float, dict]] = field(default_factory=list)


def _check_warm_up(stack: Stack, tally: Tally) -> str:
    """Check the warm-up answers; return the reads reference signature."""
    reads_signature = _cold_signature(stack.reads.graph())
    writes_signature = _cold_signature(stack.writes.graph())
    for data in stack.warm_reads:
        tally.record(_served_problem(data, reads_signature))
    for data in stack.warm_writes:
        tally.record(_served_problem(data, writes_signature))
    return reads_signature


def _stream(stack: Stack, reads_signature: str, seed: int, seconds: float,
            tally: Tally, probe: SpeedProbe) -> List[Samples]:
    """The timed closed loop; each operation goes to every server in turn."""
    from repro.graph.delta import GraphDelta

    rng = random.Random(seed)
    mirror = stack.writes.graph()
    samples = [Samples() for _ in stack.servers]
    operation = 0
    deadline = time.perf_counter() + seconds
    while operation < 2 or time.perf_counter() < deadline:
        order = list(range(len(stack.servers)))
        if (operation // 2) % 2:
            order.reverse()
        expected: Optional[str] = reads_signature
        if operation % 2 == 0:
            u, v = rng.choice(stack.writes.part_edges[rng.randrange(PARTS)])
            delta = {"remove_edges" if mirror.has_edge(u, v) else "add_edges": [[u, v]]}
            mirror.apply_delta(GraphDelta.from_json_dict(delta))
            writes_done = operation // 2 + 1
            expected = _cold_signature(mirror) if writes_done % CHECK_EVERY == 0 else None
        gc.collect()
        probe.sample()
        for index in order:
            server, sample = stack.servers[index], samples[index]
            try:
                if operation % 2 == 0:
                    delta_latency, delta_data = server.post(DELTA_PATH, delta)
                    latency, data = server.post(SESSION_PATH, SOLVE)
                    sample.updates.append(delta_latency + latency)
                    sample.requests.append(("deltas", delta_latency, delta_data))
                    sample.requests.append(("session_solve", latency, data))
                else:
                    latency, data = server.post(READ_PATH, {"graph": "reads", **SOLVE})
                    sample.reads.append(latency)
                    sample.requests.append(("solve", latency, data))
            except (RequestFailed, *TRANSPORT_ERRORS) as exc:
                tally.record(f"{type(exc).__name__}: {exc}")
                continue
            tally.record(_served_problem(data, expected))
        operation += 1
    return samples


def run(seed: int, seconds: float, run_dir: str) -> Outcome:
    """Untraced run: the end-to-end metrics."""
    tally = Tally()
    setups: List[float] = []
    stack: Optional[Stack] = None
    try:
        for repeat in range(SETUP_REPEATS):
            if stack is not None:
                stack.stop()
                stack = None
            gc.collect()
            start = time.perf_counter()
            stack = _start([_server_argv(run_dir, str(repeat))], seed, run_dir, str(repeat))
            setups.append(time.perf_counter() - start)
        reads_signature = _check_warm_up(stack, tally)
        probe = SpeedProbe()
        (sample,) = _stream(stack, reads_signature, seed, seconds, tally, probe)
        peak_rss_mb = stack.servers[0].peak_rss_mb()
    finally:
        if stack is not None:
            stack.stop()

    latencies = [latency for _, latency, _ in sample.requests]
    raw = {
        "setup_s": median(setups),
        "solve_p50_s": median(sample.reads),
        "update_p50_s": median(sample.updates),
        "update_p95_s": percentile(sample.updates, 95),
        "requests_per_s": len(latencies) / sum(latencies),
        "peak_rss_mb": peak_rss_mb,
    }
    info = {"reads": len(sample.reads), "updates": len(sample.updates),
            "requests": len(latencies), "host_slowdown": probe.slowdown, "raw": raw}
    # Set-up and reads are CPU-bound, and reads dominate the request time.
    # A write's latency holds fixed waits (a ~40 ms delayed-ACK stall on the
    # session-solve response) and measurably does not follow host speed.
    scaled = ("setup_s", "solve_p50_s", "requests_per_s")
    return Outcome(at_reference_speed(raw, probe, scaled), tally, info)


def _endpoint_times(records: List[dict], requests: List[Tuple[str, float, dict]]
                    ) -> Dict[str, float]:
    """Median service and transport seconds per endpoint.

    Service time is the response's ``timing.total_seconds``; the delta
    endpoint reports no timing, so there it is the traced method's wall
    time.  Transport is the client latency minus the service time.
    """
    service: Dict[str, List[float]] = {"solve": [], "deltas": [], "session_solve": []}
    transport: Dict[str, List[float]] = {name: [] for name in service}
    for record, (endpoint, latency, data) in zip(records, requests):
        seconds = record["wall"] if endpoint == "deltas" else data["timing"]["total_seconds"]
        service[endpoint].append(seconds)
        transport[endpoint].append(latency - seconds)
    metrics = {}
    for endpoint in service:
        metrics[f"server.{endpoint}.service_s"] = median(service[endpoint])
        metrics[f"server.{endpoint}.transport_s"] = median(transport[endpoint])
    return metrics


def run_traced(seed: int, seconds: float, run_dir: str) -> Outcome:
    """Traced run: an untraced and a traced server get the same operations."""
    import spans

    tally = Tally()
    record_path = os.path.join(run_dir, "spans.json")
    argvs = [_server_argv(run_dir, "plain"), _server_argv(run_dir, "traced", record_path)]
    stack = _start(argvs, seed, run_dir, "traced")
    try:
        setup_requests = stack.servers[1].requests
        reads_signature = _check_warm_up(stack, tally)
        plain, traced = _stream(stack, reads_signature, seed, seconds, tally, SpeedProbe())
    finally:
        stack.stop()
    with open(record_path, encoding="utf-8") as handle:
        records = json.load(handle)[setup_requests:]
    endpoints = [endpoint for endpoint, _, _ in traced.requests]
    if [record["endpoint"] for record in records] != endpoints:
        raise RuntimeError("traced server records do not line up with the client's requests")

    operations = len(traced.reads) + len(traced.updates)
    traces = [spans.OpTrace.from_json(record["trace"]) for record in records]
    metrics = spans.summarize(traces, operations)
    metrics.update(_endpoint_times(records, traced.requests))
    solves = [data for endpoint, _, data in traced.requests if endpoint == "solve"]
    hits = sum(data["cache"]["state"] in ("hit", "hit-memory") for data in solves)
    sessions = [data["incremental"] for endpoint, _, data in traced.requests
                if endpoint == "session_solve"]
    unattributed = sum(record["wall"] - trace.covered for record, trace in zip(records, traces))
    metrics.update(
        {
            "engine.cache_hit_ratio": hits / len(solves),
            "engine.incremental_reuse_ratio": sum(s["components_reused"] for s in sessions)
            / sum(s["components_total"] for s in sessions),
            "trace.unattributed_s": unattributed / operations,
            "trace.unattributed_ratio": unattributed
            / sum(latency for _, latency, _ in traced.requests),
            "trace.overhead_ratio": median(traced.reads) / median(plain.reads),
        }
    )
    info = {"operations": operations, "requests": len(records)}
    return Outcome(metrics, tally, info)

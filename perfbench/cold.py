"""The cold in-process workloads: repeated top-k solves through ``repro.engine.solve``.

One client in a closed loop: the next solve starts when the previous one
returns.  Every solve starts from scratch (no cache directory, so the
preprocess cache is off), so on these workloads the time to a refreshed
top-k after any change to the graph, ``update_*``, is the solve time.
"""

from __future__ import annotations

import gc
import resource
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from support import H, K, PLACEMENT, SETUP_REPEATS, Outcome, SpeedProbe, Tally
from support import at_reference_speed, median, percentile, placement_problem, relabel


@dataclass(frozen=True)
class ColdWorkload:
    solver: str
    #: Builds the graph shape from a fixed generator seed.
    build: Callable[[], object]
    #: Solver whose top-k must equal ``solver``'s, checked once per run.
    cross_check: Optional[str] = None


def _community():
    from repro.datasets.synthetic import hybrid_community_graph

    return hybrid_community_graph(150, 14, seed=0)


def _powerlaw():
    from repro.datasets.synthetic import barabasi_albert_graph

    return barabasi_albert_graph(3000, 4, seed=1)


WORKLOADS: Dict[str, ColdWorkload] = {
    "cold-community": ColdWorkload(solver="ippv", build=_community),
    "exact-powerlaw": ColdWorkload(solver="exact", build=_powerlaw, cross_check="ippv"),
}


def _solve(graph, solver: str):
    from repro.engine import solve

    return solve(graph=graph, pattern=H, k=K, solver=solver, **PLACEMENT)


def _problem(report, reference_signature: str) -> Optional[str]:
    from repro.engine import report_signature

    problem = placement_problem(report.executor, report.kernel, report.fallback_reason)
    if problem is None and report_signature(report) != reference_signature:
        problem = "report differs from the set-up reference"
    return problem


def _top_k(report) -> List[tuple]:
    return [(s.density, s.as_sorted_list()) for s in report.subgraphs]


def _setup(workload: ColdWorkload, seed: int):
    """Generate the graph and run the warm-up solve, which is the reference."""
    graph, _ = relabel(workload.build(), seed)
    return graph, _solve(graph, workload.solver)


def _timed_solve(graph, solver: str):
    gc.collect()
    start = time.perf_counter()
    report = _solve(graph, solver)
    return time.perf_counter() - start, report


def _cross_check(workload: ColdWorkload, graph, reference, tally: Tally) -> None:
    if workload.cross_check is None:
        return
    other = _solve(graph, workload.cross_check)
    same = _top_k(other) == _top_k(reference)
    tally.record(None if same else f"{workload.cross_check} top-k differs from {workload.solver}")


def run(name: str, seed: int, seconds: float) -> Outcome:
    """Untraced run: the end-to-end metrics."""
    from repro.engine import report_signature

    workload = WORKLOADS[name]
    tally = Tally()
    setups: List[float] = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        start = time.perf_counter()
        graph, reference = _setup(workload, seed)
        setups.append(time.perf_counter() - start)
    signature = report_signature(reference)
    tally.record(placement_problem(reference.executor, reference.kernel, reference.fallback_reason))

    probe = SpeedProbe()
    latencies: List[float] = []
    deadline = time.perf_counter() + seconds
    while not latencies or time.perf_counter() < deadline:
        # A cold solve takes seconds: several probe samples per solve keep
        # the run's speed estimate from resting on a handful of instants.
        probe.sample(repeats=5)
        latency, report = _timed_solve(graph, workload.solver)
        latencies.append(latency)
        tally.record(_problem(report, signature))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    _cross_check(workload, graph, reference, tally)

    raw = {
        "setup_s": median(setups),
        "solve_p50_s": median(latencies),
        "update_p50_s": median(latencies),
        "update_p95_s": percentile(latencies, 95),
        "requests_per_s": len(latencies) / sum(latencies),
        "peak_rss_mb": peak_rss_mb,
    }
    info = {"solves": len(latencies), "host_slowdown": probe.slowdown, "raw": raw}
    scaled = ("setup_s", "solve_p50_s", "update_p50_s", "update_p95_s", "requests_per_s")
    return Outcome(at_reference_speed(raw, probe, scaled), tally, info)


def run_traced(name: str, seed: int, seconds: float) -> Outcome:
    """Traced run: untraced and traced solves alternate, pairwise."""
    import spans
    from repro.engine import report_signature

    tracer = spans.Tracer()
    spans.install(tracer)
    workload = WORKLOADS[name]
    tally = Tally()
    graph, reference = _setup(workload, seed)
    signature = report_signature(reference)

    plain: List[float] = []
    traced: List[float] = []
    traces: List[spans.OpTrace] = []
    unattributed = 0.0
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        order = (False, True) if len(traced) % 2 == 0 else (True, False)
        for with_spans in order:
            if not with_spans:
                latency, report = _timed_solve(graph, workload.solver)
                plain.append(latency)
            else:
                with tracer.op() as trace:
                    latency, report = _timed_solve(graph, workload.solver)
                traced.append(latency)
                traces.append(trace)
                unattributed += latency - trace.covered
            tally.record(_problem(report, signature))
    _cross_check(workload, graph, reference, tally)

    metrics = spans.summarize(traces, len(traced))
    metrics.update(
        {
            "engine.cache_hit_ratio": 0.0,
            "engine.incremental_reuse_ratio": 0.0,
            "trace.unattributed_s": unattributed / len(traced),
            "trace.unattributed_ratio": unattributed / sum(traced),
            "trace.overhead_ratio": median(traced) / median(plain),
        }
    )
    for endpoint in ("solve", "deltas", "session_solve"):
        metrics[f"server.{endpoint}.service_s"] = 0.0
        metrics[f"server.{endpoint}.transport_s"] = 0.0
    return Outcome(metrics, tally, {"solves_traced": len(traced), "solves_plain": len(plain)})

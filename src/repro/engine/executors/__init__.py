"""The engine's two execution backends, as two plain functions.

Every solver works on connected components independently, so the runtime's
one parallel axis is *where* the component solves run:

* ``serial`` — :func:`run_serial`, one component after another in the
  calling process, with the dynamic early stop;
* ``process`` — :func:`run_pool`, a local
  :class:`~concurrent.futures.ProcessPoolExecutor`.

Both take the components the runtime schedules, in decreasing density-cap
order, and ``known``: a plain mapping from a component's vertex set to the
:class:`~repro.lhcds.ippv.LhCDSResult` the caller already holds (an
incremental session's store, or an empty dict on a cold solve).  Each
backend adds what it solves to ``known``; the runtime merges from it.  The
output is bit-identical whichever backend runs.

Two failure channels are kept strictly apart:

* **Infrastructure failures** (the platform cannot spawn processes, a
  payload will not pickle, a worker dies) raise :class:`ExecutorUnavailable`;
  the runtime re-runs on ``serial`` and surfaces the reason in
  ``SolveReport.fallback_reason``.  Output is identical either way.
* **Solver failures** travel back from a worker as :class:`TaskFailure`
  envelopes — pickle-safe even when the original exception is not — and are
  re-raised as :class:`~repro.errors.EngineError` on both backends.  A
  solver bug is never silently retried.
"""

from __future__ import annotations

import heapq
import pickle
import traceback
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Dict, FrozenSet, List, Optional, Tuple

from ...errors import EngineError
from ...graph.graph import Vertex
from ...lhcds.ippv import LhCDSResult
from ..request import PreparedComponent, SolveRequest
from ..solvers import get_solver

#: Results a caller already holds, keyed by the component's vertex set.
Known = Dict[FrozenSet[Vertex], LhCDSResult]

_DESCRIPTIONS = {
    "process": "local process pool (pickled tasks, one OS process per worker)",
    "serial": "one task at a time in the calling process (dynamic early stop)",
}


def available_executors() -> List[str]:
    """Names of the execution backends, sorted."""
    return sorted(_DESCRIPTIONS)


def describe_executor(name: str) -> str:
    """One-line description of a backend."""
    key = name.strip().lower()
    if key not in _DESCRIPTIONS:
        raise EngineError(
            f"unknown executor {name!r}; available: {', '.join(available_executors())}"
        )
    return _DESCRIPTIONS[key]


class ExecutorUnavailable(EngineError):
    """The backend's infrastructure failed; the runtime should fall back."""


@dataclass
class TaskFailure:
    """A pickle-safe record of an exception raised while solving a component."""

    task_id: str
    error_type: str
    message: str
    traceback_text: str = ""

    def raise_as_engine_error(self) -> None:
        raise EngineError(
            f"task {self.task_id!r} failed in the worker: "
            f"{self.error_type}: {self.message}\n{self.traceback_text}".rstrip()
        )


def solve_component(component: PreparedComponent, request: SolveRequest) -> LhCDSResult:
    """Solve one component in this process; solver errors become EngineError."""
    try:
        return get_solver(request.solver).solve(component, request)
    except EngineError:
        raise
    except Exception as exc:  # noqa: BLE001 — normalised boundary
        raise EngineError(
            f"task 'solve-c{component.index}' failed: {type(exc).__name__}: {exc}"
        ) from exc


def solve_in_worker(task: Tuple[PreparedComponent, SolveRequest]) -> Tuple[str, Any]:
    """Worker entry point: ``("ok", result)`` or ``("error", TaskFailure)``.

    Keeping the failure as data (never a pickled exception object) means a
    worker-side solver bug crosses the process boundary intact and cannot
    be mistaken for an infrastructure failure.
    """
    component, request = task
    try:
        return ("ok", get_solver(request.solver).solve(component, request))
    except Exception as exc:  # noqa: BLE001 — the envelope is the boundary
        return (
            "error",
            TaskFailure(
                task_id=f"solve-c{component.index}",
                error_type=type(exc).__name__,
                message=str(exc),
                traceback_text=traceback.format_exc(limit=8),
            ),
        )


def run_serial(
    components: List[PreparedComponent],
    request: SolveRequest,
    known: Known,
    early_stop_k: Optional[int],
) -> int:
    """Solve the components in order in this process; return how many were skipped.

    With ``early_stop_k`` set (exact top-k solvers), the runner keeps the
    running k best densities in a min-heap, known results' included; once
    the k-th best *strictly* exceeds the next component's cap, no later
    component can place in the global top-k — not even on ties — so the
    rest are skipped, known or not.  The pool solves them instead, and the
    runtime's deterministic merge discards exactly the dominated subgraphs.
    """
    topk: List[Fraction] = []
    for position, component in enumerate(components):
        if (
            early_stop_k is not None
            and len(topk) >= early_stop_k
            and topk[0] > component.upper_bound
        ):
            return len(components) - position
        key = component.vertices
        result = known.get(key)
        if result is None:
            result = solve_component(component, request.for_component(component.subgraph))
            known[key] = result
        if early_stop_k is not None:
            for subgraph in result.subgraphs:
                heapq.heappush(topk, subgraph.density)
                if len(topk) > early_stop_k:
                    heapq.heappop(topk)
    return 0


def run_pool(
    components: List[PreparedComponent],
    request: SolveRequest,
    known: Known,
    jobs: int,
) -> int:
    """Solve the components without a known result on a process pool.

    Returns the number of workers started: at most one per component
    shipped, and 1 when every result is known and no pool starts.
    """
    tasks = [
        (component, request.for_component(component.subgraph))
        for component in components
        if component.vertices not in known
    ]
    if not tasks:
        return 1
    workers = max(1, min(jobs, len(tasks)))
    try:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            # map() yields in submission order: deterministic downstream.
            envelopes = list(pool.map(solve_in_worker, tasks))
    except (OSError, BrokenProcessPool, pickle.PicklingError) as exc:
        raise ExecutorUnavailable(
            f"process pool unavailable ({type(exc).__name__}: {exc})"
        ) from exc
    for status, value in envelopes:
        if status != "ok":
            value.raise_as_engine_error()
    for (component, _), (_, result) in zip(tasks, envelopes):
        known[component.vertices] = result
    return workers


__all__ = [
    "ExecutorUnavailable",
    "Known",
    "TaskFailure",
    "available_executors",
    "describe_executor",
    "run_pool",
    "run_serial",
    "solve_component",
    "solve_in_worker",
]

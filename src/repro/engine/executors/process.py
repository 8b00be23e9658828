"""Process-pool execution: the default parallel backend.

Tasks are pickled to worker processes (payloads are slim by design: one
component's subgraph, restricted instances, and bounds — never the host
graph).  Failure handling is the reference implementation of the protocol's
two-channel contract:

* the pool itself failing — the platform cannot spawn processes, a worker
  is OOM-killed (``BrokenProcessPool``), the payload will not pickle —
  raises :class:`~repro.engine.executors.base.ExecutorUnavailable`, which
  the runtime answers with a serial re-run (surfaced, never silent);
* a solver raising *inside* a worker travels back as a
  :class:`~repro.engine.executors.base.TaskFailure` envelope and re-raises
  as :class:`~repro.errors.EngineError` — a worker-side solver bug is a
  bug, not a reason to quietly retry serially.
"""

from __future__ import annotations

import pickle
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

from .base import (
    ExecutionOutcome,
    Executor,
    ExecutorUnavailable,
    TaskBatch,
    run_task_enveloped,
    unwrap_envelope,
)


class ProcessExecutor(Executor):
    """Run tasks on a local :class:`~concurrent.futures.ProcessPoolExecutor`."""

    name = "process"
    description = "local process pool (pickled tasks, one OS process per worker)"
    requires_pickling = True

    def run(self, batch: TaskBatch) -> ExecutionOutcome:
        jobs = max(batch.jobs, 1)
        try:
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                # map() yields in submission order: deterministic downstream.
                envelopes = list(pool.map(run_task_enveloped, batch.tasks))
        except (OSError, BrokenProcessPool, pickle.PicklingError) as exc:
            raise ExecutorUnavailable(
                f"process pool unavailable ({type(exc).__name__}: {exc})"
            ) from exc
        return ExecutionOutcome(
            results=[unwrap_envelope(envelope) for envelope in envelopes],
            jobs_used=jobs,
        )

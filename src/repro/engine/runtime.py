"""Component-parallel execution runtime with a deterministic global merge.

The runtime turns a :class:`SolveRequest` into a :class:`SolveReport`:

1. Validate the request against the solver's :class:`SolverSpec`.
2. Run the shared preprocessing (enumerate, split, bound — see
   :mod:`repro.engine.preprocess`).
3. **Upper-bound component skipping** (exact solvers with finite ``k``): a
   component whose density cap ``c_max`` is *strictly* below the guaranteed
   top-1 density of at least ``k`` other components can contribute nothing
   to the global top-k, so it is never solved.  The decision depends only on
   the precomputed bounds — never on execution order — which keeps every
   backend's output bit-identical.  It keeps ``c_max``: on the 12-part
   graphs measured, the others' guaranteed ``c_max / h`` was too low for
   a tighter cap to skip anything (EXPERIMENTS.md, "Components stop on
   IPPV's own cap").
4. Solve the scheduled components on the resolved backend — ``serial`` or
   ``process`` (see :mod:`repro.engine.executors`), chosen by
   ``SolveRequest.executor``, the ``REPRO_EXECUTOR`` environment variable,
   or automatically.  The serial backend solves in cap order and stops
   once the running k-th best density strictly exceeds the next cap.  For
   a solver that declares ``load_cap`` (IPPV) at a finite ``k`` over two
   or more components, :func:`rank_by_load_cap` first tightens each cap to
   ``min(c_max, max r / D)`` of the component's held SEQ-kClist++
   iterate, the one the solver proposes from, and reorders by it; filling an
   iterate is charged to the report's ``seq_kclist`` time.  The ranking
   fills only the iterate: IPPV's first solve of a component fills the
   rest of its first proposal (TentativeGD, DeriveSG and the prune) next
   to it, and later solves read it, so a component the stop never solves
   pays for none of that.  The process backend keeps ``c_max`` order and
   solves every component, so it runs no Frank–Wolfe before it ships.
   Results the caller already holds (an incremental session's store) are
   passed in as data and never solved again.  If the backend's
   infrastructure fails (the platform cannot spawn processes, payloads
   will not pickle) the runtime falls back to the serial backend and
   records why in ``SolveReport.fallback_reason`` — the output is
   identical either way.  Solver exceptions are *not*
   infrastructure: they re-raise as :class:`EngineError` on every backend.
5. Merge: concatenate the per-component subgraphs, sort with the same
   deterministic key the IPPV driver uses, truncate to ``k``.
"""

from __future__ import annotations

import dataclasses
import os
import time
from fractions import Fraction
from typing import List, Optional, Tuple

from ..errors import EngineError
from ..lhcds.ippv import DenseSubgraph, StageTimings
from ..lhcds.verify import VerificationStats, merge_verification_stats
from .executors import (
    ExecutorUnavailable,
    Known,
    available_executors,
    run_pool,
    run_serial,
)
from .preprocess import preprocess
from .request import (
    PreparedComponent,
    PreprocessStats,
    SolveReport,
    SolveRequest,
    merge_key,
)
from .solvers import SolverSpec, get_solver


def select_components(
    components: List[PreparedComponent],
    spec: SolverSpec,
    k: Optional[int],
) -> Tuple[List[PreparedComponent], int]:
    """Apply upper-bound component skipping; return (to solve, skipped count).

    Sound only for exact top-k solvers: each component is guaranteed to
    contribute at least one subgraph of density >= its lower bound, so a
    component strictly dominated by k others can never reach the top-k, even
    on density ties (the domination is strict).
    """
    if not spec.exact or k is None or len(components) <= 1:
        return components, 0
    lowers = sorted((c.lower_bound for c in components), reverse=True)
    selected: List[PreparedComponent] = []
    for comp in components:
        # Components with a guaranteed density strictly above this cap.
        # A component's own lower bound never exceeds its own upper bound,
        # so it can never count itself.
        dominating = 0
        for value in lowers:
            if value > comp.upper_bound:
                dominating += 1
            else:
                break
        if dominating < k:
            selected.append(comp)
    return selected, len(components) - len(selected)


def rank_by_load_cap(
    components: List[PreparedComponent], iterations: int
) -> List[PreparedComponent]:
    """Copies of ``components`` capped by their held iterates, in serial order.

    Each copy's ``upper_bound`` becomes ``min(c_max, Fraction(max r, D))``
    over the component's held SEQ-kClist++ iterate for ``T = iterations``
    (filled here on first use).  The iterate is feasible for CP(G, h) on
    the component, so by weak duality no subgraph inside is denser than its
    largest ``r / D``, and the cap is as sound as ``c_max``.  The copies
    are sorted by ``(-cap, index)``, so the serial early stop's strict test
    against each copy's ``upper_bound`` stops at the first cap the running
    k-th best density exceeds.  The copies share the memo with the originals;
    the ranking fills each entry's iterate and no proposal.
    """
    ranked = []
    for component in components:
        held = component.iterate(iterations)
        cap = min(component.upper_bound, Fraction(max(held.r.values()), held.denominator))
        ranked.append(dataclasses.replace(component, upper_bound=cap))
    ranked.sort(key=lambda c: (-c.upper_bound, c.index))
    return ranked


def _resolve_executor(request: SolveRequest, jobs: int, num_tasks: int) -> str:
    """Pick the backend: explicit request, then REPRO_EXECUTOR, then auto."""
    name = request.executor
    if name is None:
        name = os.environ.get("REPRO_EXECUTOR", "").strip().lower() or None
    if name is not None:
        key = name.strip().lower()
        if key not in available_executors():
            raise EngineError(
                f"unknown executor {name!r}; available: "
                f"{', '.join(available_executors())}"
            )
        return key
    return "process" if jobs > 1 and num_tasks > 1 else "serial"


def prepare_request(
    request: Optional[SolveRequest] = None, **options
) -> Tuple[SolveRequest, SolverSpec]:
    """Normalise a request: build/replace and validate it.

    Accepts either a prebuilt :class:`SolveRequest` or its keyword
    arguments.  Idempotent, and shared by :func:`solve`,
    :func:`solve_prepared` and the incremental session.
    """
    if request is None:
        request = SolveRequest(**options)
    elif options:
        request = dataclasses.replace(request, **options)
    if request.graph.num_vertices == 0:
        raise EngineError("cannot solve an empty graph")
    spec = get_solver(request.solver)
    spec.validate(request)
    return request, spec


def solve(request: Optional[SolveRequest] = None, **options) -> SolveReport:
    """Solve a request through the registered solver and merge the results.

    Accepts either a prebuilt :class:`SolveRequest` or its keyword arguments
    (``solve(graph=g, pattern=3, k=5, solver="exact")``).
    """
    request, _ = prepare_request(request, **options)
    start = time.perf_counter()
    components, stats = preprocess(request)
    return solve_prepared(request, components, stats, start=start)


def solve_prepared(
    request: SolveRequest,
    components: List[PreparedComponent],
    stats: PreprocessStats,
    *,
    known: Optional[Known] = None,
    start: Optional[float] = None,
) -> SolveReport:
    """Execute and merge over already-prepared components.

    This is the back half of :func:`solve` — everything after
    preprocessing — exposed so callers that maintain their own prepared
    state (the incremental session) run the exact same selection,
    execution, and merge code as a cold solve.

    ``known`` maps a component's vertex set to the per-component
    :class:`~repro.lhcds.ippv.LhCDSResult` the caller already holds; what
    this call solves is added to it.  Known components are never solved
    again, and the serial early stop reads their densities in the same cap
    order as a cold run, so every statistic matches one.
    """
    request, spec = prepare_request(request)
    if start is None:
        start = time.perf_counter()
    if known is None:
        known = {}
    components, skipped = select_components(components, spec, request.k)
    stats.num_skipped_components = skipped

    jobs = request.jobs if request.jobs > 0 else (os.cpu_count() or 1)
    # The dynamic early stop needs exact top-k semantics; it depends only on
    # the request, never on what is known, so early-stop statistics match a
    # cold run.
    early_stop_k = request.k if spec.exact else None
    executor_name = _resolve_executor(request, jobs, num_tasks=len(components))

    tick = time.perf_counter()
    jobs_used = 1
    executor_used = executor_name
    fallback_reason: Optional[str] = None
    if executor_name == "process":
        try:
            jobs_used = run_pool(components, request, known, jobs)
        except ExecutorUnavailable as exc:
            executor_used = "serial"
            fallback_reason = f"process backend unavailable, ran serial: {exc}"
    stopped = 0
    ranking_seconds: float = 0.0
    if executor_used == "serial":
        if spec.load_cap and early_stop_k is not None and len(components) > 1:
            ranking = time.perf_counter()
            components = rank_by_load_cap(components, request.iterations)
            ranking_seconds = time.perf_counter() - ranking
        stopped = run_serial(components, request, known, early_stop_k)
    stats.num_early_stopped_components = stopped
    results = [known[comp.vertices] for comp in components[: len(components) - stopped]]
    solve_seconds = time.perf_counter() - tick

    # ------------------------------------------------------------------
    # deterministic merge
    # ------------------------------------------------------------------
    subgraphs: List[DenseSubgraph] = []
    # The ranking's time is Frank–Wolfe filling held iterates.
    timings = StageTimings(
        enumeration=stats.enumeration_seconds, seq_kclist=ranking_seconds
    )
    verification = VerificationStats()
    candidates_examined = 0
    refinements = 0
    exact_splits = 0
    for result in results:
        subgraphs.extend(result.subgraphs)
        t = result.timings
        timings.seq_kclist += t.seq_kclist
        timings.decomposition += t.decomposition
        timings.prune += t.prune
        timings.verification += t.verification
        timings.enumeration += t.enumeration
        merge_verification_stats(verification, result.verification)
        candidates_examined += result.candidates_examined
        refinements += result.refinements
        exact_splits += result.exact_splits

    subgraphs.sort(key=merge_key)
    if request.k is not None:
        subgraphs = subgraphs[: request.k]
    timings.total = time.perf_counter() - start

    return SolveReport(
        subgraphs=subgraphs,
        timings=timings,
        verification=verification,
        candidates_examined=candidates_examined,
        refinements=refinements,
        exact_splits=exact_splits,
        solver=spec.name,
        pattern_name=request.pattern.name,
        h=request.h,
        k=request.k,
        jobs=request.jobs,
        jobs_used=jobs_used,
        executor=executor_used,
        fallback_reason=fallback_reason,
        preprocessing=stats,
        solve_seconds=solve_seconds,
    )

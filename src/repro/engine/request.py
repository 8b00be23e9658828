"""The engine's data model: solve requests, prepared components, reports.

A :class:`SolveRequest` is the one description of "find me dense subgraphs"
that every registered solver understands; a :class:`SolveReport` is the one
result type every solver produces.  The report extends
:class:`~repro.lhcds.ippv.LhCDSResult` (so all existing consumers of solver
results keep working) with the preprocessing statistics and engine-level
timings the runtime collects.  Between them, a :class:`PreparedComponent`
is one connected component as the single preprocessing path leaves it:
induced subgraph, restricted instances and clique-core bounds, the same
for every solver.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Dict, FrozenSet, Optional

from ..errors import EngineError
from ..graph.graph import Graph, Vertex
from ..instances import InstanceSet
from ..lhcds.bounds import CompactBounds
from ..lhcds.ippv import LhCDSResult, subgraph_sort_key
from ..lhcds.seq_kclist import HeldIterate, WeightState, held_iterate
from ..patterns.base import Pattern
from ..patterns.clique import CliquePattern


def check_kernel(kernel: Any) -> Optional[str]:
    """Return the canonical ``kernel`` option: ``None`` or ``"stdlib"``.

    ``stdlib`` is the one compute kernel; case and surrounding whitespace
    are ignored.  Anything else raises :class:`~repro.errors.EngineError`.
    """
    if kernel is None:
        return None
    if isinstance(kernel, str) and kernel.strip().lower() == "stdlib":
        return "stdlib"
    raise EngineError(f"unknown kernel {kernel!r}; available: stdlib")


@dataclass(frozen=True)
class SolveRequest:
    """Everything a solve needs: graph, pattern, k, solver, and options.

    Parameters
    ----------
    graph:
        The host graph.
    pattern:
        A :class:`~repro.patterns.base.Pattern`, or an integer ``h`` meaning
        the h-clique pattern.
    k:
        Number of subgraphs to report (``None`` = all the solver finds).
    solver:
        Name of a registered solver (see :func:`repro.engine.available_solvers`).
    jobs:
        Workers for component-parallel execution.  ``1`` (default) runs
        serially; ``0`` means "one per CPU".  Output is bit-identical to
        the serial run for every value.
    executor:
        Name of a registered execution backend (see
        :func:`repro.engine.available_executors`): ``serial`` or
        ``process``.  ``None`` (default) resolves the ``REPRO_EXECUTOR``
        environment variable, then auto-selects (``process`` when ``jobs``
        and the component count both exceed one, ``serial`` otherwise).
        Output is bit-identical for every backend.
    cache_dir:
        Directory backing the warm preprocessed-index cache (see
        :mod:`repro.engine.cache`).  ``None`` (default) resolves the
        ``REPRO_CACHE`` environment variable; when neither names a
        directory, every solve preprocesses cold.  Cache-hit solves are
        bit-identical to cold solves — the cache only moves where the
        prepared components come from.
    kernel:
        ``None`` (default) or ``"stdlib"``, checked by
        :func:`check_kernel`.  Accepted so existing clients that name the
        kernel keep working; it selects nothing.
    iterations / verification:
        Solver options (consumed by the solvers that understand them; the
        names match :class:`~repro.lhcds.ippv.IPPVConfig`).  ``iterations``
        must be non-negative whichever solver runs.
    """

    graph: Graph
    pattern: Pattern | int = 3
    k: Optional[int] = None
    solver: str = "ippv"
    jobs: int = 1
    executor: Optional[str] = None
    cache_dir: Optional[str] = None
    kernel: Optional[str] = None
    iterations: int = 20
    verification: str = "fast"

    def __post_init__(self) -> None:
        if isinstance(self.pattern, int):
            object.__setattr__(self, "pattern", CliquePattern(self.pattern))
        if self.k is not None and self.k <= 0:
            raise EngineError(f"k must be positive (or None for all), got {self.k}")
        if self.jobs < 0:
            raise EngineError(f"jobs must be >= 0 (0 = one per CPU), got {self.jobs}")
        if self.iterations < 0:
            raise EngineError(f"iterations must be non-negative, got {self.iterations}")
        if self.verification not in {"fast", "basic"}:
            raise EngineError(
                f"verification must be 'fast' or 'basic', got {self.verification!r}"
            )
        object.__setattr__(self, "kernel", check_kernel(self.kernel))

    @property
    def h(self) -> int:
        """Pattern size (``h`` in the paper's notation)."""
        return self.pattern.size

    def for_component(self, subgraph: Graph) -> "SolveRequest":
        """A copy of the request scoped to one component (always serial)."""
        return dataclasses.replace(self, graph=subgraph, jobs=1, executor=None)


@dataclass
class PreparedComponent:
    """One connected component after the shared preprocessing pipeline.

    Solvers receive these instead of the whole graph: the component's induced
    subgraph, its restriction of the globally enumerated instance set, and the
    clique-core compact-number bounds — so no solver re-derives any of them.

    ``memo`` is a one-entry memo of IPPV's first proposal on
    ``instances``, keyed by ``T`` (a
    :class:`~repro.lhcds.seq_kclist.HeldIterate`).  Preprocessing leaves
    it empty.  The first serial ranking or IPPV solve that asks for ``T``
    fills the entry's SEQ-kClist++ iterate (:meth:`iterate`), evicting the
    entry of any other ``T``; the first IPPV solve fills its proposal, the
    pruned candidate groups and the bounds DeriveSG tightened
    (:func:`~repro.lhcds.ippv.held_proposal`).  Nothing writes either
    after its fill.  Copies made with ``dataclasses.replace`` and the
    components the cache hands out share the one memo, so repeated IPPV
    solves at one ``T`` run Frank–Wolfe, TentativeGD, DeriveSG and the
    prune once, and solves at many ``T`` hold one entry, not one per
    ``T``.  Artifacts are stored before any solve, so disk holds the memo
    empty.
    """

    index: int
    subgraph: Graph
    instances: InstanceSet
    bounds: CompactBounds
    #: Guaranteed achievable top-1 density (``c_max / h``, Proposition 3).
    lower_bound: Fraction
    #: Sound cap on the density of any subgraph inside (``c_max``).
    upper_bound: Fraction
    memo: Dict[int, HeldIterate] = field(default_factory=dict, compare=False, repr=False)

    @property
    def vertices(self) -> FrozenSet[Vertex]:
        return frozenset(self.subgraph.vertices())

    def iterate(self, iterations: int) -> WeightState:
        """The held SEQ-kClist++ iterate for ``T = iterations`` (read-only)."""
        vertices = self.subgraph.vertices()
        return held_iterate(self.memo, self.instances, iterations, vertices).iterate


@dataclass
class PreprocessStats:
    """What the shared preprocessing pipeline did and how long it took."""

    num_vertices: int = 0
    num_edges: int = 0
    num_instances: int = 0
    #: All connected components of the host graph.
    num_components: int = 0
    #: Components containing at least one pattern instance (the solvable ones).
    num_active_components: int = 0
    #: Active components skipped because their core-based density upper bound
    #: is strictly dominated by >= k other components' guaranteed densities.
    num_skipped_components: int = 0
    #: Components the serial runtime never solved because the running k-th
    #: best density already strictly exceeded their cap (``c_max``, or the
    #: held iterate's tighter cap for IPPV; serial runs only: the parallel
    #: merge discards the same subgraphs, so output matches).
    num_early_stopped_components: int = 0
    enumeration_seconds: float = 0.0
    split_seconds: float = 0.0
    bounds_seconds: float = 0.0
    #: How this result was obtained: ``"off"`` (no cache configured),
    #: ``"miss"`` (computed cold and stored), ``"hit"`` (loaded from disk),
    #: or ``"hit-memory"`` (served from the in-process warm layer).
    cache_state: str = "off"
    #: Preprocess-cache key of the (graph, pattern) pair (``""`` = off).
    cache_key: str = ""
    #: Seconds spent keying, loading, or storing the cache artifact.
    cache_seconds: float = 0.0

    def as_dict(self) -> Dict[str, Any]:
        """Return the stats as a plain dictionary (JSON-friendly)."""
        return dataclasses.asdict(self)


@dataclass
class SolveReport(LhCDSResult):
    """An :class:`LhCDSResult` plus the engine's preprocessing and run info."""

    solver: str = ""
    pattern_name: str = ""
    h: int = 0
    k: Optional[int] = None
    #: Worker processes requested / actually used (1 = serial).
    jobs: int = 1
    jobs_used: int = 1
    #: Execution backend that actually ran the components.
    executor: str = "serial"
    #: When the resolved backend was unavailable (e.g. the platform cannot
    #: spawn processes) the runtime falls back to ``serial``; this records
    #: why, so the fallback is never silent.  ``None`` means no fallback.
    fallback_reason: Optional[str] = None
    #: The compute kernel; always ``stdlib`` (kept for JSON clients).
    kernel: str = "stdlib"
    preprocessing: PreprocessStats = field(default_factory=PreprocessStats)
    #: Wall-clock seconds spent solving components (sum lives in ``timings``).
    solve_seconds: float = 0.0

    def to_json_dict(self) -> Dict[str, Any]:
        """Machine-readable summary (exact fraction strings plus floats)."""
        return {
            "solver": self.solver,
            "pattern": self.pattern_name,
            "h": self.h,
            "k": self.k,
            "jobs": self.jobs_used,
            "executor": self.executor,
            "fallback_reason": self.fallback_reason,
            "kernel": self.kernel,
            "subgraphs": [
                {
                    "rank": rank,
                    "density": str(s.density),
                    "density_float": float(s.density),  # repro: allow-EX01(JSON convenience mirror; the exact value is the density string above)
                    "size": s.size,
                    "vertices": list(s.as_sorted_list()),
                }
                for rank, s in enumerate(self.subgraphs, start=1)
            ],
            "timings": self.timings.as_dict(),
            "preprocessing": self.preprocessing.as_dict(),
            "candidates_examined": self.candidates_examined,
        }


# Deterministic global ordering of reported subgraphs.  This is the IPPV
# driver's own output ordering — one shared definition, so merged
# per-component results are bit-identical to direct solver calls regardless
# of execution order.
merge_key = subgraph_sort_key

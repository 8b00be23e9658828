"""Built-in repro-lint rules; importing this package registers them.

=====  =======================================================================
Rule   Invariant policed
=====  =======================================================================
EX01   Exactness: no ``float`` coercions, float literals, or epsilon
       comparisons inside certified modules; only declared ``float``
       storage (timings, scheduling knobs) is exempt.
DT01   Determinism: no unordered set iteration feeding ordered results, no
       ``hash()``/``id()`` sort keys, no module-level ``random`` in solver
       paths.
PK01   Pickle-safety: task/result envelope classes are module-level with no
       lambda, closure, generator, or open-handle state.
RG01   Registry hygiene: registered solvers/executors/patterns/checkers
       declare their capabilities and carry docstrings.
CC01   Lock discipline: fields declared in a ``GUARDED_BY`` manifest (or by
       a ``guarded-by`` pragma) mutate only inside ``with self.<lock>:``;
       stale guards and undeclared lock fields are findings too.
CC02   Executor capture safety: code crossing the executor boundary mutates
       no module globals or closed-over state (registration carve-out).
MU01   Warm-artifact escape: ``fetch`` copies on the way out; locals read
       directly from warm stores are copied before any in-place mutation.
=====  =======================================================================
"""

from __future__ import annotations

from ..base import register_checker
from .concurrency import ExecutorCaptureChecker, LockDisciplineChecker
from .determinism import DeterminismChecker
from .exactness import ExactnessChecker
from .mutation import WarmArtifactChecker
from .pickle_safety import PickleSafetyChecker
from .registry_hygiene import RegistryHygieneChecker

register_checker(ExactnessChecker)
register_checker(DeterminismChecker)
register_checker(PickleSafetyChecker)
register_checker(RegistryHygieneChecker)
register_checker(LockDisciplineChecker)
register_checker(ExecutorCaptureChecker)
register_checker(WarmArtifactChecker)

__all__ = [
    "DeterminismChecker",
    "ExactnessChecker",
    "ExecutorCaptureChecker",
    "LockDisciplineChecker",
    "PickleSafetyChecker",
    "RegistryHygieneChecker",
    "WarmArtifactChecker",
]

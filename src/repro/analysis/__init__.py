"""repro-lint: AST-based invariant analysis for the reproduction codebase.

The repository's load-bearing guarantees — exact :class:`~fractions.Fraction`
certificates, bit-identical output across every executor backend, and
pickle-safe task envelopes — are easy to break with one careless line (PR 5
fixed precisely such a bug: a silent ``float()`` coercion on the certified
early-stop path).  This package turns those invariants into a static CI
gate: a stdlib-only linter built on :mod:`ast` visitors, with

* a checker registry mirroring the solver/executor registry pattern
  (:func:`register_checker` / :func:`get_checker` / :func:`available_checkers`),
* seven built-in rules — EX01 exactness, DT01 determinism, PK01
  pickle-safety, RG01 registry hygiene, CC01 lock discipline, CC02
  executor capture safety, MU01 warm-artifact escape (see
  :mod:`repro.analysis.checkers`),
* a mutation-summary engine (:mod:`repro.analysis.effects`) computing
  per-method "which ``self`` fields does this mutate, under which locks"
  summaries that back the CC/MU rule family and the ``--summaries`` dump,
* per-line ``# repro: allow-<RULE>(<reason>)`` pragmas (reasons are
  mandatory) plus file-level ``allow-file-<RULE>`` for whole-module
  boundaries, and the declarative
  ``guarded-by(<lock>)`` / ``holds(<lock>)`` pragmas the effects engine
  reads,
* a committed baseline file for grandfathered findings, and
* human and JSON output behind ``python -m repro.analysis`` and the
  ``repro-lhcds lint`` subcommand.
"""

from __future__ import annotations

from .base import (
    AnalysisError,
    CheckContext,
    Checker,
    Finding,
    available_checkers,
    get_checker,
    register_checker,
    unregister_checker,
)
from .baseline import Baseline
from .effects import (
    ClassSummary,
    MethodSummary,
    Mutation,
    render_summaries,
    summaries_to_json,
    summarize_paths,
)
from .runner import LintReport, lint_paths, lint_source, main

# Importing the subpackage registers the built-in checkers.
from . import checkers as _checkers  # noqa: F401  (import for side effect)

__all__ = [
    "AnalysisError",
    "Baseline",
    "CheckContext",
    "Checker",
    "ClassSummary",
    "Finding",
    "LintReport",
    "MethodSummary",
    "Mutation",
    "available_checkers",
    "get_checker",
    "lint_paths",
    "lint_source",
    "main",
    "register_checker",
    "render_summaries",
    "summaries_to_json",
    "summarize_paths",
    "unregister_checker",
]

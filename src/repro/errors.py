"""Exception hierarchy for the :mod:`repro` package.

All library-specific failures derive from :class:`ReproError`, so callers can
catch one base class regardless of which subsystem raised the problem.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the :mod:`repro` package."""


class GraphError(ReproError):
    """Raised for malformed graph construction or invalid vertex access."""


class GraphFormatError(GraphError):
    """Raised when an edge-list file (or text blob) cannot be parsed."""


class PatternError(ReproError):
    """Raised when a pattern specification is invalid or unsupported."""


class FlowError(ReproError):
    """Raised when a flow network is malformed (e.g. negative capacity)."""


class AlgorithmError(ReproError):
    """Raised when an algorithm receives parameters it cannot work with."""


class DatasetError(ReproError):
    """Raised when a named dataset is unknown or cannot be generated."""


class EngineError(ReproError):
    """Raised for invalid solve requests (unknown solver, bad h/k/jobs)."""


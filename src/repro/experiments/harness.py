"""Measurement and reporting utilities shared by every experiment driver."""

from __future__ import annotations

import gc
import time
import tracemalloc
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Sequence


@dataclass
class Measurement:
    """Wall-clock time and peak memory of a single callable invocation."""

    seconds: float
    peak_kib: float
    result: Any


def measure(fn: Callable[[], Any], *, track_memory: bool = False) -> Measurement:
    """Run ``fn`` once, returning its result with timing (and optional memory).

    A full garbage collection runs first, so a collection owed to earlier
    work is not charged to ``fn``: in a long-lived process one can cost more
    than a small experiment itself.
    """
    gc.collect()
    if track_memory:
        tracemalloc.start()
    start = time.perf_counter()
    result = fn()
    seconds = time.perf_counter() - start
    peak = 0.0
    if track_memory:
        _, peak_bytes = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        peak = peak_bytes / 1024.0
    return Measurement(seconds=seconds, peak_kib=peak, result=result)


def format_table(
    headers: Sequence[str], rows: Iterable[Sequence[Any]], *, title: str = ""
) -> str:
    """Render a plain-text table (the experiment drivers print these)."""
    str_rows: List[List[str]] = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * widths[i] for i in range(len(headers))))
    for row in str_rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def _fmt(cell: Any) -> str:
    if isinstance(cell, float):
        return f"{cell:.4f}"
    return str(cell)


def speedup(baseline_seconds: float, fast_seconds: float) -> float:
    """Return baseline / fast (how many times faster the fast variant is)."""
    if fast_seconds <= 0:
        return float("inf")
    return baseline_seconds / fast_seconds


@dataclass
class ExperimentResult:
    """A rendered experiment: identifier, table rows, and free-form extras."""

    experiment: str
    headers: List[str]
    rows: List[List[Any]]
    notes: str = ""

    def render(self) -> str:
        """Return the experiment as a printable table."""
        return format_table(self.headers, self.rows, title=self.experiment) + (
            f"\n{self.notes}" if self.notes else ""
        )

    def as_dicts(self) -> List[Dict[str, Any]]:
        """Return rows as dictionaries keyed by header."""
        return [dict(zip(self.headers, row)) for row in self.rows]

"""Execution backends for the engine runtime, behind one registry.

Mirrors the solver registry: backends register a subclass of
:class:`~repro.engine.executors.base.Executor`, callers resolve them by
name (``serial`` or ``process``), and the runtime guarantees bit-identical
output whichever backend runs the components — the CI executor matrix
enforces that guarantee on every change.
"""

from __future__ import annotations

from typing import Dict, List, Type

from ...errors import EngineError
from .base import (
    EngineTask,
    ExecutionOutcome,
    Executor,
    ExecutorUnavailable,
    TaskBatch,
    TaskFailure,
    execute_task,
    run_task_enveloped,
)
from .process import ProcessExecutor
from .serial import SerialExecutor

_REGISTRY: Dict[str, Type[Executor]] = {}


def register_executor(executor_class: Type[Executor]) -> None:
    """Add an executor class to the registry (names are unique)."""
    name = executor_class.name
    if not name:
        raise EngineError("executor classes must define a non-empty name")
    if name in _REGISTRY:
        raise EngineError(f"executor {name!r} is already registered")
    _REGISTRY[name] = executor_class


def get_executor(name: str) -> Executor:
    """Instantiate an executor by name."""
    key = name.strip().lower()
    if key not in _REGISTRY:
        raise EngineError(
            f"unknown executor {name!r}; available: {', '.join(sorted(_REGISTRY))}"
        )
    return _REGISTRY[key]()


def available_executors() -> List[str]:
    """Names of every registered execution backend, sorted."""
    return sorted(_REGISTRY)


def describe_executor(name: str) -> str:
    """One-line description of a registered backend."""
    key = name.strip().lower()
    if key not in _REGISTRY:
        raise EngineError(
            f"unknown executor {name!r}; available: {', '.join(sorted(_REGISTRY))}"
        )
    return _REGISTRY[key].description


register_executor(SerialExecutor)
register_executor(ProcessExecutor)

__all__ = [
    "EngineTask",
    "ExecutionOutcome",
    "Executor",
    "ExecutorUnavailable",
    "TaskBatch",
    "TaskFailure",
    "execute_task",
    "run_task_enveloped",
    "register_executor",
    "get_executor",
    "available_executors",
    "describe_executor",
    "SerialExecutor",
    "ProcessExecutor",
]

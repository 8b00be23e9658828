"""Benchmark configuration.

Every benchmark regenerates one of the paper's tables or figures by calling
the corresponding driver in :mod:`repro.experiments.figures` and prints the
resulting rows, so ``pytest benchmarks/ --benchmark-only`` reproduces the
whole evaluation.

Benchmarks additionally record headline timings into a shared session dict
(the ``bench_metrics`` fixture).  When the ``BENCH_OUT`` environment
variable names a file, the dict is dumped there as JSON at session end —
the CI smoke job uploads it as the ``BENCH_21.json`` artifact and compares
it against the committed baseline with ``scripts/compare_bench.py``.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import time

import pytest

#: Bumped with each PR that adds a new benchmark artifact generation.
BENCH_ID = "BENCH_21"
BENCH_SCHEMA = "repro-bench/1"

#: Rounds of every asserted comparison; each compared path runs once per round.
COMPARE_ROUNDS = 7


def pytest_addoption(parser):
    parser.addoption(
        "--full-eval",
        action="store_true",
        default=False,
        help="run the experiment drivers on their full dataset/parameter grids",
    )


@pytest.fixture(scope="session")
def full_eval(request) -> bool:
    """Whether to run the full (slower) parameter grids."""
    return request.config.getoption("--full-eval")


def pytest_configure(config):
    config._bench_metrics = {}


@pytest.fixture(scope="session")
def bench_metrics(request) -> dict:
    """Session-wide ``metric name -> seconds`` dict benchmarks write into."""
    return request.config._bench_metrics


def _alternating_rounds(fns, repeats: int = 1):
    """Per-round times of ``repeats`` calls of each function, alternating in rounds.

    Every path runs once per round, after a collection, so the compared
    paths share the host's phases and none pays for another's garbage.
    Returns one list of ``COMPARE_ROUNDS`` times per function.
    """
    times = [[] for _ in fns]
    for _ in range(COMPARE_ROUNDS):
        for index, fn in enumerate(fns):
            gc.collect()
            start = time.perf_counter()
            for _ in range(repeats):
                fn()
            times[index].append(time.perf_counter() - start)
    return times


def _best_alternating(fns, repeats: int = 1):
    """Best time of each function over :func:`_alternating_rounds`."""
    return [min(times) for times in _alternating_rounds(fns, repeats)]


@pytest.fixture(scope="session")
def best_alternating():
    """The shared timer of compared paths (see :func:`_best_alternating`)."""
    return _best_alternating


@pytest.fixture(scope="session")
def alternating_rounds():
    """The per-round timer of compared paths (see :func:`_alternating_rounds`)."""
    return _alternating_rounds


def pytest_sessionfinish(session, exitstatus):
    out = os.environ.get("BENCH_OUT")
    metrics = getattr(session.config, "_bench_metrics", None)
    if not out or not metrics:
        return
    payload = {
        "schema": BENCH_SCHEMA,
        "id": BENCH_ID,
        "python": platform.python_version(),
        "metrics": {key: metrics[key] for key in sorted(metrics)},
    }
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")

"""What every workload shares: paths, pinned environment, inputs, statistics."""

from __future__ import annotations

import os
import random
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

#: Root of the checkout the benchmark runs in (the parent of ``perfbench/``).
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Scratch space (server logs, cache directories, span records) for one run.
RUN_PARENT = os.path.join(ROOT, ".perfbench_run")

#: Every solve runs serially on the stdlib kernel, whatever the environment.
PLACEMENT = {"jobs": 1, "executor": "serial", "kernel": "stdlib"}
H = 3
K = 10
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Length of the speed probe loop, and its duration on the machine the
#: bounds were tuned on (2-core Intel Xeon VM, calm phase).
PROBE_ITERATIONS = 300_000
REFERENCE_PROBE_S = 0.020


def pinned_environment(environ: Dict[str, str]) -> Dict[str, str]:
    """A copy of ``environ`` without the knobs that change what is measured."""
    return {
        key: value
        for key, value in environ.items()
        if key not in {"REPRO_EXECUTOR", "REPRO_KERNEL", "REPRO_CACHE", "REPRO_CACHE_MAX_BYTES"}
        and not key.startswith("REPRO_QUEUE_")
    }


def relabel(graph, seed: int):
    """The same graph under a seeded vertex permutation and edge order.

    Workloads draw their graph shape from a fixed generator seed and use the
    run's seed here, so every seed does the same work up to tie-breaking.
    """
    from repro.graph.graph import Graph

    rng = random.Random(seed)
    vertices = list(graph.vertices())
    shuffled = vertices[:]
    rng.shuffle(shuffled)
    mapping = dict(zip(vertices, shuffled))
    edges = [(mapping[u], mapping[v]) for u, v in graph.edges()]
    rng.shuffle(edges)
    return Graph(edges=edges, vertices=shuffled), mapping


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def percentile(values: Sequence[float], q: int) -> float:
    """Linear-interpolated ``q``-th percentile (the sample itself if alone)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def pin_to_one_cpu() -> None:
    """Run this process, and every server it starts, on one CPU.

    The speed probe then samples the CPU the solves run on.
    """
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass  # no affinity control here; the probe still samples the host


class SpeedProbe:
    """Host speed sampled between timed operations.

    The host's speed drifts by a quarter and more over minutes, so raw
    latencies of one code version spread wider than any useful bound.  A
    fixed pure-Python loop is timed before each operation, and latencies
    are reported at reference speed: divided by the run's median probe
    time over :data:`REFERENCE_PROBE_S`.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []

    def sample(self, repeats: int = 1) -> None:
        for _ in range(repeats):
            start = time.perf_counter()
            total = 0
            for i in range(PROBE_ITERATIONS):
                total += i * i % 7
            self.samples.append(time.perf_counter() - start)

    @property
    def slowdown(self) -> float:
        """How much slower than the reference the host ran (above 1: slower)."""
        return median(self.samples) / REFERENCE_PROBE_S


def at_reference_speed(raw: Dict[str, float], probe: SpeedProbe,
                       names: Sequence[str]) -> Dict[str, float]:
    """Scale the named latencies (``*_s``) and rates (``*_per_s``) to reference speed.

    Only metrics of CPU-bound work are named: a latency made mostly of
    fixed waits does not follow the host's speed, and scaling it would add
    the probe's noise instead of removing the host's.
    """
    scaled = dict(raw)
    for name in names:
        if name.endswith("_per_s"):
            scaled[name] = raw[name] * probe.slowdown
        else:
            scaled[name] = raw[name] / probe.slowdown
    return scaled


def placement_problem(executor: str, kernel: str, fallback: Optional[str]) -> Optional[str]:
    """Why a report did not run where the benchmark pinned it, if it did not."""
    if executor != "serial" or kernel != "stdlib" or fallback is not None:
        return f"ran on executor={executor} kernel={kernel} fallback={fallback!r}"
    return None


@dataclass
class Tally:
    """Operations attempted and failed (error, refusal or wrong answer)."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    def record(self, problem: Optional[str]) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            self.problems.append(problem)

    def report(self) -> None:
        for problem in self.problems[:10]:
            print(f"perfbench: failed: {problem}", file=sys.stderr)


@dataclass
class Outcome:
    """What a workload hands back to the runner."""

    metrics: Dict[str, float]
    tally: Tally
    info: Dict[str, Any] = field(default_factory=dict)

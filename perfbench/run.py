#!/usr/bin/env python3
"""Scale benchmark for the LhCDS engine and its HTTP service.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload cold-community --seed 0 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` makes a separate traced run and prints the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the environment.  See ``perfbench/README.md`` for the workloads,
the metrics and which layer should move which end-to-end number.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile

from support import ROOT, RUN_PARENT, SRC, pin_to_one_cpu, pinned_environment

WORKLOADS = ("cold-community", "exact-powerlaw", "serve-stream")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _expected_metrics(trace: int):
    """(name, unit) pairs this run must print, straight from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return [(m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]]


def _run(args) -> int:
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program to measure under {SRC}", file=sys.stderr)
        return 2
    expected = _expected_metrics(args.trace)

    # Pin the environment before anything imports the program.
    for key in set(os.environ) - set(pinned_environment(os.environ)):
        del os.environ[key]
    pin_to_one_cpu()
    os.makedirs(RUN_PARENT, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix="run-", dir=RUN_PARENT)
    os.environ["TMPDIR"] = run_dir
    tempfile.tempdir = run_dir
    sys.path.insert(0, SRC)
    try:
        if args.workload == "serve-stream":
            import serve

            runner = serve.run_traced if args.trace else serve.run
            outcome = runner(args.seed, args.seconds, run_dir)
        else:
            import cold

            runner = cold.run_traced if args.trace else cold.run
            outcome = runner(args.workload, args.seed, args.seconds)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(RUN_PARENT)
        except OSError:
            pass  # another run still uses it

    missing = [name for name, _ in expected if name not in outcome.metrics]
    if missing:
        print(f"perfbench: workload did not measure {missing}", file=sys.stderr)
        return 1
    outcome.tally.report()
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "failed_ratio": outcome.tally.failed / outcome.tally.attempted,
        **outcome.info,
    }
    print(json.dumps({"environment": info}))
    result = {
        "correct": outcome.tally.failed == 0,
        "attempted": outcome.tally.attempted,
        "failed": outcome.tally.failed,
        "metrics": {
            name: {"value": outcome.metrics[name], "unit": unit} for name, unit in expected
        },
    }
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    return _run(_parse(argv))


if __name__ == "__main__":
    sys.exit(main())

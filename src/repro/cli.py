"""Command-line interface.

Examples
--------
List the available stand-in datasets::

    repro-lhcds datasets

Find the top-5 locally 3-clique densest subgraphs of a dataset or edge list::

    repro-lhcds topk --dataset HA --h 3 --k 5
    repro-lhcds topk --edge-list my_graph.txt --h 4 --k 3

Pick a solver, a pattern, parallel workers, or machine-readable output::

    repro-lhcds topk --dataset HA --solver exact --k 5
    repro-lhcds topk --dataset PC --pattern 2-triangle --k 3
    repro-lhcds topk --dataset CM --jobs 4 --json

Choose an execution backend (output is bit-identical on every backend)::

    repro-lhcds topk --dataset CM --jobs 4 --executor process
    repro-lhcds executors

Reuse preprocessing across solves (warm artifact cache), inspect it, or
run the persistent solve service::

    repro-lhcds topk --dataset HA --cache-dir ~/.cache/repro
    repro-lhcds cache stats --cache-dir ~/.cache/repro
    repro-lhcds serve --port 8765 --register ha=HA

Reproduce one of the paper's tables or figures::

    repro-lhcds experiment figure9
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from typing import Optional, Sequence

from .datasets.registry import dataset_abbreviations, dataset_statistics, get_spec, load_dataset
from .engine import (
    IncrementalSession,
    SolveRequest,
    available_executors,
    available_solvers,
    cache_for,
    describe_executor,
    get_solver,
    report_signature,
    resolve_cache_dir,
    solve,
)
from .graph.delta import GraphDelta
from .errors import ReproError
from .experiments.figures import ALL_EXPERIMENTS, run_experiment
from .graph.io import read_edge_list
from .patterns.clique import CliquePattern
from .patterns.registry import get_pattern


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lhcds",
        description="Locally h-clique densest subgraph discovery (IPPV reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    topk = sub.add_parser("topk", help="find the top-k LhCDSes of a graph")
    source = topk.add_mutually_exclusive_group(required=True)
    source.add_argument("--dataset", help="name or abbreviation of a registry dataset")
    source.add_argument("--edge-list", help="path to a whitespace-separated edge list")
    topk.add_argument("--h", type=int, default=3, help="clique size (default 3)")
    topk.add_argument(
        "--pattern",
        help="pattern name (e.g. 2-triangle, 4-loop); overrides --h",
    )
    topk.add_argument("--k", type=int, default=5, help="number of subgraphs (default 5)")
    topk.add_argument(
        "--solver",
        choices=available_solvers(),
        default="ippv",
        help="which registered solver to run (default ippv)",
    )
    topk.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="workers for component-parallel solving (0 = one per CPU)",
    )
    topk.add_argument(
        "--executor",
        choices=available_executors(),
        default=None,
        help="execution backend (default: $REPRO_EXECUTOR, then automatic; "
        "output is bit-identical on every backend)",
    )
    topk.add_argument(
        "--cache-dir",
        default=None,
        help="warm preprocessed-index cache directory (default: $REPRO_CACHE, "
        "then off; cache-hit output is bit-identical to a cold solve)",
    )
    topk.add_argument(
        "--json",
        action="store_true",
        help="emit a machine-readable JSON report instead of text",
    )
    topk.add_argument(
        "--verification",
        choices=["fast", "basic"],
        default="fast",
        help="which verification algorithm to use",
    )
    topk.add_argument("--iterations", type=int, default=20, help="Frank-Wolfe iterations T")

    deltas = sub.add_parser(
        "deltas",
        help="replay a graph-delta stream through a warm incremental session",
    )
    delta_source = deltas.add_mutually_exclusive_group(required=True)
    delta_source.add_argument(
        "--dataset", help="name or abbreviation of a registry dataset"
    )
    delta_source.add_argument(
        "--edge-list", help="path to a whitespace-separated edge list"
    )
    deltas.add_argument(
        "--deltas",
        required=True,
        metavar="FILE",
        dest="delta_file",
        help="JSONL delta stream: one JSON object per line with any of "
        "add_vertices / remove_vertices / add_edges / remove_edges "
        "(blank lines and #-comments are skipped)",
    )
    deltas.add_argument("--h", type=int, default=3, help="clique size (default 3)")
    deltas.add_argument(
        "--pattern",
        help="pattern name (e.g. 2-triangle, 4-loop); overrides --h",
    )
    deltas.add_argument(
        "--k", type=int, default=5, help="number of subgraphs (default 5)"
    )
    deltas.add_argument(
        "--solver",
        choices=available_solvers(),
        default="ippv",
        help="which registered solver to run (default ippv)",
    )
    deltas.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="workers for component-parallel solving (0 = one per CPU)",
    )
    deltas.add_argument(
        "--executor",
        choices=available_executors(),
        default=None,
        help="execution backend (output is bit-identical on every backend)",
    )
    deltas.add_argument(
        "--iterations", type=int, default=20, help="Frank-Wolfe iterations T"
    )
    deltas.add_argument(
        "--verification",
        choices=["fast", "basic"],
        default="fast",
        help="which verification algorithm to use",
    )
    deltas.add_argument(
        "--solve-each",
        action="store_true",
        help="solve after every delta (default: only after the last)",
    )
    deltas.add_argument(
        "--cold",
        action="store_true",
        help="additionally cold-solve the final graph and verify the "
        "incremental report is bit-identical (exit 1 on mismatch)",
    )
    deltas.add_argument(
        "--json",
        action="store_true",
        help="emit a machine-readable JSON report instead of text",
    )

    sub.add_parser("datasets", help="list the registered stand-in datasets")
    sub.add_parser("solvers", help="list the registered solvers")
    sub.add_parser("executors", help="list the execution backends")

    cache = sub.add_parser(
        "cache", help="inspect or clear a warm preprocessed-index cache"
    )
    cache.add_argument(
        "action", choices=["ls", "stats", "clear"], help="what to do with the cache"
    )
    cache.add_argument(
        "--cache-dir",
        default=None,
        help="cache directory (default: $REPRO_CACHE)",
    )
    cache.add_argument(
        "--json",
        action="store_true",
        help="emit machine-readable JSON instead of text",
    )

    experiment = sub.add_parser("experiment", help="reproduce a table or figure")
    experiment.add_argument(
        "name", choices=sorted(ALL_EXPERIMENTS), help="experiment identifier"
    )

    # Execution is short-circuited in main() — everything after `serve` or
    # `lint` is forwarded verbatim to repro.server or repro.analysis
    # (argparse REMAINDER cannot forward leading options).  These stubs
    # only provide the help entries.
    sub.add_parser(
        "serve",
        help="run the persistent solve service, python -m repro.server "
        "(see `serve --help`)",
        add_help=False,
    )
    sub.add_parser(
        "lint",
        help="run the repro-lint invariant analyzer (see `lint --help`)",
        add_help=False,
    )
    return parser


def _cmd_topk(args: argparse.Namespace) -> int:
    if args.dataset:
        graph = load_dataset(args.dataset)
        label = get_spec(args.dataset).name
    else:
        graph = read_edge_list(args.edge_list)
        label = args.edge_list
    pattern = get_pattern(args.pattern) if args.pattern else CliquePattern(args.h)
    report = solve(
        SolveRequest(
            graph=graph,
            pattern=pattern,
            k=args.k,
            solver=args.solver,
            jobs=args.jobs,
            executor=args.executor,
            cache_dir=args.cache_dir,
            iterations=args.iterations,
            verification=args.verification,
        )
    )

    if args.json:
        payload = {
            "source": label,
            "graph": {"vertices": graph.num_vertices, "edges": graph.num_edges},
            **report.to_json_dict(),
        }
        print(json.dumps(payload, indent=2, default=str))
        return 0

    print(
        f"# top-{args.k} {report.pattern_name} densest subgraphs of {label} "
        f"({graph.num_vertices} vertices, {graph.num_edges} edges) "
        f"via {report.solver}"
    )
    for rank, subgraph in enumerate(report.subgraphs, start=1):
        members = ", ".join(str(v) for v in subgraph.as_sorted_list())
        print(f"{rank}. density={float(subgraph.density):.4f} "
              f"size={subgraph.size} vertices=[{members}]")
    timings = report.timings
    pre = report.preprocessing
    print(f"# total {timings.total:.3f}s "
          f"(propose {timings.seq_kclist + timings.decomposition:.3f}s, "
          f"prune {timings.prune:.3f}s, verify {timings.verification:.3f}s)")
    print(f"# engine: {pre.num_active_components}/{pre.num_components} components "
          f"solvable, {pre.num_skipped_components} skipped by bounds, "
          f"{report.jobs_used} worker(s) via {report.executor}")
    if pre.cache_state != "off":
        print(f"# cache: {pre.cache_state} ({pre.cache_seconds:.3f}s) "
              f"key={pre.cache_key[:16]}…")
    if report.fallback_reason:
        print(f"# note: {report.fallback_reason}")
    return 0


def _read_delta_stream(path: str) -> list:
    """Parse a JSONL delta stream (blank lines and ``#`` comments skipped)."""
    deltas = []
    try:
        handle = open(path, encoding="utf-8")
    except OSError as exc:
        raise ReproError(f"cannot read delta stream {path!r}: {exc}") from exc
    with handle:
        for lineno, line in enumerate(handle, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            try:
                payload = json.loads(text)
            except ValueError as exc:
                raise ReproError(f"{path}:{lineno}: not valid JSON: {exc}") from exc
            try:
                deltas.append(GraphDelta.from_json_dict(payload))
            except ReproError as exc:
                raise ReproError(f"{path}:{lineno}: {exc}") from exc
    return deltas


def _cmd_deltas(args: argparse.Namespace) -> int:
    """Replay a delta stream through one warm session; optionally cold-check."""
    if args.dataset:
        graph = load_dataset(args.dataset)
        label = get_spec(args.dataset).name
    else:
        graph = read_edge_list(args.edge_list)
        label = args.edge_list
    pattern = get_pattern(args.pattern) if args.pattern else CliquePattern(args.h)
    stream = _read_delta_stream(args.delta_file)
    options = dict(
        k=args.k,
        solver=args.solver,
        jobs=args.jobs,
        executor=args.executor,
        iterations=args.iterations,
        verification=args.verification,
    )

    session = IncrementalSession(graph, pattern)
    if not args.json:
        print(
            f"# replaying {len(stream)} delta(s) from {args.delta_file} over "
            f"{label} ({graph.num_vertices} vertices, {graph.num_edges} edges, "
            f"pattern {pattern.name}, solver {args.solver})"
        )
    delta_rows = []
    for number, delta in enumerate(stream, start=1):
        stats = session.apply_delta(delta)
        row = {"delta": number, **stats.as_dict()}
        if args.solve_each:
            solve_report = session.solve(**options)
            solve_stats = session.last_solve_stats
            row["solve"] = solve_stats.as_dict() if solve_stats else {}
            row["top_density"] = (
                str(solve_report.subgraphs[0].density)
                if solve_report.subgraphs
                else None
            )
        delta_rows.append(row)
        if not args.json:
            line = (
                f"delta {number}: +{stats.vertices_added}v -{stats.vertices_removed}v "
                f"+{stats.edges_added}e -{stats.edges_removed}e | "
                f"touched {stats.touched_vertices} | components: "
                f"{stats.components_reenumerated} rebuilt, "
                f"{stats.components_reused} reused | instances: "
                f"{stats.instances_dropped} dropped, "
                f"{stats.instances_reenumerated} re-enumerated"
            )
            if args.solve_each and row.get("top_density") is not None:
                line += f" | top density {row['top_density']}"
            print(line)

    report = session.solve(**options)
    final_stats = session.last_solve_stats
    cold_check = None
    if args.cold:
        cold_report = solve(
            SolveRequest(graph=session.graph.copy(), pattern=pattern, **options)
        )
        warm_signature = report_signature(report)
        cold_check = {
            "match": warm_signature == report_signature(cold_report),
            "signature_sha256": hashlib.sha256(
                warm_signature.encode("utf-8")
            ).hexdigest(),
        }

    if args.json:
        payload = {
            "source": label,
            "deltas_file": args.delta_file,
            "deltas": delta_rows,
            "graph": {
                "vertices": session.graph.num_vertices,
                "edges": session.graph.num_edges,
            },
            **report.to_json_dict(),
            "incremental": final_stats.as_dict() if final_stats else {},
        }
        if cold_check is not None:
            payload["cold_check"] = cold_check
        print(json.dumps(payload, indent=2, default=str))
    else:
        print(
            f"# final top-{args.k} {report.pattern_name} densest subgraphs "
            f"({session.graph.num_vertices} vertices, "
            f"{session.graph.num_edges} edges after {session.epoch} delta(s))"
        )
        for rank, subgraph in enumerate(report.subgraphs, start=1):
            members = ", ".join(str(v) for v in subgraph.as_sorted_list())
            print(
                f"{rank}. density={float(subgraph.density):.4f} "
                f"size={subgraph.size} vertices=[{members}]"
            )
        if final_stats is not None:
            print(
                f"# session: {final_stats.components_reused} component result(s) "
                f"reused, {final_stats.components_solved} solved"
            )
        if cold_check is not None:
            verdict = "MATCH" if cold_check["match"] else "MISMATCH"
            print(
                f"# cold check: {verdict} "
                f"(signature sha256 {cold_check['signature_sha256'][:16]}…)"
            )
    if cold_check is not None and not cold_check["match"]:
        print(
            "error: incremental report differs from a cold solve of the "
            "final graph",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_datasets() -> int:
    print(f"{'abbr':6} {'name':22} {'|V|':>6} {'|E|':>7} {'|Psi3|':>8}")
    for abbr in dataset_abbreviations():
        spec = get_spec(abbr)
        stats = dataset_statistics(abbr, clique_sizes=(3,))
        print(
            f"{abbr:6} {spec.name:22} {stats['|V|']:>6} {stats['|E|']:>7} {stats['|Psi3|']:>8}"
        )
    return 0


def _cmd_solvers() -> int:
    for name in available_solvers():
        spec = get_solver(name)
        constraints = []
        if spec.fixed_h is not None:
            constraints.append(f"h={spec.fixed_h} only")
        if spec.requires_k:
            constraints.append("needs --k")
        if not spec.exact:
            constraints.append("approximate")
        suffix = f" [{', '.join(constraints)}]" if constraints else ""
        print(f"{name:8} {spec.description}{suffix}")
    return 0


def _cmd_executors() -> int:
    for name in available_executors():
        print(f"{name:8} {describe_executor(name)}")
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    """Inspect (``ls`` / ``stats``) or ``clear`` a preprocess cache directory."""
    root = resolve_cache_dir(args.cache_dir)
    if root is None:
        print(
            "error: no cache directory (pass --cache-dir or set $REPRO_CACHE)",
            file=sys.stderr,
        )
        return 1
    cache = cache_for(root)
    if args.action == "clear":
        removed = cache.clear()
        if args.json:
            print(json.dumps({"root": cache.root, "removed": removed}, indent=2))
        else:
            print(f"cleared {removed} entr{'y' if removed == 1 else 'ies'} from {cache.root}")
        return 0
    if args.action == "stats":
        summary = cache.summary()
        if args.json:
            print(json.dumps(summary, indent=2, sort_keys=True))
            return 0
        counters = summary["counters"]
        print(f"cache {summary['root']}")
        print(f"entries {summary['num_entries']}  "
              f"bytes {summary['total_bytes']}/{summary['max_bytes']}  "
              f"warm-in-memory {summary['memory_entries']}")
        print(f"hits {counters['hits']}  misses {counters['misses']}  "
              f"stores {counters['stores']}  evictions {counters['evictions']}")
        return 0
    entries = cache.entries()
    if args.json:
        print(json.dumps(entries, indent=2, sort_keys=True))
        return 0
    if not entries:
        print(f"cache {cache.root}: empty")
        return 0
    print(f"{'key':16} {'pattern':10} {'|V|':>6} {'|Psi|':>8} {'bytes':>9} {'hits':>5}")
    for entry in entries:
        meta = entry.get("meta", {})
        print(
            f"{entry['key'][:16]:16} {str(meta.get('pattern', '?')):10} "
            f"{str(meta.get('num_vertices', '?')):>6} "
            f"{str(meta.get('num_instances', '?')):>8} "
            f"{entry.get('size_bytes', 0):>9} {entry.get('hits', 0):>5}"
        )
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point (returns a process exit code)."""
    arguments = list(argv) if argv is not None else sys.argv[1:]
    if arguments[:1] == ["serve"]:
        from .server.app import main as serve_main

        return serve_main(arguments[1:], prog="repro-lhcds serve")
    if arguments[:1] == ["lint"]:
        from .analysis import main as lint_main

        return lint_main(arguments[1:], prog="repro-lhcds lint")
    parser = _build_parser()
    args = parser.parse_args(arguments)
    try:
        if args.command == "topk":
            return _cmd_topk(args)
        if args.command == "deltas":
            return _cmd_deltas(args)
        if args.command == "datasets":
            return _cmd_datasets()
        if args.command == "solvers":
            return _cmd_solvers()
        if args.command == "executors":
            return _cmd_executors()
        if args.command == "cache":
            return _cmd_cache(args)
        if args.command == "experiment":
            print(run_experiment(args.name).render())
            return 0
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

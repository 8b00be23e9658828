"""Tests for the repro-lint static analyzer (``repro.analysis``).

Each rule gets a fixture snippet with one seeded violation that must be
caught; the suppression machinery (pragmas, baseline) and the CLI surface
are pinned; and a repo-gate test runs the analyzer over ``src`` with the
committed baseline exactly the way CI does.
"""

import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis import (
    AnalysisError,
    Baseline,
    Checker,
    available_checkers,
    get_checker,
    lint_paths,
    lint_source,
    main,
    register_checker,
    unregister_checker,
)
from repro.analysis.baseline import assign_fingerprints

REPO_ROOT = Path(__file__).resolve().parents[1]

# Paths that put a fixture inside each rule's scope.
LHCDS = "src/repro/lhcds/fixture.py"
ENGINE = "src/repro/engine/fixture.py"
ANYREPRO = "src/repro/fixture.py"
OUTSIDE = "scripts/fixture.py"


def lint(source, path=LHCDS, rules=None):
    return lint_source(textwrap.dedent(source), path, rules)


def active(findings, rule=None):
    return [
        f
        for f in findings
        if not f.suppressed and (rule is None or f.rule == rule)
    ]


class TestExactness:
    def test_catches_float_coercion(self):
        findings = lint("x = float(y)\n")
        assert [f.rule for f in active(findings)] == ["EX01"]
        assert "float()" in findings[0].message

    def test_catches_float_literal(self):
        findings = lint("threshold = 0.5\n")
        assert [f.rule for f in active(findings)] == ["EX01"]

    def test_catches_epsilon_comparison(self):
        findings = lint("ok = a >= b - 1e-12\n")
        assert [f.rule for f in active(findings)] == ["EX01"]
        assert "epsilon" in findings[0].message

    def test_catches_math_inf(self):
        findings = lint("import math\nbound = math.inf\n")
        assert [f.rule for f in active(findings)] == ["EX01"]

    def test_flagged_only_in_certified_modules(self):
        assert active(lint("x = float(y)\n", path=OUTSIDE)) == []

    def test_float_slack_expression_is_flagged(self):
        # No name exempts a float: the slack constant's literal and a
        # literal in an expression routed through it are findings.
        findings = lint(
            """
            FLOAT_SLACK = 1e-9
            padded = value + FLOAT_SLACK + 0.0
            ok = a >= b - FLOAT_SLACK
            """
        )
        assert [f.line for f in active(findings, "EX01")] == [2, 3]

    def test_declared_float_storage_is_exempt(self):
        findings = lint(
            """
            elapsed: float = 0.0

            def wait(seconds: float = 0.25):
                pass

            def lease() -> float:
                if broken:
                    return 0.0
                return stored
            """
        )
        assert active(findings, "EX01") == []

    def test_undeclared_default_still_flagged(self):
        findings = lint("def wait(seconds=0.25):\n    pass\n")
        assert [f.rule for f in active(findings)] == ["EX01"]


class TestDeterminism:
    def test_catches_for_loop_over_set(self):
        findings = lint(
            """
            out = []
            for v in set(items):
                out.append(v)
            """
        )
        assert [f.rule for f in active(findings)] == ["DT01"]

    def test_catches_comprehension_over_set_name(self):
        findings = lint(
            """
            level = {v for v in vertices}
            ordered = [v for v in level]
            """
        )
        assert [f.rule for f in active(findings)] == ["DT01"]

    def test_catches_list_over_set_algebra(self):
        findings = lint(
            """
            keep = set(a) - set(b)
            out = list(keep)
            """
        )
        assert [f.rule for f in active(findings)] == ["DT01"]

    def test_catches_hash_in_sort_key(self):
        findings = lint("order = sorted(items, key=lambda v: hash(v))\n")
        assert [f.rule for f in active(findings)] == ["DT01"]

    def test_catches_module_level_random(self):
        findings = lint("import random\npick = random.random()\n")
        assert [f.rule for f in active(findings)] == ["DT01"]

    def test_catches_set_into_graph_constructor(self):
        findings = lint("g = Graph(vertices={v for v in names})\n")
        assert [f.rule for f in active(findings)] == ["DT01"]

    def test_order_insensitive_consumers_are_fine(self):
        findings = lint(
            """
            level = {v for v in vertices}
            total = sum(w[v] for v in level)
            best = max(level)
            ordered = sorted(level)
            listed = list(ordered)
            again = {v for v in level}
            """
        )
        assert active(findings, "DT01") == []

    def test_reassigned_name_is_untracked(self):
        findings = lint(
            """
            level = {v for v in vertices}
            level = sorted(level)
            out = [v for v in level]
            """
        )
        assert active(findings, "DT01") == []


class TestPickleSafety:
    def test_catches_function_nested_envelope(self):
        findings = lint(
            """
            def build():
                class LocalTask:
                    pass
                return LocalTask()
            """,
            path=ENGINE,
        )
        assert [f.rule for f in active(findings)] == ["PK01"]
        assert "module-level" in findings[0].message

    def test_catches_lambda_field_default(self):
        findings = lint(
            """
            from dataclasses import dataclass

            @dataclass
            class RetryTask:
                callback: object = lambda: None
            """,
            path=ENGINE,
        )
        assert [f.rule for f in active(findings)] == ["PK01"]

    def test_catches_handle_stored_on_self(self):
        findings = lint(
            """
            class SpoolResult:
                \"\"\"Envelope.\"\"\"

                def __init__(self, path):
                    self.handle = open(path)
            """,
            path=ENGINE,
        )
        assert [f.rule for f in active(findings)] == ["PK01"]

    def test_non_envelope_names_are_ignored(self):
        findings = lint(
            """
            def build():
                class Helper:
                    pass
                return Helper()
            """,
            path=ENGINE,
        )
        assert active(findings, "PK01") == []


class TestRegistryHygiene:
    def test_catches_specless_registration(self):
        findings = lint(
            """
            register_solver(SolverSpec(name="fast"))
            """,
            path=ENGINE,
        )
        rules = [f.rule for f in active(findings)]
        assert rules == ["RG01", "RG01"]  # no description, no exact=

    def test_catches_bare_spec_literal(self):
        # A spec in a table is checked like a wrapped registration.
        findings = lint(
            """
            SOLVERS = {"fast": SolverSpec(name="fast")}
            """,
            path=ENGINE,
        )
        rules = [f.rule for f in active(findings)]
        assert rules == ["RG01", "RG01"]  # no description, no exact=

    def test_complete_registration_is_fine(self):
        findings = lint(
            """
            register_solver(
                SolverSpec(name="fast", description="the fast path", exact=True)
            )
            """,
            path=ENGINE,
        )
        assert active(findings, "RG01") == []

    def test_catches_undocumented_executor_subclass(self):
        findings = lint(
            """
            class QuietExecutor(Executor):
                name = "quiet"
            """,
            path=ENGINE,
        )
        messages = [f.message for f in active(findings, "RG01")]
        assert any("docstring" in m for m in messages)
        assert any("'description'" in m for m in messages)

    def test_init_assigned_metadata_counts(self):
        findings = lint(
            """
            class SizedPattern(Pattern):
                \"\"\"A pattern whose metadata is derived at construction.\"\"\"

                def __init__(self, h):
                    self.name = f"clique-{h}"
                    self.size = h
            """,
            path=ANYREPRO,
        )
        assert active(findings, "RG01") == []


class TestPragmas:
    def test_same_line_pragma_suppresses(self):
        findings = lint(
            "x = float(y)  # repro: allow-EX01(boundary conversion, audited)\n"
        )
        assert active(findings) == []
        (finding,) = findings
        assert finding.suppression == "pragma"
        assert finding.reason == "boundary conversion, audited"

    def test_pragma_on_other_line_does_not_suppress(self):
        findings = lint(
            """
            # repro: allow-EX01(wrong line)
            x = float(y)
            """
        )
        assert [f.rule for f in active(findings)] == ["EX01"]

    def test_pragma_only_covers_its_rule(self):
        findings = lint(
            "x = float(y)  # repro: allow-DT01(mismatched rule)\n"
        )
        assert [f.rule for f in active(findings)] == ["EX01"]

    def test_file_level_pragma_suppresses_everywhere(self):
        findings = lint(
            """
            # repro: allow-file-EX01(float kernel by design)
            a = 0.5
            b = float(x)
            """
        )
        assert active(findings) == []
        assert all(f.suppression == "pragma" for f in findings)

    def test_reasonless_pragma_is_a_finding(self):
        findings = lint("x = float(y)  # repro: allow-EX01()\n")
        rules = sorted(f.rule for f in active(findings))
        assert rules == ["EX01", "PRAGMA"]

    def test_malformed_pragma_is_a_finding(self):
        findings = lint("x = 1  # repro: allow-EX01 missing parens\n")
        assert [f.rule for f in active(findings)] == ["PRAGMA"]
        assert "malformed" in findings[-1].message


class TestBaseline:
    SOURCE = "def wait(seconds=0.25):\n    pass\n"

    def write_fixture(self, tmp_path, source=SOURCE):
        module = tmp_path / "src" / "repro" / "lhcds" / "fixture.py"
        module.parent.mkdir(parents=True)
        module.write_text(source)
        return module

    def test_round_trip_suppresses_then_line_edit_invalidates(self, tmp_path, monkeypatch):
        module = self.write_fixture(tmp_path)
        monkeypatch.chdir(tmp_path)

        report = lint_paths([str(module)])
        assert [f.rule for f in report.active] == ["EX01"]

        baseline_path = tmp_path / ".repro-lint-baseline.json"
        Baseline.from_findings(report.active).save(str(baseline_path))
        reloaded = Baseline.load(str(baseline_path))
        assert len(reloaded) == 1

        gated = lint_paths([str(module)], baseline=reloaded)
        assert gated.active == []
        assert gated.suppressed[0].suppression == "baseline"
        assert gated.exit_code() == 0

        # Renumbering the file keeps the entry; editing the line voids it.
        module.write_text("# a new leading comment\n" + self.SOURCE)
        assert lint_paths([str(module)], baseline=reloaded).active == []
        module.write_text(self.SOURCE.replace("0.25", "0.75"))
        assert len(lint_paths([str(module)], baseline=reloaded).active) == 1

    def test_duplicate_lines_get_distinct_fingerprints(self, tmp_path, monkeypatch):
        module = self.write_fixture(
            tmp_path, "a = 0.5\nb = 1\na = 0.5\n"
        )
        monkeypatch.chdir(tmp_path)
        report = lint_paths([str(module)])
        prints = [p for _, p in assign_fingerprints(report.active)]
        assert len(prints) == 2
        assert len(set(prints)) == 2

    def test_unsupported_version_is_an_error(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({"version": 99, "findings": []}))
        with pytest.raises(AnalysisError):
            Baseline.load(str(path))

    def test_missing_file_is_empty(self, tmp_path):
        assert len(Baseline.load(str(tmp_path / "nope.json"))) == 0


class TestRunnerAndCli:
    def test_syntax_error_becomes_parse_finding(self):
        findings = lint_source("def broken(:\n", LHCDS)
        assert [f.rule for f in findings] == ["PARSE"]

    def test_json_schema(self, tmp_path, monkeypatch, capsys):
        module = tmp_path / "src" / "repro" / "lhcds" / "fixture.py"
        module.parent.mkdir(parents=True)
        module.write_text("x = float(y)\n")
        monkeypatch.chdir(tmp_path)
        code = main([str(module), "--no-baseline", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert payload["version"] == 1
        assert payload["summary"] == {
            "files_checked": 1,
            "total": 1,
            "active": 1,
            "suppressed_pragma": 0,
            "suppressed_baseline": 0,
        }
        (finding,) = payload["findings"]
        assert finding["rule"] == "EX01"
        assert finding["line"] == 1
        assert finding["suppressed"] is False
        assert set(finding) == {
            "rule",
            "path",
            "line",
            "col",
            "message",
            "snippet",
            "suppressed",
            "suppression",
            "reason",
        }

    def test_clean_tree_exits_zero(self, tmp_path, monkeypatch, capsys):
        module = tmp_path / "src" / "repro" / "lhcds" / "fixture.py"
        module.parent.mkdir(parents=True)
        module.write_text("from fractions import Fraction\nx = Fraction(1, 3)\n")
        monkeypatch.chdir(tmp_path)
        assert main(["src", "--no-baseline"]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_missing_path_exits_two(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["does-not-exist"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_select_runs_only_named_rules(self):
        findings = lint(
            """
            x = float(y)
            for v in set(items):
                x = v
            """,
            rules=["DT01"],
        )
        assert [f.rule for f in active(findings)] == ["DT01"]

    def test_unknown_rule_is_an_error(self):
        with pytest.raises(AnalysisError):
            get_checker("ZZ99")

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in ("EX01", "DT01", "PK01", "RG01"):
            assert rule in out

    def test_cli_subcommand_is_wired(self, capsys):
        from repro.cli import main as cli_main

        assert cli_main(["lint", "--list-rules"]) == 0
        assert "EX01" in capsys.readouterr().out


class TestRegistry:
    def test_four_rules_registered(self):
        assert {"EX01", "DT01", "PK01", "RG01"} <= set(available_checkers())

    def test_register_requires_metadata_and_uniqueness(self):
        class NoRule(Checker):
            pass

        with pytest.raises(AnalysisError):
            register_checker(NoRule)

        class Dupe(Checker):
            rule = "EX01"
            title = "imposter"

        with pytest.raises(AnalysisError):
            register_checker(Dupe)

    def test_register_unregister_round_trip(self):
        class Probe(Checker):
            rule = "TT01"
            title = "test probe"

        register_checker(Probe)
        try:
            assert get_checker("tt01") is Probe
        finally:
            unregister_checker("TT01")
        with pytest.raises(AnalysisError):
            unregister_checker("TT01")


class TestRepoGate:
    def test_src_is_clean_under_committed_baseline(self, monkeypatch, capsys):
        monkeypatch.chdir(REPO_ROOT)
        code = main(["src"])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "0 finding(s)" in out

    def test_every_committed_pragma_has_a_reason(self, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        report = lint_paths(["src"])
        pragmad = [f for f in report.suppressed if f.suppression == "pragma"]
        assert pragmad, "expected pragma-suppressed findings in the tree"
        assert all(f.reason for f in pragmad)
        assert not [f for f in report.findings if f.rule == "PRAGMA"]


# Paths that put a fixture inside the CC02 executor-boundary scope.
EXECUTORS = "src/repro/engine/executors/fixture.py"


class TestEffects:
    """Unit tests for the mutation-summary engine itself."""

    def summarize(self, source, path=ANYREPRO):
        import ast as _ast

        from repro.analysis.base import CheckContext
        from repro.analysis.effects import module_summaries

        text = textwrap.dedent(source)
        tree = _ast.parse(text)
        return module_summaries(
            tree, CheckContext(path=path, lines=text.splitlines())
        )

    def test_direct_and_tuple_writes(self):
        (summary,) = self.summarize(
            """
            class Box:
                def __init__(self):
                    self._a = 0
                def move(self, f):
                    self._a, rest = f()
                def drop(self):
                    del self._a
            """
        )
        assert {m.kind for m in summary.methods["move"].mutations} == {"assign"}
        assert {m.kind for m in summary.methods["drop"].mutations} == {"delete"}
        assert summary.fields >= {"_a"}

    def test_mutator_calls_and_subscripts(self):
        (summary,) = self.summarize(
            """
            class Box:
                def put(self, k, v):
                    self._items[k] = v
                    self._items.update(v)
                    self._meta.rows.append(v)
            """
        )
        mutated = summary.methods["put"].mutated_fields()
        assert set(mutated) == {"_items", "_meta"}
        kinds = [m.kind for m in mutated["_items"]]
        assert kinds == ["subscript", "call"]

    def test_lock_context_and_nested_defs(self):
        (summary,) = self.summarize(
            """
            import threading

            class Box:
                def __init__(self):
                    self._lock = threading.Lock()
                def locked(self):
                    with self._lock:
                        self._n = 1
                def deferred(self):
                    with self._lock:
                        def task():
                            self._n = 2
                        return task
            """
        )
        assert summary.lock_fields == {"_lock"}
        (locked,) = summary.methods["locked"].mutations
        assert locked.locks == frozenset({"_lock"})
        # The nested callable runs after the with-block exits: no locks.
        (deferred,) = summary.methods["deferred"].mutations
        assert deferred.locks == frozenset()

    def test_alias_tracking_kill_and_launder(self):
        (summary,) = self.summarize(
            """
            class Box:
                def tracked(self, k):
                    rec = self._recs.get(k)
                    rec["n"] += 1
                def killed(self, k):
                    rec = self._recs.get(k)
                    rec = k
                    rec["n"] += 1
                def laundered(self):
                    rec = dict(self._recs)
                    rec["n"] = 1
            """
        )
        (tracked,) = summary.methods["tracked"].mutations
        assert (tracked.field, tracked.via) == ("_recs", "rec")
        assert summary.methods["killed"].mutations == []
        assert summary.methods["laundered"].mutations == []

    def test_holds_pragma_and_manifest(self):
        (summary,) = self.summarize(
            """
            import threading

            class Box:
                GUARDED_BY = {"_items": "_lock"}

                def __init__(self):
                    self._lock = threading.RLock()
                    self._items = {}

                # repro: holds(_lock)
                def helper(self):
                    self._items.clear()
            """
        )
        assert summary.guarded_by == {"_items": "_lock"}
        assert summary.manifest_error is None
        (mutation,) = summary.methods["helper"].mutations
        assert mutation.locks == frozenset({"_lock"})

    def test_non_literal_manifest_is_an_error(self):
        (summary,) = self.summarize(
            """
            class Box:
                GUARDED_BY = {"_items": LOCK_NAME}
            """
        )
        assert summary.manifest_error is not None

    def test_guarded_by_pragma_attaches_to_assignment(self):
        (summary,) = self.summarize(
            """
            import threading

            class Box:
                def __init__(self):
                    self._lock = threading.Lock()
                    # repro: guarded-by(_lock)
                    self._items = {}
            """
        )
        assert summary.guarded_by == {"_items": "_lock"}


class TestLockDiscipline:
    def test_catches_unlocked_mutation(self):
        findings = lint(
            """
            import threading

            class Widget:
                GUARDED_BY = {"_items": "_lock"}

                def __init__(self):
                    self._lock = threading.Lock()
                    self._items = []

                def add(self, x):
                    self._items.append(x)
            """,
            path=ANYREPRO,
            rules=["CC01"],
        )
        assert [f.rule for f in active(findings)] == ["CC01"]
        assert "outside 'with self._lock:'" in findings[0].message

    def test_locked_mutation_is_clean(self):
        findings = lint(
            """
            import threading

            class Widget:
                GUARDED_BY = {"_items": "_lock"}

                def __init__(self):
                    self._lock = threading.Lock()
                    self._items = []

                def add(self, x):
                    with self._lock:
                        self._items.append(x)
            """,
            path=ANYREPRO,
            rules=["CC01"],
        )
        assert active(findings) == []

    def test_catches_alias_mutation_outside_lock(self):
        findings = lint(
            """
            import threading

            class Widget:
                GUARDED_BY = {"_records": "_lock"}

                def __init__(self):
                    self._lock = threading.Lock()
                    self._records = {}

                def bump(self, name):
                    record = self._records.get(name)
                    record["n"] += 1
            """,
            path=ANYREPRO,
            rules=["CC01"],
        )
        assert [f.rule for f in active(findings)] == ["CC01"]
        assert "alias 'record'" in findings[0].message

    def test_holds_pragma_satisfies_the_guard(self):
        findings = lint(
            """
            import threading

            class Widget:
                GUARDED_BY = {"_items": "_lock"}

                def __init__(self):
                    self._lock = threading.RLock()
                    self._items = []

                def add(self, x):
                    with self._lock:
                        self._admit(x)

                # repro: holds(_lock)
                def _admit(self, x):
                    self._items.append(x)
            """,
            path=ANYREPRO,
            rules=["CC01"],
        )
        assert active(findings) == []

    def test_guard_through_non_lock_is_a_finding(self):
        findings = lint(
            """
            class Widget:
                GUARDED_BY = {"_items": "_mutex"}

                def __init__(self):
                    self._items = []

                def add(self, x):
                    self._items.append(x)
            """,
            path=ANYREPRO,
            rules=["CC01"],
        )
        assert [f.rule for f in active(findings)] == ["CC01"]
        assert "not a lock field" in findings[0].message

    def test_unknown_field_and_stale_guard_are_findings(self):
        findings = lint(
            """
            import threading

            class Widget:
                GUARDED_BY = {"_ghost": "_lock", "_stale": "_lock"}

                def __init__(self):
                    self._lock = threading.Lock()
                    self._stale = 0
            """,
            path=ANYREPRO,
            rules=["CC01"],
        )
        messages = sorted(f.message for f in active(findings))
        assert len(messages) == 2
        joined = "\n".join(messages)
        assert "unknown field '_ghost'" in joined
        assert "stale guard" in joined

    def test_lock_without_declared_discipline_is_a_finding(self):
        findings = lint(
            """
            import threading

            class Widget:
                def __init__(self):
                    self._lock = threading.Lock()
            """,
            path=ANYREPRO,
            rules=["CC01"],
        )
        assert [f.rule for f in active(findings)] == ["CC01"]
        assert "guards nothing declared" in findings[0].message

    def test_non_literal_manifest_is_a_finding(self):
        findings = lint(
            """
            class Widget:
                GUARDED_BY = {"_items": LOCK}
            """,
            path=ANYREPRO,
            rules=["CC01"],
        )
        assert [f.rule for f in active(findings)] == ["CC01"]

    def test_out_of_scope_module_is_ignored(self):
        findings = lint(
            """
            import threading

            class Widget:
                def __init__(self):
                    self._lock = threading.Lock()
            """,
            path=OUTSIDE,
            rules=["CC01"],
        )
        assert active(findings) == []


class TestExecutorCapture:
    def test_catches_module_global_mutation(self):
        findings = lint(
            """
            COUNTERS = {}

            def task(key):
                COUNTERS[key] = 1
            """,
            path=EXECUTORS,
            rules=["CC02"],
        )
        assert [f.rule for f in active(findings)] == ["CC02"]
        assert "module global 'COUNTERS'" in findings[0].message

    def test_registration_functions_are_carved_out(self):
        findings = lint(
            """
            _REGISTRY = {}

            def register_executor(name, executor_class):
                _REGISTRY[name] = executor_class

            def unregister_executor(name):
                del _REGISTRY[name]
            """,
            path=EXECUTORS,
            rules=["CC02"],
        )
        assert active(findings) == []

    def test_catches_global_rebind(self):
        findings = lint(
            """
            LIMIT = 3

            def bump():
                global LIMIT
                LIMIT += 1
            """,
            path=EXECUTORS,
            rules=["CC02"],
        )
        assert [f.rule for f in active(findings)] == ["CC02"]

    def test_catches_closure_mutation(self):
        findings = lint(
            """
            def make_task():
                acc = []

                def task(x):
                    acc.append(x)

                return task
            """,
            path=EXECUTORS,
            rules=["CC02"],
        )
        assert [f.rule for f in active(findings)] == ["CC02"]
        assert "closed-over name 'acc'" in findings[0].message

    def test_catches_nonlocal_write(self):
        findings = lint(
            """
            def outer():
                n = 0

                def inner():
                    nonlocal n
                    n += 1

                return inner
            """,
            path=EXECUTORS,
            rules=["CC02"],
        )
        assert [f.rule for f in active(findings)] == ["CC02"]

    def test_local_state_is_fine(self):
        findings = lint(
            """
            def task(payload):
                results = []
                for item in payload:
                    results.append(item)
                return results
            """,
            path=EXECUTORS,
            rules=["CC02"],
        )
        assert active(findings) == []

    def test_out_of_scope_module_is_ignored(self):
        findings = lint(
            "COUNTERS = {}\ndef task(k):\n    COUNTERS[k] = 1\n",
            path=ANYREPRO,
            rules=["CC02"],
        )
        assert active(findings) == []


class TestWarmArtifact:
    def test_provider_must_copy_on_fetch(self):
        findings = lint(
            """
            class FooCache:
                def fetch(self, key):
                    cached = self._memory.get(key)
                    return cached
            """,
            path=ENGINE,
            rules=["MU01"],
        )
        assert [f.rule for f in active(findings)] == ["MU01"]
        assert "without copying" in findings[0].message

    def test_provider_copy_returns_are_clean(self):
        findings = lint(
            """
            import dataclasses

            class FooCache:
                def fetch(self, key):
                    cached = self._memory.get(key)
                    if cached is None:
                        return None
                    components, stats = cached
                    return list(components), dataclasses.replace(stats), STATE_HIT
            """,
            path=ENGINE,
            rules=["MU01"],
        )
        assert active(findings) == []

    def test_consumer_mutation_of_store_read_is_caught(self):
        findings = lint(
            """
            class Session:
                def solve(self, key):
                    state = self._states.get(key)
                    state.bounds = None
            """,
            path=ENGINE,
            rules=["MU01"],
        )
        assert [f.rule for f in active(findings)] == ["MU01"]
        assert "self._states" in findings[0].message

    def test_consumer_mutator_call_via_loop_is_caught(self):
        findings = lint(
            """
            class Session:
                def repair(self):
                    for comp in self._components:
                        comp.instances.clear()
            """,
            path=ENGINE,
            rules=["MU01"],
        )
        assert [f.rule for f in active(findings)] == ["MU01"]

    def test_consumer_laundering_through_copy_is_clean(self):
        findings = lint(
            """
            class Session:
                def solve(self, key):
                    state = list(self._states[key])
                    state.append(1)
                    fresh = self._states[key].copy()
                    fresh.update(x=1)
            """,
            path=ENGINE,
            rules=["MU01"],
        )
        assert active(findings) == []

    def test_sessions_store_is_mutable_by_design(self):
        findings = lint(
            """
            class Service:
                def tick(self, key):
                    session = self._sessions.get(key)
                    session.touch = 1
            """,
            path=ENGINE,
            rules=["MU01"],
        )
        assert active(findings) == []

    def test_out_of_scope_module_is_ignored(self):
        findings = lint(
            """
            class Session:
                def solve(self, key):
                    state = self._states.get(key)
                    state.bounds = None
            """,
            path=OUTSIDE,
            rules=["MU01"],
        )
        assert active(findings) == []


class TestSummariesCli:
    FIXTURE = textwrap.dedent(
        """
        import threading

        class WarmThing:
            GUARDED_BY = {"_items": "_lock"}

            def __init__(self):
                self._lock = threading.Lock()
                self._items = []

            def add(self, x):
                with self._lock:
                    self._items.append(x)
        """
    )

    def write_fixture(self, tmp_path):
        module = tmp_path / "src" / "repro" / "engine" / "fixture.py"
        module.parent.mkdir(parents=True)
        module.write_text(self.FIXTURE)
        return module

    def test_human_dump(self, tmp_path, monkeypatch, capsys):
        module = self.write_fixture(tmp_path)
        monkeypatch.chdir(tmp_path)
        assert main([str(module), "--summaries"]) == 0
        out = capsys.readouterr().out
        assert "class WarmThing" in out
        assert "_items -> _lock" in out
        assert "under _lock" in out

    def test_class_filter(self, tmp_path, monkeypatch, capsys):
        module = self.write_fixture(tmp_path)
        monkeypatch.chdir(tmp_path)
        assert main([str(module), "--summaries", "nosuchclass"]) == 0
        assert "no classes matched" in capsys.readouterr().out

    def test_json_dump(self, tmp_path, monkeypatch, capsys):
        module = self.write_fixture(tmp_path)
        monkeypatch.chdir(tmp_path)
        assert main([str(module), "--summaries", "warm", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == 1
        (klass,) = payload["classes"]
        assert klass["class"] == "WarmThing"
        assert klass["guarded_by"] == {"_items": "_lock"}
        add = [m for m in klass["methods"] if m["name"] == "add"][0]
        (mutation,) = add["mutations"]
        assert mutation["field"] == "_items"
        assert mutation["locks"] == ["_lock"]

    def test_seven_rules_registered(self):
        assert {
            "EX01",
            "DT01",
            "PK01",
            "RG01",
            "CC01",
            "CC02",
            "MU01",
        } <= set(available_checkers())

    def test_manifest_classes_carry_validated_guards(self, monkeypatch):
        """The three concurrency-critical classes declare real manifests."""
        import ast as _ast

        from repro.analysis.base import CheckContext
        from repro.analysis.effects import module_summaries

        expected = {
            "SolveService": REPO_ROOT / "src" / "repro" / "server" / "service.py",
            "PreprocessCache": REPO_ROOT / "src" / "repro" / "engine" / "cache.py",
            "IncrementalSession": (
                REPO_ROOT / "src" / "repro" / "engine" / "incremental.py"
            ),
        }
        for class_name, path in expected.items():
            source = path.read_text()
            summaries = module_summaries(
                _ast.parse(source),
                CheckContext(path=str(path), lines=source.splitlines()),
            )
            (summary,) = [s for s in summaries if s.name == class_name]
            assert summary.guarded_by, class_name
            assert summary.manifest_error is None
            for field_name, lock in summary.guarded_by.items():
                assert field_name in summary.fields, (class_name, field_name)
                assert lock in summary.lock_fields, (class_name, lock)

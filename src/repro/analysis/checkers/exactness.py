"""EX01 — exactness: certified modules must not leak floats.

The certified modules (``lhcds/``, ``densest/exact.py``, ``engine/``,
``kernels/``, ``server/``) carry
the repository's exactness guarantee: densities and certificates are
:class:`~fractions.Fraction` values, and every comparison on the certificate
path is exact.  One careless ``float()`` is enough to void a certificate —
PR 5's early-stop bug was exactly that — so this rule flags, inside those
modules:

* ``float(...)`` coercions (and ``math.inf`` / ``math.nan``),
* ``float`` literals,
* epsilon comparisons (a comparison whose expression mixes in a float
  literal, e.g. ``a >= b - 1e-12``).

The solve path has no float boundary: the Frank–Wolfe iterate is integer
numerators over one denominator, and every bound and priority is an
``int`` or a ``Fraction``.  So the rule has one exemption, declared float
*storage*: an ``x: float = 0.0`` assignment, a function default whose
parameter is annotated ``float``, or a ``return`` literal of a function
annotated ``-> float`` (wall-clock timings and scheduling knobs are floats
by design and say so).  Anything else takes a line pragma with a reason.
"""

from __future__ import annotations

import ast
from typing import ClassVar, Dict, Set, Tuple

from ..base import CheckContext, Checker
from .common import ancestors, build_parent_map, enclosing_statement


class ExactnessChecker(Checker):
    """Flag float coercions, literals, and epsilon comparisons."""

    rule: ClassVar[str] = "EX01"
    title: ClassVar[str] = (
        "no float()/float literals/epsilon comparisons in certified modules"
    )
    description: ClassVar[str] = (
        "certified modules keep densities and certificates exact; floats may "
        "only enter as declared float storage or under a reasoned pragma"
    )
    scope: ClassVar[Tuple[str, ...]] = (
        "repro/lhcds/",
        "repro/densest/exact.py",
        "repro/engine/",
        "repro/kernels/",
        "repro/server/",
    )

    def run(self, tree: ast.AST, context: CheckContext) -> list:
        self._parents: Dict[ast.AST, ast.AST] = build_parent_map(tree)
        self._declared_float_defaults: Set[int] = set()
        self._collect_declared_defaults(tree)
        return super().run(tree, context)

    # ------------------------------------------------------------------
    # declared-float storage
    # ------------------------------------------------------------------
    def _collect_declared_defaults(self, tree: ast.AST) -> None:
        """Record float values whose storage is *declared* float.

        Covers defaults of parameters annotated ``float`` and ``return``
        values of functions annotated ``-> float`` (wall-clock timings and
        scheduling knobs say what they are; the rule is after floats that
        sneak into Fraction lattices unannounced).
        """
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            positional = node.args.posonlyargs + node.args.args
            for arg, default in zip(
                positional[len(positional) - len(node.args.defaults):],
                node.args.defaults,
            ):
                if self._is_float_annotation(arg.annotation):
                    self._declared_float_defaults.add(id(default))
            for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
                if default is not None and self._is_float_annotation(arg.annotation):
                    self._declared_float_defaults.add(id(default))
            if self._is_float_annotation(node.returns):
                for statement in self._own_returns(node):
                    if isinstance(statement.value, ast.Constant):
                        self._declared_float_defaults.add(id(statement.value))

    @staticmethod
    def _own_returns(function: ast.AST):
        """Yield ``return`` statements of the function itself (not nested)."""
        stack = list(ast.iter_child_nodes(function))
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(node, ast.Return):
                yield node
            stack.extend(ast.iter_child_nodes(node))

    @staticmethod
    def _is_float_annotation(annotation: ast.AST | None) -> bool:
        if annotation is None:
            return False
        if isinstance(annotation, ast.Name):
            return annotation.id == "float"
        if isinstance(annotation, ast.Constant):
            return annotation.value == "float"
        return False

    # ------------------------------------------------------------------
    # exemptions
    # ------------------------------------------------------------------
    def _is_exempt(self, node: ast.AST) -> bool:
        if id(node) in self._declared_float_defaults:
            return True
        statement = enclosing_statement(node, self._parents)
        if statement is None:
            return False
        # Declared float storage: `x: float = <literal>`.
        return isinstance(statement, ast.AnnAssign) and self._is_float_annotation(
            statement.annotation
        )

    def _inside_comparison(self, node: ast.AST) -> bool:
        for ancestor in ancestors(node, self._parents):
            if isinstance(ancestor, ast.Compare):
                return True
            if isinstance(ancestor, ast.stmt):
                return False
        return False

    # ------------------------------------------------------------------
    # visitors
    # ------------------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        if (
            isinstance(node.func, ast.Name)
            and node.func.id == "float"
            and not self._is_exempt(node)
        ):
            self.report(
                node,
                "float() coercion in a certified module voids exact "
                "certificates; keep int or Fraction, or pragma with a reason",
            )
        self.generic_visit(node)

    def visit_Constant(self, node: ast.Constant) -> None:
        if type(node.value) is float and not self._is_exempt(node):
            if self._inside_comparison(node):
                self.report(
                    node,
                    "epsilon comparison mixes a float literal into a "
                    "certified comparison; compare the exact int or "
                    "Fraction values directly",
                )
            else:
                self.report(
                    node,
                    "float literal in a certified module; use Fraction, "
                    "declare float storage with a `: float` annotation, "
                    "or pragma with a reason",
                )
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if (
            node.attr in {"inf", "nan"}
            and isinstance(node.value, ast.Name)
            and node.value.id == "math"
            and not self._is_exempt(node)
        ):
            self.report(
                node,
                f"math.{node.attr} in a certified module; use an exact "
                "sentinel (None-means-unbounded) instead",
            )
        self.generic_visit(node)

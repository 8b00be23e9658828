"""Small AST helpers shared by the built-in checkers."""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional, Set


def build_parent_map(tree: ast.AST) -> Dict[ast.AST, ast.AST]:
    """Map every node to its syntactic parent."""
    parents: Dict[ast.AST, ast.AST] = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            parents[child] = node
    return parents


def enclosing_statement(
    node: ast.AST, parents: Dict[ast.AST, ast.AST]
) -> Optional[ast.stmt]:
    """Return the nearest enclosing statement of an expression node."""
    current: Optional[ast.AST] = node
    while current is not None and not isinstance(current, ast.stmt):
        current = parents.get(current)
    return current


def ancestors(node: ast.AST, parents: Dict[ast.AST, ast.AST]) -> Iterator[ast.AST]:
    """Yield the node's ancestors, nearest first, up to the module."""
    current = parents.get(node)
    while current is not None:
        yield current
        current = parents.get(current)


def call_name(node: ast.Call) -> str:
    """The called name: ``f`` for ``f(...)``, ``m.f`` collapses to ``f``."""
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return ""


#: Binary set operators that preserve "this expression is a set".
_SET_OPS = (ast.Sub, ast.BitOr, ast.BitAnd, ast.BitXor)


def is_set_expression(node: ast.AST, set_names: Set[str] = frozenset()) -> bool:
    """Heuristic: the expression's value is an unordered set.

    Recognises set literals/comprehensions, ``set(...)``/``frozenset(...)``
    calls, names the caller has tracked as set-valued, and the set algebra
    (``|``, ``&``, ``-``, ``^``) over any of those.
    """
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        if node.func.id in {"set", "frozenset"}:
            return True
    if isinstance(node, ast.Name) and node.id in set_names:
        return True
    if isinstance(node, ast.BinOp) and isinstance(node.op, _SET_OPS):
        return is_set_expression(node.left, set_names) or is_set_expression(
            node.right, set_names
        )
    return False

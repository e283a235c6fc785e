"""Checks on the library's source.  It holds no `assert`: `python -O`
strips it, so a check on caller input must raise, and a re-check of a
result the library has just built belongs in the tests.  And no function
takes a parameter that its body never reads."""

import ast
from pathlib import Path

import ualg


def library_nodes():
    """(file name, node) for every AST node of the library's modules."""
    for path in sorted(Path(ualg.__file__).resolve().parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            yield path.name, node


def test_library_has_no_assert():
    found = [f"{name}:{node.lineno}" for name, node in library_nodes()
             if isinstance(node, ast.Assert)]
    assert found == []


def test_no_unread_parameters():
    # `self`, `cls` and names starting with `_` may go unread
    found = []
    for name, node in library_nodes():
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = node.args
        params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]
                  if p is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        loaded = {n.id for stmt in body for n in ast.walk(stmt)
                  if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        found += [f"{name}:{node.lineno} {getattr(node, 'name', 'lambda')}({p})"
                  for p in params
                  if p not in loaded and p not in ("self", "cls") and not p.startswith("_")]
    assert found == []

"""Checks on the library's source.  It holds no `assert`: `python -O`
strips it, so a check on caller input must raise, and a re-check of a
result the library has just built belongs in the tests.  No function
takes a parameter that its body never reads, and no module imports a
name that it never reads.  And no result is kept from one call to the
next."""

import ast
from pathlib import Path

import ualg


def library_modules():
    """(file name, AST) for each of the library's modules."""
    for path in sorted(Path(ualg.__file__).resolve().parent.glob("*.py")):
        yield path.name, ast.parse(path.read_text(), filename=str(path))


def library_nodes():
    """(file name, node) for every AST node of the library's modules."""
    for name, tree in library_modules():
        for node in ast.walk(tree):
            yield name, node


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


def test_no_unused_imports():
    # `from __future__` imports and the package's re-exports are exempt
    found = []
    for name, tree in library_modules():
        if name == "__init__.py":
            continue
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for a in node.names:
                    imported[a.asname or a.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for a in node.names:
                    imported[a.asname or a.name] = node.lineno
        read = {n.id for n in ast.walk(tree)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        found += [f"{name}:{line} {n}" for n, line in imported.items() if n not in read]
    assert found == []


CACHES = ("cache", "lru_cache")
# methods that change a dict, set or list in place
MUTATORS = ("setdefault", "update", "add", "append", "extend", "insert", "pop", "popitem",
            "clear", "__setitem__")


def test_no_cache_outlives_a_call():
    # a result kept from one call for the next is no gain: a CLI user runs
    # one process per job.  So no functools cache or lru_cache, no
    # module-level name that a function fills or rebinds, except the
    # argument parser, which `cli._parser` builds once per process and
    # which holds no result.  A cached_property lives as long as its
    # instance, and stays allowed.
    found = []
    for name, tree in library_modules():
        module_names = {t.id for stmt in tree.body if isinstance(stmt, (ast.Assign, ast.AnnAssign))
                        for t in getattr(stmt, "targets", [getattr(stmt, "target", None)])
                        if isinstance(t, ast.Name)}
        allowed = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and (name, node.name) == ("cli.py", "_parser"):
                allowed.update(map(id, node.decorator_list))
            elif isinstance(node, ast.ImportFrom) and node.module == "functools":
                found += [f"{name}:{node.lineno} imports {a.name}" for a in node.names
                          if a.name in CACHES]
            elif isinstance(node, ast.Global):
                found.append(f"{name}:{node.lineno} global {', '.join(node.names)}")
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr in CACHES
                    and isinstance(node.value, ast.Name) and node.value.id == "functools"
                    and id(node) not in allowed):
                found.append(f"{name}:{node.lineno} functools.{node.attr}")
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            a = node.args
            local = {p.arg for p in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]
                     if p is not None}
            local |= {n.id for n in ast.walk(node)
                      if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
            for n in ast.walk(node):
                target = None
                if isinstance(n, ast.Subscript) and isinstance(n.ctx, (ast.Store, ast.Del)):
                    target = n.value
                elif (isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                      and n.func.attr in MUTATORS):
                    target = n.func.value
                if (isinstance(target, ast.Name) and target.id in module_names
                        and target.id not in local):
                    found.append(f"{name}:{n.lineno} fills module-level {target.id}")
    assert found == []

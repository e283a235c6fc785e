"""The library holds no `assert`: `python -O` strips it, so a check on
caller input must raise, and a re-check of a result the library has just
built belongs in the tests."""

import ast
from pathlib import Path

import ualg


def test_library_has_no_assert():
    found = []
    for path in sorted(Path(ualg.__file__).resolve().parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []

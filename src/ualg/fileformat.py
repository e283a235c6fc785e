"""The two text formats: algebra files and equation files.

Algebra file, one or more blocks:

    algebra B
    elements b1 b2
    op zero/0 = b1
    op and/2 = b1 b1 b1 b2
    end

Tables are row-major in lexicographic argument order with the leftmost
argument most significant.  `#` starts a comment; tokens match
[A-Za-z][A-Za-z0-9_]*.

Equation file:

    vars x y
    eq and(x, y) = and(y, x)
"""

from __future__ import annotations

import re
from operator import itemgetter
from typing import Iterator

from .core import IDENT_RE, FiniteAlgebra, InvalidAlgebra, UalgError
from .terms import Equation, EquationSet, TermError, parse_term
from . import core


class ParseError(UalgError):
    def __init__(self, line: int, column: int, message: str):
        self.line = line
        self.column = column
        self.message = message
        super().__init__(f"line {line}, column {column}: {message}")


_OP_RE = re.compile(r"(?P<name>[A-Za-z][A-Za-z0-9_]*)/(?P<arity>\d+)\Z")
# a string of tokens that each match IDENT_RE, between whitespace
_IDENTS_RE = re.compile(r"\s*(?:[A-Za-z][A-Za-z0-9_]*(?:\s+|\Z))*")


def _strip_comment(line: str) -> str:
    return line.split("#", 1)[0]


# An `op` line's values are split this many characters at a time, cut at
# whitespace, so parsing keeps one chunk of tokens, not a line of them.
CHUNK = 1 << 14

_SPACE_RE = re.compile(r"\s")


def _chunks(values: str) -> Iterator[list[str]]:
    """The tokens of `values`, one list per run of at least CHUNK
    characters that ends at whitespace or at the end."""
    start = 0
    while start < len(values):
        space = _SPACE_RE.search(values, start + CHUNK)
        end = space.start() if space else len(values)
        yield values[start:end].split()
        start = end


def parse_algebra_file(text: str) -> list[FiniteAlgebra]:
    """Parse and validate every block; the first lexical, structural, or
    validation problem is raised as a positioned ParseError.  Each `op`
    line is mapped to carrier indices as it is read."""
    algebras: list[FiniteAlgebra] = []
    name = None
    elements: list[str] = []
    index: dict[str, int] = {}
    ops: list = []  # (symbol, arity, table or its problem), as core.build_algebra takes them
    op_lines: list[int] = []
    block_line = 0
    lines = text.splitlines()

    def fail(lineno: int, col: int, msg: str):
        raise ParseError(lineno, col, msg)

    def read_table(values: str, sym: str, arity: int):
        chunks = (values.split(),) if len(values) <= CHUNK else _chunks(values)
        return core.index_table(index, chunks, sym, arity, len(elements))

    for lineno, raw in enumerate(lines, start=1):
        line = _strip_comment(raw)
        parts = line.split(None, 3)  # an `op` line's values stay one string
        if not parts:
            continue
        head = parts[0]
        col = line.index(head) + 1
        tokens = parts if len(parts) < 4 or head == "op" else line.split()
        if head == "algebra":
            if name is not None:
                fail(lineno, col, "previous algebra block not closed with `end`")
            if len(tokens) != 2:
                fail(lineno, col, "expected: algebra <Name>")
            if not IDENT_RE.match(tokens[1]):
                fail(lineno, col, f"bad algebra name: {tokens[1]!r}")
            name = tokens[1]
            elements, index, ops, op_lines = [], {}, [], []
            block_line = lineno
        elif head == "elements":
            if name is None:
                fail(lineno, col, "`elements` outside an algebra block")
            elements = tokens[1:]
            at = col - 1 + len(head)  # where the values start in the line
            if not _IDENTS_RE.fullmatch(line, at):  # one match for the whole line
                for token in re.finditer(r"\S+", line[at:]):
                    if not IDENT_RE.match(token.group()):
                        fail(lineno, at + token.start() + 1,
                             f"bad element token: {token.group()!r}")
            index = dict(zip(elements, range(len(elements))))
            # tables read before this line are read again over these elements
            ops = [(sym, arity, read_table(_strip_comment(lines[n - 1]).split(None, 3)[3],
                                           sym, arity)[0])
                   for (sym, arity, _), n in zip(ops, op_lines)]
        elif head == "op":
            if name is None:
                fail(lineno, col, "`op` outside an algebra block")
            if len(tokens) < 4 or tokens[2] != "=":
                fail(lineno, col, "expected: op <name>/<arity> = <values...>")
            m = _OP_RE.match(tokens[1])
            if not m:
                fail(lineno, col, f"bad operation header: {tokens[1]!r}")
            sym, digits = m.group("name"), m.group("arity")
            try:
                arity = int(digits)
            except ValueError:  # past the interpreter's limit on digits converted to int
                fail(lineno, col, f"bad operation header: arity of {sym} has {len(digits)} digits")
            table, found = read_table(tokens[3], sym, arity)
            expected = core.size_mismatch(len(elements), arity, found)
            if expected is not None:
                fail(lineno, col, f"expected {expected} values, found {found} for {tokens[1]}")
            ops.append((sym, arity, table))
            op_lines.append(lineno)
        elif head == "end":
            if name is None:
                fail(lineno, col, "`end` outside an algebra block")
            try:
                algebras.append(core.build_algebra(name, elements, ops, idents_checked=True))
            except InvalidAlgebra as exc:
                fail(block_line, 1, f"invalid algebra {name}: {'; '.join(exc.problems)}")
            name = None
        else:
            fail(lineno, col, f"unknown directive: {head!r}")
    if name is not None:
        fail(block_line, 1, f"algebra block {name} not closed with `end`")
    return algebras


def serialize_algebra(alg: FiniteAlgebra) -> str:
    lines = [f"algebra {alg.name}", f"elements {' '.join(alg.carrier)}"]
    for (sym, arity), table in zip(alg.signature.symbols, alg.tables):
        # one itemgetter call a table; for one cell it gives a bare value
        values = " ".join(itemgetter(*table)(alg.carrier) if len(table) > 1
                          else [alg.carrier[c] for c in table])
        lines.append(f"op {sym}/{arity} = {values}")
    lines.append("end")
    return "\n".join(lines) + "\n"


def parse_equation_file(text: str, name: str = "equations") -> EquationSet:
    variables: tuple[str, ...] = ()
    seen_vars = False
    equations: list[Equation] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw)
        tokens = line.split()
        if not tokens:
            continue
        if tokens[0] == "vars":
            variables = tuple(tokens[1:])
            for j, v in enumerate(variables):
                if not IDENT_RE.match(v):
                    raise ParseError(lineno, 1, f"bad variable token: {v!r}")
                if v in variables[:j]:
                    raise ParseError(lineno, 1, f"repeated variable: {v}")
            seen_vars = True
        elif tokens[0] == "eq":
            if not seen_vars:
                raise ParseError(lineno, 1, "`eq` before `vars`")
            body = line.split(None, 1)[1]
            if "=" not in body:
                raise ParseError(lineno, 1, "expected: eq <term> = <term>")
            lhs_text, rhs_text = body.split("=", 1)
            try:
                lhs = parse_term(lhs_text, variables)
                rhs = parse_term(rhs_text, variables)
            except TermError as exc:
                raise ParseError(lineno, 1, str(exc)) from None
            equations.append(Equation(lhs=lhs, rhs=rhs, variables=variables))
        else:
            raise ParseError(lineno, 1, f"unknown directive: {tokens[0]!r}")
    return EquationSet(name=name, equations=tuple(equations))

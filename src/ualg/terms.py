"""Terms, equations, term evaluation, and the satisfaction check.

Term syntax in files and on the CLI: prefix applications with parentheses
and commas, variables bare, nullary symbols written name().
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

from .core import (PACK_LIMIT, FiniteAlgebra, Rows, UalgError, UnknownElement, as_row,
                   gather, gather_blocks, pack, spread, weighted_sum)


class TermError(UalgError):
    """Unbound variable, unknown symbol, or arity mismatch."""


@dataclass(frozen=True)
class Var:
    index: int


@dataclass(frozen=True)
class App:
    symbol: str
    args: tuple["Term", ...]


Term = Union[Var, App]


def term_variables(term: Term) -> set[int]:
    if isinstance(term, Var):
        return {term.index}
    out: set[int] = set()
    for a in term.args:
        out |= term_variables(a)
    return out


def render_terms(terms: Sequence[Term], variables: Sequence[str]) -> list[str]:
    """Each term in prefix syntax.  Subterms shared between or within the
    terms, as in the witnesses of `clone_n`, are rendered once: the memo
    is keyed by application identity, which is safe while `terms` holds
    every subterm alive."""
    memo: dict[int, str] = {}
    return [_render(term, variables, memo) for term in terms]


def _render(term: Term, variables: Sequence[str], memo: dict[int, str]) -> str:
    # a module-level function, not a closure made per call: on the many
    # two-term calls of `Equation.render` a fresh closure cost `satisfies`
    # jobs about 5%
    if type(term) is Var:
        return variables[term.index]
    text = memo.get(id(term))
    if text is None:
        text = memo[id(term)] = (
            f"{term.symbol}({', '.join([_render(a, variables, memo) for a in term.args])})")
    return text


_TOKEN_RE = re.compile(r"\s*([A-Za-z][A-Za-z0-9_]*|[(),])")

# The most applications a parsed term may nest.  Printing, compiling and
# evaluating a term recurse on its depth; this bound keeps every one of
# them well inside Python's default recursion limit.
MAX_TERM_DEPTH = 256


def parse_term(text: str, variables: Sequence[str]) -> Term:
    """Parse prefix term syntax: `and(x, or(y, one()))`.  A term nested
    more than `MAX_TERM_DEPTH` applications deep is a TermError."""
    tokens: list[str] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise TermError(f"bad character in term at offset {pos}: {text[pos:]!r}")
            break
        tokens.append(m.group(1))
        pos = m.end()
    var_index = {v: i for i, v in enumerate(variables)}

    def parse(at: int, depth: int) -> tuple[Term, int]:
        if at >= len(tokens):
            raise TermError("unexpected end of term")
        tok = tokens[at]
        if tok in "(),":
            raise TermError(f"unexpected {tok!r} in term")
        if at + 1 < len(tokens) and tokens[at + 1] == "(":
            if depth == MAX_TERM_DEPTH:
                raise TermError(f"term nested more than {MAX_TERM_DEPTH} applications deep")
            args: list[Term] = []
            at += 2
            if at < len(tokens) and tokens[at] == ")":
                return App(tok, ()), at + 1
            while True:
                arg, at = parse(at, depth + 1)
                args.append(arg)
                if at >= len(tokens):
                    raise TermError("unclosed application")
                if tokens[at] == ")":
                    return App(tok, tuple(args)), at + 1
                if tokens[at] != ",":
                    raise TermError(f"expected ',' or ')', got {tokens[at]!r}")
                at += 1
        if tok not in var_index:
            raise TermError(f"undeclared variable: {tok}")
        return Var(var_index[tok]), at + 1

    term, end = parse(0, 0)
    if end != len(tokens):
        raise TermError(f"trailing tokens in term: {tokens[end:]}")
    return term


@dataclass(frozen=True)
class Equation:
    """lhs ≈ rhs, quantified over exactly the declared variable list."""

    lhs: Term
    rhs: Term
    variables: tuple[str, ...]
    label: str = ""
    # the indices of the variables that occur, ascending
    used: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        used = sorted(term_variables(self.lhs) | term_variables(self.rhs))
        if used and used[-1] >= len(self.variables):
            raise TermError("equation uses an undeclared variable index")
        object.__setattr__(self, "used", tuple(used))

    def render(self) -> str:
        return " = ".join(render_terms((self.lhs, self.rhs), self.variables))


@dataclass(frozen=True)
class EquationSet:
    name: str
    equations: tuple[Equation, ...]

    def __post_init__(self):
        if not self.name:
            raise ValueError("equation set needs a non-empty name")

    def labels(self) -> tuple[str, ...]:
        out = []
        for eq in self.equations:
            if eq.label and eq.label not in out:
                out.append(eq.label)
        return tuple(out)


def _app_error(term: App, arity: Optional[int]) -> TermError:
    """The error of an application whose symbol has `arity`, None for a
    symbol outside the signature, when that is not its argument count."""
    if arity is None:
        return TermError(f"unknown symbol: {term.symbol}")
    return TermError(f"arity mismatch for {term.symbol}: signature says {arity}, "
                     f"term has {len(term.args)}")


def eval_term(alg: FiniteAlgebra, term: Term, binding: dict[int, str]) -> str:
    """Structural evaluation: variables project, applications evaluate
    their subterms and then do a single table lookup."""
    if isinstance(term, Var):
        try:
            value = binding[term.index]
        except KeyError:
            raise TermError(f"unbound variable index {term.index}") from None
        if value not in alg.index_of:
            raise UnknownElement(f"unknown element: {value}")
        return value
    arity = alg.signature.by_name.get(term.symbol)
    if arity != len(term.args):
        raise _app_error(term, arity)
    return alg.apply(term.symbol, *[eval_term(alg, a, binding) for a in term.args])


@dataclass(frozen=True)
class SatisfactionResult:
    holds: bool
    counterexample: Optional[dict[str, str]] = None


_HOLDS = SatisfactionResult(True)

# An identity holds iff it holds under every assignment of the variables
# that occur in it, so bindings range over those, U, and are numbered
# row-major (the first variable most significant): binding t gives U[j]
# the carrier index (t // k**(m-1-j)) % k, m = |U|.  A declared variable
# outside U takes index 0; the first violating binding over the declared
# variables then sets it to 0 too, so the report is unchanged.
#
# The laws with one U form a *group*: their sides are compiled into one
# program, in which a subterm shared between or within laws is one node,
# and the group is planned once and run once per range.  After each range
# every live law compares its two sides; a law that fails records its
# first counterexample and leaves the group.  Every node is still
# computed to the group's last range, so a group with failing laws costs
# at most what it costs when every law holds.
#
# A block is the k consecutive bindings in which only the last variable
# of U changes.  A node that does not depend on that variable is *outer*
# and holds one value per block; every other node is *full* and holds one
# per binding.  Groups are checked over ranges of whole blocks: the
# first range is short, so an early counterexample costs little, and
# every later one is long, so a law that holds pays each node's fixed
# cost a few times, while the length bounds the memory of the per-node
# vectors.
_FIRST_RANGE = 64  # bindings, rounded down to whole blocks, at least one
_MAX_RANGE = 4096
# A group is checked, and its program dropped, once it holds this many
# nodes: a range then holds at most this many vectors beyond those of the
# law that filled the group, however many laws are checked.
_MAX_NODES = 128

# step codes of a group's plan (see _plan)
_LAST, _VAR, _CONST, _UNARY, _JOIN, _BLOCKS, _TABLE = range(7)
_UNKNOWN = (None, None)  # the (table, arity) of a symbol outside the signature


def _compile(ops: dict[str, tuple], term: Term, n: int, slots: dict,
             program: list[tuple], compiled: dict[int, int]) -> int:
    """Append the nodes of `term` not yet in `program` to it, children
    first, and return the slot of its value.  A node is (None, variable
    index) or (table, argument slots); `slots` maps the variable index or
    (symbol, argument slots) of each node to its slot, so a repeated
    subterm has one.  `compiled` maps the identity of each application
    already compiled to its slot, so a term object met again is not
    walked again; the caller keeps every such term alive.  `ops` maps
    each symbol to its (table, arity).  Raises the TermError that
    eval_term would raise first on this term (pre-order, left to
    right); a term met again raised none the first time."""
    if type(term) is Var:
        index = term.index
        if not 0 <= index < n:
            raise TermError(f"unbound variable index {index}")
        slot = slots.get(index)
        if slot is None:
            slots[index] = slot = len(program)
            program.append((None, index))
        return slot
    ident = id(term)
    slot = compiled.get(ident)
    if slot is not None:
        return slot
    table, arity = ops.get(term.symbol, _UNKNOWN)
    if arity != len(term.args):
        raise _app_error(term, arity)
    arg_slots = []  # a loop: before Python 3.12 a comprehension is a function call
    for a in term.args:
        arg_slots.append(_compile(ops, a, n, slots, program, compiled))
    args = tuple(arg_slots)
    key = term.symbol, args
    slot = slots.get(key)
    if slot is None:
        slots[key] = slot = len(program)
        program.append((table, args))
    compiled[ident] = slot
    return slot


def _shared(rows: dict, code: int, table: Sequence[int], transposed: bool, make):
    """What steps of kind `code` read of a table, made on first use."""
    key = (code, id(table), transposed)
    if key not in rows:
        rows[key] = make()
    return rows[key]


def _plan(program: list[tuple], used: Sequence[int], k: int,
          rows: dict) -> tuple[list[tuple], list[bool]]:
    """One pass over a compiled program: each node's step for `_run`, and
    whether it is full.  `rows` holds what the steps read of each table,
    keyed by step code, table identity and orientation, so that every
    group of one check builds it once.  A binary node whose outer
    argument is its second reads the table with its arguments swapped:
    `_JOIN` its columns, `_BLOCKS` the rows of a column-major copy."""
    last = used[-1] if used else None
    stride = {v: k ** (len(used) - 2 - j) for j, v in enumerate(used[:-1])}
    steps: list[tuple] = []
    full: list[bool] = []
    for table, arg in program:
        if table is None:
            is_full = arg == last
            step = (_LAST, None, None) if is_full else (_VAR, stride[arg], None)
        elif len(arg) == 2 and full[arg[0]] != full[arg[1]] and k * k > PACK_LIMIT:
            is_full, transposed = True, full[arg[0]]
            outer, inner = arg[::-1] if transposed else arg
            if k <= PACK_LIMIT and program[inner][0] is None:
                # the full argument is the last variable: each block is
                # the table row (or column) of the outer value
                step = (_JOIN, _shared(rows, _JOIN, table, transposed, lambda: [
                    bytes(table[r::k] if transposed else table[r * k:(r + 1) * k])
                    for r in range(k)]), outer)
            else:
                step = (_BLOCKS, _shared(rows, _BLOCKS, table, transposed, lambda: Rows(
                    [v for r in range(k) for v in table[r::k]] if transposed else table, k, k)),
                    (outer, inner))
        elif len(arg) == 1:
            is_full = full[arg[0]]
            step = (_UNARY, _shared(rows, _UNARY, table, False, lambda: as_row(table, k)), arg[0])
        elif not arg:
            is_full, step = False, (_CONST, table[0], None)
        else:
            # each argument, spread to full if the node is full, weighted
            # by its row-major stride: the sum indexes the table as one row
            is_full = any(full[a] for a in arg)
            n = k ** len(arg)
            step = (_TABLE, _shared(rows, _TABLE, table, False, lambda: (
                as_row(table, n), [n // k ** (j + 1) for j in range(len(arg))], n)),
                tuple((a, full[a] or not is_full) for a in arg))
        steps.append(step)
        full.append(is_full)
    return steps, full


def _run(steps: list[tuple], k: int, first: int, blocks: int) -> list:
    """The vector of every node over blocks first..first+blocks-1, made by
    `core.pack`: one value per block for an outer node, one per binding,
    block after block, for a full one.  The last variable is the carrier
    repeated; another variable or a constant is one value per block.  A
    unary node is one gather.  A binary node on one outer and one full
    argument, when its table has more than `PACK_LIMIT` cells, takes each
    block from the row of the outer value: a join of prebuilt rows when
    the full argument is the last variable and the carrier fits in bytes,
    else one gather per block.  Any other node spreads its outer
    arguments to full if it is full, and gathers its table at the
    stride-weighted sum of its arguments: with at most `PACK_LIMIT` cells
    that is one translate for the whole range."""
    values: list = []
    for code, x, arg in steps:
        if code == _LAST:
            value = pack(range(k), k) * blocks
        elif code == _VAR:
            value = pack([(b // x) % k for b in range(first, first + blocks)], k)
        elif code == _CONST:
            value = pack((x,), k) * blocks
        elif code == _UNARY:
            value = gather(x, values[arg])
        elif code == _JOIN:
            value = bytearray().join(map(x.__getitem__, values[arg]))
        elif code == _BLOCKS:
            value = gather_blocks(x, values[arg[0]], values[arg[1]], k)
        else:  # _TABLE
            row, weights, n = x
            cols = [values[a] if kept else spread(values[a], k) for a, kept in arg]
            value = pack(gather(row, weighted_sum(cols, weights, n, len(cols[0]))), k)
        values.append(value)
    return values


def _check_group(alg: FiniteAlgebra, equations: Sequence[Equation], used: Sequence[int],
                 program: list[tuple], laws: list[tuple], rows: dict,
                 results: list) -> None:
    """Set results[i] for each law (i, lhs slot, rhs slot) of one group."""
    k = len(alg.carrier)
    steps, full = _plan(program, used, k, rows)
    m = len(used)
    total = k ** (m - 1) if m else 1
    first_range = max(1, _FIRST_RANGE // k)
    max_range = max(1, _MAX_RANGE // k)
    start = 0
    while laws and start < total:
        blocks = min(total - start, max_range if start else first_range)
        values = _run(steps, k, start, blocks)
        live = []
        for law in laws:
            i, lhs, rhs = law
            left, right = values[lhs], values[rhs]
            if full[lhs] != full[rhs]:
                left, right = (left, spread(right, k)) if full[lhs] else (spread(left, k), right)
            if left == right:
                live.append(law)
                continue
            # a side is full once a variable occurs; with none, t is 0
            t = start * k + next(j for j, (a, b) in enumerate(zip(left, right)) if a != b)
            value = {v: (t // k ** (m - 1 - j)) % k for j, v in enumerate(used)}
            results[i] = SatisfactionResult(False, {
                name: alg.carrier[value.get(j, 0)]
                for j, name in enumerate(equations[i].variables)})
        laws = live
        start += blocks
        del values  # before the next range's vectors are built
    for i, _, _ in laws:
        results[i] = _HOLDS


def _check_laws(alg: FiniteAlgebra, equations: Sequence[Equation]) -> list[SatisfactionResult]:
    """The verdict of each law, in order.  The laws are compiled in order,
    each into the open group of the variables it uses, so the first
    TermError raised is the first in law order, and in pre-order within
    the law, lhs first.  A group is checked when it reaches `_MAX_NODES`
    nodes, and every group left open after the last law; the groups
    share the table rows that their plans build."""
    ops = {symbol: (table, arity)
           for (symbol, arity), table in zip(alg.signature.symbols, alg.tables)}
    rows: dict = {}
    results: list = [None] * len(equations)
    groups: dict[tuple[int, ...], tuple[dict, list, list, dict]] = {}
    for i, eq in enumerate(equations):
        if eq.used not in groups:
            groups[eq.used] = ({}, [], [], {})
        slots, program, laws, compiled = groups[eq.used]
        n = len(eq.variables)
        laws.append((i, _compile(ops, eq.lhs, n, slots, program, compiled),
                     _compile(ops, eq.rhs, n, slots, program, compiled)))
        if len(program) >= _MAX_NODES:
            _check_group(alg, equations, eq.used, program, laws, rows, results)
            del groups[eq.used]
    for used, (_, program, laws, _) in groups.items():
        _check_group(alg, equations, used, program, laws, rows, results)
    return results


def satisfies(alg: FiniteAlgebra, eq: Equation) -> SatisfactionResult:
    """Check every binding of the declared variables.  The first violating
    binding in lexicographic order is reported, every declared variable
    named.

    Only the variables that occur in the equation are bound: declared
    ones that do not occur take the first carrier element.  This is
    `satisfies_all` on one law: both sides are compiled into one program,
    each shared subterm one node, and evaluated into packed vectors over
    ranges of whole blocks of the last variable that occurs."""
    return _check_laws(alg, (eq,))[0]


@dataclass(frozen=True)
class SatisfactionReport:
    algebra: str
    equation_set: str
    results: tuple[tuple[Equation, SatisfactionResult], ...]

    @property
    def variety_member(self) -> bool:
        return all(r.holds for _, r in self.results)


def satisfies_all(alg: FiniteAlgebra, eqs: EquationSet) -> SatisfactionReport:
    """Per-equation verdicts in equation order, each as `satisfies` gives
    it; "variety member" iff all pass.  The set is checked as one program
    per group of laws that use the same variables: a subterm shared
    between laws of a group is one node, the group is compiled and
    planned once and each range is run once for all its live laws.  A
    group holds at most `_MAX_NODES` nodes beyond its last law's, so the
    memory of a range does not grow with the number of laws.  Raises the
    first TermError in equation order."""
    return SatisfactionReport(
        algebra=alg.name,
        equation_set=eqs.name,
        results=tuple(zip(eqs.equations, _check_laws(alg, eqs.equations))),
    )

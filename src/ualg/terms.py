"""Terms, equations, term evaluation, and the satisfaction check.

Term syntax in files and on the CLI: prefix applications with parentheses
and commas, variables bare, nullary symbols written name().
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional, Sequence, Union

from .core import FiniteAlgebra, UalgError, UnknownElement, apply_columns


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


def term_to_str(term: Term, variables: Sequence[str]) -> str:
    if isinstance(term, Var):
        return variables[term.index]
    return f"{term.symbol}({', '.join(term_to_str(a, variables) for a in term.args)})"


_TOKEN_RE = re.compile(r"\s*([A-Za-z][A-Za-z0-9_]*|[(),])")


def parse_term(text: str, variables: Sequence[str]) -> Term:
    """Parse prefix term syntax: `and(x, or(y, one()))`."""
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

    def parse(at: int) -> tuple[Term, int]:
        if at >= len(tokens):
            raise TermError("unexpected end of term")
        tok = tokens[at]
        if tok in "(),":
            raise TermError(f"unexpected {tok!r} in term")
        if at + 1 < len(tokens) and tokens[at + 1] == "(":
            args: list[Term] = []
            at += 2
            if at < len(tokens) and tokens[at] == ")":
                return App(tok, ()), at + 1
            while True:
                arg, at = parse(at)
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

    term, end = parse(0)
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

    def __post_init__(self):
        used = term_variables(self.lhs) | term_variables(self.rhs)
        if used and max(used) >= len(self.variables):
            raise TermError("equation uses an undeclared variable index")

    def render(self) -> str:
        return f"{term_to_str(self.lhs, self.variables)} = {term_to_str(self.rhs, self.variables)}"


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


class EvalStats:
    """Counts table lookups (one per application node, by construction)."""

    def __init__(self):
        self.lookups = 0


def _check_app(alg: FiniteAlgebra, term: App) -> None:
    """The TermError for an unknown symbol or a wrong argument count."""
    if term.symbol not in alg.signature.by_name:
        raise TermError(f"unknown symbol: {term.symbol}")
    if alg.signature.arity(term.symbol) != len(term.args):
        raise TermError(
            f"arity mismatch for {term.symbol}: signature says "
            f"{alg.signature.arity(term.symbol)}, term has {len(term.args)}"
        )


def eval_term(
    alg: FiniteAlgebra,
    term: Term,
    binding: dict[int, str],
    stats: Optional[EvalStats] = None,
) -> str:
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
    _check_app(alg, term)
    args = [eval_term(alg, a, binding, stats) for a in term.args]
    if stats is not None:
        stats.lookups += 1
    return alg.apply(term.symbol, *args)


@dataclass(frozen=True)
class SatisfactionResult:
    holds: bool
    counterexample: Optional[dict[str, str]] = None


# Bindings are numbered row-major over the declared variables (the first
# variable most significant), so binding t gives variable i the carrier
# index (t // k**(n-1-i)) % k.  Equations are checked over consecutive
# ranges of t: the first range is short, so an early counterexample costs
# little, and each later one is as long as all before it, up to a cap
# that bounds the memory of the per-node value lists.
_FIRST_RANGE = 64
_MAX_RANGE = 4096


def _compile(
    alg: FiniteAlgebra,
    term: Term,
    n: int,
    slots: dict[Term, int],
    program: list[tuple],
) -> int:
    """Append the nodes of `term` not yet in `slots` to `program`, children
    first, and return the slot of its value.  Raises the TermError that
    eval_term would raise first on this term (pre-order, left to right)."""
    slot = slots.get(term)
    if slot is not None:
        return slot
    if isinstance(term, Var):
        if not 0 <= term.index < n:
            raise TermError(f"unbound variable index {term.index}")
        step = (None, len(alg.carrier) ** (n - 1 - term.index))
    else:
        _check_app(alg, term)
        args = tuple(_compile(alg, a, n, slots, program) for a in term.args)
        step = (alg.table(term.symbol), args)
    slots[term] = slot = len(program)
    program.append(step)
    return slot


def _run(program: list[tuple], k: int, start: int, stop: int) -> list[list[int]]:
    """The value list of every program node over bindings start..stop-1."""
    values: list[list[int]] = []
    for table, arg in program:
        if table is None:  # a variable; arg is its stride
            values.append([(t // arg) % k for t in range(start, stop)])
        else:
            values.append(apply_columns(table, k, [values[j] for j in arg], stop - start))
    return values


def satisfies(alg: FiniteAlgebra, eq: Equation) -> SatisfactionResult:
    """Check every binding of the declared variables.  The first violating
    binding in lexicographic order is reported.

    Both sides are evaluated into lists of carrier indices over ranges of
    bindings, each shared subterm once per range."""
    n = len(eq.variables)
    slots: dict[Term, int] = {}
    program: list[tuple] = []
    lhs = _compile(alg, eq.lhs, n, slots, program)
    rhs = _compile(alg, eq.rhs, n, slots, program)
    k = len(alg.carrier)
    total = k**n
    start = 0
    while start < total:
        stop = min(total, start + min(max(start, _FIRST_RANGE), _MAX_RANGE))
        values = _run(program, k, start, stop)
        left, right = values[lhs], values[rhs]
        if left != right:
            t = start + next(j for j, (a, b) in enumerate(zip(left, right)) if a != b)
            named = {
                eq.variables[i]: alg.carrier[(t // k ** (n - 1 - i)) % k] for i in range(n)
            }
            return SatisfactionResult(False, named)
        start = stop
    return SatisfactionResult(True)


@dataclass(frozen=True)
class SatisfactionReport:
    algebra: str
    equation_set: str
    results: tuple[tuple[Equation, SatisfactionResult], ...]

    @property
    def variety_member(self) -> bool:
        return all(r.holds for _, r in self.results)


def satisfies_all(alg: FiniteAlgebra, eqs: EquationSet, workers: int = 1) -> SatisfactionReport:
    """Per-equation verdicts in equation order; "variety member" iff all pass.

    workers is accepted for compatibility and ignored: the check runs in
    one thread, and the result never depends on it.
    """
    return SatisfactionReport(
        algebra=alg.name,
        equation_set=eqs.name,
        results=tuple((eq, satisfies(alg, eq)) for eq in eqs.equations),
    )

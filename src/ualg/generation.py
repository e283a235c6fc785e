"""Subalgebra generation by stage iteration, and clone fragments."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable

from .core import BudgetExceeded, FiniteAlgebra, Subuniverse, UalgError, UnknownElement
from .core import close, is_subuniverse, power_exceeds
from .terms import App, Term, Var


@dataclass(frozen=True)
class GenerationTrace:
    """The stage sets A_0 ⊆ A_1 ⊆ ... up to the fixpoint.  Stages grow
    strictly; the recorded final stage is the fixpoint itself."""

    generators: tuple[str, ...]
    stages: tuple[tuple[str, ...], ...]


@dataclass(frozen=True)
class GenerationResult:
    subuniverse: Subuniverse
    trace: GenerationTrace

    @property
    def members(self) -> tuple[str, ...]:
        return self.subuniverse.members

    @property
    def is_empty(self) -> bool:
        # possible only for a signature with no nullary symbols and an
        # empty seed; the carrier of an algebra proper is non-empty
        return not self.subuniverse.members


def generate(alg: FiniteAlgebra, seed: Iterable[str]) -> GenerationResult:
    """Least subuniverse containing the seed and all nullary values,
    with the full stage trace.  Terminates in at most |carrier| stages."""
    seed = list(seed)
    for e in seed:
        if e not in alg.index_of:
            raise UnknownElement(f"unknown seed element: {e}")
    starts = {alg.index_of[e] for e in seed}
    starts.update(alg.table(sym)[0] for sym in alg.signature.nullary_names())
    members, _, rounds, _ = close(alg, [(i,) for i in sorted(starts)])

    def stage(count: int) -> tuple[str, ...]:
        idx = {m[0] for m in members[:count]}
        return tuple(e for i, e in enumerate(alg.carrier) if i in idx)

    stages = tuple(stage(count) for count in rounds)
    trace = GenerationTrace(
        generators=tuple(sorted(set(seed), key=alg.index_of.get)),
        stages=stages,
    )
    return GenerationResult(subuniverse=Subuniverse(parent=alg, members=stages[-1]), trace=trace)


MAX_SUBUNIVERSE_CARRIER = 5  # the largest carrier that `all_subuniverses` enumerates


def all_subuniverses(alg: FiniteAlgebra) -> tuple[tuple[str, ...], ...]:
    """Every subuniverse, by exhaustive subset enumeration.  Guarded by a
    carrier-size budget since the enumeration is exponential."""
    if len(alg.carrier) > MAX_SUBUNIVERSE_CARRIER:
        raise BudgetExceeded(
            f"subuniverse lattice enumeration refused for carrier size {len(alg.carrier)}"
        )
    out = []
    for r in range(len(alg.carrier) + 1):
        for subset in itertools.combinations(alg.carrier, r):
            ok, _ = is_subuniverse(alg, subset)
            if ok:
                out.append(subset)
    return tuple(out)


@dataclass(frozen=True)
class CloneMember:
    table: tuple[int, ...]
    witness: Term


@dataclass(frozen=True)
class CloneFragment:
    """All n-ary term operations found before the budget ran out; members
    are sorted by value table, each with one witnessing term."""

    algebra: str
    arity: int
    members: tuple[CloneMember, ...]
    complete: bool

    def tables(self) -> set[tuple[int, ...]]:
        return {m.table for m in self.members}


# The most cells, n * k**n, that the n projections of a clone fragment
# over k elements may hold; beyond it clone_n raises BudgetExceeded
# before it builds them.
MAX_PROJECTION_CELLS = 1 << 20


def clone_n(alg: FiniteAlgebra, n: int, budget: int = 1_000_000) -> CloneFragment:
    """The n-ary clone fragment: closure of the n projections under
    composition with the basic operations, tracked as value tables and
    closed by `core.close`.  budget caps the composition attempts
    actually made (the commutative skip makes fewer, so a budget-cut
    fragment can gain members); on overrun the partial fragment is
    returned with complete=False.  A complete fragment does not depend
    on the budget.  Projections of more than MAX_PROJECTION_CELLS cells
    raise BudgetExceeded whatever the budget."""
    if n < 1:
        raise UalgError("clone arity must be >= 1")
    k = len(alg.carrier)
    if power_exceeds(k, n, MAX_PROJECTION_CELLS // n):  # n * k**n cells
        raise BudgetExceeded(f"clone arity {n} over {k} elements: the projections "
                             f"need more than {MAX_PROJECTION_CELLS} cells")
    # a repeated projection column (one element) keeps its last variable
    # projection i holds the i-th argument of every row-major n-tuple
    projections = {tuple(v for v in range(k) for _ in range(k ** (n - 1 - i))) * k**i: Var(i)
                   for i in range(n)}
    tables, derivations, _, complete = close(alg, list(projections), budget)
    terms = list(projections.values())
    for sym, args in derivations[len(terms):]:
        terms.append(App(sym, tuple(terms[a] for a in args)))
    members = tuple(CloneMember(table=t, witness=w) for t, w in sorted(zip(tables, terms)))
    return CloneFragment(algebra=alg.name, arity=n, members=members, complete=complete)

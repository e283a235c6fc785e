"""Subalgebra generation by stage iteration, clone fragments, and
finite-case generation reports."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional

from .core import BudgetExceeded, FiniteAlgebra, Subuniverse, UalgError, UnknownElement
from .core import apply_columns, arg_columns, is_subuniverse, semi_naive_runs
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
    current: set[int] = set()
    for e in seed:
        if e not in alg.index_of:
            raise UnknownElement(f"unknown seed element: {e}")
        current.add(alg.index_of[e])
    for sym in alg.signature.nullary_names():
        current.add(alg.table(sym)[0])

    def as_elements(idx: set[int]) -> tuple[str, ...]:
        return tuple(e for i, e in enumerate(alg.carrier) if i in idx)

    # members in insertion order, so those new in a round form a suffix
    found = sorted(current)
    stages = [as_elements(current)]
    new_from = 0
    while new_from < len(found):
        count = len(found)
        for sym, arity in alg.signature.symbols:
            table = alg.table(sym)
            for prefix, low in semi_naive_runs(count, new_from, arity):
                cols = [[found[i]] * (count - low) for i in prefix] + [found[low:count]]
                for out in apply_columns(table, len(alg.carrier), cols):
                    if out not in current:
                        current.add(out)
                        found.append(out)
        new_from = count
        if len(found) > count:
            stages.append(as_elements(current))
    sub = Subuniverse(parent=alg, members=as_elements(current))
    trace = GenerationTrace(
        generators=tuple(sorted(set(seed), key=alg.index_of.get)),
        stages=tuple(stages),
    )
    return GenerationResult(subuniverse=sub, trace=trace)


def directed_union_check(alg: FiniteAlgebra, seed: Iterable[str], max_exhaustive: int = 12) -> bool:
    """generate(seed) must equal the union of generate(F) over finite
    F ⊆ seed.  All subsets are enumerated when |seed| <= max_exhaustive,
    otherwise singletons, pairs, and the full set are sampled."""
    seed = list(dict.fromkeys(seed))
    whole = set(generate(alg, seed).members)
    union: set[str] = set()
    if len(seed) <= max_exhaustive:
        subsets: Iterable[tuple[str, ...]] = itertools.chain.from_iterable(
            itertools.combinations(seed, r) for r in range(len(seed) + 1)
        )
    else:
        subsets = itertools.chain(
            [()],
            itertools.combinations(seed, 1),
            itertools.combinations(seed, 2),
            [tuple(seed)],
        )
    for sub in subsets:
        union |= set(generate(alg, sub).members)
    return union == whole


def all_subuniverses(alg: FiniteAlgebra, max_size: int = 5) -> tuple[tuple[str, ...], ...]:
    """Every subuniverse, by exhaustive subset enumeration.  Guarded by a
    carrier-size budget since the enumeration is exponential."""
    if len(alg.carrier) > max_size:
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


def clone_n(alg: FiniteAlgebra, n: int, budget: int = 1_000_000) -> CloneFragment:
    """The n-ary clone fragment: closure of the n projections under
    composition with the basic operations, tracked as value tables.

    Each round composes only argument tuples that hold a member new in
    the round before, one row-major run of last arguments at a time, and
    skips f(b, a) after f(a, b) for a commutative binary f.  budget caps
    the composition attempts actually made (the skip makes fewer, so a
    budget-cut fragment can gain members); on overrun the partial
    fragment is returned with complete=False.  A complete fragment does
    not depend on the budget."""
    if n < 1:
        raise UalgError("clone arity must be >= 1")
    k = len(alg.carrier)
    # insertion-ordered, so the members new in a round form a suffix;
    # skipping tuples of older members leaves every first witness as is
    found: dict[tuple[int, ...], Term] = {}
    for i, col in enumerate(arg_columns(k, n)):
        found[tuple(col)] = Var(i)

    size = k**n
    attempts = 0
    complete = True
    new_from = 0
    while new_from < len(found) and complete:
        tables, terms = list(found), list(found.values())
        count = len(tables)
        flat = [v for t in tables for v in t]
        for sym, arity in alg.signature.symbols:
            table = alg.table(sym)
            if arity == 0:
                const = (table[0],) * size
                if const not in found:
                    found[const] = App(sym, ())
                continue
            # f(b, a) = f(a, b) for commutative f, and (a, b) comes first
            commutative = arity == 2 and all(
                table[a * k + b] == table[b * k + a] for a in range(k) for b in range(a))
            for prefix, low in semi_naive_runs(count, new_from, arity):
                if commutative:
                    low = max(low, prefix[0])
                # the run is cut at the exact attempt the budget allows
                length = min(count - low, budget - attempts)
                attempts += length
                cols = [tables[c] * length for c in prefix]
                cols.append(flat[low * size:(low + length) * size])
                outs = apply_columns(table, k, cols)
                for last, composed in enumerate(zip(*[iter(outs)] * size), low):
                    if composed not in found:
                        found[composed] = App(sym, tuple(terms[c] for c in prefix + (last,)))
                if length < count - low:
                    complete = False
                    break
            if not complete:
                break
        new_from = count
    members_sorted = tuple(
        CloneMember(table=t, witness=w) for t, w in sorted(found.items())
    )
    return CloneFragment(algebra=alg.name, arity=n, members=members_sorted, complete=complete)


@dataclass(frozen=True)
class FinitenessReport:
    """Finite-case generation facts: a minimum generating set and the
    subuniverse lattice when the carrier is small enough to enumerate it.
    (Every subset of a finite algebra generates a finite subalgebra.)"""

    algebra: str
    minimum_generating_set: tuple[str, ...]
    subuniverse_lattice: Optional[tuple[tuple[str, ...], ...]]


def finiteness_report(alg: FiniteAlgebra, lattice_max_size: int = 5) -> FinitenessReport:
    """Exhaustive minimum-generating-set search by increasing cardinality,
    plus the subuniverse lattice for carriers of size <= lattice_max_size."""
    minimum: Optional[tuple[str, ...]] = None
    full = set(alg.carrier)
    for r in range(len(alg.carrier) + 1):
        for subset in itertools.combinations(alg.carrier, r):
            if set(generate(alg, subset).members) == full:
                minimum = subset
                break
        if minimum is not None:
            break
    assert minimum is not None  # the full carrier always generates
    lattice = None
    if len(alg.carrier) <= lattice_max_size:
        lattice = all_subuniverses(alg, max_size=lattice_max_size)
    return FinitenessReport(
        algebra=alg.name,
        minimum_generating_set=minimum,
        subuniverse_lattice=lattice,
    )

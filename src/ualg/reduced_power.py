"""A computable proper extension of a finite algebra: eventually periodic
sequences over the carrier, identified when they agree on a cofinite set
of indices.  This is a reduced power over the cofinite (Frechet) filter,
restricted to the eventually periodic fragment -- not an ultrapower and
not an enlargement.  Equality is decidable, operations are pointwise and
computable, and finitely generated closures are finite; the construction
preserves exactly the equational fragment (equations are Horn sentences,
which survive reduced powers)."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .core import BudgetExceeded, FiniteAlgebra, UalgError
from .core import MAX_MEMBER_CELLS, close, induced_tables, too_many_members
from .morphisms import Morphism


@dataclass(frozen=True)
class EpSequence:
    """Canonical form of an eventually periodic sequence: primitive
    period, minimal preperiod (a preperiod tail matching the period is
    rotated into it).  Two sequences over the same base are equal iff
    their canonical forms coincide, i.e. iff they agree at every index;
    a genuinely different preperiod entry stays visible."""

    base: FiniteAlgebra
    preperiod: tuple[str, ...]
    period: tuple[str, ...]

    def at(self, index: int) -> str:
        if index < len(self.preperiod):
            return self.preperiod[index]
        return self.period[(index - len(self.preperiod)) % len(self.period)]

    def prefix(self, length: int) -> tuple[str, ...]:
        return tuple(self.at(i) for i in range(length))

    @property
    def is_constant(self) -> bool:
        return not self.preperiod and len(self.period) == 1

    def render(self) -> str:
        pre = f"pre {' '.join(self.preperiod)} | " if self.preperiod else ""
        return f"{pre}per {' '.join(self.period)}"


def canonicalize(
    base: FiniteAlgebra, preperiod: Sequence[str], period: Sequence[str]
) -> EpSequence:
    """Minimal primitive period, then minimal preperiod (the preperiod
    tail is absorbed into the period by rotation while it matches)."""
    if not period:
        raise UalgError("period must be non-empty")
    for e in itertools.chain(preperiod, period):
        if e not in base.index_of:
            raise UalgError(f"unknown element: {e}")
    per = list(period)
    for d in range(1, len(per) + 1):
        if len(per) % d == 0 and per == per[:d] * (len(per) // d):
            per = per[:d]
            break
    pre = list(preperiod)
    while pre and pre[-1] == per[-1]:
        pre.pop()
        per = [per[-1]] + per[:-1]
    return EpSequence(base=base, preperiod=tuple(pre), period=tuple(per))


def parse_ep_sequence(base: FiniteAlgebra, text: str) -> EpSequence:
    """Text syntax: `pre b1 b2 | per b2 b1`; the pre part is optional."""
    text = text.strip()
    pre: list[str] = []
    if "|" in text:
        pre_part, per_part = text.split("|", 1)
        pre_tokens = pre_part.split()
        if not pre_tokens or pre_tokens[0] != "pre":
            raise UalgError("expected `pre ...` before `|`")
        pre = pre_tokens[1:]
    else:
        per_part = text
    per_tokens = per_part.split()
    if not per_tokens or per_tokens[0] != "per":
        raise UalgError("expected `per ...`")
    return canonicalize(base, pre, per_tokens[1:])


def std_embed(alg: FiniteAlgebra, element: str) -> EpSequence:
    """The standard embedding: a carrier element becomes the constant
    sequence at that element."""
    if element not in alg.index_of:
        raise UalgError(f"unknown element: {element}")
    return EpSequence(base=alg, preperiod=(), period=(element,))


def _window(seqs: Sequence[EpSequence]) -> tuple[int, int]:
    """(max preperiod length, lcm of period lengths): sufficient because a
    pointwise image of eventually periodic sequences is eventually
    periodic with period dividing the lcm."""
    pre = max((len(s.preperiod) for s in seqs), default=0)
    per = 1
    for s in seqs:
        per = math.lcm(per, len(s.period))
    return pre, per


@dataclass(frozen=True)
class GeneratedExtension:
    """The closure of the constant sequences and the adjoined generators
    under pointwise operations, materialized as an ordinary FiniteAlgebra
    over fresh urelements so the rest of the toolkit applies."""

    base: FiniteAlgebra
    generators: tuple[EpSequence, ...]
    members: tuple[EpSequence, ...]
    algebra: FiniteAlgebra
    labels: tuple[tuple[str, EpSequence], ...]  # fresh urelement -> member

    def constants(self) -> tuple[str, ...]:
        """Labels of the standard copy, in base carrier order."""
        return self.algebra.carrier[:len(self.base.carrier)]


def adjoin_generate(
    alg: FiniteAlgebra,
    gens: Iterable[EpSequence],
    budget: int = 200_000,
) -> GeneratedExtension:
    """Closure of constants plus generators under pointwise application.

    The closure is finite: every member has preperiod length at most the
    generators' maximum and period length dividing the lcm of their period
    lengths, since the constants and the generators all repeat from that
    preperiod with that period, and pointwise images keep this.  A
    generator not in canonical form raises UalgError.  Members come
    constants first, in base carrier order, then as `_sort_key` orders.
    The limits are those of `clone_n`: starts past `core.MAX_MEMBER_CELLS`
    cells raise BudgetExceeded before any is built, and so does a closure
    cut by budget, which caps its composition attempts.  A complete one
    composed every argument tuple (half, for a commutative binary symbol)
    or stopped saturated with budget for twice every tuple, so each table
    of arity >= 1 holds at most 2 * budget cells."""
    gens = tuple(gens)
    for g in gens:
        if g.base != alg:
            raise UalgError("generator over a different base algebra")
        if canonicalize(alg, g.preperiod, g.period) != g:
            raise UalgError("generator not canonical")
    pre_bound, per_bound = _window(gens)
    # a member is its window: its carrier indices at positions
    # 0 .. pre_bound+per_bound-1, from which it repeats with period per_bound
    width = pre_bound + per_bound
    if (len(alg.carrier) + len(gens)) * width > MAX_MEMBER_CELLS:
        raise too_many_members()
    starts = [(i,) * width for i in range(len(alg.carrier))]
    starts += [tuple(alg.index_of[g.at(p)] for p in range(width)) for g in gens]
    windows, _, _, complete = close(alg, list(dict.fromkeys(starts)), budget)
    if not complete:
        raise BudgetExceeded("generated extension closure exceeds budget")
    by_window = {w: canonicalize(alg, [alg.carrier[v] for v in w[:pre_bound]],
                                 [alg.carrier[v] for v in w[pre_bound:]]) for w in windows}
    windows.sort(key=lambda w: _sort_key(by_window[w]))
    ordered = [by_window[w] for w in windows]
    fresh = tuple(f"q{i}" for i in range(len(ordered)))
    view = FiniteAlgebra(
        name=f"{alg.name}_ext",
        carrier=fresh,
        signature=alg.signature,
        tables=induced_tables(alg, windows),
    )
    return GeneratedExtension(
        base=alg,
        generators=gens,
        members=tuple(ordered),
        algebra=view,
        labels=tuple(zip(fresh, ordered)),
    )


def _sort_key(s: EpSequence):
    # constants first (in carrier order), then by shape, then pointwise
    idx = s.base.index_of
    return (
        0 if s.is_constant else 1,
        len(s.preperiod),
        len(s.period),
        tuple(idx[e] for e in s.preperiod),
        tuple(idx[e] for e in s.period),
    )


def coordinate_retraction(ext: GeneratedExtension, index: int) -> Morphism:
    """Evaluate every member at one index: a homomorphism of the algebra
    view onto the standard copy, since operations act pointwise, and it
    fixes every constant, since a constant sequence has its value at every
    index.  A genuine retraction in this computable model."""
    if index < 0:
        raise UalgError("index must be >= 0")
    labels, index_of = ext.algebra.carrier, ext.base.index_of  # constants first
    return Morphism(ext.algebra, ext.algebra,
                    tuple(labels[index_of[m.at(index)]] for m in ext.members))


def preservation_suite(alg: FiniteAlgebra, eqs, gens: Iterable[EpSequence],
                       budget: int = 200_000):
    """Check every equation of the set on the generated extension's
    algebra view.  Expected all-pass: equations are preserved by reduced
    powers and by subalgebras.  budget is that of `adjoin_generate`."""
    from .terms import satisfies_all

    base_report = satisfies_all(alg, eqs)
    if not base_report.variety_member:
        raise UalgError(f"{alg.name} does not satisfy {eqs.name} to begin with")
    ext = adjoin_generate(alg, gens, budget=budget)
    return satisfies_all(ext.algebra, eqs)

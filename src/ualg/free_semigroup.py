"""Truncated free semigroups: all nonempty words up to a length bound,
with concatenation left undefined past the bound.  Used to exercise the
retraction-impossibility phenomenon at finite scale."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from .core import BudgetExceeded, UalgError

Word = tuple[str, ...]


@dataclass(frozen=True)
class TruncatedFreeSemigroup:
    generators: tuple[str, ...]
    bound: int

    @cached_property
    def elements(self) -> tuple[Word, ...]:
        """Every nonempty word up to the bound, in length-then-lexicographic
        order; listed on first use."""
        return tuple(
            w
            for length in range(1, self.bound + 1)
            for w in itertools.product(self.generators, repeat=length)
        )

    def concat(self, u: Word, v: Word) -> Optional[Word]:
        """Partial concatenation: None past the bound."""
        if len(u) + len(v) > self.bound:
            return None
        return u + v


def build_truncated(
    generators: list[str], bound: int, budget: Optional[int] = 100_000
) -> TruncatedFreeSemigroup:
    """The truncated free semigroup on `generators` up to `bound`.  Its
    words are listed on first use of `elements`; more than `budget` of
    them raise BudgetExceeded here, and budget None sets no limit, for a
    caller that reads no words."""
    if not generators:
        raise UalgError("need at least one generator")
    if len(set(generators)) != len(generators):
        raise UalgError("duplicate generator")
    if bound < 1:
        raise UalgError("bound must be >= 1")
    if budget is not None:
        # stop once past the budget: a large bound's count is too big to print
        count = 0
        for length in range(1, bound + 1):
            count += len(generators) ** length
            if count > budget:
                words = count if length == bound else f"more than {budget}"
                raise BudgetExceeded(f"{words} words exceeds the {budget} element budget")
    return TruncatedFreeSemigroup(generators=tuple(generators), bound=bound)


def word_str(w: Word) -> str:
    return "".join(w)


@dataclass(frozen=True)
class ForcedStep:
    """A split w = left·right and the value it forces for r(w), or
    (forced=None) the contradiction it leads to, told in `note`."""

    word: Word
    left: Word
    right: Word
    forced: Optional[Word]
    note: str


@dataclass(frozen=True)
class RetractionSearchResult:
    found: Optional[dict[Word, Word]]
    transcript: tuple[ForcedStep, ...]

    @property
    def absent(self) -> bool:
        return self.found is None


def search_bounded_retraction(
    T: TruncatedFreeSemigroup, k: int
) -> RetractionSearchResult:
    """Decide whether a map r from all words of length <= bound onto words
    of length <= k exists that fixes every word of length <= k and has
    r(uv) = r(u)r(v) whenever both uv and r(u)r(v) stay within the bound.

    For k = bound the identity is one.  For k < bound none exists, and
    the first word w of length k+1 shows it: its prefix u = w[:-1] and
    last letter v = w[-1:] are fixed, so r(w) = r(u)r(v) = w, which is
    in bounds but too long for the retract.  The transcript is that one
    step."""
    if k < 1:
        raise UalgError("image bound must be >= 1")
    if k > T.bound:
        raise UalgError("image bound exceeds the semigroup bound")
    if k == T.bound:
        return RetractionSearchResult(found={w: w for w in T.elements}, transcript=())
    w = (T.generators[0],) * (k + 1)
    u, v = w[:-1], w[-1:]
    note = (
        f"r({word_str(w)}) = r({word_str(u)})r({word_str(v)}) = "
        f"{word_str(w)} has length {len(w)} > {k}"
    )
    return RetractionSearchResult(found=None, transcript=(ForcedStep(w, u, v, None, note),))

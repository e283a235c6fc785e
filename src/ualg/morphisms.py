"""Homomorphism checking, exhaustive enumeration by backtracking with
forward checking, retraction search, and isomorphism testing."""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Literal, Optional, Sequence

from .core import BudgetExceeded, FiniteAlgebra, Subuniverse, UalgError, UnknownSymbol
from .core import apply_columns, arg_columns


class SignatureMismatch(UalgError):
    pass


def _require_shared_signature(a: FiniteAlgebra, b: FiniteAlgebra) -> None:
    if not a.signature.matches(b.signature):
        raise SignatureMismatch(
            f"signatures of {a.name} and {b.name} do not match by (name, arity)"
        )


@dataclass(frozen=True)
class Morphism:
    """A total map between carriers, stored as the image tuple aligned
    with the source carrier order.  Status flags are recomputed from the
    map, never trusted."""

    source: FiniteAlgebra
    target: FiniteAlgebra
    images: tuple[str, ...]

    def __post_init__(self):
        if len(self.images) != len(self.source.carrier):
            raise ValueError("morphism map must be total on the source carrier")
        for e in self.images:
            if e not in self.target.index_of:
                raise ValueError(f"image not in target carrier: {e}")

    @classmethod
    def from_dict(
        cls, source: FiniteAlgebra, target: FiniteAlgebra, mapping: dict[str, str]
    ) -> "Morphism":
        return cls(source, target, tuple(mapping[e] for e in source.carrier))

    def __call__(self, element: str) -> str:
        return self.images[self.source.index_of[element]]

    def as_dict(self) -> dict[str, str]:
        return dict(zip(self.source.carrier, self.images))

    @cached_property
    def is_homomorphism(self) -> bool:
        return check_homomorphism(self)[0]

    @property
    def is_injective(self) -> bool:
        return len(set(self.images)) == len(self.images)

    @property
    def is_surjective(self) -> bool:
        return set(self.images) == set(self.target.carrier)

    @property
    def is_idempotent(self) -> bool:
        """r(r(x)) = r(x); only meaningful for endomorphisms."""
        if self.source is not self.target and self.source != self.target:
            raise ValueError("idempotence is defined for endomorphisms only")
        return all(self(self(e)) == self(e) for e in self.source.carrier)

    def range_set(self) -> frozenset[str]:
        return frozenset(self.images)

    def compose(self, other: "Morphism") -> "Morphism":
        """self after other (other's target must be self's source)."""
        if other.target != self.source:
            raise ValueError("composition mismatch")
        return Morphism(other.source, self.target, tuple(self(e) for e in other.images))


@dataclass(frozen=True)
class HomWitness:
    symbol: str
    args: tuple[str, ...]
    mapped_result: str
    result_of_mapped: str


def check_homomorphism(m: Morphism) -> tuple[bool, Optional[HomWitness]]:
    """f(o(z...)) = o(f(z)...) for every symbol and argument tuple; on
    failure the first offending application is returned."""
    src, dst = m.source, m.target
    _require_shared_signature(src, dst)
    img = [dst.index_of[e] for e in m.images]
    for sym, arity in src.signature.symbols:
        cols = arg_columns(len(src.carrier), arity)
        lhs = [img[v] for v in apply_columns(src.table(sym), len(src.carrier), cols)]
        mapped = [[img[a] for a in col] for col in cols]
        rhs = apply_columns(dst.table(sym), len(dst.carrier), mapped)
        if lhs != rhs:
            t = next(t for t, (a, b) in enumerate(zip(lhs, rhs)) if a != b)
            args = tuple(src.carrier[col[t]] for col in cols)
            return False, HomWitness(sym, args, dst.carrier[lhs[t]], dst.carrier[rhs[t]])
    return True, None


@dataclass(frozen=True)
class PartialMorphism:
    """A map defined on a subset of the source carrier."""

    source: FiniteAlgebra
    target: FiniteAlgebra
    mapping: tuple[tuple[str, str], ...]

    @classmethod
    def from_dict(
        cls, source: FiniteAlgebra, target: FiniteAlgebra, mapping: dict[str, str]
    ) -> "PartialMorphism":
        items = tuple(sorted(mapping.items(), key=lambda kv: source.index_of[kv[0]]))
        return cls(source, target, items)

    def as_dict(self) -> dict[str, str]:
        return dict(self.mapping)


def check_partial_homomorphism(m: PartialMorphism) -> tuple[bool, Optional[HomWitness]]:
    """Guarded condition: whenever every argument and the result of an
    application lie in the domain, the map must commute with it."""
    _require_shared_signature(m.source, m.target)
    mapping = m.as_dict()
    for e in mapping:
        if e not in m.source.index_of:
            raise KeyError(f"domain element not in source carrier: {e}")
    domain = set(mapping)
    for sym, arity in m.source.signature.symbols:
        for args in itertools.product(sorted(domain, key=m.source.index_of.get), repeat=arity):
            result = m.source.apply(sym, *args)
            if result not in domain:
                continue
            lhs = mapping[result]
            rhs = m.target.apply(sym, *(mapping[a] for a in args))
            if lhs != rhs:
                return False, HomWitness(sym, args, lhs, rhs)
    return True, None


def _search_cells(src: FiniteAlgebra, dst: FiniteAlgebra) -> tuple[list[int], list[list]]:
    """Source elements in fail-first order (most table-cell mentions
    first; results are sorted later, so the order is never observable),
    and per source element its cells as (output, target table, args)."""
    n = len(src.carrier)
    mentions: Counter = Counter()
    by_elem: list[list] = [[] for _ in range(n)]
    for sym, arity in src.signature.symbols:
        cols = arg_columns(n, arity)
        outs = apply_columns(src.table(sym), n, cols)
        for col in cols:
            mentions.update(col)
        mentions.update(outs)
        d_table = dst.table(sym)
        # a list, not a lazy zip: over a lazy zip the cells kept the
        # collector busy with full collections (3x slower on Z1200)
        rows = list(zip(*cols)) if cols else [()]
        for args, out in zip(rows, outs):
            cell = (out, d_table, args)
            for a in {*args, out}:
                by_elem[a].append(cell)
    return sorted(range(n), key=lambda i: (-mentions[i], i)), by_elem


def _consistent(cells: list, assignment: list[Optional[int]], k: int) -> bool:
    """Every cell whose arguments and output are all assigned commutes."""
    for out, d_table, args in cells:
        v = assignment[out]
        if v is None:
            continue
        idx = 0
        for a in args:
            w = assignment[a]
            if w is None:
                break
            idx = idx * k + w
        else:
            if d_table[idx] != v:
                return False
    return True


def _search_homomorphisms(
    src: FiniteAlgebra,
    dst: FiniteAlgebra,
    candidates: Sequence[Sequence[int]],
    fixed: Optional[dict[int, int]] = None,
    injective: bool = False,
    stop_after: Optional[int] = None,
    node_budget: int = 10_000_000,
) -> list[tuple[int, ...]]:
    """Backtracking over source elements with forward checking: every
    operation cell whose arguments and output are all assigned must
    commute.  Element i takes its image from candidates[i] (fixed
    elements excepted); with `injective`, images already in use are
    skipped without counting a node.  Returns image index tuples,
    unsorted."""
    _require_shared_signature(src, dst)
    n, k_dst = len(src.carrier), len(dst.carrier)
    order, by_elem = _search_cells(src, dst)
    assignment: list[Optional[int]] = [None] * n
    # used[v] is set only under `injective`, so the skip below is a no-op
    # for plain hom searches
    used = [False] * k_dst
    fixed = fixed or {}
    for i, v in fixed.items():
        assignment[i] = v
        used[v] = injective
    order = [i for i in order if i not in fixed]
    results: list[tuple[int, ...]] = []
    nodes = 0
    # check cells already decided by fixed assignments
    if not all(_consistent(by_elem[i], assignment, k_dst) for i in fixed):
        return []

    # depth-first over `order` with an explicit stack: tried[pos] counts
    # the candidates already passed over for the element at depth pos
    tried = [0] * len(order)
    pos = 0
    while pos >= 0:
        if pos == len(order):
            results.append(tuple(assignment))  # type: ignore[arg-type]
            if stop_after is not None and len(results) >= stop_after:
                break
            pos -= 1
            continue
        i = order[pos]
        cands, cells = candidates[i], by_elem[i]
        if assignment[i] is not None:  # release the value tried last
            used[assignment[i]] = False
        t = tried[pos]
        while t < len(cands):
            v = cands[t]
            t += 1
            if used[v]:
                continue
            nodes += 1
            if nodes > node_budget:
                what = "isomorphism" if injective else "homomorphism"
                raise BudgetExceeded(f"{what} search node budget exceeded")
            assignment[i] = v
            if _consistent(cells, assignment, k_dst):
                used[v] = injective
                tried[pos] = t
                pos += 1
                break
        else:
            assignment[i] = None
            tried[pos] = 0
            pos -= 1
    return results


def enumerate_homomorphisms(
    src: FiniteAlgebra,
    dst: FiniteAlgebra,
    mode: Literal["list", "count", "first"] = "list",
    node_budget: int = 10_000_000,
):
    """All homomorphisms src -> dst in lexicographic order of the image
    tuple (source carrier order).  mode: "list", "count", or "first"."""
    stop = 1 if mode == "first" else None
    every = range(len(dst.carrier))
    raw = _search_homomorphisms(
        src, dst, [every] * len(src.carrier), stop_after=stop, node_budget=node_budget
    )
    if mode == "first" and not raw:
        return None
    morphisms = sorted(raw)
    if mode == "count":
        return len(morphisms)
    result = [
        Morphism(src, dst, tuple(dst.carrier[v] for v in images)) for images in morphisms
    ]
    if mode == "first":
        return result[0]
    return result


def find_retractions(alg: FiniteAlgebra, image: Subuniverse) -> list[Morphism]:
    """All endomorphisms fixing the image pointwise with range exactly the
    image set.  Since candidates are restricted to the image and it is
    fixed pointwise, the range condition holds automatically."""
    if image.parent != alg:
        raise ValueError("image subuniverse must belong to the algebra")
    fixed = {alg.index_of[e]: alg.index_of[e] for e in image.members}
    allowed = [alg.index_of[e] for e in image.members]
    raw = _search_homomorphisms(alg, alg, [allowed] * len(alg.carrier), fixed=fixed)
    return [
        Morphism(alg, alg, tuple(alg.carrier[v] for v in images)) for images in sorted(raw)
    ]


def _element_profile(alg: FiniteAlgebra) -> list[tuple]:
    """Per-element invariants computable from the tables: nullary hits,
    per-symbol output multiplicity, and unary orbit sizes."""
    n = len(alg.carrier)
    profiles: list[list] = [[] for _ in range(n)]
    for sym, arity in sorted(alg.signature.symbols):
        table = alg.table(sym)
        counts = [0] * n
        for v in table:
            counts[v] += 1
        for i in range(n):
            profiles[i].append(counts[i])
        if arity == 0:
            for i in range(n):
                profiles[i].append(1 if table[0] == i else 0)
        if arity == 1:
            for i in range(n):
                seen = set()
                cur = i
                while cur not in seen:
                    seen.add(cur)
                    cur = table[cur]
                profiles[i].append(len(seen))
    return [tuple(p) for p in profiles]


def check_isomorphism(
    a: FiniteAlgebra, b: FiniteAlgebra, node_budget: int = 10_000_000
) -> Optional[Morphism]:
    """One bijective homomorphism with homomorphic inverse, or None.
    Candidate images are pruned by table-derived element invariants; the
    backtracking itself is exhaustive, so pruning never loses witnesses."""
    _require_shared_signature(a, b)
    if len(a.carrier) != len(b.carrier):
        return None
    pa, pb = _element_profile(a), _element_profile(b)
    if sorted(pa) != sorted(pb):
        return None
    n = len(a.carrier)
    candidates = [[j for j in range(n) if pb[j] == pa[i]] for i in range(n)]
    found = _search_homomorphisms(
        a, b, candidates, injective=True, stop_after=1, node_budget=node_budget
    )
    if not found:
        return None
    images = found[0]
    iso = Morphism(a, b, tuple(b.carrier[v] for v in images))
    assert check_homomorphism(iso)[0]
    inverse = Morphism(b, a, tuple(a.carrier[images.index(j)] for j in range(n)))
    assert check_homomorphism(inverse)[0]
    return iso


def reduct(alg: FiniteAlgebra, keep: Iterable[str], name: Optional[str] = None) -> FiniteAlgebra:
    """Forget all symbols not listed; signature order is preserved."""
    keep_set = set(keep)
    unknown = keep_set - set(alg.signature.names())
    if unknown:
        raise UnknownSymbol(f"unknown symbols in reduct: {sorted(unknown)}")
    symbols = tuple(s for s in alg.signature.symbols if s[0] in keep_set)
    tables = tuple(
        tab for (sym, _), tab in zip(alg.signature.symbols, alg.tables) if sym in keep_set
    )
    from .core import Signature

    return FiniteAlgebra(
        name=name or f"{alg.name}_reduct",
        carrier=alg.carrier,
        signature=Signature(symbols),
        tables=tables,
    )


def homomorphic_image(m: Morphism, name: Optional[str] = None) -> Subuniverse:
    """The range of a homomorphism as a subuniverse of the target."""
    ok, witness = check_homomorphism(m)
    if not ok:
        raise ValueError(f"not a homomorphism: {witness}")
    return Subuniverse.of(m.target, set(m.images))

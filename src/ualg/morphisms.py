"""Homomorphism checking, exhaustive enumeration by backtracking with
propagation of forced cells, retraction search, and isomorphism testing."""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Literal, Optional, Sequence

from .core import IDENT_RE, BudgetExceeded, FiniteAlgebra, Signature, Subuniverse, UalgError
from .core import Rows, UnknownSymbol, arg_columns, gather, pack


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
    failure the first offending application is returned.  Row by row:
    for each prefix of arguments, the source row mapped by f against the
    target's row of the mapped prefix gathered at f."""
    src, dst = m.source, m.target
    _require_shared_signature(src, dst)
    ks, kd = len(src.carrier), len(dst.carrier)
    n = max(ks, kd)
    img = [dst.index_of[e] for e in m.images]
    mapped, f = pack(img, n), Rows(img, ks, n)[0]
    for sym, arity in src.signature.symbols:
        # a nullary table is one row of one cell, at last argument 0
        last = mapped if arity else pack([0], n)
        lhs = gather(f, pack(src.table(sym), n))
        dst_rows = Rows(dst.table(sym), kd, n)
        for r, prefix in enumerate(itertools.product(range(ks), repeat=max(arity - 1, 0))):
            row = 0
            for a in prefix:
                row = row * kd + img[a]
            rhs = gather(dst_rows[row], last)
            got = lhs[r * len(last):(r + 1) * len(last)]
            if got != rhs:
                j = next(j for j, (a, b) in enumerate(zip(got, rhs)) if a != b)
                args = tuple(src.carrier[a] for a in prefix + (j,)) if arity else ()
                return False, HomWitness(sym, args, dst.carrier[got[j]], dst.carrier[rhs[j]])
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


def _search_cells(
    src: FiniteAlgebra, dst: FiniteAlgebra
) -> tuple[list[int], list[list], list[tuple[int, int]]]:
    """Source elements in fail-first order (most table outputs first, as
    every element fills each argument position equally often; results
    are sorted later, so the order is never observable); per source
    element the cells that take it as an argument, as (output, target
    table, args); and per nullary cell its output and the target's
    constant."""
    n = len(src.carrier)
    hits = Counter(v for t in src.tables for v in t)
    by_arg: list[list] = [[] for _ in range(n)]
    ground: list[tuple[int, int]] = []
    for sym, arity in src.signature.symbols:
        cols = arg_columns(n, arity)
        outs = src.table(sym)
        d_table = dst.table(sym)
        if not cols:
            ground.append((outs[0], d_table[0]))
            continue
        # a list, not a lazy zip: over a lazy zip the cells kept the
        # collector busy with full collections (3x slower on Z1200)
        rows = list(zip(*cols))
        for args, out in zip(rows, outs):
            cell = (out, d_table, args)
            for a in set(args):
                by_arg[a].append(cell)
    return sorted(range(n), key=lambda i: (-hits[i], i)), by_arg, ground


def _search_homomorphisms(
    src: FiniteAlgebra,
    dst: FiniteAlgebra,
    candidates: Sequence[Sequence[int]],
    fixed: Optional[dict[int, int]] = None,
    injective: bool = False,
    stop_after: Optional[int] = None,
    node_budget: int = 10_000_000,
) -> list[tuple[int, ...]]:
    """Backtracking over source elements with propagation of forced
    cells: once every argument of a table cell is assigned, the image of
    its output is fixed at the target table's value there, so it is
    assigned at once and its own cells are followed in turn.  A forced
    image prunes the branch if the output is mapped elsewhere, if the
    image is not among the output's candidates, or, with `injective`, if
    the image is in use.  The search branches, in fail-first order, only
    on elements still unassigned: element i takes its image from
    candidates[i], or is fixed at fixed[i], and with `injective` images
    in use are skipped.  Only branching assignments count as nodes.
    Returns image index tuples, unsorted, in the depth-first order of the
    same search without propagation."""
    _require_shared_signature(src, dst)
    n, k_dst = len(src.carrier), len(dst.carrier)
    order, by_arg, ground = _search_cells(src, dst)
    fixed = fixed or {}
    # one set per distinct list: a hom search passes one list for every element
    as_set: dict[int, set[int]] = {}
    for c in candidates:
        if id(c) not in as_set:
            as_set[id(c)] = set(c)
    allowed = [{fixed[i]} if i in fixed else as_set[id(c)] for i, c in enumerate(candidates)]
    assignment: list[Optional[int]] = [None] * n
    # used[v] is set only under `injective`, so the checks on it are
    # no-ops for plain hom searches
    used = [False] * k_dst
    trail: list[int] = []  # elements assigned since the search began, in order

    def settle(i: int, v: int) -> bool:
        """Map i to v unless that conflicts; a new assignment goes on the
        trail, which is also the queue of elements to follow."""
        w = assignment[i]
        if w is not None:
            return w == v
        if used[v] or v not in allowed[i]:
            return False
        assignment[i] = v
        used[v] = injective
        trail.append(i)
        return True

    def propagate(pairs: Iterable[tuple[int, int]]) -> bool:
        """Settle each (element, image) pair and every image that it
        forces; False at the first conflict, with the trail left for
        `undo`."""
        head = len(trail)
        if not all(settle(i, v) for i, v in pairs):
            return False
        while head < len(trail):
            for out, d_table, args in by_arg[trail[head]]:
                idx = 0
                for a in args:
                    w = assignment[a]
                    if w is None:
                        break
                    idx = idx * k_dst + w
                else:
                    w = assignment[out]
                    if w is None:
                        if not settle(out, d_table[idx]):
                            return False
                    elif w != d_table[idx]:
                        return False
            head += 1
        return True

    def undo(mark: int) -> None:
        while len(trail) > mark:
            i = trail.pop()
            used[assignment[i]] = False  # type: ignore[index]
            assignment[i] = None

    # constants and fixed elements are assigned, and propagated, first
    if not propagate([*ground, *fixed.items()]):
        return []
    order = [i for i in order if assignment[i] is None]
    results: list[tuple[int, ...]] = []
    nodes = 0
    # depth-first over `order` with an explicit stack of branch points:
    # (position, candidates of its element passed over, trail length
    # before it); forced elements are skipped
    frames: list[tuple[int, int, int]] = []
    pos, t = 0, 0
    while True:
        while pos < len(order) and assignment[order[pos]] is not None:
            pos += 1
        if pos == len(order):
            results.append(tuple(assignment))  # type: ignore[arg-type]
            if stop_after is not None and len(results) >= stop_after:
                break
        else:
            i, mark = order[pos], len(trail)
            cands = candidates[i]
            ok = False
            while not ok and t < len(cands):
                v = cands[t]
                t += 1
                if used[v]:
                    continue
                nodes += 1
                if nodes > node_budget:
                    what = "isomorphism" if injective else "homomorphism"
                    raise BudgetExceeded(f"{what} search node budget exceeded")
                ok = propagate([(i, v)])
                if not ok:
                    undo(mark)
            if ok:
                frames.append((pos, t, mark))
                pos, t = pos + 1, 0
                continue
        if not frames:
            break
        pos, t, mark = frames.pop()
        undo(mark)
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


def find_retractions(
    alg: FiniteAlgebra, image: Subuniverse, node_budget: int = 10_000_000
) -> list[Morphism]:
    """All endomorphisms fixing the image pointwise with range exactly the
    image set.  Since candidates are restricted to the image and it is
    fixed pointwise, the range condition holds automatically."""
    if image.parent != alg:
        raise ValueError("image subuniverse must belong to the algebra")
    fixed = {alg.index_of[e]: alg.index_of[e] for e in image.members}
    allowed = [alg.index_of[e] for e in image.members]
    raw = _search_homomorphisms(
        alg, alg, [allowed] * len(alg.carrier), fixed=fixed, node_budget=node_budget
    )
    return [
        Morphism(alg, alg, tuple(alg.carrier[v] for v in images)) for images in sorted(raw)
    ]


def _orbit_sizes(step: Sequence[int]) -> list[int]:
    """Per element x, how many distinct elements x, step[x],
    step[step[x]], ... run through."""
    sizes = []
    for i in range(len(step)):
        seen = set()
        cur = i
        while cur not in seen:
            seen.add(cur)
            cur = step[cur]
        sizes.append(len(seen))
    return sizes


def _element_profile(alg: FiniteAlgebra) -> list[tuple]:
    """Per-element invariants computable from the tables: nullary hits,
    per-symbol output multiplicity, and orbit sizes under each unary
    operation and under the diagonal x -> f(x, ..., x) of each operation
    of arity >= 2 (a unary term operation, so isomorphisms keep it)."""
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
        else:
            # (x, ..., x) sits at row-major index x * (1 + n + ... + n**(arity-1))
            diagonal = sum(n**p for p in range(arity))
            for i, size in enumerate(_orbit_sizes(table[::diagonal])):
                profiles[i].append(size)
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
    classes: dict[tuple, list[int]] = {}
    for j, profile in enumerate(pb):
        classes.setdefault(profile, []).append(j)
    candidates = [classes[profile] for profile in pa]
    found = _search_homomorphisms(
        a, b, candidates, injective=True, stop_after=1, node_budget=node_budget
    )
    if not found:
        return None
    images = found[0]
    iso = Morphism(a, b, tuple(b.carrier[v] for v in images))
    assert check_homomorphism(iso)[0]
    inverse = Morphism(b, a, tuple(a.carrier[images.index(j)] for j in range(len(images))))
    assert check_homomorphism(inverse)[0]
    return iso


def reduct(alg: FiniteAlgebra, keep: Iterable[str], name: Optional[str] = None) -> FiniteAlgebra:
    """Forget all symbols not listed; signature order is preserved."""
    keep_set = set(keep)
    unknown = keep_set - set(alg.signature.names())
    if unknown:
        raise UnknownSymbol(f"unknown symbols in reduct: {sorted(unknown)}")
    if name and not IDENT_RE.match(name):
        raise UalgError(f"bad algebra name: {name!r}")
    symbols = tuple(s for s in alg.signature.symbols if s[0] in keep_set)
    tables = tuple(
        tab for (sym, _), tab in zip(alg.signature.symbols, alg.tables) if sym in keep_set
    )
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

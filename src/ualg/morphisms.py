"""Homomorphism checking, exhaustive enumeration by backtracking over the
closure levels of the source, retraction search, and isomorphism testing."""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Literal, Optional, Sequence

from .core import IDENT_RE, BudgetExceeded, FiniteAlgebra, Signature, Subuniverse, UalgError
from .core import Rows, UnknownSymbol, as_row, gather, pack, semi_naive_runs


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
    with the source carrier order.  Whether it is a homomorphism is
    `check_homomorphism`'s to say."""

    source: FiniteAlgebra
    target: FiniteAlgebra
    images: tuple[str, ...]

    def __post_init__(self):
        if len(self.images) != len(self.source.carrier):
            raise ValueError("morphism map must be total on the source carrier")
        for e in self.images:
            if e not in self.target.index_of:
                raise ValueError(f"image not in target carrier: {e}")

    def __call__(self, element: str) -> str:
        return self.images[self.source.index_of[element]]

    def as_dict(self) -> dict[str, str]:
        return dict(zip(self.source.carrier, self.images))


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
    mapped, f = pack(img, n), as_row(img, n)
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


def _schedule(src: FiniteAlgebra, dst: FiniteAlgebra, fixed: dict[int, int],
              n: int) -> tuple[list, list]:
    """The closure levels of the search, from the source alone.  Level 0
    is Sg(fixed elements and constants); level j adds its branch element,
    the first element in fail-first order (most table outputs first;
    lists and counts are sorted later, so only the first map found under
    `stop_after` depends on it) outside the closure so far, and the rest
    of the closure with it.

    Returns (ground, levels).  ground lists (element, target constant)
    for each constant whose element is mapped before it.  A level is
    (branch element, or None for level 0; derivations; new elements;
    columns; checks).  A derivation (output, target table, args) gives a
    new element's image from those of earlier ones.  The two columns are
    the closure and the new elements, packed with n.  The checks hold,
    per symbol of arity >= 1, the target's rows, the runs, and the source
    outputs of all runs packed with n.  A run (prefix, new_only, lo, hi)
    stands for the cells prefix + (c,) for c in the closure, or with
    new_only in the new elements, whose outputs are outputs[lo:hi]: one
    per prefix over the closure, new_only when the prefix holds no new
    element, so the runs cover each cell with a new element once."""
    ks, kd = len(src.carrier), len(dst.carrier)
    hits = Counter(itertools.chain.from_iterable(src.tables))
    order = iter(sorted(range(ks), key=lambda i: (-hits[i], i)))
    ops = [(arity, src.table(sym), dst.table(sym), Rows(src.table(sym), ks, n),
            Rows(dst.table(sym), kd, n)) for sym, arity in src.signature.symbols]
    closed = list(fixed)
    seen = set(closed)
    packed = pack(closed, n)
    derivations: list = []

    def add(out: int, d_table: Sequence[int], args: tuple[int, ...]) -> None:
        seen.add(out)
        closed.append(out)
        packed.append(out)
        derivations.append((out, d_table, args))

    ground = []
    for arity, s_table, d_table, _, _ in ops:
        if arity == 0:
            if s_table[0] in seen:
                ground.append((s_table[0], d_table[0]))
            else:
                add(s_table[0], d_table, ())
    levels, gen, start = [], None, 0
    while True:
        # semi-naive: element e = closed[head] meets only the tuples over
        # closed[:head + 1] that hold it, split by the first position of e
        head = start
        while head < len(closed):
            e = closed[head]
            for arity, s_table, d_table, s_rows, _ in ops:
                if arity == 0:
                    continue
                if arity == 1:  # one step per element along a unary chain
                    if s_table[e] not in seen:
                        add(s_table[e], d_table, (e,))
                    continue
                old, cur = closed[:head], closed[:head + 1]
                runs = [(s_rows, itertools.product(*[old] * q, (e,), *[cur] * (arity - 2 - q)),
                         cur, ()) for q in range(arity - 1)]
                if head:  # e last: fold the last argument into the table
                    runs.append((Rows(s_table[e::ks], ks, n),
                                 itertools.product(old, repeat=arity - 2), old, (e,)))
                for rows, prefixes, column, suffix in runs:
                    col = packed[:len(column)]
                    for prefix in prefixes:
                        r = 0
                        for a in prefix:
                            r = r * ks + a
                        outs = gather(rows[r], col)
                        if not seen.issuperset(outs):
                            for c, out in enumerate(outs):
                                if out not in seen:
                                    add(out, d_table, prefix + (column[c],) + suffix)
            head += 1
        end = len(closed)
        columns = (packed[:end], packed[start:end])
        checks = []
        for arity, _, _, s_rows, d_rows in ops:
            if arity == 0:
                continue
            runs, outs = [], pack((), n)
            for prefix, low in semi_naive_runs(end, start, arity):
                args = tuple(closed[p] for p in prefix)
                r = 0
                for a in args:
                    r = r * ks + a
                lo = len(outs)
                outs.extend(gather(s_rows[r], columns[low > 0]))
                runs.append((args, low > 0, lo, len(outs)))
            checks.append((d_rows, runs, outs))
        levels.append((gen, derivations, closed[start:end], columns, checks))
        if end == ks:
            return ground, levels
        gen = next(i for i in order if i not in seen)
        derivations, start = [], end
        seen.add(gen)
        closed.append(gen)
        packed.append(gen)


def _search_homomorphisms(
    src: FiniteAlgebra,
    dst: FiniteAlgebra,
    candidates: Sequence[Sequence[int]],
    fixed: Optional[dict[int, int]] = None,
    injective: bool = False,
    stop_after: Optional[int] = None,
    node_budget: int = 10_000_000,
) -> list[tuple[int, ...]]:
    """Backtracking over closure levels.  A homomorphism is fixed by its
    values on a generating set, so the elements to branch on depend on
    the source alone: level 0 maps the fixed elements (element i to
    fixed[i]) and the constants and derives the rest of their closure,
    and each later level branches on one element g, the first in
    fail-first order outside the closure so far.  g takes its image from
    candidates[g], with `injective` skipping images in use; each such
    choice is one node.  A node derives the images of the level's new
    elements from the target tables, one recorded application each, and
    prunes if a derived image is not among the element's candidates or,
    with `injective`, is in use; then it checks every cell of the level
    with a new element in it, whole rows at a time.  The closure levels
    are those that propagating forced cells would visit, so the search
    branches on the same elements with the same verdicts.  Returns image
    index tuples, unsorted, in the depth-first order of the same search
    without derivations."""
    _require_shared_signature(src, dst)
    ks, kd = len(src.carrier), len(dst.carrier)
    n = max(ks, kd)
    fixed = fixed or {}
    ground, levels = _schedule(src, dst, fixed, n)
    # one set per distinct list: a hom search passes one list for every element
    as_set: dict[int, set[int]] = {}
    for c in candidates:
        if id(c) not in as_set:
            as_set[id(c)] = set(c)
    allowed = [as_set[id(c)] for c in candidates]
    img = [0] * ks
    # used[v] is set only under `injective`, so the checks on it are
    # no-ops for plain hom searches
    used = [False] * kd

    def release(elements: Iterable[int]) -> None:
        if injective:
            for e in elements:
                used[img[e]] = False

    def extend(level) -> bool:
        """Derive and check the level once its branch element is mapped;
        on failure no image of the level stays in use."""
        _, derivations, elements, columns, checks = level
        for d, (out, d_table, args) in enumerate(derivations):
            idx = 0
            for a in args:
                idx = idx * kd + img[a]
            w = d_table[idx]
            if used[w] or w not in allowed[out]:
                release(elements[:len(elements) - len(derivations) + d])
                return False
            img[out] = w
            used[w] = injective
        image = as_row(img, n)
        mapped = [gather(image, column) for column in columns]
        for d_rows, runs, outs in checks:
            expected = gather(image, outs)
            for args, new_only, lo, hi in runs:
                r = 0
                for a in args:
                    r = r * kd + img[a]
                if gather(d_rows[r], mapped[new_only]) != expected[lo:hi]:
                    release(elements)
                    return False
        return True

    for i, v in fixed.items():
        if used[v]:
            return []
        img[i] = v
        used[v] = injective
    if not extend(levels[0]) or any(img[c] != v for c, v in ground):
        return []
    results: list[tuple[int, ...]] = []
    nodes = 0
    # depth-first over the levels with an explicit stack: tried[j] counts
    # the candidates of level j's branch element passed over
    tried = [0] * len(levels)
    depth = 1
    while True:
        if depth == len(levels):
            results.append(tuple(img))
            if stop_after is not None and len(results) >= stop_after:
                break
        else:
            level = levels[depth]
            g = level[0]
            cands = candidates[g]
            t, ok = tried[depth], False
            while not ok and t < len(cands):
                v = cands[t]
                t += 1
                if used[v]:
                    continue
                nodes += 1
                if nodes > node_budget:
                    what = "isomorphism" if injective else "homomorphism"
                    raise BudgetExceeded(f"{what} search node budget exceeded")
                img[g] = v
                used[v] = injective
                ok = extend(level)
            tried[depth] = t
            if ok:
                depth += 1
                if depth < len(levels):
                    tried[depth] = 0
                continue
        depth -= 1
        if depth == 0:
            break
        release(levels[depth][2])
    return results


def enumerate_homomorphisms(
    src: FiniteAlgebra,
    dst: FiniteAlgebra,
    mode: Literal["list", "count", "first"] = "list",
    node_budget: int = 10_000_000,
):
    """Homomorphisms src -> dst.  mode "list": all of them, sorted by
    image tuple (source carrier order); "count": their number, read off
    the search's image tuples without sorting them or building a
    `Morphism`; "first": the first one the search meets, or None.  The
    search takes elements in its own fail-first order, so that map need
    not be the first of the sorted list."""
    stop = 1 if mode == "first" else None
    every = range(len(dst.carrier))
    raw = _search_homomorphisms(
        src, dst, [every] * len(src.carrier), stop_after=stop, node_budget=node_budget
    )
    if mode == "count":
        return len(raw)
    if mode == "first" and not raw:
        return None
    result = [
        Morphism(src, dst, tuple(dst.carrier[v] for v in images)) for images in sorted(raw)
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
    step[step[x]], ... run through: its distance to the cycle it runs
    into plus that cycle's length.  One pass over the functional graph:
    each walk stops at an element already sized or at its own path."""
    sizes = [0] * len(step)
    walk_of = [-1] * len(step)  # the start of the walk that met each element
    for start in range(len(step)):
        if sizes[start]:
            continue
        path, x = [], start
        while not sizes[x] and walk_of[x] != start:
            walk_of[x] = start
            path.append(x)
            x = step[x]
        if not sizes[x]:  # the walk closed a cycle at x
            i = path.index(x)
            for y in path[i:]:
                sizes[y] = len(path) - i
            del path[i:]
        for y in reversed(path):
            sizes[y] = sizes[step[y]] + 1
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
    """One bijective homomorphism, or None.  Its inverse is a homomorphism
    too: for b_i = iso(a_i), f(b_1, ..., b_n) = iso(f(a_1, ..., a_n)), so
    the inverse sends f(b_1, ..., b_n) to f(a_1, ..., a_n).
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
    return Morphism(a, b, tuple(b.carrier[v] for v in found[0]))


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


def homomorphic_image(m: Morphism) -> Subuniverse:
    """The range of a homomorphism as a subuniverse of the target: closed,
    since f(h(x_1), ..., h(x_n)) = h(f(x_1, ..., x_n))."""
    ok, witness = check_homomorphism(m)
    if not ok:
        raise ValueError(f"not a homomorphism: {witness}")
    image = set(m.images)
    return Subuniverse(parent=m.target, members=tuple(e for e in m.target.carrier if e in image))

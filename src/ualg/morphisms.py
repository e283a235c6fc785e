"""Homomorphism checking, exhaustive enumeration by backtracking over the
closure levels of the source, retraction search, and isomorphism testing."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import add, itemgetter
from typing import Iterable, Literal, Optional, Sequence

from .core import IDENT_RE, BudgetExceeded, FiniteAlgebra, Signature, Subuniverse, UalgError
from .core import PACK_LIMIT, Rows, UnknownSymbol, as_row, gather, pack, weighted_sum


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


def _schedule(src: FiniteAlgebra, dst: FiniteAlgebra,
              fixed: dict[int, int]) -> tuple[list, list, list[int]]:
    """The closure levels of the search, from the source alone, as
    programs over positions: the source elements numbered in the order
    the closure reaches them, the fixed elements first, so that each
    level's elements hold consecutive positions start..end-1.  Level 0
    is Sg(fixed elements and constants); level j adds its branch
    element, the first element in fail-first order (most table outputs
    first, summed over `FiniteAlgebra.output_counts`, ties in index
    order; lists and counts are sorted later, so only the first map
    found under `stop_after` depends on it) outside the closure so far,
    at position start, and the rest of the closure with it.

    Returns (ground, levels, position), position[e] being the position
    of element e.  ground lists (position, target constant) for each
    constant whose element is mapped before it.  A level is (branch
    element, or None for level 0; start; end; flat; derivations; flat
    checks; run checks).  Derivation d gives the image of the element at
    position end - len(derivations) + d through the target table of one
    symbol.  A level is flat when it branches and each derivation has
    exactly one argument from the level and a translation table (at most
    PACK_LIMIT cells) as its table; each is then (slot, scalars, table,
    place, args), slot s being the argument at position start + s and
    place its place value in the row-major table index, scalars listing
    (position, place) for the arguments from earlier levels, and args
    the argument positions, None for a unary symbol.  A level derived per
    candidate reads only the tables and args, and a unary step's slot.

    The checks cover each table cell that holds a new element once.  On
    every level, a symbol whose target table is a translation table has
    one flat check (argument columns, their places, output column, the
    table), positions packed with the source size, of the cells as the
    closure walk meets them: every cell of a binary or wider symbol, and
    of a unary one those whose outputs no derivation fixed.  Every other
    symbol has one run check (target rows, runs, outputs of all
    runs).  A run (prefix, new_only, lo, hi) stands for the cells
    prefix + (p,) for each position p of the closure, or with new_only
    of the new elements, whose outputs are outputs[lo:hi]."""
    ks, kd = len(src.carrier), len(dst.carrier)
    hits = [0] * ks
    for counts in src.output_counts:
        hits = list(map(add, hits, counts))
    # a reversed sort is stable too, so equal counts keep index order
    order = iter(sorted(range(ks), key=hits.__getitem__, reverse=True))
    # per symbol: arity, source table and rows, target table (as a
    # translation table if it fits one) and rows
    ops = []
    for (sym, arity), s_table in zip(src.signature.symbols, src.tables):
        table = dst.table(sym)
        if arity and kd ** arity <= PACK_LIMIT:
            table = as_row(table, PACK_LIMIT)
        ops.append((arity, s_table, Rows(s_table, ks, ks), table, Rows(table, kd, kd)))
    closed = pack(fixed, ks)  # the element at each position
    position = [0] * ks
    # 1 at each element that the closure has not reached yet
    unreached = bytearray(b"\1") * max(ks, PACK_LIMIT)
    for p, e in enumerate(closed):
        position[e] = p
        unreached[e] = 0
    every = pack(range(ks), ks)  # each position at itself
    derivations: list = []

    def reach(out: int, derivation: tuple) -> None:
        position[out] = len(closed)
        unreached[out] = 0
        closed.append(out)
        derivations.append(derivation)

    def row_of(prefix: tuple) -> int:
        r = 0
        for p in prefix:
            r = r * ks + closed[p]
        return r

    def meet(cell, table, outs, prefix: tuple, suffix: tuple) -> None:
        """The run of cells prefix + (p,) + suffix, p over positions
        0..len(outs)-1, whose outputs are outs: each new output is
        derived at the first cell that holds it, and the other cells go
        into the symbol's flat check, if it has one."""
        nonlocal flat
        if ks <= PACK_LIMIT:  # one translate; a scan only if one is new
            marks = outs.translate(unreached)
            new = list(itertools.compress(range(len(outs)), marks)) if 1 in marks else []
        else:
            new = [c for c, out in enumerate(outs) if unreached[out]]
        for c in new:
            out = outs[c]
            if not unreached[out]:  # derived at an earlier cell of the run
                continue
            args = prefix + (c,) + suffix
            flat = flat and cell is not None and sum(a >= start for a in args) == 1
            if not flat:  # derived per candidate, from args
                reach(out, (None, None, table, None, args))
                continue
            scalars, place = [], 1
            for a in reversed(args):
                if a < start:
                    scalars.append((a, place))
                else:
                    slot, at = a - start, place
                place *= kd
            reach(out, (slot, scalars, table, at, args))
        if cell:
            cols, found = cell
            for column, a in zip(cols, prefix + (None,) + suffix):
                column += every[:len(outs)] if a is None else every[a:a + 1] * len(outs)
            found += outs

    def product_step(arity: int, s_table, s_rows: Rows, table, cell, head: int) -> None:
        """The step of an operation of arity >= 3 at head.  For each
        prefix over positions 0..head that holds head, one run over the
        last argument, 0..head; then, with head as the last argument, for
        each prefix over 0..head-1, one run over the argument before it,
        0..head-1."""
        for q in range(arity - 1):
            for prefix in itertools.product(*[range(head)] * q, (head,),
                                            *[range(head + 1)] * (arity - 2 - q)):
                meet(cell, table, gather(s_rows[row_of(prefix)], closed[:head + 1]), prefix, ())
        if head:  # head last: fold the last argument into the table
            rows = Rows(s_table[closed[head]::ks], ks, ks)
            for prefix in itertools.product(range(head), repeat=arity - 2):
                meet(cell, table, gather(rows[row_of(prefix)], closed[:head]), prefix, (head,))

    ground = []
    for arity, s_table, _, table, _ in ops:
        if arity == 0:
            if not unreached[s_table[0]]:
                ground.append((position[s_table[0]], table[0]))
            else:
                reach(s_table[0], ((), (), table, (), ()))
    walked = [(i, op) for i, op in enumerate(ops) if op[0]]
    levels, gen, start = [], None, 0
    while True:
        flat = gen is not None and kd <= PACK_LIMIT
        # per flat-checked symbol, one whose target table is a translation
        # table: its argument columns and output column
        cells = [([pack((), ks) for _ in range(arity)], pack((), ks))
                 if arity and kd ** arity <= PACK_LIMIT else None for arity, *_ in ops]
        # semi-naive: the element at position head meets only the cells
        # over positions 0..head that hold it.  A unary symbol takes one
        # lookup per head, a binary one a translate of the head's row over
        # positions 0..head and one of its column over 0..head-1
        head = start
        while head < len(closed):
            e = closed[head]
            for i, (arity, s_table, s_rows, table, _) in walked:
                cell = cells[i]
                if arity == 1:
                    out = s_table[e]
                    if unreached[out]:  # `reach`, inline: a chain reaches one per head
                        position[out] = len(closed)
                        unreached[out] = 0
                        closed.append(out)
                        derivations.append((head - start, (), table, 1, None))
                    elif cell:
                        cell[0][0].append(head)
                        cell[1].append(out)
                elif arity == 2:  # `meet` only a run with a flat check or a new output
                    outs = gather(s_rows[e], closed[:head + 1])
                    if cell or ks > PACK_LIMIT or 1 in outs.translate(unreached):
                        meet(cell, table, outs, (head,), ())
                    if head:
                        outs = gather(as_row(s_table[e::ks], ks), closed[:head])
                        if cell or ks > PACK_LIMIT or 1 in outs.translate(unreached):
                            meet(cell, table, outs, (), (head,))
                else:
                    product_step(arity, s_table, s_rows, table, cell, head)
            head += 1
        end = len(closed)
        to_position = as_row(position, ks)
        flat_checks, run_checks = [], []
        for (arity, _, s_rows, table, d_rows), cell in zip(ops, cells):
            if cell and cell[1]:
                cols, found = cell
                flat_checks.append((cols, [kd ** (arity - 1 - j) for j in range(arity)],
                                    gather(to_position, found), table))
            elif arity and not cell:
                runs, outs = [], pack((), ks)
                for prefix in itertools.product(range(end), repeat=arity - 1):
                    low = 0 if prefix and max(prefix) >= start else start
                    lo = len(outs)
                    outs += gather(s_rows[row_of(prefix)], closed[low:end])
                    runs.append((prefix, low > 0, lo, len(outs)))
                run_checks.append((d_rows, runs, gather(to_position, outs)))
        levels.append((gen, start, end, flat, derivations, flat_checks, run_checks))
        if end == ks:
            return ground, levels, position
        gen = next(i for i in order if unreached[i])
        derivations, start = [], end
        position[gen] = end
        unreached[gen] = 0
        closed.append(gen)


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
    choice is one node.  A choice fails if a derived image is not among
    its element's candidates or, with `injective`, is in use or repeats
    one of the level, or if a checked cell of the level does not commute.

    A flat level (`_schedule`: each derivation has one argument from
    the level and a translation table) derives the images of its new
    elements for every candidate of g at once, when the search enters
    it: each derivation is one translate of a byte per candidate through
    the table's row at its other arguments.  Each candidate then takes
    its images, one slice of those.  Other levels derive per candidate,
    one recorded application each.  Every level, level 0 included, is
    checked with one compare per flat-checked symbol: the argument
    columns read through the images, weighted into table indices,
    translated through the target table, against the output column read
    the same way.  Symbols whose target tables exceed a translation
    table are checked one run of last arguments at a time through the
    target's rows.  The closure levels are those that propagating forced
    cells would visit, so the search branches on the same elements with
    the same verdicts.  Returns image index tuples, unsorted, in the
    depth-first order of the same search without derivations."""
    _require_shared_signature(src, dst)
    ks, kd = len(src.carrier), len(dst.carrier)
    fixed = fixed or {}
    ground, levels, position = _schedule(src, dst, fixed)
    # one set per distinct list: a hom search passes one list for every element
    sets = {key: set(c) for key, c in dict(zip(map(id, candidates), candidates)).items()}
    # per position, the images its candidates allow, unless all allow all
    allowed = None
    if any(len(a) < kd for a in sets.values()):
        allowed = [None] * ks
        for e, c in enumerate(candidates):
            allowed[position[e]] = sets[id(c)]
    # per allowed set short of the target, built when a flat level first
    # needs it: the translation table with 1 at each image it denies
    denied: dict[int, bytes] = {}
    # images by position: a translation table when both sizes allow it
    img = bytearray(max(ks, PACK_LIMIT)) if kd <= PACK_LIMIT else [0] * ks
    if ks <= PACK_LIMIT >= kd:
        def look(column):
            return column.translate(img)
    else:
        def look(column):
            return pack(map(img.__getitem__, column), kd)
    # used[v] is set only under `injective`, so the checks on it are
    # no-ops for plain hom searches
    used = bytearray(max(kd, PACK_LIMIT))
    mark = 1 if injective else 0

    def release(start: int, stop: int) -> None:
        if injective:
            for w in img[start:stop]:
                used[w] = 0

    def check(level) -> bool:
        """Whether every checked cell of the level commutes under img."""
        _, start, end, _, _, flat_checks, run_checks = level
        for cols, places, outs, table in flat_checks:
            index = look(cols[0]) if len(cols) == 1 else weighted_sum(
                [look(c) for c in cols], places, PACK_LIMIT, len(outs))
            if index.translate(table) != look(outs):
                return False
        if run_checks:
            mapped = (img[:end], img[start:end])
            for d_rows, runs, outs in run_checks:
                expected = look(outs)
                for prefix, new_only, lo, hi in runs:
                    r = 0
                    for p in prefix:
                        r = r * kd + img[p]
                    if gather(d_rows[r], mapped[new_only]) != expected[lo:hi]:
                        return False
        return True

    def derive(level) -> bool:
        """Derive and check the level once the images before its first
        derivation are set; on failure no image of the level stays in use."""
        _, start, end, _, derivations, _, _ = level
        out = end - len(derivations)
        for slot, _, table, _, args in derivations:
            if args is None:  # a unary step
                idx = img[start + slot]
            else:
                idx = 0
                for a in args:
                    idx = idx * kd + img[a]
            w = table[idx]
            if used[w] or allowed and w not in allowed[out]:
                release(start, out)
                return False
            img[out] = w
            used[w] = mark
            out += 1
        if check(level):
            return True
        release(start, end)
        return False

    def enter(level, cands) -> tuple[bytes, bytes]:
        """A flat level's images for every candidate of its branch
        element, slot by slot, each slot a byte per candidate, joined;
        and a byte per candidate, nonzero if a derived image is denied."""
        _, start, _, _, derivations, _, _ = level
        n = len(cands)
        slots = [bytes(cands)]
        for slot, scalars, table, place, args in derivations:
            if args is None:  # a unary step
                slots.append(slots[slot].translate(table))
                continue
            base = 0
            for p, w in scalars:
                base += w * img[p]
            # the table's row at the scalars, over the slot's argument
            slots.append(slots[slot].translate(as_row(table[base:base + place * kd:place], kd)))
        bad = 0
        for s in range(1, len(slots)) if allowed else ():
            a = allowed[start + s]
            if len(a) < kd:
                if id(a) not in denied:
                    denied[id(a)] = as_row([v not in a for v in range(kd)], kd)
                bad |= int.from_bytes(slots[s].translate(denied[id(a)]), "big")
        return b"".join(slots), bad.to_bytes(n, "big")

    def choose(level, entered, t: int) -> bool:
        """Take candidate t's images of a flat level, if they pass."""
        _, start, end, _, _, _, _ = level
        images, bad = entered
        if bad[t]:
            return False
        row = images[t::len(bad)]
        if injective and (len(set(row)) < end - start or 1 in row.translate(used)):
            return False
        img[start:end] = row
        if not check(level):
            return False
        if injective:
            for w in row:
                used[w] = 1
        return True

    for p, v in enumerate(fixed.values()):
        if used[v]:
            return []
        img[p] = v
        used[v] = mark
    if not derive(levels[0]) or any(img[p] != v for p, v in ground):
        return []
    # the images in carrier order; itemgetter of one index gives a bare value
    in_carrier_order = itemgetter(*position) if ks > 1 else lambda row: (row[0],)
    results: list[tuple[int, ...]] = []
    nodes = 0
    # depth-first over the levels with an explicit stack: tried[j] counts
    # the candidates of level j's branch element passed over, and
    # entered[j] holds a flat level's images from its last entry
    tried = [0] * len(levels)
    entered: list = [None] * len(levels)
    depth = 1
    while True:
        if depth == len(levels):
            results.append(in_carrier_order(img))
            if stop_after is not None and len(results) >= stop_after:
                break
        else:
            level = levels[depth]
            g, start, _, flat, _, _, _ = level
            cands = candidates[g]
            t, ok = tried[depth], False
            if flat and not t:
                entered[depth] = enter(level, cands)
            while not ok and t < len(cands):
                v = cands[t]
                t += 1
                if used[v]:
                    continue
                nodes += 1
                if nodes > node_budget:
                    what = "isomorphism" if injective else "homomorphism"
                    raise BudgetExceeded(f"{what} search node budget exceeded")
                if flat:
                    ok = choose(level, entered[depth], t - 1)
                else:
                    img[start] = v
                    used[v] = mark
                    ok = derive(level)
            tried[depth] = t
            if ok:
                depth += 1
                if depth < len(levels):
                    tried[depth] = 0
                continue
        depth -= 1
        if depth == 0:
            break
        _, start, end, _, _, _, _ = levels[depth]
        release(start, end)
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
    """Per-element invariants computable from the tables, per symbol in
    name order: its output count (`FiniteAlgebra.output_counts`), then
    for a nullary symbol whether the element is its value, else the
    element's orbit size under the unary operation or under the diagonal
    x -> f(x, ..., x) of an operation of arity >= 2 (a unary term
    operation, so isomorphisms keep it)."""
    n = len(alg.carrier)
    columns: list[Sequence[int]] = []
    # names are distinct, so the sort never compares two tables
    for (_, arity), table, counts in sorted(zip(alg.signature.symbols, alg.tables,
                                                alg.output_counts)):
        columns.append(counts)
        if arity == 0:
            value = [0] * n
            value[table[0]] = 1
            columns.append(value)
        else:
            # (x, ..., x) sits at row-major index x * (1 + n + ... + n**(arity-1))
            diagonal = sum(n**p for p in range(arity))
            columns.append(_orbit_sizes(table[::diagonal]))
    return list(zip(*columns)) if columns else [()] * n


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

"""The backtracking search and the free-semigroup retraction step against
oracles: the search with forward checking only, as it was before forced
cells were propagated; the search that propagated forced cells one cell
at a time, as it was before it ran on closure levels; every bijection
for isomorphism, every map for retractions, and every map of a truncated
free semigroup for `search_bounded_retraction`."""

import itertools
import random
from collections import Counter
from typing import Iterable, Optional

from hypothesis import example, given, settings, strategies as st

from ualg import (
    BudgetExceeded,
    FiniteAlgebra,
    Morphism,
    Signature,
    Subuniverse,
    build_truncated,
    check_homomorphism,
    check_isomorphism,
    enumerate_homomorphisms,
    find_retractions,
    generate,
    search_bounded_retraction,
    validate_algebra,
)
from ualg.catalog import cyclic_group
from ualg.free_semigroup import ForcedStep, word_str
from ualg.morphisms import _element_profile, _orbit_sizes, _schedule, _search_homomorphisms

seeds = st.integers(min_value=0, max_value=2**62 - 1)


def arg_columns(n, m):
    """The m argument columns of all n**m row-major argument tuples over
    range(n): column j holds the j-th component of every tuple (the
    list-of-ints oracle that `core` once held)."""
    return [[v for v in range(n) for _ in range(n ** (m - 1 - j))] * n**j for j in range(m)]


def apply_columns(table, k, columns):
    """Row r applies the operation to the r-th entries of the argument
    columns, carrier indices over k elements: each row turned into a
    row-major table index and looked up.  A nullary operation has no
    columns and gives its one value."""
    if not columns:
        return [table[0]]
    idx = columns[0]
    for col in columns[1:]:
        idx = [i * k + b for i, b in zip(idx, col)]
    return [table[i] for i in idx]


def random_tables(rng, n, symbols):
    """Per symbol either a random table or an affine one, (a·Σx + c) mod n,
    whose elements look alike to the profile pruning and so leave the
    search many candidates per element."""
    tables = []
    for _, arity in symbols:
        cells = itertools.product(range(n), repeat=arity)
        if rng.random() < 0.5:
            a, c = rng.randrange(n), rng.randrange(n)
            tables.append([(a * sum(args) + c) % n for args in cells])
        else:
            tables.append([rng.randrange(n) for _ in cells])
    return tables


def make_algebra(name, elements, symbols, tables):
    ops = [(s, a, [elements[v] for v in t]) for (s, a), t in zip(symbols, tables)]
    return validate_algebra(name, elements, ops)


def relabelled(rng, alg, name):
    """A copy of alg over fresh element names, listed in a shuffled order."""
    n = len(alg.carrier)
    perm = list(range(n))
    rng.shuffle(perm)  # old index i becomes new index perm[i]
    inverse = [perm.index(j) for j in range(n)]
    tables = []
    for sym, arity in alg.signature.symbols:
        old = alg.table(sym)
        tables.append([
            perm[old[sum(inverse[x] * n ** (arity - 1 - p) for p, x in enumerate(args))]]
            for args in itertools.product(range(n), repeat=arity)
        ])
    return make_algebra(name, [f"r{j}" for j in range(n)], alg.signature.symbols, tables)


def brute_isomorphic(a, b):
    return any(
        check_homomorphism(Morphism(a, b, images))[0]
        for images in itertools.permutations(b.carrier)
    )


def iso_pair(seed):
    """A random algebra and a relabelled copy of it, with one table cell
    changed for half the seeds: usually, not always, no longer
    isomorphic."""
    rng = random.Random(seed)
    n = rng.randint(2, 5)
    symbols = [(f"f{i}", rng.randint(0, 2)) for i in range(rng.randint(1, 3))]
    a = make_algebra("A", [f"a{i}" for i in range(n)], symbols,
                     random_tables(rng, n, symbols))
    b = relabelled(rng, a, "B")
    if rng.random() < 0.5:
        sym, arity = rng.choice(symbols)
        tables = [list(b.table(s)) for s, _ in symbols]
        t = tables[symbols.index((sym, arity))]
        t[rng.randrange(len(t))] = rng.randrange(n)
        b = make_algebra("B", b.carrier, symbols, tables)
    return a, b


def ternary(symbols):
    """Whether a symbol is ternary: its tables grow as the cube of the
    carrier, so the tests that draw one keep carriers of at most 4."""
    return any(arity == 3 for _, arity in symbols)


def unary_algebra(name, table):
    return make_algebra(name, [f"{name.lower()}{i}" for i in range(len(table))],
                        [("f", 1)], [table])


@settings(max_examples=150, deadline=None)
@given(seeds.map(iso_pair))
# equal sorted element profiles, so only the search finds them not isomorphic
@example((unary_algebra("A", (0, 0, 0, 1, 4, 4)), unary_algebra("B", (0, 0, 0, 3, 3, 4))))
def test_check_isomorphism_matches_every_bijection(pair):
    a, b = pair
    iso = check_isomorphism(a, b)
    assert (iso is not None) == brute_isomorphic(a, b)
    if iso is not None:
        assert len(set(iso.images)) == len(a.carrier) and check_homomorphism(iso)[0]
        preimage = {v: x for x, v in iso.as_dict().items()}
        assert check_homomorphism(Morphism(b, a, tuple(preimage[y] for y in b.carrier)))[0]


def test_isomorphism_of_two_equal_cycles():
    # every element has the same profile, and x -> x mod 2 is a hom onto
    # one cycle: only the injectivity skip keeps it from being returned
    elements = ["c0", "c1", "c2", "c3"]
    C = validate_algebra("C", elements, [("s", 1, ["c1", "c0", "c3", "c2"])])
    iso = check_isomorphism(C, C)
    assert iso is not None and len(set(iso.images)) == 4


def walked_orbit_sizes(step):
    """Per element, the size of the set met by following step from it."""
    sizes = []
    for i in range(len(step)):
        seen = set()
        cur = i
        while cur not in seen:
            seen.add(cur)
            cur = step[cur]
        sizes.append(len(seen))
    return sizes


@settings(max_examples=200, deadline=None)
@given(seeds)
def test_orbit_sizes_match_walking_each_element(seed):
    # a few cycles with trees of tails hanging off them, shuffled
    rng = random.Random(seed)
    n = rng.randint(1, 40)
    roots = rng.randint(1, n)
    step = [rng.randrange(roots) for _ in range(roots)]  # cycles among the roots
    step += [rng.randrange(i) for i in range(roots, n)]  # tails into earlier elements
    perm = list(range(n))
    rng.shuffle(perm)
    shuffled = [0] * n
    for i, j in enumerate(step):
        shuffled[perm[i]] = perm[j]
    assert _orbit_sizes(shuffled) == walked_orbit_sizes(shuffled)


def counted_profile(alg):
    """The element profile with every table's outputs counted here: per
    symbol in name order, the output count, then the constant's
    indicator or the orbit size under the unary operation or diagonal."""
    n = len(alg.carrier)
    profiles = [[] for _ in range(n)]
    for sym, arity in sorted(alg.signature.symbols):
        table = alg.table(sym)
        counts = Counter(table)
        for i in range(n):
            profiles[i].append(counts[i])
        if arity == 0:
            for i in range(n):
                profiles[i].append(1 if table[0] == i else 0)
        else:
            diagonal = sum(n**p for p in range(arity))
            for i, size in enumerate(walked_orbit_sizes(table[::diagonal])):
                profiles[i].append(size)
    return [tuple(p) for p in profiles]


@settings(max_examples=60, deadline=None)
@given(seeds)
def test_output_counts_order_and_profile_match_counting_each_table(seed):
    # each table's outputs are counted once per algebra, and both the
    # fail-first order of the search and the element profile are read
    # off those counts; carriers past 256 keep their vectors as lists
    rng = random.Random(seed)
    n = rng.randint(250, 300) if rng.random() < 0.2 else rng.randint(1, 8)
    symbols = [(f"f{i}", rng.randint(0, 2 if n > 8 else 3)) for i in range(rng.randint(0, 3))]
    alg = make_algebra("A", [f"a{i}" for i in range(n)], symbols,
                       random_tables(rng, n, symbols))
    assert alg.output_counts == tuple(tuple(map(Counter(t).__getitem__, range(n)))
                                      for t in alg.tables)
    assert _element_profile(alg) == counted_profile(alg)
    hits = Counter(itertools.chain.from_iterable(alg.tables))
    order = sorted(range(n), key=lambda i: (-hits[i], i))
    fixed = {e: e for e in rng.sample(range(n), rng.randint(0, min(n, 2)))}
    _, levels, position = _schedule(alg, alg, fixed)
    for gen, start, *_ in levels[1:]:  # the first element in order outside the closure
        assert gen == next(e for e in order if position[e] >= start)


@settings(max_examples=150, deadline=None)
@given(seeds)
def test_find_retractions_matches_every_map(seed):
    rng = random.Random(seed)
    symbols = [(f"f{i}", rng.randint(0, 3)) for i in range(rng.randint(1, 3))]
    n = rng.randint(2, 4 if ternary(symbols) else 5)
    alg = make_algebra("A", [f"a{i}" for i in range(n)], symbols,
                       random_tables(rng, n, symbols))
    image = generate(alg, rng.sample(alg.carrier, rng.randint(0, n))).subuniverse
    members = set(image.members)
    brute = [
        images
        for images in itertools.product(alg.carrier, repeat=n)
        if set(images) == members
        and all(images[alg.index_of[e]] == e for e in members)
        and check_homomorphism(Morphism(alg, alg, images))[0]
    ]
    assert [m.images for m in find_retractions(alg, image)] == brute


def every_bounded_retraction(T, k):
    """Every map r of all words into the words of length <= k that fixes
    those and has r(uv) = r(u)r(v) whenever uv and r(u)r(v) are within
    the bound.  Words take values in length-lex order, and a partial map
    is dropped at the first product whose three words all have values
    and that fails: every map extending it fails that product too."""
    words, L = T.elements, T.bound
    codomain = [w for w in words if len(w) <= k]
    splits = {w: [(w[:i], w[i:]) for i in range(1, len(w))] for w in words}
    found = []

    def extend(pos, r):
        if pos == len(words):
            found.append(dict(r))
            return
        w = words[pos]
        for value in [w] if len(w) <= k else codomain:
            r[w] = value
            if all(len(r[u]) + len(r[v]) > L or r[u] + r[v] == value
                   for u, v in splits[w]):
                extend(pos + 1, r)
        del r[w]

    extend(0, {})
    return found


def test_bounded_retraction_matches_every_map():
    for gens, bounds in ((["a"], range(1, 6)), (["a", "b"], range(1, 4))):
        for L in bounds:
            T = build_truncated(gens, L)
            for k in range(1, L + 1):
                result = search_bounded_retraction(T, k)
                if k == L:
                    assert every_bounded_retraction(T, k) == [result.found]
                    assert result.transcript == ()
                    continue
                assert every_bounded_retraction(T, k) == [], (gens, L, k)
                assert result.found is None
                w = (gens[0],) * (k + 1)
                note = (f"r({word_str(w)}) = r({word_str(w[:-1])})r({gens[0]}) = "
                        f"{word_str(w)} has length {k + 1} > {k}")
                assert result.transcript == (ForcedStep(w, w[:-1], w[-1:], None, note),)


def oracle_cells(src, dst):
    """Fail-first order and, per source element, every cell that
    mentions it, as (output, target table, args)."""
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
        rows = list(zip(*cols)) if cols else [()]
        for args, out in zip(rows, outs):
            cell = (out, d_table, args)
            for a in {*args, out}:
                by_elem[a].append(cell)
    return sorted(range(n), key=lambda i: (-mentions[i], i)), by_elem


def oracle_consistent(cells, assignment, k):
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


def oracle_search(src, dst, candidates, fixed=None, injective=False,
                  stop_after=None, node_budget=10_000_000):
    """Backtracking with forward checking only: a cell is checked once
    its arguments and output are all assigned, and every source element
    is branched on."""
    n, k_dst = len(src.carrier), len(dst.carrier)
    order, by_elem = oracle_cells(src, dst)
    assignment: list[Optional[int]] = [None] * n
    used = [False] * k_dst
    fixed = fixed or {}
    for i, v in fixed.items():
        assignment[i] = v
        used[v] = injective
    order = [i for i in order if i not in fixed]
    results = []
    nodes = 0
    if not all(oracle_consistent(by_elem[i], assignment, k_dst) for i in fixed):
        return []
    tried = [0] * len(order)
    pos = 0
    while pos >= 0:
        if pos == len(order):
            results.append(tuple(assignment))
            if stop_after is not None and len(results) >= stop_after:
                break
            pos -= 1
            continue
        i = order[pos]
        cands, cells = candidates[i], by_elem[i]
        if assignment[i] is not None:
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
            if oracle_consistent(cells, assignment, k_dst):
                used[v] = injective
                tried[pos] = t
                pos += 1
                break
        else:
            assignment[i] = None
            tried[pos] = 0
            pos -= 1
    return results


def smallest_budget(search):
    """The smallest node budget at which search(budget) finishes: the
    search is deterministic, so it finishes at every larger budget."""
    lo, hi = 0, 1
    while True:
        try:
            search(hi)
            break
        except BudgetExceeded:
            lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            search(mid)
            hi = mid
        except BudgetExceeded:
            lo = mid
    return hi


def propagation_cells(src, dst):
    """Source elements in fail-first order; per source element the cells
    that take it as an argument, as (output, target table, args); and
    per nullary cell its output and the target's constant."""
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
        for args, out in zip(list(zip(*cols)), outs):
            cell = (out, d_table, args)
            for a in set(args):
                by_arg[a].append(cell)
    return sorted(range(n), key=lambda i: (-hits[i], i)), by_arg, ground


def propagating_search(src, dst, candidates, fixed=None, injective=False,
                       stop_after=None, node_budget=10_000_000):
    """Backtracking with propagation of forced cells, one cell at a time:
    once every argument of a cell is assigned, its output is assigned the
    target table's value there (or checked against it), on an undo
    trail.  Only unassigned elements are branched on, in fail-first
    order, and only branching assignments count as nodes."""
    n, k_dst = len(src.carrier), len(dst.carrier)
    order, by_arg, ground = propagation_cells(src, dst)
    fixed = fixed or {}
    allowed = [{fixed[i]} if i in fixed else set(c) for i, c in enumerate(candidates)]
    assignment: list[Optional[int]] = [None] * n
    used = [False] * k_dst
    trail: list[int] = []

    def settle(i: int, v: int) -> bool:
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
            used[assignment[i]] = False
            assignment[i] = None

    if not propagate([*ground, *fixed.items()]):
        return []
    order = [i for i in order if assignment[i] is None]
    results = []
    nodes = 0
    frames: list[tuple[int, int, int]] = []
    pos, t = 0, 0
    while True:
        while pos < len(order) and assignment[order[pos]] is not None:
            pos += 1
        if pos == len(order):
            results.append(tuple(assignment))
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


def assert_search_matches_propagation(src, dst, candidates, **kw):
    """Same solutions in the same order, and the same smallest budget at
    which the search finishes."""
    expected = propagating_search(src, dst, candidates, **kw)
    assert _search_homomorphisms(src, dst, candidates, **kw) == expected
    assert smallest_budget(
        lambda b: _search_homomorphisms(src, dst, candidates, node_budget=b, **kw)
    ) == smallest_budget(
        lambda b: propagating_search(src, dst, candidates, node_budget=b, **kw))
    return expected


def assert_search_matches_oracle(src, dst, candidates, **kw):
    """Same solutions in the same order, and the search finishes at
    every budget at which the oracle does; and exactly the solutions and
    the budget of the propagating search."""
    expected = oracle_search(src, dst, candidates, **kw)
    assert _search_homomorphisms(src, dst, candidates, **kw) == expected
    budget = smallest_budget(
        lambda b: oracle_search(src, dst, candidates, node_budget=b, **kw))
    assert _search_homomorphisms(src, dst, candidates, node_budget=budget, **kw) == expected
    assert assert_search_matches_propagation(src, dst, candidates, **kw) == expected
    return expected


@settings(max_examples=150, deadline=None)
@given(seeds)
# a ternary symbol: the search goes wrong on this seed if the closure
# walk leaves out the cells whose last argument is the element it is at
@example(7)
def test_search_matches_forward_checking(seed):
    # arities up to 3, so the closure walk's runs over argument tuples,
    # kept for arity 3 and more, meet the oracles too
    rng = random.Random(seed)
    symbols = [(f"f{i}", rng.randint(0, 3)) for i in range(rng.randint(1, 3))]
    most = 4 if ternary(symbols) else 6
    n = rng.randint(2, most)
    a = make_algebra("A", [f"a{i}" for i in range(n)], symbols,
                     random_tables(rng, n, symbols))
    if rng.random() < 0.3:
        m = rng.randint(2, most)
        b = make_algebra("B", [f"b{i}" for i in range(m)], symbols,
                         random_tables(rng, m, symbols))
    else:
        b = relabelled(rng, a, "B")
        if rng.random() < 0.5:
            sym, arity = rng.choice(symbols)
            tables = [list(b.table(s)) for s, _ in symbols]
            t = tables[symbols.index((sym, arity))]
            t[rng.randrange(len(t))] = rng.randrange(n)
            b = make_algebra("B", b.carrier, symbols, tables)
    every_a = [range(len(a.carrier))] * len(a.carrier)
    every_b = [range(len(b.carrier))] * len(a.carrier)

    assert_search_matches_oracle(a, b, every_b)
    # embeddings: a failing level releases exactly the images it took
    assert_search_matches_oracle(a, b, every_b, injective=True)

    image = generate(a, rng.sample(a.carrier, rng.randint(1, n))).subuniverse
    members = [a.index_of[e] for e in image.members]
    assert_search_matches_oracle(a, a, [members] * n, fixed={i: i for i in members})

    if len(b.carrier) == n:
        pa, pb = _element_profile(a), _element_profile(b)
        classes = [[j for j in range(n) if pb[j] == pa[i]] for i in range(n)]
        isos = assert_search_matches_oracle(a, b, classes, injective=True)
        assert_search_matches_oracle(a, b, classes, injective=True, stop_after=1)
        # the profile classes hold every iso and keep the first one first
        assert isos == oracle_search(a, b, every_a, injective=True)
        iso = check_isomorphism(a, b)
        assert (iso is None) == (not isos)
        if isos:
            assert iso.images == tuple(b.carrier[v] for v in isos[0])


def test_first_homomorphism_need_not_lead_the_list():
    # "first" is the first map the search meets in its fail-first order
    a = make_algebra("A", ["a0", "a1", "a2", "a3"], [("f", 1)], [[2, 2, 1, 0]])
    b = make_algebra("B", ["b0", "b1", "b2"], [("f", 1)], [[1, 0, 2]])
    every = [h.images for h in enumerate_homomorphisms(a, b)]
    assert every[0] == ("b0", "b0", "b1", "b1")
    assert enumerate_homomorphisms(a, b, mode="first").images == ("b1", "b1", "b0", "b0")


@settings(max_examples=150, deadline=None)
@given(seeds)
def test_first_homomorphism_is_one_of_the_list(seed):
    rng = random.Random(seed)
    n, m = rng.randint(1, 5), rng.randint(1, 5)
    symbols = [(f"f{i}", rng.randint(0, 2)) for i in range(rng.randint(1, 3))]
    a = make_algebra("A", [f"a{i}" for i in range(n)], symbols, random_tables(rng, n, symbols))
    b = make_algebra("B", [f"b{i}" for i in range(m)], symbols, random_tables(rng, m, symbols))
    every = enumerate_homomorphisms(a, b)
    first = enumerate_homomorphisms(a, b, mode="first")
    assert (first is None) == (not every)
    assert first is None or first in every
    assert enumerate_homomorphisms(a, b, mode="count") == len(every)


def cycle(name, n, extra=0):
    """The n-cycle under `s`, with `extra` fixed points after it."""
    elements = [f"{name.lower()}{i}" for i in range(n + extra)]
    return validate_algebra(name, elements, [
        ("s", 1, elements[1:n] + elements[:1] + elements[n:])])


def test_search_matches_propagation_at_the_packing_limit():
    # rows are packed as bytes while both carriers have at most 256
    # elements, and are lists past that
    C3 = cycle("T", 3)
    every = range(3)
    for n, count in ((255, 3), (256, 0), (257, 0)):
        C = cycle("C", n)
        assert len(assert_search_matches_propagation(C, C3, [every] * n)) == count
    C256, C257 = cycle("C", 256), cycle("T", 256, extra=1)
    assert len(assert_search_matches_propagation(C256, C257, [range(257)] * 256)) == 257
    Z = cyclic_group(300)
    (first,) = assert_search_matches_propagation(Z, Z, [range(300)] * 300, stop_after=1)
    assert first == (0,) * 300


def assert_runs_match_oracle(src, dst, rng):
    """Every kind of run, each against both oracles at its smallest
    budget: plain and injective; with candidates cut to a random subset
    of the target; and with a random element fixed as well."""
    n, m = len(src.carrier), len(dst.carrier)
    every = [range(m)] * n
    assert_search_matches_oracle(src, dst, every)
    assert_search_matches_oracle(src, dst, every, injective=True)
    subset = sorted(rng.sample(range(m), rng.randint(1, m)))
    assert_search_matches_oracle(src, dst, [subset] * n)
    fixed = {rng.randrange(n): rng.choice(subset)}
    assert_search_matches_oracle(src, dst, [subset] * n, fixed=fixed)
    assert_search_matches_oracle(src, dst, [subset] * n, fixed=fixed, injective=True,
                                 stop_after=1)


@settings(max_examples=40, deadline=None)
@given(seeds)
def test_search_matches_oracle_on_binary_targets_past_a_byte(seed):
    # 17-20 elements: a binary target table has more than 256 cells, so
    # it is checked run by run through its rows and derived per candidate
    rng = random.Random(seed)
    m = rng.randint(17, 20)
    symbols = [("f0", 2)] + [(f"f{i}", rng.randint(0, 2)) for i in range(1, rng.randint(1, 3))]
    b = make_algebra("B", [f"b{i}" for i in range(m)], symbols, random_tables(rng, m, symbols))
    n = rng.randint(1, 3)
    members = generate(b, rng.sample(b.carrier, 1)).subuniverse.members
    if len(members) <= 4 and rng.random() < 0.5:  # a source that maps in
        a = relabelled(rng, Subuniverse.of(b, members).as_algebra(), "A")
    else:
        a = make_algebra("A", [f"a{i}" for i in range(n)], symbols,
                         random_tables(rng, n, symbols))
    assert_runs_match_oracle(a, b, rng)


@settings(max_examples=60, deadline=None)
@given(seeds)
def test_search_matches_oracle_on_cycles(seed):
    # a level of a cycle derives all but one of its elements; the cell
    # that wraps around is the one left to check
    rng = random.Random(seed)
    a = cycle("C", rng.randint(1, 40), extra=rng.randint(0, 3))
    b = cycle("T", rng.randint(1, 6), extra=rng.randint(0, 2))
    assert_runs_match_oracle(a, b, rng)
    members = [a.index_of[e] for e in generate(a, rng.sample(a.carrier, 1)).subuniverse.members]
    assert_search_matches_oracle(a, a, [members] * len(a.carrier),
                                 fixed={i: i for i in members})


def test_symbols_sharing_one_target_table():
    # the target's f and g are one table object; a cell of g must still
    # be checked where f derived an image at the same arguments
    for seed in range(40):
        rng = random.Random(seed)
        n, m = rng.randint(1, 6), rng.randint(1, 4)
        symbols = [("f", 1), ("g", 1), ("h", 2), ("k", 2)]
        a = make_algebra("A", [f"a{i}" for i in range(n)], symbols,
                         random_tables(rng, n, symbols))
        u, w = [rng.randrange(m) for _ in range(m)], [rng.randrange(m) for _ in range(m * m)]
        b = FiniteAlgebra("B", tuple(f"b{i}" for i in range(m)), Signature(tuple(symbols)),
                          (tuple(u),) * 2 + (tuple(w),) * 2)
        assert b.tables[0] is b.tables[1] and b.tables[2] is b.tables[3]
        assert_search_matches_oracle(a, b, [range(m)] * n)
    # into C5 with both symbols as its successor: f is the successor of C5
    # and g too, but for g(c0) = c0.  f derives c1..c4 from c0..c3, and
    # only g's cell at c0, which has the arguments of f's first
    # derivation, rules out every rotation
    C5 = cycle("C", 5)
    succ = C5.table("s")
    a = FiniteAlgebra("A", C5.carrier, Signature((("f", 1), ("g", 1))),
                      (succ, (0, *succ[1:])))
    b = FiniteAlgebra("B", C5.carrier, Signature((("f", 1), ("g", 1))), (succ, succ))
    assert _search_homomorphisms(a, b, [range(5)] * 5) == []
    assert enumerate_homomorphisms(a, b, mode="count") == 0


def test_a_new_element_met_twice_in_one_run():
    # f(a1, a0) = f(a1, a1) = a2: the closure walk meets a2 twice on the
    # row of a1, derives its image at the first cell and must still check
    # the second, which alone rules out a0 -> b1, a1 -> b0, a2 -> b2
    a = make_algebra("A", ["a0", "a1", "a2"], [("f", 2)], [[1, 0, 0, 2, 2, 0, 0, 0, 0]])
    b = make_algebra("B", ["b0", "b1", "b2"], [("f", 2)], [[0, 2, 1, 1, 0, 1, 1, 1, 1]])
    assert assert_search_matches_oracle(a, b, [range(3)] * 3) == [(0, 0, 0)]

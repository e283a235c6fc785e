"""Table kernel and semi-naive closures against slow oracles: the naive
clone loop, the per-tuple semi-naive loops of `clone_n`, `generate` and
`adjoin_generate`, the run-by-run `close` and block plan (`run_blocks`),
the per-tuple induced tables, string-level product and subalgebra
tables, the `pointwise_apply` closure of extensions, the string-level
homomorphism check, position-by-position sums for `weighted_sum`, and
argument columns (`apply_columns`) for `satisfies` and the subuniverse
check.  Besides random small algebras, explicit examples have carriers
on both sides of 256 elements, the largest carrier whose index vectors
are packed as bytes, and closures of every packing of indices into
digits, with keys of one byte and of more."""

import dataclasses
import itertools
import math
import random
import sys
import time
import tracemalloc
from typing import Optional, Sequence

from hypothesis import example, given, settings, strategies as st

from ualg import (Equation, Morphism, UnknownElement, check_homomorphism, clone_n,
                  direct_product, is_subuniverse, satisfies, validate_algebra)
from ualg import core
from ualg.catalog import boolean_2, cyclic_group, sheffer, vector_space_gf
from ualg.core import (PACK_LIMIT, ClosureWitness, FiniteAlgebra, Rows, Subuniverse, apply_run,
                       close, induced_tables, pack, run_blocks, semi_naive_runs, weighted_sum)
from ualg.generation import CloneFragment, CloneMember, GenerationResult, GenerationTrace, generate
from ualg.morphisms import HomWitness
from ualg.reduced_power import (_sort_key, adjoin_generate, canonicalize, coordinate_retraction,
                                std_embed)
from ualg.terms import App, SatisfactionResult, Var, term_variables

from conftest import pointwise_apply

seeds = st.integers(min_value=0, max_value=2**62 - 1)


def arg_columns(n, m):
    """The m argument columns of all n**m row-major argument tuples over
    range(n): column j holds the j-th component of every tuple (the
    list-of-ints oracle that `core` once held)."""
    return [[v for v in range(n) for _ in range(n ** (m - 1 - j))] * n**j for j in range(m)]


def apply_columns(table, k, columns, rows=1):
    """Row r applies the operation to the r-th entries of the argument
    columns, carrier indices over k elements: each row turned into a
    row-major table index and looked up.  A nullary operation has no
    columns and gives `rows` copies of its value."""
    if not columns:
        return [table[0]] * rows
    idx = columns[0]
    for col in columns[1:]:
        idx = [i * k + b for i, b in zip(idx, col)]
    return [table[i] for i in idx]


def random_family(rng, count, max_arity=3):
    """`count` random algebras of 2-4 elements over one signature of arity
    0-3; every factor after the first lists the symbols in another order."""
    symbols = [(f"f{i}", rng.randint(0, max_arity)) for i in range(rng.randint(1, 3))]
    family = []
    for j in range(count):
        elements = [f"a{j}_{i}" for i in range(rng.randint(2, 4))]
        ops = [(s, a, [rng.choice(elements) for _ in range(len(elements) ** a)])
               for s, a in symbols]
        if j:
            rng.shuffle(ops)
        family.append(validate_algebra(f"R{j}", elements, ops))
    return family


def wide_algebra(size, name="W"):
    """A random algebra of `size` elements with a constant, a unary and a
    binary operation, commutative for an even size."""
    rng = random.Random(size)
    elements = [f"e{i}" for i in range(size)]
    binary = rng.choices(elements, k=size * size)
    if size % 2 == 0:
        binary = [binary[min(a, b) * size + max(a, b)] for a in range(size) for b in range(size)]
    return validate_algebra(name, elements, [("c", 0, [rng.choice(elements)]),
                                             ("u", 1, rng.choices(elements, k=size)),
                                             ("m", 2, binary)])


def max_chain(size):
    """The chain 0 < 1 < ... < size-1 under max."""
    elements = [f"e{i}" for i in range(size)]
    return validate_algebra(f"C{size}", elements,
                            [("max", 2, [elements[max(a, b)] for a in range(size)
                                         for b in range(size)])])


def late_witness_map(size):
    """An endomorphism of max_chain(size) except that the top goes two
    below itself: the first bad cell is max(e[size-2], e[size-1]), in the
    second-last row."""
    chain = max_chain(size)
    return Morphism(chain, chain, chain.carrier[:-1] + chain.carrier[-3:-2])


def row_major_index(args, size):
    idx = 0
    for a in args:
        idx = idx * size + a
    return idx


def oracle_clone_n(alg, n, budget):
    """Naive rounds: every tuple of every member, every round."""
    k = len(alg.carrier)
    points = list(itertools.product(range(k), repeat=n))
    found = {tuple(p[i] for p in points): Var(i) for i in range(n)}
    attempts, complete, changed = 0, True, True
    while changed and complete:
        changed = False
        members = list(found.items())
        for sym, arity in alg.signature.symbols:
            table = alg.table(sym)
            if arity == 0:
                const = (table[0],) * len(points)
                if const not in found:
                    found[const] = App(sym, ())
                    changed = True
                continue
            for combo in itertools.product(members, repeat=arity):
                attempts += 1
                if attempts > budget:
                    complete = False
                    break
                composed = tuple(
                    table[row_major_index([c[0][p] for c in combo], k)]
                    for p in range(len(points))
                )
                if composed not in found:
                    found[composed] = App(sym, tuple(c[1] for c in combo))
                    changed = True
            if not complete:
                break
    members = tuple(CloneMember(table=t, witness=w) for t, w in sorted(found.items()))
    return CloneFragment(algebra=alg.name, arity=n, members=members, complete=complete)


def new_tuples(count, new_from, arity):
    """Row-major argument tuples over members 0..count-1 that hold a
    member new in the last round, one at a time."""
    return (t for t in itertools.product(range(count), repeat=arity) if max(t) >= new_from)


def commutative(alg):
    k = len(alg.carrier)
    return any(arity == 2 and all(t[a * k + b] == t[b * k + a] for a in range(k) for b in range(k))
               for (_, arity), t in zip(alg.signature.symbols, alg.tables))


def symmetrised(alg, rng):
    """alg with each binary table made commutative with probability 1/2."""
    k = len(alg.carrier)
    tables = tuple(
        tuple(t[min(a, b) * k + max(a, b)] for a in range(k) for b in range(k))
        if arity == 2 and rng.random() < 0.5 else t
        for (_, arity), t in zip(alg.signature.symbols, alg.tables)
    )
    return dataclasses.replace(alg, tables=tables)


def tuple_clone_n(alg, n, budget):
    """The per-tuple loop that `clone_n` replaced: semi-naive rounds, one
    kernel call and one attempt per argument tuple; returns the fragment
    and the attempts made."""
    k = len(alg.carrier)
    found = {tuple(col): Var(i) for i, col in enumerate(arg_columns(k, n))}
    attempts, complete, new_from = 0, True, 0
    while new_from < len(found) and complete:
        members = list(found.items())
        for sym, arity in alg.signature.symbols:
            table = alg.table(sym)
            if arity == 0:
                const = (table[0],) * k**n
                if const not in found:
                    found[const] = App(sym, ())
                continue
            for combo in new_tuples(len(members), new_from, arity):
                if attempts == budget:
                    complete = False
                    break
                attempts += 1
                composed = tuple(apply_columns(table, k, [members[c][0] for c in combo]))
                if composed not in found:
                    found[composed] = App(sym, tuple(members[c][1] for c in combo))
            if not complete:
                break
        new_from = len(members)
    members = tuple(CloneMember(table=t, witness=w) for t, w in sorted(found.items()))
    return CloneFragment(alg.name, n, members, complete), attempts


def tuple_generate(alg, seed):
    """Semi-naive rounds applied one argument tuple at a time."""
    current = {alg.index_of[e] for e in seed}
    current |= {alg.table(s)[0] for s in alg.signature.nullary_names()}
    found, new_from = sorted(current), 0
    stages = [set(current)]
    while new_from < len(found):
        count = len(found)
        for sym, arity in alg.signature.symbols:
            for combo in new_tuples(count, new_from, arity) if arity else ():
                args = [found[c] for c in combo]
                out = alg.table(sym)[row_major_index(args, len(alg.carrier))]
                if out not in current:
                    current.add(out)
                    found.append(out)
        new_from = count
        if len(found) > count:
            stages.append(set(current))

    def as_elements(idx):
        return tuple(e for i, e in enumerate(alg.carrier) if i in idx)

    return GenerationResult(
        Subuniverse(alg, as_elements(current)),
        GenerationTrace(as_elements({alg.index_of[e] for e in seed}),
                        tuple(as_elements(s) for s in stages)),
    )


def tuple_adjoin_members(alg, gens):
    """Semi-naive rounds of `pointwise_apply`, one argument tuple at a
    time, over members in insertion order; sorted as `adjoin_generate`
    lists them."""
    members = dict.fromkeys([std_embed(alg, e) for e in alg.carrier] + list(gens))
    new_from = 0
    while new_from < len(members):
        count, listed = len(members), list(members)
        for sym, arity in alg.signature.symbols:
            for combo in new_tuples(count, new_from, arity) if arity else ():
                members.setdefault(pointwise_apply(sym, [listed[c] for c in combo]))
        new_from = count
    return tuple(sorted(members, key=_sort_key))


def oracle_product_tables(factors):
    tuples = list(itertools.product(*(f.carrier for f in factors)))
    index = {t: i for i, t in enumerate(tuples)}
    return tuple(
        tuple(
            index[tuple(f.apply(sym, *(tuples[a][fi] for a in args))
                        for fi, f in enumerate(factors))]
            for args in itertools.product(range(len(tuples)), repeat=arity)
        )
        for sym, arity in factors[0].signature.symbols
    )


def oracle_adjoin(alg, gens):
    """Naive rounds of `pointwise_apply` over sorted snapshots, then every
    table cell by `pointwise_apply` again."""
    members = {std_embed(alg, e) for e in alg.carrier} | set(gens)
    changed = True
    while changed:
        changed = False
        snapshot = sorted(members, key=_sort_key)
        for sym, arity in alg.signature.symbols:
            for combo in itertools.product(snapshot, repeat=arity) if arity else ():
                out = pointwise_apply(sym, combo)
                if out not in members:
                    members.add(out)
                    changed = True
    ordered = sorted(members, key=_sort_key)
    index = {m: i for i, m in enumerate(ordered)}
    tables = tuple(
        (index[std_embed(alg, alg.apply(sym))],) if arity == 0 else tuple(
            index[pointwise_apply(sym, combo)]
            for combo in itertools.product(ordered, repeat=arity)
        )
        for sym, arity in alg.signature.symbols
    )
    return tuple(ordered), tables


# `core.close` as it was before it composed runs in blocks: one
# `apply_run` call, one tuple split and one set test per run
def oracle_close(alg: FiniteAlgebra, starts: Sequence[tuple[int, ...]], budget: Optional[int] = None
                 ) -> tuple[list[tuple[int, ...]], list, list[int], bool]:
    """Closure of distinct equal-width start vectors of carrier indices
    under the basic operations applied pointwise.

    Members are the starts, then each new vector in the order found, so
    those new in a round form a suffix.  Each round composes only
    argument tuples that hold a member new in the round before, one
    row-major run of last arguments per `apply_run` call, and skips
    f(b, a) after f(a, b) for a commutative binary f, which changes no member
    and no order.  Returns (members, derivations, rounds, complete):
    derivations[i] is (symbol, argument member indices) for the
    application that found member i, or None for a start; rounds holds
    the member count after the starts and after each round that added
    members.  budget caps the composition attempts (a nullary symbol
    makes none); on overrun the closure stops at the exact attempt the
    budget allows and complete is False."""
    k = len(alg.carrier)
    width = len(starts[0]) if starts else 0
    members = list(starts)
    seen = set(members)
    derivations: list = [None] * len(members)
    flat = pack(itertools.chain.from_iterable(members), k)
    rounds = [len(members)]
    commutative = [arity == 2 and all(t[a * k:(a + 1) * k] == t[a::k] for a in range(k))
                   for (_, arity), t in zip(alg.signature.symbols, alg.tables)]
    op_rows = [Rows(t, k, k) for t in alg.tables]
    limit = float("inf") if budget is None else budget
    attempts, new_from, complete = 0, 0, True
    while complete and new_from < len(members):
        count = len(members)
        for (sym, arity), table, rows, skip in zip(alg.signature.symbols, alg.tables, op_rows,
                                                   commutative):
            if arity == 0:
                const = (table[0],) * width
                if const not in seen:
                    seen.add(const)
                    members.append(const)
                    flat.extend(const)
                    derivations.append((sym, ()))
                continue
            for prefix, low in semi_naive_runs(count, new_from, arity):
                if skip:
                    low = max(low, prefix[0])
                length = min(count - low, limit - attempts)
                attempts += length
                outs = apply_run(rows, k, [members[c] for c in prefix],
                                  flat[low * width:(low + length) * width], width)
                outs = list(zip(*[iter(outs)] * width))
                if not seen.issuperset(outs):
                    for last, out in enumerate(outs, low):
                        if out not in seen:
                            seen.add(out)
                            members.append(out)
                            flat.extend(out)
                            derivations.append((sym, prefix + (last,)))
                if length < count - low:
                    complete = False
                    break
            if not complete:
                break
        new_from = count
        if len(members) > count:
            rounds.append(len(members))
    return members, derivations, rounds, complete


def oracle_check_homomorphism(m):
    for sym, arity in m.source.signature.symbols:
        for args in itertools.product(m.source.carrier, repeat=arity):
            lhs = m(m.source.apply(sym, *args))
            rhs = m.target.apply(sym, *(m(a) for a in args))
            if lhs != rhs:
                return False, HomWitness(sym, args, lhs, rhs)
    return True, None


@settings(max_examples=150, deadline=None)
@given(seeds)
def test_clone_matches_naive_rounds(seed):
    rng = random.Random(seed)
    (alg,) = random_family(rng, 1)
    n = rng.randint(1, 2)
    budget = rng.choice([50, 2000])
    fast, slow = clone_n(alg, n, budget=budget), oracle_clone_n(alg, n, budget)
    if slow.complete:
        assert fast == slow
    # semi-naive rounds make no attempt that the naive rounds skip
    assert fast.complete or not slow.complete


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6), st.integers(0, 6), st.integers(0, 3))
def test_semi_naive_runs_list_the_new_tuples(count, new_from, arity):
    new_from = min(new_from, count - 1)
    expanded = [prefix + (last,) for prefix, low in semi_naive_runs(count, new_from, arity)
                for last in range(low, count)]
    assert expanded == (list(new_tuples(count, new_from, arity)) if arity else [])


def oracle_run_blocks(count, new_from, arity, skip, width, allowed):
    """`core.run_blocks` as it was before it planned a block at a time:
    one `semi_naive_runs` step, one `min` and one append per run, each
    block yielded with its attempt count."""
    block, attempts = [], 0
    for prefix, low in semi_naive_runs(count, new_from, arity):
        if skip:
            low = max(low, prefix[0])
        length = min(count - low, allowed)
        allowed -= length
        block.append((prefix, low, length))
        attempts += length
        if length < count - low:
            break
        if attempts * width >= core.BLOCK_CELLS:
            yield block, attempts
            block, attempts = [], 0
    if block:
        yield block, attempts


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 40), st.integers(0, 40), st.integers(1, 3), st.booleans(),
       st.integers(1, 9), st.one_of(st.none(), st.integers(0, 3000)), st.integers(1, 300))
@example(5, 0, 2, False, 1, 25, 1 << 14)   # the budget ends with the last run: no cut run
@example(5, 0, 2, False, 1, 15, 1 << 14)   # it ends with the third: the fourth is cut to 0
@example(5, 0, 2, False, 1, 15, 15)        # ... and the block ends with the third too
@example(40, 0, 3, False, 2, None, 7)      # blocks shorter than one run
def test_run_blocks_match_run_by_run_blocks(count, new_from, arity, skip, width, budget,
                                            block_cells):
    # the same blocks, runs, attempt counts and budget cut as planning
    # run by run, with blocks of block_cells cells so that most cases have several
    new_from = min(new_from, count - 1)
    skip = skip and arity == 2
    allowed = float("inf") if budget is None else budget
    saved, core.BLOCK_CELLS = core.BLOCK_CELLS, block_cells
    try:
        fast = list(run_blocks(count, new_from, arity, skip, width, allowed))
        slow = list(oracle_run_blocks(count, new_from, arity, skip, width, allowed))
    finally:
        core.BLOCK_CELLS = saved
    assert [(block, ends[-1]) for block, ends in fast] == slow
    for block, ends in fast:
        assert ends == list(itertools.accumulate(length for _, _, length in block))


def test_run_planning_stays_per_block():
    # a ternary symbol over 2,048 starts has 2,048**2 prefixes in its
    # first round; a budget of a few attempts stops it after the first
    # runs, so the plan must not list the round's prefixes first
    alg = validate_algebra("M", ["e0", "e1"], [("maj", 3, ["e0", "e0", "e0", "e1",
                                                           "e0", "e1", "e1", "e1"])])
    starts = list(itertools.product(range(2), repeat=11))
    for budget in (0, 3, 5000):
        start = time.perf_counter()
        result = close(alg, starts, budget)
        assert time.perf_counter() - start < 1.0, budget
        assert result == oracle_close(alg, starts, budget)
        assert result[0] == starts and not result[3]


@settings(max_examples=150, deadline=None)
@given(seeds)
def test_clone_runs_match_tuple_loop(seed):
    # half of the binary tables are made commutative, so that clone_n
    # skips f(b, a) after f(a, b); complete fragments must not change
    rng = random.Random(seed)
    (alg,) = random_family(rng, 1)
    alg = symmetrised(alg, rng)
    n = rng.randint(1, 2)
    budget = rng.choice([200, 1500])
    fast = clone_n(alg, n, budget=budget)
    slow, attempts = tuple_clone_n(alg, n, budget)
    if slow.complete:
        assert fast == slow
    assert fast.complete or not slow.complete
    if not commutative(alg):
        # without the skip the budget cuts at the same attempt: a random
        # small range, and the last attempts of a complete fragment
        low = rng.randint(0, min(attempts, 300))
        last = range(max(0, attempts - 2), attempts + 2) if slow.complete else ()
        for b in sorted({*range(low, low + 4), *last}):
            assert clone_n(alg, n, budget=b) == tuple_clone_n(alg, n, b)[0], b


def generation_case(seed):
    rng = random.Random(seed)
    (alg,) = random_family(rng, 1)
    alg = symmetrised(alg, rng)
    return alg, rng.sample(alg.carrier, rng.randint(0, 2))


WIDE = [wide_algebra(size) for size in (255, 256, 257)]


@settings(max_examples=150, deadline=None)
@given(seeds.map(generation_case))
@example((WIDE[0], ["e7"]))
@example((WIDE[1], []))
@example((WIDE[2], ["e3", "e200"]))
@example((cyclic_group(300), ["g2"]))
def test_generate_runs_match_tuple_loop(case):
    alg, gens = case
    assert generate(alg, gens) == tuple_generate(alg, gens)


def oracle_induced_tables(sub):
    """Every cell of the induced algebra by `apply` on element names."""
    position = {e: i for i, e in enumerate(sub.members)}
    return tuple(
        tuple(position[sub.parent.apply(sym, *args)]
              for args in itertools.product(sub.members, repeat=arity))
        for sym, arity in sub.parent.signature.symbols
    )


def random_subuniverse(seed):
    rng = random.Random(seed)
    (alg,) = random_family(rng, 1)
    return generate(alg, rng.sample(alg.carrier, rng.randint(1, 2))).subuniverse


@settings(max_examples=150, deadline=None)
@given(seeds.map(random_subuniverse))
@example(Subuniverse(WIDE[0], WIDE[0].carrier))
@example(Subuniverse(WIDE[1], WIDE[1].carrier))
@example(generate(WIDE[2], ["e3"]).subuniverse)
@example(generate(cyclic_group(300), ["g2"]).subuniverse)  # 150 elements
def test_as_algebra_matches_string_apply(sub):
    induced = sub.as_algebra("S")
    assert induced.carrier == sub.members
    assert induced.tables == oracle_induced_tables(sub)


def random_factors(seed):
    rng = random.Random(seed)
    factors = random_family(rng, rng.randint(1, 3))
    max_arity = max(a for _, a in factors[0].signature.symbols)
    while math.prod(len(f.carrier) for f in factors) ** max_arity > 4096:
        factors.pop()
    return factors


@settings(max_examples=100, deadline=None)
@given(seeds.map(random_factors))
@example([wide_algebra(16, "P"), wide_algebra(17, "Q")])  # 272 elements
def test_direct_product_matches_string_tables(factors):
    prod = direct_product(factors)
    assert prod.product.tables == oracle_product_tables(factors)
    tuples = list(itertools.product(*(f.carrier for f in factors)))
    assert len(prod.projections) == len(factors)
    for fi, (f, proj) in enumerate(zip(factors, prod.projections)):
        assert (proj.source, proj.target) == (prod.product, f)
        assert proj.images == tuple(t[fi] for t in tuples)
        assert set(proj.images) == set(f.carrier) and check_homomorphism(proj)[0]


@settings(max_examples=40, deadline=None)
@given(seeds)
def test_adjoin_matches_pointwise_closure(seed):
    rng = random.Random(seed)
    (alg,) = random_family(rng, 1)
    alg = symmetrised(alg, rng)
    # members <= k**(pre + period), so at most 2048 cells per table
    k, arity = len(alg.carrier), max(1, *(a for _, a in alg.signature.symbols))
    pre, period = rng.randint(0, 1), rng.randint(1, 4)
    while period > 1 and k ** ((pre + period) * arity) > 2048:
        period -= 1
    if k ** ((pre + period) * arity) > 2048:
        pre = 0
    gens = [
        canonicalize(alg, [rng.choice(alg.carrier) for _ in range(rng.randint(0, pre))],
                     [rng.choice(alg.carrier) for _ in range(period)])
        for _ in range(rng.randint(1, 2))
    ]
    ext = adjoin_generate(alg, gens)
    members, tables = oracle_adjoin(alg, gens)
    assert ext.members == members == tuple_adjoin_members(alg, gens)
    assert ext.algebra.tables == tables
    assert ext.labels == tuple(zip(ext.algebra.carrier, members))
    label = {m: e for e, m in ext.labels}
    assert ext.constants() == tuple(label[std_embed(alg, e)] for e in alg.carrier)
    for i in range(pre + period):
        r = coordinate_retraction(ext, i)
        assert r.images == tuple(label[std_embed(alg, m.at(i))] for m in members)
        assert all(r(c) == c for c in ext.constants())
        assert check_homomorphism(r)[0]


def closure_case(seed, k, width, columns, arities, budget):
    """Distinct start vectors of `width` carrier indices over k elements
    that repeat `columns` random columns, so the closure has at most
    k**columns members at any width; one random symbol per arity, a
    binary one made commutative for an even seed."""
    rng = random.Random(seed)
    elements = [f"e{i}" for i in range(k)]
    ops = []
    for i, arity in enumerate(arities):
        values = rng.choices(elements, k=k**arity)
        if arity == 2 and seed % 2 == 0:
            values = [values[min(a, b) * k + max(a, b)] for a in range(k) for b in range(k)]
        ops.append((f"f{i}", arity, values))
    alg = validate_algebra(f"K{k}", elements, ops)
    where = [rng.randrange(columns) for _ in range(width)]
    bases = [[rng.randrange(k) for _ in range(columns)] for _ in range(rng.randint(0, 3))]
    starts = list(dict.fromkeys(tuple(base[c] for c in where) for base in bases))
    return alg, starts, budget


def constant_case(k, count, budget):
    """Starts e1..e<count> of width 1 under one binary operation that is
    the constant e0, not a start: every output of the first round is the
    one new member.  With k = 256 and 200 starts the round's runs have
    200, 199, ... attempts, and its first block of 2**14 attempts ends
    with its 115th run, at attempt 16,445."""
    elements = [f"e{i}" for i in range(k)]
    alg = validate_algebra(f"C{k}", elements, [("c", 2, ["e0"] * k * k)])
    return alg, [(i,) for i in range(1, count + 1)], budget


# closures that reach all k**width vectors: the projections of
# clone_n(B, 3), 256 members after 32,192 of 66,048 attempts, and `gen`
# on GF(2)^8 from its 8 atoms, 256 members after 11,188 of 33,664
CLONE_B3 = (boolean_2(), [tuple(c) for c in arg_columns(2, 3)])
V2_8 = vector_space_gf(2, 8)
V2_8_ATOMS = sorted((V2_8.index_of[f"v{1 << i}"],) for i in range(8))


def random_closure_case(seed):
    # k**arity on both sides of PACK_LIMIT, and 257 takes the list path;
    # widths 1-20 reach keys of 1, 2, 4, 8, 16 and 24 bytes, with unused
    # bytes; at most k**columns members, so at most 257**2 argument tuples
    rng = random.Random(seed)
    k = rng.choice([1, 2, 3, 4, 5, 6, 7, 17, 257])
    arities = rng.sample([0, 1, 2, 2, 3] if k < 257 else [0, 1, 1, 2], rng.randint(1, 3))
    columns = 1
    while k > 1 and k ** ((columns + 1) * max(arities + [1])) <= 257**2:
        columns += 1
    budget = rng.choice([None, None, 0, 1, rng.randint(2, 60), rng.randint(60, 20000)])
    return closure_case(seed, k, rng.randint(1, 20), rng.randint(1, columns), arities, budget)


@settings(max_examples=300, deadline=None)
@given(seeds.map(random_closure_case))
@example(closure_case(2, 257, 1, 1, [0, 1, 2], None))   # 257 members, rounds of two blocks
@example(closure_case(0, 257, 1, 1, [2], 14465))        # cut inside a round's first block
@example(closure_case(880, 257, 3, 1, [0, 1], None))    # a constant past a byte: e256
@example(closure_case(6, 2, 20, 8, [2], 856))           # 128 members; cut inside a full block
@example(closure_case(116, 2, 12, 5, [3], None))        # 32 members, ternary, one translate
@example((closure_case(6, 3, 5, 1, [0, 2], None)[0], [], None))  # no starts
@example((boolean_2(), [tuple(c) for c in arg_columns(2, 4)], 1_000_000))  # clone_n(B, 4) cut
# digits of g indices (`Packing`), each cut inside a block: g = 4 at width 4,
# and at width 5 with 3 filled cells; g = 8 on a unary-only signature at
# width 9, 7 filled; g = 2 for a ternary k = 2 at width 7, and for binary
# k = 3 and k = 4 at width 3, 1 filled each; g = 3 on one element
@example(closure_case(10, 2, 4, 4, [2], 57))             # 16 members, cut at the 15th
@example(closure_case(10, 2, 5, 5, [2], 51))
@example(closure_case(37, 2, 9, 9, [1, 1], 8))
@example(closure_case(105, 2, 7, 4, [3], 174))
@example(closure_case(101, 3, 3, 3, [2], 96))
@example(closure_case(25, 4, 3, 3, [2], 379))
@example(closure_case(0, 1, 3, 1, [0, 1, 2], 1))
# each side of one-byte keys (`fresh_keys`, base**length <= 256 in
# `Packing`): k = 2 with a binary symbol at width 8 (two base-16 digits)
# and 9 (three); k = 256 at width 1, the shape of `gen`; k = 4 at width
# 4; each complete and cut
@example(closure_case(173, 2, 8, 8, [1, 2], None))      # 64 members
@example(closure_case(173, 2, 8, 8, [1, 2], 1072))
@example(closure_case(185, 2, 9, 9, [1, 2], None))      # 64 members
@example(closure_case(185, 2, 9, 9, [1, 2], 2080))
@example(closure_case(38, 256, 1, 1, [2], None))        # 256 members
@example(closure_case(38, 256, 1, 1, [2], 16448))
@example(closure_case(12, 4, 4, 4, [2], None))          # 64 members
@example(closure_case(12, 4, 4, 4, [2], 1040))
# one new member fills a whole block; cut at 0, at 1, inside the first
# block and at its end, and on both sides of one-byte keys
@example(constant_case(256, 200, None))
@example(constant_case(256, 200, 0))
@example(constant_case(256, 200, 1))
@example(constant_case(256, 200, 9000))
@example(constant_case(256, 200, 16445))
@example(constant_case(257, 200, 16445))
@example(constant_case(257, 200, 9000))
# saturating closures, complete and cut after the last member: the
# attempts left are counted, not composed
@example((*CLONE_B3, None))
@example((*CLONE_B3, 32192))                             # the attempt that adds the 256th
@example((*CLONE_B3, 66047))
@example((*CLONE_B3, 66048))
@example((V2_8, V2_8_ATOMS, None))
@example((V2_8, V2_8_ATOMS, 11188))
@example((V2_8, V2_8_ATOMS, 20000))
@example((V2_8, V2_8_ATOMS, 33663))
def test_close_matches_run_by_run_close(case):
    alg, starts, budget = case
    assert close(alg, starts, budget) == oracle_close(alg, starts, budget)


def test_saturated_closure_composes_no_more(monkeypatch):
    # once all k**width vectors are members no output can be new, so
    # `close` composes no further block; `induced_tables` still composes
    # every run of a closed member list
    compose, calls = core.Packing.compose, []

    def guarded(self, i, arity, block, flat):
        if sys._getframe(1).f_code is core.close.__code__:
            assert len(flat) // self.length < self.k ** self.width
            calls.append(i)
        return compose(self, i, arity, block, flat)

    monkeypatch.setattr(core.Packing, "compose", guarded)
    w2 = sheffer(2)
    b8 = direct_product([boolean_2()] * 8).product
    assert len(clone_n(boolean_2(), 3).members) == 256
    assert len(clone_n(w2, 3).members) == 256
    assert len(generate(V2_8, [V2_8.carrier[i] for i, in V2_8_ATOMS]).members) == 256
    assert len(generate(b8, [b8.carrier[1 << i] for i in range(8)]).members) == 256  # atoms
    # windows of 4 with the 4 distinct columns (a0, a0), (a1, a0), (a0, a1), (a1, a1)
    gens = [canonicalize(w2, [], ["a0", "a1"]), canonicalize(w2, [], ["a0", "a0", "a1", "a1"])]
    assert len(adjoin_generate(w2, gens).members) == 16
    assert calls


def tuple_induced_tables(alg, members):
    """Each cell of the induced tables by one table lookup per index of
    each argument tuple of members, in row-major order."""
    k, width = len(alg.carrier), len(members[0])
    position = {m: i for i, m in enumerate(members)}
    tables = []
    for (_, arity), table in zip(alg.signature.symbols, alg.tables):
        cells = []
        for args in itertools.product(members, repeat=arity):
            out = []
            for c in range(width):
                r = 0
                for a in args:
                    r = r * k + a[c]
                out.append(table[r])
            cells.append(position[tuple(out)])
        tables.append(tuple(cells))
    return tuple(tables)


def closed_case(seed, k, width, columns, arities):
    """The algebra of a closure_case and the complete closure of its
    starts, or of the zero vector when it has none."""
    alg, starts, _ = closure_case(seed, k, width, columns, arities, None)
    return alg, close(alg, starts or [(0,) * width])[0]


def random_induced_case(seed):
    # the kinds of random_closure_case, with at most about 4096 argument
    # tuples per symbol for the tuple loop
    rng = random.Random(seed)
    k = rng.choice([1, 2, 3, 4, 5, 6, 7, 17, 257])
    arities = rng.sample([0, 1, 2, 2, 3] if k < 257 else [0, 1, 1, 2], rng.randint(1, 3))
    columns = 1
    while k > 1 and k ** ((columns + 1) * max(arities + [1])) <= 4096:
        columns += 1
    return closed_case(seed, k, rng.randint(1, 12), rng.randint(1, columns), arities)


@settings(max_examples=150, deadline=None)
@given(seeds.map(random_induced_case))
@example(closed_case(10, 2, 4, 4, [2]))                 # the packings of the close examples
@example(closed_case(10, 2, 5, 5, [2]))
@example(closed_case(37, 2, 9, 9, [1, 1]))
@example(closed_case(105, 2, 7, 4, [3]))
@example(closed_case(101, 3, 3, 3, [2]))
@example(closed_case(25, 4, 3, 3, [2]))
@example(closed_case(0, 1, 3, 1, [0, 1, 2]))
@example((WIDE[2], [(i,) for i in range(257)]))          # 257 elements, lists
@example(closed_case(173, 2, 8, 8, [1, 2]))              # one-byte keys, and not, as in close
@example(closed_case(185, 2, 9, 9, [1, 2]))
@example(closed_case(38, 256, 1, 1, [2]))                 # 256 members: every key byte
@example(closed_case(12, 4, 4, 4, [2]))
@example((constant_case(256, 200, None)[0], [(0,), *constant_case(256, 200, None)[1]]))
@example((constant_case(257, 200, None)[0], [(0,), *constant_case(257, 200, None)[1]]))
def test_induced_tables_match_tuple_loop(case):
    alg, members = case
    assert induced_tables(alg, members) == tuple_induced_tables(alg, members)


def random_morphism(seed):
    rng = random.Random(seed)
    src, dst = random_family(rng, 2)
    if rng.random() < 0.3:
        dst = src
    images = tuple(rng.choice(dst.carrier) for _ in src.carrier)
    if dst is src and rng.random() < 0.5:
        images = src.carrier  # the identity, a homomorphism
    return Morphism(src, dst, images)


Z300, Z60 = cyclic_group(300), cyclic_group(60)


@settings(max_examples=200, deadline=None)
@given(seeds.map(random_morphism))
@example(Morphism(Z300, Z300, tuple(Z300.carrier[7 * i % 300] for i in range(300))))
@example(Morphism(Z60, Z300, tuple(Z300.carrier[5 * i] for i in range(60))))
@example(Morphism(Z300, Z300, Z300.carrier[1:] + Z300.carrier[:1]))
@example(late_witness_map(200))
@example(late_witness_map(300))
def test_check_homomorphism_matches_string_level(m):
    assert check_homomorphism(m) == oracle_check_homomorphism(m)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([2, 3, 6, 15, 16, 17, 257, 300]), st.integers(0, 3),
       st.integers(0, 40), st.booleans(), seeds)
def test_weighted_sum_matches_position_sums(k, arity, length, packed_with_n, seed):
    # row-major strides over k, as `satisfies` uses them: k = 16 and 17
    # put k*k on both sides of PACK_LIMIT, arity 3 takes k**3 past it,
    # arity 0 sums no vectors; products pack their vectors with n instead
    rng = random.Random(seed)
    n = k**arity
    weights = [k ** (arity - 1 - j) for j in range(arity)]
    vectors = [pack([rng.randrange(k) for _ in range(length)], n if packed_with_n else k)
               for _ in range(arity)]
    out = weighted_sum(vectors, weights, n, length)
    assert type(out) is (bytes if n <= PACK_LIMIT else list)
    assert list(out) == [sum(w * v[i] for v, w in zip(vectors, weights)) for i in range(length)]


def kernel_algebra(rng, k):
    """k elements with random c/0, u/1, b/2 and t/3 tables."""
    elements = [f"e{i}" for i in range(k)]
    return validate_algebra(f"K{k}", elements, [
        (sym, arity, rng.choices(elements, k=k**arity))
        for sym, arity in (("c", 0), ("u", 1), ("b", 2), ("t", 3))])


def kernel_term(rng, alg, n, depth):
    symbols = alg.signature.symbols
    if depth == 0 or rng.random() < 0.25:
        return Var(rng.randrange(n)) if rng.random() < 0.9 else App("c", ())
    sym, arity = rng.choice(symbols[1:])
    return App(sym, tuple(kernel_term(rng, alg, n, depth - 1) for _ in range(arity)))


def column_satisfies(alg, eq):
    """Each side over every binding of the variables it uses, as argument
    columns through `apply_columns`; the first differing binding."""
    k = len(alg.carrier)
    used = sorted(term_variables(eq.lhs) | term_variables(eq.rhs))
    columns = dict(zip(used, arg_columns(k, len(used))))

    def column(term):
        if isinstance(term, Var):
            return columns[term.index]
        return apply_columns(alg.table(term.symbol), k, [column(a) for a in term.args],
                             k ** len(used))

    for t, (a, b) in enumerate(zip(column(eq.lhs), column(eq.rhs))):
        if a != b:
            return SatisfactionResult(False, {
                name: alg.carrier[columns[i][t] if i in columns else 0]
                for i, name in enumerate(eq.variables)})
    return SatisfactionResult(True)


def kernel_equation(seed):
    rng = random.Random(seed)
    k = rng.choice([2, 3, 4, 5, 16, 17])
    alg = kernel_algebra(rng, k)
    n = rng.randint(1, 3 if k < 16 else 2)
    lhs = kernel_term(rng, alg, n, rng.randint(1, 3))
    # an equal right side, or one with a subterm replaced: the laws hold,
    # fail at the first binding, or fail late
    rhs = lhs if rng.random() < 0.3 else kernel_term(rng, alg, n, rng.randint(0, 3))
    return alg, Equation(lhs, rhs, tuple(f"x{i}" for i in range(n)))


@settings(max_examples=200, deadline=None)
@given(seeds.map(kernel_equation))
@example((kernel_algebra(random.Random(1), 17), Equation(   # binary, both sides per binding
    App("b", (Var(1), App("u", (Var(1),)))), App("b", (App("u", (Var(1),)), Var(1))), ("x", "y"))))
@example((kernel_algebra(random.Random(2), 16), Equation(   # ternary on per-block arguments
    App("b", (App("t", (Var(0), Var(0), App("c", ()))), Var(1))), Var(1), ("x", "y"))))
@example((kernel_algebra(random.Random(3), 16), Equation(   # binary on mixed arguments, k*k <= 256
    App("b", (Var(0), Var(1))), App("b", (Var(1), Var(0))), ("x", "y"))))
def test_satisfies_matches_argument_columns(case):
    alg, eq = case
    assert satisfies(alg, eq) == column_satisfies(alg, eq)


def column_is_subuniverse(alg, subset):
    """The subuniverse check by argument columns over the sorted members."""
    members = set()
    for e in subset:
        if e not in alg.index_of:
            raise UnknownElement(f"unknown element: {e}")
        members.add(alg.index_of[e])
    ordered = sorted(members)
    for sym, arity in alg.signature.symbols:
        cols = [[ordered[i] for i in col] for col in arg_columns(len(ordered), arity)]
        for t, out in enumerate(apply_columns(alg.table(sym), len(alg.carrier), cols)):
            if out not in members:
                return False, ClosureWitness(
                    sym, tuple(alg.carrier[col[t]] for col in cols), alg.carrier[out])
    return True, None


def subset_case(seed):
    """A random algebra, nullary-only now and then, and a random subset:
    empty, closed, or with an element outside the carrier."""
    rng = random.Random(seed)
    (alg,) = random_family(rng, 1, max_arity=rng.choice([0, 3, 3, 3]))
    roll = rng.random()
    if roll < 0.3:
        subset = generate(alg, rng.sample(alg.carrier, rng.randint(0, 2))).members
    else:
        subset = rng.sample(alg.carrier, rng.randint(0, len(alg.carrier)))
    if roll > 0.9:
        subset = subset + ("zz",) if isinstance(subset, tuple) else subset + ["zz"]
    return alg, subset


def outcome(check, alg, subset):
    try:
        return check(alg, subset)
    except UnknownElement as exc:
        return f"UnknownElement: {exc}"


@settings(max_examples=300, deadline=None)
@given(seeds.map(subset_case))
@example((WIDE[2], WIDE[2].carrier))
@example((WIDE[2], WIDE[2].carrier[:200]))
@example((WIDE[1], generate(WIDE[1], ["e5"]).members))
@example((WIDE[0], []))
def test_is_subuniverse_matches_argument_columns(case):
    alg, subset = case
    assert outcome(is_subuniverse, alg, subset) == outcome(column_is_subuniverse, alg, subset)


def test_is_subuniverse_memory_is_one_run():
    # the argument columns of all 64**3 tuples would trace about 26.5 MB;
    # one run of 64 members and the table rows that the runs read, 1.4 MB
    rng = random.Random(64)
    elements = [f"e{i}" for i in range(64)]
    alg = validate_algebra("T", elements, [("t", 3, rng.choices(elements, k=64**3))])
    tracemalloc.start()
    try:
        closed = is_subuniverse(alg, elements)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert closed == (True, None)
    assert peak < 3 * 2**20, peak

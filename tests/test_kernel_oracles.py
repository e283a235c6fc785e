"""Table kernel and semi-naive closures against slow oracles: the naive
clone loop, string-level product tables, the `pointwise_apply` closure
of extensions and the string-level homomorphism check."""

import itertools
import math
import random

from hypothesis import given, settings, strategies as st

from ualg import Morphism, check_homomorphism, clone_n, direct_product, validate_algebra
from ualg.generation import CloneFragment, CloneMember
from ualg.morphisms import HomWitness
from ualg.reduced_power import _sort_key, adjoin_generate, canonicalize, pointwise_apply, std_embed
from ualg.terms import App, Var

seeds = st.integers(min_value=0, max_value=2**62 - 1)


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
        (index[std_embed(alg, alg.nullary_value(sym))],) if arity == 0 else tuple(
            index[pointwise_apply(sym, combo)]
            for combo in itertools.product(ordered, repeat=arity)
        )
        for sym, arity in alg.signature.symbols
    )
    return tuple(ordered), tables


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
@given(seeds)
def test_direct_product_matches_string_tables(seed):
    rng = random.Random(seed)
    factors = random_family(rng, rng.randint(1, 3))
    max_arity = max(a for _, a in factors[0].signature.symbols)
    while math.prod(len(f.carrier) for f in factors) ** max_arity > 4096:
        factors.pop()
    prod = direct_product(factors)
    assert prod.product.tables == oracle_product_tables(factors)


@settings(max_examples=40, deadline=None)
@given(seeds)
def test_adjoin_matches_pointwise_closure(seed):
    rng = random.Random(seed)
    (alg,) = random_family(rng, 1)
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
    assert ext.members == members
    assert ext.algebra.tables == tables
    assert ext.labels == tuple(zip(ext.algebra.carrier, members))


@settings(max_examples=200, deadline=None)
@given(seeds)
def test_check_homomorphism_matches_string_level(seed):
    rng = random.Random(seed)
    src, dst = random_family(rng, 2)
    if rng.random() < 0.3:
        dst = src
    images = tuple(rng.choice(dst.carrier) for _ in src.carrier)
    if dst is src and rng.random() < 0.5:
        images = src.carrier  # the identity, a homomorphism
    m = Morphism(src, dst, images)
    assert check_homomorphism(m) == oracle_check_homomorphism(m)

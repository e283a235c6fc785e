"""The backtracking search and the free-semigroup retraction step against
exhaustive oracles: every bijection for isomorphism, every map for
retractions, and every map of a truncated free semigroup for
`search_bounded_retraction`."""

import itertools
import random

from hypothesis import given, settings, strategies as st

from ualg import (
    Morphism,
    build_truncated,
    check_homomorphism,
    check_isomorphism,
    find_retractions,
    generate,
    search_bounded_retraction,
    validate_algebra,
)
from ualg.free_semigroup import ForcedStep, word_str

seeds = st.integers(min_value=0, max_value=2**62 - 1)


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


@settings(max_examples=150, deadline=None)
@given(seeds)
def test_check_isomorphism_matches_every_bijection(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 5)
    symbols = [(f"f{i}", rng.randint(0, 2)) for i in range(rng.randint(1, 3))]
    a = make_algebra("A", [f"a{i}" for i in range(n)], symbols,
                     random_tables(rng, n, symbols))
    b = relabelled(rng, a, "B")
    if rng.random() < 0.5:
        # one changed cell: usually, not always, no longer isomorphic
        sym, arity = rng.choice(symbols)
        tables = [list(b.table(s)) for s, _ in symbols]
        t = tables[symbols.index((sym, arity))]
        t[rng.randrange(len(t))] = rng.randrange(n)
        b = make_algebra("B", b.carrier, symbols, tables)
    iso = check_isomorphism(a, b)
    assert (iso is not None) == brute_isomorphic(a, b)
    if iso is not None:
        assert iso.is_injective and iso.is_homomorphism


def test_isomorphism_of_two_equal_cycles():
    # every element has the same profile, and x -> x mod 2 is a hom onto
    # one cycle: only the injectivity skip keeps it from being returned
    elements = ["c0", "c1", "c2", "c3"]
    C = validate_algebra("C", elements, [("s", 1, ["c1", "c0", "c3", "c2"])])
    iso = check_isomorphism(C, C)
    assert iso is not None and iso.is_injective


@settings(max_examples=150, deadline=None)
@given(seeds)
def test_find_retractions_matches_every_map(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 5)
    symbols = [(f"f{i}", rng.randint(0, 2)) for i in range(rng.randint(1, 3))]
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

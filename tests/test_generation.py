import itertools

import pytest

from ualg import (
    BudgetExceeded,
    all_subuniverses,
    clone_n,
    eval_term,
    generate,
)
from ualg.catalog import boolean_2, boolean_4, cyclic_group, lattice_2, semilattice_2
from ualg.terms import App, Var


def test_generate_stages_b4():
    O = boolean_4()
    result = generate(O, ["o2"])
    assert result.members == ("o1", "o2", "o3", "o4")
    # stage 0 already holds the nullary values o1, o4
    assert set(result.trace.stages[0]) == {"o1", "o2", "o4"}
    assert result.trace.stages[-1] == result.members


def test_generate_reads_a_one_shot_seed_once():
    result = generate(boolean_4(), iter(["o2"]))
    assert result.trace.generators == ("o2",)
    assert result.members == ("o1", "o2", "o3", "o4")


def test_generate_empty_seed_without_nullaries():
    L = lattice_2()
    result = generate(L, [])
    assert result.is_empty
    assert result.members == ()


def test_generate_empty_seed_with_nullaries():
    B = boolean_2()
    result = generate(B, [])
    assert result.members == ("b1", "b2")


def test_closure_laws_exhaustive_small():
    for alg in (boolean_2(), boolean_4(), lattice_2(), cyclic_group(3), semilattice_2()):
        subsets = [
            s
            for r in range(len(alg.carrier) + 1)
            for s in itertools.combinations(alg.carrier, r)
        ]
        closures = {s: set(generate(alg, s).members) for s in subsets}
        for s in subsets:
            assert set(s) <= closures[s]  # extensive
            fix = tuple(e for e in alg.carrier if e in closures[s])
            assert closures[fix] == closures[s]  # idempotent
            for t in subsets:
                if set(s) <= set(t):
                    assert closures[s] <= closures[t]  # monotone


def test_generate_is_least_containing_subuniverse():
    O = boolean_4()
    subs = [set(s) for s in all_subuniverses(O)]
    for r in range(len(O.carrier) + 1):
        for seed in itertools.combinations(O.carrier, r):
            generated = set(generate(O, seed).members)
            containing = [s for s in subs if set(seed) <= s]
            least = set(O.carrier)
            for s in containing:
                least &= s
            assert generated == least


def test_all_subuniverses_budget():
    with pytest.raises(BudgetExceeded):
        all_subuniverses(cyclic_group(6))


def _clone_oracle(alg, n, depth=4):
    """Independent oracle: enumerate all terms up to a depth and collect
    their value tables."""
    points = list(itertools.product(range(len(alg.carrier)), repeat=n))

    def table_of(term):
        return tuple(
            alg.index_of[
                eval_term(alg, term, {i: alg.carrier[p[i]] for i in range(n)})
            ]
            for p in points
        )

    layers = [[Var(i) for i in range(n)]]
    seen = {table_of(t): t for t in layers[0]}
    for _ in range(depth):
        pool = [t for layer in layers for t in layer]
        fresh = []
        for sym, arity in alg.signature.symbols:
            for combo in itertools.product(pool, repeat=arity):
                t = App(sym, combo)
                key = table_of(t)
                if key not in seen:
                    seen[key] = t
                    fresh.append(t)
        if not fresh:
            break
        layers.append(fresh)
    return set(seen)


def test_clone_counts_against_term_oracle():
    L = lattice_2()
    assert clone_n(L, 1).tables() == _clone_oracle(L, 1)
    assert clone_n(L, 2).tables() == _clone_oracle(L, 2)
    assert len(clone_n(L, 1).members) == 1
    assert len(clone_n(L, 2).members) == 4
    B = boolean_2()
    assert clone_n(B, 1).tables() == _clone_oracle(B, 1)
    assert len(clone_n(B, 1).members) == 4


def test_clone_witnesses_evaluate_to_their_tables():
    B = boolean_2()
    frag = clone_n(B, 2)
    points = list(itertools.product(range(2), repeat=2))
    for member in frag.members:
        for pi, p in enumerate(points):
            binding = {i: B.carrier[p[i]] for i in range(2)}
            assert B.index_of[eval_term(B, member.witness, binding)] == member.table[pi]


def test_clone_budget_marks_incomplete():
    frag = clone_n(boolean_4(), 2, budget=10)
    assert not frag.complete

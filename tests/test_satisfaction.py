"""`satisfies` against the slow oracle: one `eval_term` walk per binding,
bindings in lexicographic order, the first violating one reported."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from ualg import App, Equation, TermError, Var, eval_term, satisfies, validate_algebra
from ualg.catalog import boolean_2
from ualg.terms import SatisfactionResult
from conftest import random_algebra

seeds = st.integers(min_value=0, max_value=2**62 - 1)


def oracle_satisfies(alg, eq):
    for combo in itertools.product(alg.carrier, repeat=len(eq.variables)):
        binding = dict(enumerate(combo))
        if eval_term(alg, eq.lhs, binding) != eval_term(alg, eq.rhs, binding):
            return SatisfactionResult(False, {eq.variables[i]: v for i, v in binding.items()})
    return SatisfactionResult(True)


def outcome(check, alg, eq):
    try:
        return check(alg, eq)
    except TermError as exc:
        return f"TermError: {exc}"


def random_term(rng, alg, n, depth):
    """Depth at most `depth`; now and then a node has an unknown symbol or
    one argument too many."""
    symbols = alg.signature.symbols
    leaves = [Var(i) for i in range(n)] + [App(s, ()) for s, a in symbols if a == 0]
    roll = rng.random()
    if roll < 0.005 or (depth == 0 and not leaves):
        return App("nope", ())
    if leaves and (depth == 0 or roll < 0.3):
        return rng.choice(leaves)
    sym, arity = rng.choice(symbols)
    if roll > 0.995:
        arity += 1
    return App(sym, tuple(random_term(rng, alg, n, depth - 1) for _ in range(arity)))


@settings(max_examples=200, deadline=None)
@given(seeds)
def test_satisfies_matches_oracle(seed):
    rng = random.Random(seed)
    alg = random_algebra(rng, max_size=5, max_arity=3)
    n = rng.randint(0, 4)
    variables = tuple(f"x{i}" for i in range(n))
    lhs = random_term(rng, alg, n, rng.randint(0, 3))
    rhs = lhs if rng.random() < 0.2 else random_term(rng, alg, n, rng.randint(0, 3))
    eq = Equation(lhs, rhs, variables)
    assert outcome(satisfies, alg, eq) == outcome(oracle_satisfies, alg, eq)


N = 14  # 2**14 bindings: ranges of 64, 64, 128, ..., 2048, then three of 4096
VARIABLES = tuple(f"x{i}" for i in range(N))
ALL_VARS = tuple(Var(i) for i in range(N))


def marker_algebra(t):
    """Two elements; f/N and g/N are e1 at row-major index t only, else e0."""
    table = ["e0"] * 2**N
    table[t] = "e1"
    return validate_algebra("M", ["e0", "e1"],
                            [("f", N, table), ("g", N, table), ("c", 0, ["e0"])])


@pytest.mark.parametrize("t", [0, 63, 64, 4095, 4096, 8191, 8192, 2**N - 1])
def test_only_counterexample_at_range_boundaries(t):
    eq = Equation(App("f", ALL_VARS), App("c", ()), VARIABLES)
    res = satisfies(marker_algebra(t), eq)
    assert not res.holds
    assert res.counterexample == {v: f"e{d}" for v, d in zip(VARIABLES, format(t, f"0{N}b"))}


def test_equation_holding_on_every_range():
    eq = Equation(App("f", ALL_VARS), App("g", ALL_VARS), VARIABLES)
    assert satisfies(marker_algebra(2**N - 1), eq) == SatisfactionResult(True)


def test_ground_equations():
    B = boolean_2()
    holds = Equation(App("not", (App("zero", ()),)), App("one", ()), ())
    fails = Equation(App("zero", ()), App("one", ()), ())
    assert satisfies(B, holds) == oracle_satisfies(B, holds) == SatisfactionResult(True)
    assert satisfies(B, fails) == oracle_satisfies(B, fails) == SatisfactionResult(False, {})


def test_unused_declared_variables_stay_in_the_counterexample():
    B = boolean_2()
    eq = Equation(App("not", (Var(1),)), Var(1), ("x", "y", "z"))
    res = satisfies(B, eq)
    assert res == oracle_satisfies(B, eq)
    assert res.counterexample == {"x": "b1", "y": "b1", "z": "b1"}


@pytest.mark.parametrize(
    "lhs,rhs,message",
    [
        (Var(0), App("nope", (Var(0),)), "unknown symbol: nope"),
        (Var(0), App("and", (Var(0),)),
         "arity mismatch for and: signature says 2, term has 1"),
        (App("not", (App("nope", ()),)), App("and", (Var(0),)), "unknown symbol: nope"),
        (App("or", (Var(0), Var(0))), App("and", (Var(0), App("zero", (Var(0),)))),
         "arity mismatch for zero: signature says 0, term has 1"),
    ],
)
def test_term_errors_match_oracle(lhs, rhs, message):
    B = boolean_2()
    eq = Equation(lhs, rhs, ("x",))
    assert outcome(satisfies, B, eq) == outcome(oracle_satisfies, B, eq) == f"TermError: {message}"

"""`satisfies` against the slow oracle: one `eval_term` walk per binding,
bindings in lexicographic order, the first violating one reported."""

import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from ualg import (App, Equation, EquationSet, TermError, Var, eval_term, parse_term,
                  satisfies, satisfies_all, validate_algebra)
from ualg import terms
from ualg.catalog import boolean_2, one_element, vector_space_gf
from ualg.cli import main
from ualg.fileformat import parse_equation_file
from ualg.presets import preset
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


N = 14  # 2**14 bindings: ranges of 64, then 4096 each, and 4032 last
VARIABLES = tuple(f"x{i}" for i in range(N))
ALL_VARS = tuple(Var(i) for i in range(N))


def marker_algebra(t):
    """Two elements; f/N and g/N are e1 at row-major index t only, else e0."""
    table = ["e0"] * 2**N
    table[t] = "e1"
    return validate_algebra("M", ["e0", "e1"],
                            [("f", N, table), ("g", N, table), ("c", 0, ["e0"])])


@pytest.mark.parametrize("t", [0, 63, 64, 4095, 4096, 4159, 4160, 8191, 8192, 8255, 8256,
                               12351, 12352, 2**N - 1])
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


def parse_eq(text, variables):
    lhs, rhs = text.split("=")
    return Equation(parse_term(lhs, variables), parse_term(rhs, variables), variables)


def marked_group(k):
    """Z_k under mul, inv and one, plus m/2, which is e1 at (e[k-1], e[k-2])
    only and e0 elsewhere, and the constant c = e1."""
    elems = [f"e{i}" for i in range(k)]
    m = ["e0"] * (k * k)
    m[(k - 1) * k + k - 2] = "e1"
    return validate_algebra(f"Z{k}", elems, [
        ("one", 0, ["e0"]), ("c", 0, ["e1"]), ("inv", 1, [elems[-i % k] for i in range(k)]),
        ("mul", 2, [elems[(i + j) % k] for i in range(k) for j in range(k)]), ("m", 2, m)])


@pytest.mark.parametrize("k", [255, 256, 257])
def test_satisfies_at_the_packing_limit(k):
    # vectors are packed as bytes up to 256 elements and are lists past that
    A = marked_group(k)
    xyz = ("x", "y", "z")
    last, before = f"e{k - 1}", f"e{k - 2}"
    holding = ["mul(x, y) = mul(y, x)", "inv(inv(y)) = y", "mul(x, inv(x)) = one()",
               "m(y, y) = one()", "mul(inv(y), mul(y, x)) = x", "m(x, m(y, x)) = one()"]
    for law in holding:
        assert satisfies(A, parse_eq(law, xyz)) == SatisfactionResult(True), law
    failing = {  # law: (x, y), the others at e0
        "m(x, y) = one()": (last, before),             # the outer value first
        "m(y, x) = one()": (before, last),             # the outer value second
        "m(x, mul(y, one())) = m(y, x)": (before, last),
        "mul(x, y) = x": ("e0", "e1"),
        "mul(x, x) = x": ("e1", "e0"),                 # x is the last variable
        "m(mul(x, y), y) = mul(m(x, y), one())": ("e1", before),
        "inv(c()) = c()": ("e0", "e0"),
    }
    for law, (x, y) in failing.items():
        res = satisfies(A, parse_eq(law, xyz))
        assert res == SatisfactionResult(False, {"x": x, "y": y, "z": "e0"}), law


def test_unused_declared_variables_name_the_first_element():
    A = marked_group(5)
    variables = ("w", "x", "y", "z")
    # only x and z occur; w and y take e0 in the counterexample
    eq = parse_eq("m(x, z) = one()", variables)
    res = satisfies(A, eq)
    assert res == oracle_satisfies(A, eq)
    assert res.counterexample == {"w": "e0", "x": "e4", "y": "e0", "z": "e3"}
    eq = parse_eq("mul(z, z) = z", variables)
    assert satisfies(A, eq) == oracle_satisfies(A, eq) == SatisfactionResult(
        False, {"w": "e0", "x": "e0", "y": "e0", "z": "e1"})


def test_law_without_variables():
    A = marked_group(5)
    for variables in ((), ("x",), ("x", "y")):
        named = {v: "e0" for v in variables}
        fails = parse_eq("c() = one()", variables)
        holds = parse_eq("mul(c(), inv(c())) = one()", variables)
        assert satisfies(A, fails) == oracle_satisfies(A, fails) == SatisfactionResult(False, named)
        assert satisfies(A, holds) == oracle_satisfies(A, holds) == SatisfactionResult(True)


def test_one_element_algebra():
    A = one_element([("one", 0), ("inv", 1), ("mul", 2), ("t", 3)])
    laws = ["mul(x, mul(y, z)) = mul(mul(x, y), z)", "t(x, y, z) = t(z, inv(y), one())",
            "mul(x, y) = x", "one() = inv(one())"]
    for law in laws:
        eq = parse_eq(law, ("x", "y", "z"))
        assert satisfies(A, eq) == oracle_satisfies(A, eq) == SatisfactionResult(True)


def law_set(seed):
    """A random algebra and law set for `satisfies_all`.  The carrier has
    at most 5 elements or 17, so that binary nodes on one per-block and
    one per-binding argument are joined or gathered per block; s is
    commutative but for at most one cell and i is the identity, so some
    laws hold and some fail late.  Each law uses one of the variable sets
    below, all of x, y and z declared, and draws its subterms from a pool
    per set, so laws repeat subterms."""
    rng = random.Random(seed)
    k = rng.choice([2, 3, 5, 17])
    elems = [f"e{i}" for i in range(k)]

    def table(arity):
        return [rng.choice(elems) for _ in range(k**arity)]

    sym = table(2)
    for a in range(k):
        for b in range(a):
            sym[b * k + a] = sym[a * k + b]
    if rng.random() < 0.5:  # one cell breaks the symmetry: a late counterexample
        sym[rng.randrange(k * k)] = rng.choice(elems)
    alg = validate_algebra("R", elems, [("c", 0, table(0)), ("u", 1, table(1)), ("i", 1, elems),
                                        ("b", 2, table(2)), ("s", 2, sym)])
    xyz = ("x", "y", "z")
    laws = []
    pools = {}
    for _ in range(rng.randint(1, 6)):
        used = rng.choice([(), (0,), (0, 1), (0, 2), (0, 1, 2)])
        leaves = [Var(v) for v in used] + [App("c", ())]
        pool = pools.setdefault(used, [])

        def term(depth):
            roll = rng.random()
            if pool and roll < 0.3:
                return rng.choice(pool)
            if depth == 0 or roll < 0.45:
                return rng.choice(leaves)
            op = rng.choice(("u", "i", "b", "s"))
            node = App(op, tuple(term(depth - 1) for _ in range(1 if op in "ui" else 2)))
            pool.append(node)
            return node

        lhs, rhs = term(2), term(2)
        for v in used:  # every variable of the set occurs
            lhs = App("b", (lhs, Var(v)))
        kind = rng.random()
        if kind < 0.25:
            lhs, rhs = App("s", (lhs, rhs)), App("s", (rhs, lhs))
        elif kind < 0.4:
            rhs = App("i", (lhs,))
        elif kind < 0.5:
            rhs = lhs
        laws.append(Equation(lhs, rhs, xyz))
    return alg, laws


@settings(max_examples=40, deadline=None)
@given(seeds.map(law_set))
def test_satisfies_all_matches_oracle_law_by_law(case):
    alg, laws = case
    report = satisfies_all(alg, EquationSet("laws", tuple(laws)))
    assert [eq for eq, _ in report.results] == laws
    assert [res for _, res in report.results] == [oracle_satisfies(alg, eq) for eq in laws]


ORDERED_ERRORS = """vars x y
eq and(x, x) = x
eq or(x, y) = or(y, x)
eq and(x, nope(y)) = x
eq or(x) = x
"""


def test_first_term_error_in_law_order(tmp_path, capsys, data_dir):
    # the third law (unknown symbol) is in the group of x and y, the fourth
    # (arity mismatch) in the group of x, which the first law opened
    path = tmp_path / "errors.eq"
    path.write_text(ORDERED_ERRORS)
    with pytest.raises(TermError, match=r"\Aunknown symbol: nope\Z"):
        satisfies_all(boolean_2(), parse_equation_file(ORDERED_ERRORS, name="errors"))
    assert main(["satisfies", str(data_dir / "paper_BO.alg"), str(path), "--algebra", "B"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "unknown symbol: nope\n")


def distinct_laws(count):
    """`count` distinct laws add(u^a(x), u^b(y)) = add(u^b(y), u^a(x)) of
    Z64 with u(v) = v + 1; each holds, so every range of each is run."""
    pairs = [(a, b) for a in range(32) for b in range(32)][:count]

    def u(power, v):
        return Var(v) if power == 0 else App("u", (u(power - 1, v),))

    return EquationSet("laws", tuple(
        Equation(App("add", (u(a, 0), u(b, 1))), App("add", (u(b, 1), u(a, 0))), ("x", "y"))
        for a, b in pairs))


def satisfies_all_peak(alg, eqs):
    tracemalloc.start()
    try:
        report = satisfies_all(alg, eqs)
        return tracemalloc.get_traced_memory()[1], report
    finally:
        tracemalloc.stop()


def test_memory_stays_bounded_with_many_laws():
    k = 64
    elems = [f"e{i}" for i in range(k)]
    alg = validate_algebra("Z64", elems, [
        ("add", 2, [elems[(i + j) % k] for i in range(k) for j in range(k)]),
        ("u", 1, [elems[(i + 1) % k] for i in range(k)])])
    few, few_report = satisfies_all_peak(alg, distinct_laws(10))
    many, many_report = satisfies_all_peak(alg, distinct_laws(1000))
    assert few_report.variety_member and many_report.variety_member
    assert many < 6 * few, (few, many)


def counted_compiles(monkeypatch):
    """The terms that `terms._compile` is called on, in order, from now on."""
    calls = []
    compile_term = terms._compile

    def counting(ops, term, *rest):
        calls.append(term)
        return compile_term(ops, term, *rest)

    monkeypatch.setattr(terms, "_compile", counting)
    return calls


def test_compile_walks_each_term_object_once(monkeypatch):
    # not^30(x) is one object in 20 laws over x and in one law over x and y:
    # each group walks it once (31 calls), then finds it by identity
    chain = Var(0)
    for _ in range(30):
        chain = App("not", (chain,))
    laws = [Equation(chain, chain, ("x",))] * 20 + [
        Equation(App("and", (chain, Var(1))), App("and", (Var(1), chain)), ("x", "y"))]
    calls = counted_compiles(monkeypatch)
    report = satisfies_all(boolean_2(), EquationSet("laws", tuple(laws)))
    assert len(calls) == (31 + 39) + (1 + 31 + 1) + (1 + 1 + 1)
    assert report.variety_member


def test_vector_space_laws_share_their_subterms(monkeypatch):
    # vector-space(5) builds each s_r(x), s_r(y) and add(x, y) once: a check
    # makes 244 compile calls, not the 373 of one walk per occurrence, and
    # gives what the same laws built without sharing give, counterexamples
    # included, on GF(5)^2 and on a copy with one scalar cell changed
    eqs = preset("vector-space(5)")
    unshared = EquationSet(eqs.name, tuple(
        Equation(*(parse_term(side, eq.variables) for side in eq.render().split(" = ")),
                 eq.variables, eq.label) for eq in eqs.equations))
    assert unshared == eqs
    good = vector_space_gf(5, 2)
    cells = [list(good.carrier[v] for v in t) for t in good.tables]
    s2 = good.signature.names().index("s2")
    cells[s2][7] = good.carrier[3]
    bad = validate_algebra("bad", good.carrier, [
        (sym, arity, values) for (sym, arity), values in zip(good.signature.symbols, cells)])
    calls = counted_compiles(monkeypatch)
    for alg in (good, bad):
        calls.clear()
        report = satisfies_all(alg, eqs)
        assert len(calls) == 244
        assert report == satisfies_all(alg, unshared)
        assert [r for _, r in report.results] == [oracle_satisfies(alg, eq)
                                                  for eq in eqs.equations]
    assert not report.variety_member

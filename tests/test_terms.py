import pytest

from ualg import (
    App,
    Equation,
    EquationSet,
    TermError,
    Var,
    eval_term,
    parse_term,
    preset,
    satisfies,
    satisfies_all,
)
from ualg.catalog import boolean_2, boolean_4, cyclic_group, lattice_2, vector_space_gf
from ualg.presets import PRESET_NAMES, finite_field
from ualg.generation import clone_n
from ualg.terms import render_terms


def test_parse_roundtrip():
    t = parse_term("and(x, or(y, one()))", ("x", "y"))
    assert t == App("and", (Var(0), App("or", (Var(1), App("one", ())))))
    assert render_terms([t], ("x", "y")) == ["and(x, or(y, one()))"]


def naive_term_to_str(term, variables):
    if isinstance(term, Var):
        return variables[term.index]
    return f"{term.symbol}({', '.join(naive_term_to_str(a, variables) for a in term.args)})"


def test_render_terms_renders_shared_subterms_as_written():
    # clone witnesses are built from earlier members, so they share subterms;
    # a subterm shared within one term and an equal but distinct copy as well
    witnesses = [m.witness for m in clone_n(boolean_2(), 3).members]
    x, y = Var(0), Var(1)
    shared = App("and", (x, y))
    witnesses += [App("or", (shared, shared)), App("or", (shared, App("and", (x, y))))]
    variables = ("x1", "x2", "x3")
    assert render_terms(witnesses, variables) == [naive_term_to_str(t, variables)
                                                  for t in witnesses]


def test_parse_errors():
    with pytest.raises(TermError):
        parse_term("and(x,", ("x",))
    with pytest.raises(TermError):
        parse_term("undeclared", ("x",))
    with pytest.raises(TermError):
        parse_term("x y", ("x", "y"))
    with pytest.raises(TermError):
        parse_term("f(x))", ("x",))


def test_eval_error_cases():
    B = boolean_2()
    with pytest.raises(TermError):
        eval_term(B, Var(0), {})
    with pytest.raises(TermError):
        eval_term(B, App("nope", ()), {})
    with pytest.raises(TermError):
        eval_term(B, App("and", (Var(0),)), {0: "b1"})


def test_satisfies_counterexample_is_first_lexicographic():
    B = boolean_2()
    eq = Equation(parse_term("and(x, y)", ("x", "y")),
                  parse_term("or(x, y)", ("x", "y")), ("x", "y"))
    res = satisfies(B, eq)
    assert not res.holds
    # and/or agree on (b1,b1); first disagreement is (b1,b2)
    assert res.counterexample == {"x": "b1", "y": "b2"}


def test_boolean_preset_on_b_and_o():
    eqs = preset("boolean-algebra")
    assert satisfies_all(boolean_2(), eqs).variety_member
    assert satisfies_all(boolean_4(), eqs).variety_member


def test_group_preset_labels_and_z2():
    eqs = preset("group")
    assert len(eqs.equations) == 5
    assert eqs.labels() == ("identity", "inverse", "associativity")
    assert satisfies_all(cyclic_group(2), eqs).variety_member
    assert satisfies_all(cyclic_group(5), eqs).variety_member


def test_lattice_preset_rejects_nonlattice():
    # a 2-element structure with or = projection fails absorption
    from ualg import validate_algebra

    bad = validate_algebra(
        "Bad",
        ["d0", "d1"],
        [("and", 2, ["d0", "d0", "d0", "d1"]), ("or", 2, ["d0", "d0", "d1", "d1"])],
    )
    report = satisfies_all(bad, preset("lattice"))
    assert not report.variety_member


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_finite_field_axioms(q):
    # independent oracle: directly check the field axioms on the tables
    add, mul = finite_field(q)
    r = range(q)
    for a in r:
        assert add[a][0] == a and mul[a][1] == a and mul[a][0] == 0
        assert any(add[a][b] == 0 for b in r)
        if a != 0:
            assert any(mul[a][b] == 1 for b in r), f"{a} has no inverse in GF({q})"
    for a in r:
        for b in r:
            assert add[a][b] == add[b][a]
            assert mul[a][b] == mul[b][a]
            for c in r:
                assert add[add[a][b]][c] == add[a][add[b][c]]
                assert mul[mul[a][b]][c] == mul[a][mul[b][c]]
                assert mul[a][add[b][c]] == add[mul[a][b]][mul[a][c]]


@pytest.mark.parametrize("q,dim", [(2, 1), (2, 2), (3, 1), (4, 1)])
def test_vector_space_preset(q, dim):
    V = vector_space_gf(q, dim)
    assert satisfies_all(V, preset(f"vector-space({q})")).variety_member


def test_preset_names_resolve():
    for name in PRESET_NAMES:
        assert preset(name).equations


def test_unknown_preset():
    from ualg.core import UalgError

    with pytest.raises(UalgError):
        preset("heap")

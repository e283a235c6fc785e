import random

import pytest
from hypothesis import given, settings, strategies as st

from ualg import (
    App,
    Equation,
    EquationSet,
    ParseError,
    Var,
    parse_algebra_file,
    parse_equation_file,
    serialize_algebra,
)
from conftest import random_algebra


def test_parse_basic_block():
    algs = parse_algebra_file(
        """
        # comment line
        algebra B
        elements b1 b2
        op zero/0 = b1          # trailing comment
        op and/2 = b1 b1 b1 b2
        end
        """
    )
    assert len(algs) == 1
    B = algs[0]
    assert B.name == "B"
    assert B.carrier == ("b1", "b2")
    assert B.apply("and", "b2", "b2") == "b2"


def test_parse_multiple_blocks():
    text = """
    algebra A
    elements a
    op f/1 = a
    end
    algebra B
    elements x y
    op g/2 = x y y x
    end
    """
    algs = parse_algebra_file(text)
    assert [a.name for a in algs] == ["A", "B"]


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("algebra A\nelements a b\nop f/2 = a a a\nend", "expected 4 values, found 3 for f/2"),
        ("elements a", "outside an algebra block"),
        ("algebra A\nelements a\nop f/1 = b\nend", "unknown element"),
        ("algebra A\nelements a a\nop f/0 = a\nend", "duplicate urelement"),
        ("algebra A\nelements a\nop f/1 = a", "not closed"),
        ("algebra A\nwhatever x\nend", "unknown directive"),
        ("algebra A\nelements a\nop f = a\nend", "bad operation header"),
    ],
)
def test_parse_errors_positioned(text, fragment):
    with pytest.raises(ParseError) as exc:
        parse_algebra_file(text)
    assert fragment in str(exc.value)
    assert exc.value.line >= 1 and exc.value.column >= 1


def test_error_line_numbers():
    text = "algebra A\nelements a\nop f/2 = a a a\nend"
    with pytest.raises(ParseError) as exc:
        parse_algebra_file(text)
    assert exc.value.line == 3


@pytest.mark.parametrize(
    "line, column, token",
    [
        ("elements x1b 1b", 14, "1b"),  # "1b" also ends the earlier "x1b", at column 11
        ("  elements\ta　 b-c", 15, "b-c"),
        ("elements a é", 12, "é"),  # a letter, but not one IDENT_RE takes
        ("elements ab b_ _a", 16, "_a"),
    ],
)
def test_bad_element_token_column(line, column, token):
    with pytest.raises(ParseError) as exc:
        parse_algebra_file(f"algebra A\n{line}\nend\n")
    assert (exc.value.line, exc.value.column) == (2, column)
    assert exc.value.message == f"bad element token: {token!r}"


def test_serialize_round_trip_fixed():
    text = "algebra B\nelements b1 b2\nop zero/0 = b1\nop and/2 = b1 b1 b1 b2\nend\n"
    algs = parse_algebra_file(text)
    assert serialize_algebra(algs[0]) == text


def test_round_trip_random_corpus():
    rng = random.Random(11)
    for i in range(200):
        alg = random_algebra(rng, name=f"R{i}")
        text = serialize_algebra(alg)
        back = parse_algebra_file(text)
        assert len(back) == 1
        assert back[0] == alg
    # multi-block
    algs = [random_algebra(rng, name=f"M{i}") for i in range(5)]
    assert parse_algebra_file("\n".join(map(serialize_algebra, algs))) == algs


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**62 - 1))
def test_round_trip_property(seed):
    rng = random.Random(seed)
    alg = random_algebra(rng)
    assert parse_algebra_file(serialize_algebra(alg)) == [alg]


def test_equation_file_round_trip():
    text = "vars x y\neq and(x, y) = and(y, x)\neq or(x, x) = x\n"
    eqs = parse_equation_file(text, name="t")
    x, y = Var(0), Var(1)
    assert eqs == EquationSet("t", (
        Equation(App("and", (x, y)), App("and", (y, x)), ("x", "y")),
        Equation(App("or", (x, x)), x, ("x", "y"))))
    assert [eq.render() for eq in eqs.equations] == ["and(x, y) = and(y, x)", "or(x, x) = x"]


def test_equation_file_errors():
    with pytest.raises(ParseError):
        parse_equation_file("eq x = x")  # vars must come first
    with pytest.raises(ParseError):
        parse_equation_file("vars x\neq and(x x) = x")
    with pytest.raises(ParseError):
        parse_equation_file("vars x\neq x")
    with pytest.raises(ParseError):
        parse_equation_file("vars x\nnonsense")
    with pytest.raises(ParseError, match="repeated variable: x"):
        parse_equation_file("vars x y x\neq x = y")


def test_shipped_files_parse(data_dir):
    algs = parse_algebra_file((data_dir / "paper_BO.alg").read_text())
    assert [a.name for a in algs] == ["B", "O"]
    small = parse_algebra_file((data_dir / "small.alg").read_text())
    assert [a.name for a in small] == ["Z2", "L2", "S2", "V2_1", "V2_2"]
    eqs = parse_equation_file((data_dir / "presets" / "boolean.eq").read_text())
    assert len(eqs.equations) == 14

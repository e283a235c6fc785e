import pytest

from ualg import (
    FiniteAlgebra,
    InvalidAlgebra,
    Signature,
    Subuniverse,
    UnknownElement,
    is_subuniverse,
    validate_algebra,
)
from ualg.catalog import boolean_2, boolean_4, lattice_2
from ualg.core import UnknownSymbol, power_exceeds


def test_row_major_layout():
    # or(b2, b1) sits at index 1*2+0 = 2: leftmost argument most significant
    B = boolean_2()
    assert B.table("or")[2] == B.index_of["b2"]
    assert B.apply("or", "b2", "b1") == "b2"
    assert B.apply("and", "b2", "b1") == "b1"


def test_apply_errors_in_order():
    # an unknown element is reported before an unknown symbol, and that
    # before a wrong argument count
    B = boolean_2()
    with pytest.raises(UnknownElement):
        B.apply("nosuch", "b1", "zz", "b2")
    with pytest.raises(UnknownSymbol):
        B.apply("nosuch", "b1", "b2", "b2")
    with pytest.raises(ValueError, match="and expects 2 arguments, got 3"):
        B.apply("and", "b1", "b2", "b2")


def test_power_exceeds_matches_the_exact_power():
    for limit in (0, 1, 63, 64, 65, (1 << 20) - 1, 1 << 20, (1 << 64) - 1, 1 << 64):
        for base in range(6):
            for exponent in range(71):
                assert power_exceeds(base, exponent, limit) == (base ** exponent > limit), \
                    (base, exponent, limit)


def test_nullary_table_has_one_entry():
    B = boolean_2()
    assert len(B.table("zero")) == 1
    assert B.apply("zero") == "b1"
    assert B.apply("one") == "b2"


def test_validation_collects_all_problems():
    with pytest.raises(InvalidAlgebra) as exc:
        validate_algebra(
            "Bad",
            ["a", "a"],
            [("f", 2, ["a", "a", "a"]), ("g", 1, ["a", "b"])],
        )
    problems = exc.value.problems
    assert any("duplicate urelement: a" in p for p in problems)
    assert any("table size mismatch: expected 4, found 3 for f/2" in p for p in problems)
    assert any("unknown element" in p for p in problems)


def test_validation_names_first_unknown_table_value():
    with pytest.raises(InvalidAlgebra) as exc:
        validate_algebra("Bad", ["a", "b"], [("f", 2, ["a", "x", "y", "b"]), ("g", 1, ["z", "a"])])
    assert exc.value.problems == ["unknown element in table for f/2: x",
                                  "unknown element in table for g/1: z"]


def test_validation_lists_bad_symbol_names_with_symbol_problems():
    with pytest.raises(InvalidAlgebra) as exc:
        validate_algebra("A", ["a", "1x"], [("1bad", 0, ["a"]), ("f", 1, ["a", "a"]),
                                            ("f", 1, ["a", "b"])])
    assert exc.value.problems == ["bad element token: '1x'", "bad symbol name: '1bad'",
                                  "duplicate symbol: f", "unknown element in table for f/1: b"]
    with pytest.raises(InvalidAlgebra, match="bad symbol name: '1bad'"):
        validate_algebra("A", ["a"], [("1bad", 0, ["a"])])


def test_validation_empty_carrier():
    with pytest.raises(InvalidAlgebra) as exc:
        validate_algebra("E", [], [])
    assert "empty carrier" in str(exc.value)


@pytest.mark.parametrize("elements, values, problems", [
    ([], [], ["empty carrier", "negative arity for f"]),
    (["a", "b"], ["a"], ["negative arity for f"]),
])
def test_validation_negative_arity(elements, values, problems):
    # a negative arity has no table size, so no size mismatch is listed
    with pytest.raises(InvalidAlgebra) as exc:
        validate_algebra("A", elements, [("f", -1, values)])
    assert exc.value.problems == problems


def test_signature_matching_ignores_order():
    s1 = Signature((("and", 2), ("or", 2)))
    s2 = Signature((("or", 2), ("and", 2)))
    assert s1.matches(s2)
    assert not s1.matches(Signature((("and", 2),)))
    assert not s1.matches(Signature((("and", 1), ("or", 2))))


def test_signature_rejects_duplicates():
    with pytest.raises(ValueError):
        Signature((("f", 1), ("f", 2)))


def test_is_subuniverse_witness():
    O = boolean_4()
    ok, witness = is_subuniverse(O, ["o1", "o4"])
    assert ok and witness is None
    # {o1, o2, o4} escapes through not(o2) = o3
    ok, witness = is_subuniverse(O, ["o1", "o2", "o4"])
    assert not ok
    assert (witness.symbol, witness.args, witness.result) == ("not", ("o2",), "o3")
    ok, witness = is_subuniverse(O, ["o2", "o3"])
    assert not ok
    # nullary escape is found first in signature order
    assert witness.symbol == "zero"
    assert witness.result == "o1"


def test_is_subuniverse_binary_witness():
    L = lattice_2()
    ok, witness = is_subuniverse(L, ["d0"])
    assert ok
    # {d1} closed under and/or too
    assert is_subuniverse(L, ["d1"])[0]


def test_subuniverse_as_algebra():
    O = boolean_4()
    sub = Subuniverse.of(O, ["o4", "o1"])  # order normalized to carrier order
    assert sub.members == ("o1", "o4")
    alg = sub.as_algebra("O2")
    assert alg.carrier == ("o1", "o4")
    assert alg.apply("or", "o1", "o4") == "o4"
    assert alg.apply("one") == "o4"


def test_subuniverse_rejects_open_subset():
    O = boolean_4()
    with pytest.raises(ValueError):
        Subuniverse.of(O, ["o2", "o3"])

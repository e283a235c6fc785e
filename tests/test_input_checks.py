"""Input checks that the other tests and the bench jobs never reach: each
bad input raises its own exception type with its own message."""

import pytest

from ualg import (Equation, EquationSet, Morphism, Signature, Subuniverse, TermError, UalgError,
                  adjoin_generate, coordinate_retraction, direct_product, find_retractions,
                  parse_equation_file, parse_term, preservation_suite, satisfies, std_embed)
from ualg.catalog import boolean_2, boolean_4
from ualg.cli import CliError, build_parser
from ualg.core import UnknownSymbol
from ualg.fileformat import ParseError
from ualg.morphisms import homomorphic_image
from ualg.presets import preset
from ualg.products import mediating_morphism
from ualg.reduced_power import parse_ep_sequence
from ualg.terms import Var

from conftest import DATA

B, O = boolean_2(), boolean_4()


def run_cli(*argv):
    args = build_parser().parse_args(list(argv))
    return args.func(args)


def mediate(legs):
    return mediating_morphism(B, legs, direct_product([B, B]))


IDENTITY = Morphism(B, B, B.carrier)
NEGATION = Morphism(B, B, ("b2", "b1"))  # sends zero() = b1 to b2, not to zero()

CASES = [
    ("bind-without-equals",
     lambda: run_cli("eval", str(DATA / "paper_BO.alg"), "--algebra", "B", "--term", "x",
                     "--bind", "x"),
     CliError, "bad binding: 'x' (expected var=element)"),
    ("signature-bad-name", lambda: Signature((("1f", 1),)), ValueError, "bad symbol name: '1f'"),
    ("signature-negative-arity", lambda: Signature((("f", -1),)), ValueError,
     "negative arity for f"),
    ("unknown-table", lambda: B.table("nope"), UnknownSymbol, "unknown symbol: nope"),
    ("empty-subuniverse", lambda: Subuniverse(B, ()).as_algebra(), ValueError,
     "empty subuniverse is not an algebra"),
    ("bad-vars-token", lambda: parse_equation_file("vars x 1y\n"), ParseError,
     "line 1, column 1: bad variable token: '1y'"),
    ("term-bad-character", lambda: parse_term("x + y", ["x", "y"]), TermError,
     "bad character in term at offset 1: ' + y'"),
    ("term-stray-paren", lambda: parse_term(")", ["x"]), TermError, "unexpected ')' in term"),
    ("term-unclosed", lambda: parse_term("not(x", ["x"]), TermError, "unclosed application"),
    ("equation-undeclared-variable", lambda: Equation(Var(0), Var(1), ("x",)), TermError,
     "equation uses an undeclared variable index"),
    ("satisfies-negative-variable", lambda: satisfies(B, Equation(Var(-1), Var(-1), ("x",))),
     TermError, "unbound variable index -1"),
    ("equation-set-no-name", lambda: EquationSet("", ()), ValueError,
     "equation set needs a non-empty name"),
    ("morphism-not-total", lambda: Morphism(B, B, ("b1",)), ValueError,
     "morphism map must be total on the source carrier"),
    ("morphism-image-outside", lambda: Morphism(B, B, ("b1", "o1")), ValueError,
     "image not in target carrier: o1"),
    ("retraction-foreign-image", lambda: find_retractions(B, Subuniverse.of(O, O.carrier)),
     ValueError, "image subuniverse must belong to the algebra"),
    ("image-of-non-homomorphism", lambda: homomorphic_image(NEGATION), ValueError,
     "not a homomorphism: HomWitness(symbol='zero', args=(), mapped_result='b2', "
     "result_of_mapped='b1')"),
    ("mediating-leg-count", lambda: mediate([IDENTITY]), UalgError,
     "one leg per factor required"),
    ("mediating-leg-endpoints", lambda: mediate([IDENTITY, Morphism(O, B, ("b1",) * 4)]),
     UalgError, "leg endpoints must run from the apex to the factors"),
    ("ep-sequence-no-pre", lambda: parse_ep_sequence(B, "x | per b1"), UalgError,
     "expected `pre ...` before `|`"),
    ("std-embed-unknown", lambda: std_embed(B, "x"), UalgError, "unknown element: x"),
    ("adjoin-foreign-generator", lambda: adjoin_generate(B, [std_embed(O, "o1")]), UalgError,
     "generator over a different base algebra"),
    ("retraction-negative-index", lambda: coordinate_retraction(adjoin_generate(B, []), -1),
     UalgError, "index must be >= 0"),
    ("preset-huge-field-size", lambda: preset(f"vector-space({'9' * 5000})"), UalgError,
     f"not a supported prime power: {'9' * 5000}"),
    ("preset-leading-zeros", lambda: preset("vector-space(006)"), UalgError,
     "not a supported prime power: 6"),
    ("preservation-outside-variety",
     lambda: preservation_suite(B, parse_equation_file("vars x y\neq and(x, y) = x\n", "E"), []),
     UalgError, "B does not satisfy E to begin with"),
]


@pytest.mark.parametrize("call, error, message", [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_input_check_raises(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == message

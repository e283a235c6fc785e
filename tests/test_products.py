import itertools

import pytest

from ualg import (
    Signature,
    check_isomorphism,
    direct_product,
    enumerate_homomorphisms,
    mediating_morphism,
)
from ualg.catalog import boolean_2, boolean_4, lattice_2, semilattice_2
from ualg.core import UalgError
from ualg.morphisms import Morphism, check_homomorphism

ELEMS = ["s", "t", "u", "v", "w", "x", "y", "z"]


def _bxo():
    return direct_product([boolean_2(), boolean_4()], elements=ELEMS)


def test_product_carrier_and_labels():
    prod = _bxo()
    assert prod.product.carrier == tuple(ELEMS)
    # lexicographic: left factor most significant
    assert prod.relabel("s") == ("b1", "o1")
    assert prod.relabel("v") == ("b1", "o4")
    assert prod.relabel("w") == ("b2", "o1")
    assert prod.relabel("z") == ("b2", "o4")
    assert prod.unrelabel(("b2", "o2")) == "x"


def test_componentwise_tables():
    prod = _bxo()
    B, O = prod.factors
    for a, b in itertools.product(ELEMS, repeat=2):
        ta, tb = prod.relabel(a), prod.relabel(b)
        expected = (B.apply("and", ta[0], tb[0]), O.apply("and", ta[1], tb[1]))
        assert prod.relabel(prod.product.apply("and", a, b)) == expected


def test_projections_are_surjective_homs():
    prod = _bxo()
    for proj, factor in zip(prod.projections, prod.factors):
        ok, _ = check_homomorphism(proj)
        assert ok and set(proj.images) == set(factor.carrier)
        assert proj.target == factor


def test_default_prefix_names():
    prod = direct_product([lattice_2(), lattice_2()])
    assert prod.product.carrier == ("p0", "p1", "p2", "p3")
    assert prod.product.name == "L2xL2"


def test_explicit_elements_validation():
    with pytest.raises(UalgError):
        direct_product([boolean_2(), boolean_4()], elements=["a", "b"])
    with pytest.raises(UalgError):
        direct_product([lattice_2(), lattice_2()], elements=["a", "a", "b", "c"])


def test_empty_product_is_terminal():
    sig = Signature((("and", 2), ("or", 2)))
    prod = direct_product([], signature=sig)
    assert len(prod.product.carrier) == 1
    with pytest.raises(UalgError):
        direct_product([])


def test_unary_product_isomorphic_to_factor():
    prod = direct_product([boolean_4()])
    assert check_isomorphism(prod.product, boolean_4()) is not None


def test_mediating_morphism_and_transcript():
    prod = _bxo()
    B = boolean_2()
    legs = [
        enumerate_homomorphisms(B, prod.factors[0])[0],
        enumerate_homomorphisms(B, prod.factors[1])[0],
    ]
    result = mediating_morphism(B, legs, prod)
    assert result.all_ok
    assert result.morphism.as_dict() == {"b1": "s", "b2": "z"}
    by_symbol = dict(result.preservation)
    assert len(by_symbol["and"]) == 4
    assert all(row.ok for row in by_symbol["and"])


def test_mediating_rejects_non_hom_legs():
    prod = _bxo()
    B = boolean_2()
    bad = Morphism(B, prod.factors[0], ("b2", "b1"))
    good = enumerate_homomorphisms(B, prod.factors[1])[0]
    with pytest.raises(UalgError):
        mediating_morphism(B, [bad, good], prod)


def test_associativity_up_to_isomorphism():
    L, S = lattice_2(), semilattice_2()
    a = direct_product([L, direct_product([L, L]).product]).product
    b = direct_product([direct_product([L, L]).product, L]).product
    assert check_isomorphism(a, b) is not None
    c = direct_product([S, direct_product([S, S]).product]).product
    d = direct_product([S, S, S]).product
    assert check_isomorphism(c, d) is not None

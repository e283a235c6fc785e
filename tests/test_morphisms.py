import itertools
import random

import pytest

from ualg import (
    BudgetExceeded,
    Morphism,
    Subuniverse,
    check_homomorphism,
    check_isomorphism,
    enumerate_homomorphisms,
    find_retractions,
    reduct,
    validate_algebra,
)
from ualg.catalog import boolean_2, boolean_4, cyclic_group, lattice_2, semilattice_2
from ualg.morphisms import SignatureMismatch, homomorphic_image
from ualg.products import direct_product


def _brute_homs(src, dst):
    """Independent oracle: test every total map."""
    out = []
    for images in itertools.product(dst.carrier, repeat=len(src.carrier)):
        m = Morphism(src, dst, images)
        if check_homomorphism(m)[0]:
            out.append(images)
    return out


def test_enumeration_matches_brute_force():
    cases = [
        (lattice_2(), lattice_2()),
        (lattice_2(), boolean_4()),
        (boolean_2(), boolean_4()),
        (cyclic_group(2), cyclic_group(4)),
        (cyclic_group(4), cyclic_group(2)),
        (semilattice_2(), semilattice_2()),
    ]
    for src, dst in cases:
        if src.signature.matches(dst.signature):
            got = [m.images for m in enumerate_homomorphisms(src, dst)]
            assert got == sorted(_brute_homs(src, dst))


def test_endomorphisms_of_two_element_lattice():
    L = lattice_2()
    endos = enumerate_homomorphisms(L, L)
    assert [m.images for m in endos] == [
        ("d0", "d0"), ("d0", "d1"), ("d1", "d1"),
    ]
    assert enumerate_homomorphisms(L, L, mode="count") == 3


def test_nullaries_pin_boolean_homs():
    B, O = boolean_2(), boolean_4()
    homs = enumerate_homomorphisms(B, O)
    assert [m.as_dict() for m in homs] == [{"b1": "o1", "b2": "o4"}]


def test_mode_first_and_none():
    B, O = boolean_2(), boolean_4()
    first = enumerate_homomorphisms(B, O, mode="first")
    assert first.images == ("o1", "o4")
    # no hom O -> B x? there are: and there is one (o2,o3 both must go somewhere)
    homs = enumerate_homomorphisms(O, B)
    assert len(homs) == len(_brute_homs(O, B))


def test_signature_mismatch_raises():
    with pytest.raises(SignatureMismatch):
        enumerate_homomorphisms(lattice_2(), cyclic_group(2))


def test_hom_witness_on_failure():
    L = lattice_2()
    swap = Morphism(L, L, ("d1", "d0"))
    ok, witness = check_homomorphism(swap)
    assert not ok
    assert witness.symbol in ("and", "or")
    assert witness.mapped_result != witness.result_of_mapped


def test_retractions_of_lattice_reduct():
    Ored = reduct(boolean_4(), ["and", "or"])
    image = Subuniverse.of(Ored, ["o1", "o4"])
    rets = find_retractions(Ored, image)
    maps = [m.as_dict() for m in rets]
    assert {"o1": "o1", "o2": "o1", "o3": "o4", "o4": "o4"} in maps
    for m in rets:
        assert all(m(m(e)) == m(e) for e in Ored.carrier)
        assert set(m.images) == {"o1", "o4"}


def test_full_boolean_signature_blocks_proper_retraction():
    O = boolean_4()
    image = Subuniverse.of(O, ["o1", "o4"])
    # not(o2) = o3 forces r(o2), r(o3) to be complementary, and
    # and(o2, o3) = o1 then fails in {o1, o4}? no: complements meet at o1.
    # The honest answer comes from the search itself vs brute force.
    rets = find_retractions(O, image)
    brute = []
    for images in itertools.product(["o1", "o4"], repeat=4):
        if images[0] != "o1" or images[3] != "o4":
            continue
        m = Morphism(O, O, images)
        if check_homomorphism(m)[0]:
            brute.append(images)
    assert [m.images for m in rets] == sorted(brute)


def test_identity_retraction_onto_self():
    for alg in (boolean_2(), boolean_4(), cyclic_group(3)):
        whole = Subuniverse.of(alg, alg.carrier)
        rets = find_retractions(alg, whole)
        assert [m.images for m in rets] == [alg.carrier]


def test_isomorphism_and_relabeling():
    L = lattice_2()
    relabeled = reduct(boolean_4(), ["and", "or"])
    sub = Subuniverse.of(relabeled, ["o1", "o4"]).as_algebra("O2lat")
    iso = check_isomorphism(L, sub)
    assert iso is not None
    assert iso.as_dict() == {"d0": "o1", "d1": "o4"}


def test_isomorphism_negative_cases():
    assert check_isomorphism(cyclic_group(4), cyclic_group(2)) is None
    # Z4 vs Klein four-group: same size, not isomorphic
    from ualg import validate_algebra

    elems = ["k0", "k1", "k2", "k3"]
    mul = [elems[i ^ j] for i in range(4) for j in range(4)]
    klein = validate_algebra(
        "K4", elems, [("one", 0, ["k0"]), ("inv", 1, elems), ("mul", 2, mul)]
    )
    assert check_isomorphism(cyclic_group(4), klein) is None
    assert check_isomorphism(klein, klein) is not None


def test_reduct_and_image():
    O = boolean_4()
    Olat = reduct(O, ["and", "or"], name="Olat")
    assert Olat.signature.names() == ("and", "or")
    assert Olat.carrier == O.carrier
    with pytest.raises(KeyError):
        reduct(O, ["xor"])
    m = enumerate_homomorphisms(boolean_2(), O)[0]
    img = homomorphic_image(m)
    assert img.members == ("o1", "o4")


def test_search_depth_is_not_bounded_by_the_recursion_limit():
    # all but one of the 1200 elements are derived within one closure
    # level, past Python's default limit of 1000 frames: neither the
    # closure walk nor the search recurses
    import sys

    assert sys.getrecursionlimit() < 1200
    Z = cyclic_group(1200)
    first = enumerate_homomorphisms(Z, Z, mode="first")
    assert first.images == ("g0",) * 1200
    elements = [f"c{i}" for i in range(1200)]
    C = validate_algebra("C1200", elements, [("s", 1, elements[1:] + elements[:1])])
    assert check_isomorphism(C, C).images == tuple(elements)


def test_node_counts_are_those_of_the_recursive_search():
    # the smallest budgets at which the search finishes; only branching
    # assignments count.  Z12 -> Z18: the constant forces g0, and each of
    # the 18 images of g1 forces the rest.  Z12 = Z3xZ4: the first image
    # of g1 in its profile class forces an isomorphism.
    Z12, Z18 = cyclic_group(12), cyclic_group(18)
    with pytest.raises(BudgetExceeded):
        enumerate_homomorphisms(Z12, Z18, mode="count", node_budget=17)
    assert enumerate_homomorphisms(Z12, Z18, mode="count", node_budget=18) == 6
    Z3xZ4 = direct_product([cyclic_group(3), cyclic_group(4)], name="Z3xZ4").product
    with pytest.raises(BudgetExceeded):
        check_isomorphism(Z12, Z3xZ4, node_budget=0)
    assert check_isomorphism(Z12, Z3xZ4, node_budget=1) is not None


def shuffled(alg, seed):
    """alg with its carrier listed in a seeded random order."""
    carrier = list(alg.carrier)
    random.Random(seed).shuffle(carrier)
    ops = [
        (sym, arity, [alg.apply(sym, *args) for args in itertools.product(carrier, repeat=arity)])
        for sym, arity in alg.signature.symbols
    ]
    return validate_algebra(alg.name, carrier, ops)


def test_isomorphism_search_on_shuffled_carriers():
    # forward checking alone needs more than 2,000 nodes on these carriers
    Z3xZ20 = direct_product([cyclic_group(3), cyclic_group(20)], name="Z3xZ20").product
    iso = check_isomorphism(shuffled(Z3xZ20, 0), shuffled(cyclic_group(60), 0),
                            node_budget=1_000)
    assert iso is not None and len(set(iso.images)) == 60


def test_hom_count_on_shuffled_carriers():
    Z24, Z36 = shuffled(cyclic_group(24), 0), shuffled(cyclic_group(36), 0)
    assert enumerate_homomorphisms(Z24, Z36, mode="count", node_budget=1_000) == 12

import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import ualg
from ualg import (
    EpSequence,
    adjoin_generate,
    canonicalize,
    check_isomorphism,
    coordinate_retraction,
    direct_product,
    find_retractions,
    preset,
    preservation_suite,
    std_embed,
)
from ualg.catalog import boolean_2, boolean_4, cyclic_group, lattice_2
from ualg.core import BudgetExceeded, Subuniverse, UalgError, build_algebra
from ualg.reduced_power import parse_ep_sequence

from conftest import pointwise_apply


def _window_equal(a: EpSequence, b: EpSequence) -> bool:
    """Oracle for cofinite agreement: compare a prefix long enough to
    cover both preperiods plus two full joint periods."""
    import math

    pre = max(len(a.preperiod), len(b.preperiod))
    per = math.lcm(len(a.period), len(b.period))
    n = pre + 2 * per
    return a.prefix(n) == b.prefix(n)


def test_canonicalize_primitive_period():
    B = boolean_2()
    s = canonicalize(B, [], ["b1", "b2", "b1", "b2"])
    assert s.period == ("b1", "b2") and s.preperiod == ()


def test_canonicalize_absorbs_preperiod():
    B = boolean_2()
    # b2 (b1 b2)^w is the same cofinite class as (b2 b1)^w
    s = canonicalize(B, ["b2"], ["b1", "b2"])
    assert s.preperiod == () and s.period == ("b2", "b1")
    # matching tail entries are absorbed; a genuinely different entry stays
    t = canonicalize(B, ["b1", "b2", "b2"], ["b2"])
    assert t.preperiod == ("b1",) and t.period == ("b2",)
    assert t != std_embed(B, "b2")


def test_canonical_equality_matches_window_oracle_randomized():
    B = boolean_2()
    rng = random.Random(7)
    for _ in range(1000):
        pre_a = [rng.choice(B.carrier) for _ in range(rng.randint(0, 3))]
        per_a = [rng.choice(B.carrier) for _ in range(rng.randint(1, 4))]
        pre_b = [rng.choice(B.carrier) for _ in range(rng.randint(0, 3))]
        per_b = [rng.choice(B.carrier) for _ in range(rng.randint(1, 4))]
        a = canonicalize(B, pre_a, per_a)
        b = canonicalize(B, pre_b, per_b)
        assert (a == b) == _window_equal(a, b)


def test_pointwise_apply_well_defined():
    B = boolean_2()
    alt = canonicalize(B, [], ["b1", "b2"])
    # padded representative of the same class
    padded = canonicalize(B, ["b1", "b2", "b1"], ["b2", "b1", "b2", "b1"])
    assert padded == alt
    out1 = pointwise_apply("not", [alt])
    out2 = pointwise_apply("not", [padded])
    assert out1 == out2 == canonicalize(B, [], ["b2", "b1"])


def test_pointwise_apply_guards():
    B, O = boolean_2(), boolean_4()
    with pytest.raises(UalgError):
        pointwise_apply("and", [std_embed(B, "b1"), std_embed(O, "o1")])
    with pytest.raises(UalgError):
        pointwise_apply("and", [std_embed(B, "b1")])
    with pytest.raises(UalgError):
        pointwise_apply("zero", [])


def test_parse_ep_sequence():
    B = boolean_2()
    # pre b1 | per b2 b1 is b1,b2,b1,b2,... : the preperiod is absorbed
    s = parse_ep_sequence(B, "pre b1 | per b2 b1")
    assert s.preperiod == () and s.period == ("b1", "b2")
    assert parse_ep_sequence(B, "per b2") == std_embed(B, "b2")
    with pytest.raises(UalgError):
        parse_ep_sequence(B, "b1 b2")
    with pytest.raises(UalgError):
        parse_ep_sequence(B, "per")


def test_adjoin_alternating_gives_four_members():
    B = boolean_2()
    alt = parse_ep_sequence(B, "per b1 b2")
    ext = adjoin_generate(B, [alt])
    assert len(ext.members) == 4
    # constants first, in base carrier order
    assert ext.members[0] == std_embed(B, "b1")
    assert ext.members[1] == std_embed(B, "b2")
    assert ext.constants() == ("q0", "q1")
    prod = direct_product([B, B])
    assert check_isomorphism(ext.algebra, prod.product) is not None


def test_adjoin_nothing_is_standard_copy():
    O = boolean_4()
    ext = adjoin_generate(O, [])
    assert len(ext.members) == 4
    assert check_isomorphism(ext.algebra, O) is not None


def test_adjoin_budget():
    with pytest.raises(BudgetExceeded):
        adjoin_generate(
            boolean_4(),
            [canonicalize(boolean_4(), [], ["o1", "o2", "o3", "o4", "o2", "o3"])],
            budget=10,
        )


NON_CANONICAL = """
from ualg import EpSequence, UalgError, adjoin_generate
from ualg.catalog import boolean_2
B = boolean_2()
try:
    adjoin_generate(B, [EpSequence(B, (), ("b1", "b2", "b1", "b2"))])
except UalgError as exc:
    print(__debug__, exc)
"""


def test_adjoin_rejects_non_canonical_generator():
    # period b1 b2 b1 b2 is not primitive; the check must hold under -O too
    B = boolean_2()
    with pytest.raises(UalgError, match="generator not canonical"):
        adjoin_generate(B, [EpSequence(B, (), ("b1", "b2", "b1", "b2"))])
    env = dict(os.environ, PYTHONPATH=str(Path(ualg.__file__).resolve().parent.parent))
    proc = subprocess.run([sys.executable, "-O", "-c", NON_CANONICAL], capture_output=True,
                          text=True, timeout=60, env=env)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False generator not canonical\n", "")


def test_coordinate_retractions():
    B = boolean_2()
    ext = adjoin_generate(B, [parse_ep_sequence(B, "per b1 b2")])
    for i in range(4):
        r = coordinate_retraction(ext, i)
        assert all(r(r(e)) == r(e) for e in ext.algebra.carrier)
        # evaluation at even indices hits b1, odd indices b2
        gen_label = {m: e for e, m in ext.labels}[parse_ep_sequence(B, "per b1 b2")]
        expected = ext.constants()[i % 2]
        assert r(gen_label) == expected


def test_preservation_across_presets():
    cases = [
        (boolean_2(), "boolean-algebra", "per b1 b2"),
        (lattice_2(), "lattice", "per d0 d1"),
        (cyclic_group(2), "group", "per g0 g1"),
    ]
    for alg, preset_name, gen_text in cases:
        gen = parse_ep_sequence(alg, gen_text)
        report = preservation_suite(alg, preset(preset_name), [gen])
        assert report.variety_member, (alg.name, preset_name)


def test_preservation_requires_base_membership():
    from ualg.catalog import semilattice_2

    S = semilattice_2()
    with pytest.raises(UalgError):
        preservation_suite(S, preset("group"), [])


def test_product_compatibility():
    # extending a product of 2-element factors by a pair of alternating
    # generators matches the product of the individual extensions
    B, L = boolean_2(), lattice_2()
    prod = direct_product([L, L])
    gen = parse_ep_sequence(
        prod.product, f"per {prod.unrelabel(('d0', 'd0'))} {prod.unrelabel(('d1', 'd1'))}"
    )
    ext_of_prod = adjoin_generate(prod.product, [gen])
    ext_L = adjoin_generate(L, [parse_ep_sequence(L, "per d0 d1")])
    prod_of_ext = direct_product([ext_L.algebra, ext_L.algebra])
    # the diagonal generator only reaches the diagonal subalgebra, so
    # compare against the extension generated in both coordinates
    g1 = parse_ep_sequence(
        prod.product, f"per {prod.unrelabel(('d0', 'd0'))} {prod.unrelabel(('d1', 'd0'))}"
    )
    g2 = parse_ep_sequence(
        prod.product, f"per {prod.unrelabel(('d0', 'd0'))} {prod.unrelabel(('d0', 'd1'))}"
    )
    full = adjoin_generate(prod.product, [g1, g2])
    assert check_isomorphism(full.algebra, prod_of_ext.product) is not None
    assert len(ext_of_prod.members) <= len(full.members)


def webb(k):
    """Webb's Sheffer operation on k elements, w(x, y) = (max(x, y) + 1)
    mod k, which alone generates every finitary operation on them (D. L.
    Webb, PNAS 21 (1935) 252-254); for k = 2 it is NOR."""
    w = tuple((max(x, y) + 1) % k for x in range(k) for y in range(k))
    return build_algebra(f"W{k}", [f"a{i}" for i in range(k)], [("w", 2, w)])


def webb_case(k, periods):
    alg = webb(k)
    return alg, [canonicalize(alg, [], [alg.carrier[v] for v in p]) for p in periods]


def random_webb_case(seed):
    # periodic generators of one period p with k**p <= 256, so that at
    # most p distinct columns give at most 256 members
    rng = random.Random(seed)
    k = rng.randint(2, 4)
    p = rng.randint(1, {2: 8, 3: 5, 4: 4}[k])
    return webb_case(k, [[rng.randrange(k) for _ in range(p)] for _ in range(rng.randint(1, 3))])


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**62 - 1).map(random_webb_case))
@example(webb_case(2, [[0, 1]]))                     # 4 members, 2 retractions
@example(webb_case(3, [[0, 1, 2]]))                  # 27 members, 3 retractions
@example(webb_case(4, [[0, 1, 2, 3]]))               # 256 members, 4 retractions
@example(webb_case(2, [[0, 1, 1, 0, 1, 0, 0, 1], [0, 0, 1, 1, 0, 1, 0, 1],
                       [1, 1, 1, 0, 0, 0, 1, 0]]))   # 6 columns: 64 members
def test_webb_extension_is_every_function_of_the_columns(case):
    # under every finitary operation the extension by periodic generators
    # is every function of their c distinct columns (g1(i), ..., gm(i)):
    # exactly k**c members, and exactly c retractions onto the standard
    # copy, each the evaluation at one index (a coordinate)
    alg, gens = case
    ext = adjoin_generate(alg, gens)
    window = math.lcm(*(len(g.period) for g in gens))
    columns = {tuple(g.at(i) for g in gens) for i in range(window)}
    assert len(ext.members) == len(alg.carrier) ** len(columns)
    maps = find_retractions(ext.algebra, Subuniverse.of(ext.algebra, ext.constants()))
    assert len(maps) == len(columns)
    assert {m.images for m in maps} == {coordinate_retraction(ext, i).images
                                        for i in range(window)}

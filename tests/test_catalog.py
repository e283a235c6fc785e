"""The catalog pinned against the shipped data files and against a
per-element construction of GF(q)^d, and Webb's Sheffer operations
against their formula and the clone they generate."""

import pytest

from ualg import FiniteAlgebra, UalgError, parse_algebra_file, validate_algebra
from ualg.catalog import (
    boolean_2,
    boolean_4,
    cyclic_group,
    lattice_2,
    semilattice_2,
    sheffer,
    vector_space_gf,
)
from ualg.fileformat import serialize_algebra
from ualg.generation import clone_n
from ualg.presets import finite_field

from conftest import DATA


def test_catalog_matches_data_files():
    shipped = {a.name: a for f in ("paper_BO.alg", "small.alg")
               for a in parse_algebra_file((DATA / f).read_text())}
    built = [boolean_2(), boolean_4(), lattice_2(), semilattice_2(), cyclic_group(2),
             vector_space_gf(2, 1), vector_space_gf(2, 2)]
    assert sorted(a.name for a in built) == sorted(shipped)
    for alg in built:
        assert alg == shipped[alg.name]


def reference_vector_space(q: int, dim: int, name: str) -> FiniteAlgebra:
    """GF(q)^dim element by element: element n has coordinate j equal to
    the base-q digit j of n, and every operation acts per coordinate."""
    add_f, mul_f = finite_field(q)
    size = q**dim
    coords = []
    for n in range(size):
        cs = []
        for _ in range(dim):
            cs.append(n % q)
            n //= q
        coords.append(tuple(cs))

    def pack(cs) -> int:
        n = 0
        for c in reversed(list(cs)):
            n = n * q + c
        return n

    elems = [f"v{i}" for i in range(size)]
    add = [elems[pack(add_f[a][b] for a, b in zip(ci, cj))] for ci in coords for cj in coords]
    neg_of = [0] * q
    for a in range(q):
        for b in range(q):
            if add_f[a][b] == 0:
                neg_of[a] = b
    neg = [elems[pack(neg_of[c] for c in ci)] for ci in coords]
    ops = [("zero", 0, [elems[0]]), ("neg", 1, neg), ("add", 2, add)]
    for r in range(q):
        ops.append((f"s{r}", 1, [elems[pack(mul_f[r][c] for c in ci)] for ci in coords]))
    return validate_algebra(name, elems, ops)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_vector_space_matches_per_element_reference(q):
    dim = 0
    while q**dim <= 729:
        assert vector_space_gf(q, dim) == reference_vector_space(q, dim, f"V{q}_{dim}")
        dim += 1
    assert vector_space_gf(q, 1, "W") == reference_vector_space(q, 1, "W")


def test_vector_space_refuses_bad_name():
    with pytest.raises(UalgError, match="bad algebra name"):
        vector_space_gf(2, 2, "1V")
    with pytest.raises(UalgError, match="not a supported prime power"):
        vector_space_gf(6, 1)


def test_sheffer_is_webb_operation():
    # for k = 2 it is NOR
    assert serialize_algebra(sheffer(2)).splitlines() == [
        "algebra W2", "elements a0 a1", "op w/2 = a1 a0 a0 a0", "end"]
    for k in range(1, 6):
        alg = sheffer(k)
        assert alg.carrier == tuple(f"a{i}" for i in range(k))
        assert alg.table("w") == tuple((max(x, y) + 1) % k for x in range(k) for y in range(k))


@pytest.mark.parametrize("k, n", [(2, 1), (2, 2), (2, 3), (3, 1), (4, 1)])
def test_sheffer_clone_is_every_operation(k, n):
    # Webb's operation alone generates all k**(k**n) n-ary operations
    fragment = clone_n(sheffer(k), n)
    assert fragment.complete
    assert len(fragment.members) == k ** (k ** n)

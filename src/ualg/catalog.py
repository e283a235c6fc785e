"""Ready-made algebras used throughout the tests, docs, and shipped data:
the two- and four-element boolean algebras, small groups, lattices,
vector-space tables, and Webb's Sheffer operations."""

from __future__ import annotations

from .core import FiniteAlgebra, build_algebra, validate_algebra
from .presets import finite_field
from .products import direct_product


def boolean_2() -> FiniteAlgebra:
    """Two-element boolean algebra B on {b1, b2} with b1 = bottom."""
    return validate_algebra(
        "B",
        ["b1", "b2"],
        [
            ("zero", 0, ["b1"]),
            ("one", 0, ["b2"]),
            ("not", 1, ["b2", "b1"]),
            ("and", 2, ["b1", "b1", "b1", "b2"]),
            ("or", 2, ["b1", "b2", "b2", "b2"]),
        ],
    )


def boolean_4() -> FiniteAlgebra:
    """Four-element boolean algebra O on {o1..o4}, the square of B:
    o1 = bottom, o4 = top, o2 and o3 complementary atoms."""
    return direct_product([boolean_2()] * 2, elements=["o1", "o2", "o3", "o4"], name="O").product


def lattice_2() -> FiniteAlgebra:
    """Two-element lattice ({d0, d1}; and, or)."""
    return validate_algebra(
        "L2",
        ["d0", "d1"],
        [
            ("and", 2, ["d0", "d0", "d0", "d1"]),
            ("or", 2, ["d0", "d1", "d1", "d1"]),
        ],
    )


def cyclic_group(n: int, name: str | None = None) -> FiniteAlgebra:
    """Cyclic group of order n in group signature (one, inv, mul)."""
    elems = [f"g{i}" for i in range(n)]
    mul = [elems[(i + j) % n] for i in range(n) for j in range(n)]
    inv = [elems[(-i) % n] for i in range(n)]
    return validate_algebra(
        name or f"Z{n}",
        elems,
        [("one", 0, [elems[0]]), ("inv", 1, inv), ("mul", 2, mul)],
    )


def semilattice_2() -> FiniteAlgebra:
    """Two-element meet semilattice ({m0, m1}; and)."""
    return validate_algebra("S2", ["m0", "m1"], [("and", 2, ["m0", "m0", "m0", "m1"])])


def vector_space_gf(q: int, dim: int, name: str | None = None) -> FiniteAlgebra:
    """GF(q)^dim as a vector space over GF(q): zero, neg, add, and one
    unary scalar operation s0..s{q-1} per field element; the direct
    product of dim copies of the one-dimensional space."""
    add, mul = finite_field(q)
    line = build_algebra("V", [f"v{a}" for a in range(q)], [
        ("zero", 0, (0,)),
        ("neg", 1, tuple(row.index(0) for row in add)),
        ("add", 2, tuple(c for row in add for c in row)),
    ] + [(f"s{r}", 1, tuple(mul[r])) for r in range(q)])
    return direct_product([line] * dim, prefix="v", name=name or f"V{q}_{dim}",
                          signature=line.signature).product


def sheffer(k: int) -> FiniteAlgebra:
    """Webb's Sheffer operation w(x, y) = (max(x, y) + 1) mod k on
    {a0..a{k-1}}, which alone generates every finitary operation on k
    elements (D. L. Webb, PNAS 21 (1935) 252-254); for k = 2 it is NOR."""
    w = tuple((max(x, y) + 1) % k for x in range(k) for y in range(k))
    return build_algebra(f"W{k}", [f"a{i}" for i in range(k)], [("w", 2, w)])


def one_element(signature: list[tuple[str, int]], name: str = "One") -> FiniteAlgebra:
    """The one-element algebra of a given signature."""
    return validate_algebra(name, ["e"], [(sym, arity, ["e"]) for sym, arity in signature])

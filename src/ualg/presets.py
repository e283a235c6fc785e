"""Built-in equation sets for the familiar varieties.

Chained identities such as x*1 = 1*x = x are expanded into one binary
equation per adjacent pair (the satisfaction relation is defined on
pairs); the original line is kept as the equation label.
"""

from __future__ import annotations

import re

from .core import UalgError
from .terms import App, Equation, EquationSet, Term, Var, parse_term


def _eqs(variables: tuple[str, ...], rows: list[tuple[str, str, str]]) -> tuple[Equation, ...]:
    out = []
    for lhs, rhs, label in rows:
        out.append(
            Equation(
                lhs=parse_term(lhs, variables),
                rhs=parse_term(rhs, variables),
                variables=variables,
                label=label,
            )
        )
    return tuple(out)


XYZ = ("x", "y", "z")

_SEMIGROUP = _eqs(XYZ, [("mul(x, mul(y, z))", "mul(mul(x, y), z)", "associativity")])

_GROUP = _eqs(
    XYZ,
    [
        ("mul(x, one())", "x", "identity"),
        ("mul(one(), x)", "x", "identity"),
        ("mul(x, inv(x))", "one()", "inverse"),
        ("mul(inv(x), x)", "one()", "inverse"),
        ("mul(x, mul(y, z))", "mul(mul(x, y), z)", "associativity"),
    ],
)

_ABELIAN_GROUP = _eqs(
    XYZ,
    [
        ("add(x, add(y, z))", "add(add(x, y), z)", "associativity"),
        ("add(x, y)", "add(y, x)", "commutativity"),
        ("add(x, zero())", "x", "identity"),
        ("add(x, neg(x))", "zero()", "inverse"),
    ],
)

_RING = _ABELIAN_GROUP + _eqs(
    XYZ,
    [
        ("mul(x, mul(y, z))", "mul(mul(x, y), z)", "mul associativity"),
        ("mul(x, one())", "x", "mul identity"),
        ("mul(one(), x)", "x", "mul identity"),
        ("mul(x, add(y, z))", "add(mul(x, y), mul(x, z))", "left distributivity"),
        ("mul(add(x, y), z)", "add(mul(x, z), mul(y, z))", "right distributivity"),
    ],
)

_LATTICE = _eqs(
    XYZ,
    [
        ("and(x, y)", "and(y, x)", "meet commutativity"),
        ("or(x, y)", "or(y, x)", "join commutativity"),
        ("and(x, and(y, z))", "and(and(x, y), z)", "meet associativity"),
        ("or(x, or(y, z))", "or(or(x, y), z)", "join associativity"),
        ("and(x, or(x, y))", "x", "absorption"),
        ("or(x, and(x, y))", "x", "absorption"),
        ("and(x, x)", "x", "meet idempotence"),
        ("or(x, x)", "x", "join idempotence"),
    ],
)

_BOOLEAN = _LATTICE + _eqs(
    XYZ,
    [
        ("and(x, or(y, z))", "or(and(x, y), and(x, z))", "meet distributivity"),
        ("or(x, and(y, z))", "and(or(x, y), or(x, z))", "join distributivity"),
        ("and(x, one())", "x", "top identity"),
        ("or(x, zero())", "x", "bottom identity"),
        ("and(x, not(x))", "zero()", "complement meet"),
        ("or(x, not(x))", "one()", "complement join"),
    ],
)

# Irreducible polynomials for the non-prime orders, coefficients
# little-endian without the leading 1: x^2+x+1, x^3+x+1, x^2+1.
_IRREDUCIBLE = {4: (1, 1), 8: (1, 1, 0), 9: (1, 0)}

_PRIME_POWERS = (2, 3, 4, 5, 7, 8, 9)


def finite_field(q: int) -> tuple[list[list[int]], list[list[int]]]:
    """Addition and multiplication tables of GF(q) for prime power q <= 9.

    Elements are numbered 0..q-1 by base-p digit encoding of polynomial
    coefficients, so 0 and 1 are the field zero and one.
    """
    if q not in _PRIME_POWERS:
        raise UalgError(f"not a supported prime power: {q}")
    p = min(d for d in range(2, q + 1) if q % d == 0)
    deg = 1
    while p**deg < q:
        deg += 1

    def digits(n: int) -> list[int]:
        out = []
        for _ in range(deg):
            out.append(n % p)
            n //= p
        return out

    def undigits(ds: list[int]) -> int:
        n = 0
        for d in reversed(ds):
            n = n * p + d
        return n

    def poly_mul(a: list[int], b: list[int]) -> list[int]:
        prod = [0] * (2 * deg)
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
        if deg > 1:
            red = list(_IRREDUCIBLE[q])  # x^deg = -red as a polynomial
            for i in range(2 * deg - 1, deg - 1, -1):
                c = prod[i]
                if c:
                    prod[i] = 0
                    for j, rj in enumerate(red):
                        prod[i - deg + j] = (prod[i - deg + j] - c * rj) % p
        return prod[:deg]

    add = [[0] * q for _ in range(q)]
    mul = [[0] * q for _ in range(q)]
    for a in range(q):
        for b in range(q):
            add[a][b] = undigits([(x + y) % p for x, y in zip(digits(a), digits(b))])
            mul[a][b] = undigits(poly_mul(digits(a), digits(b)))
    return add, mul


def vector_space_equations(q: int) -> tuple[Equation, ...]:
    """The eight equation schemas of a vector space over GF(q), fully
    instantiated: abelian group laws on add, plus the scalar laws
    s_r(x+y) = s_r(x)+s_r(y), s_r(s_t(x)) = s_{rt}(x), s_1(x) = x, and
    s_r(x)+s_t(x) = s_{r+t}(x)."""
    add, mul = finite_field(q)
    xy = ("x", "y")

    def s(r: int, arg: Term) -> Term:
        return App(f"s{r}", (arg,))

    # each repeated subterm is one object, which a check compiles once
    x, y = Var(0), Var(1)
    x_plus_y = App("add", (x, y))
    sx = [s(r, x) for r in range(q)]
    sy = [s(r, y) for r in range(q)]
    rows: list[Equation] = list(_ABELIAN_GROUP)
    for r in range(q):
        rows.append(
            Equation(
                s(r, x_plus_y),
                App("add", (sx[r], sy[r])),
                xy,
                label="scalar over sum",
            )
        )
    for r in range(q):
        for t in range(q):
            rows.append(
                Equation(s(r, sx[t]), sx[mul[r][t]], xy, label="scalar composition")
            )
    rows.append(Equation(sx[1], x, xy, label="multiplicative identity"))
    for r in range(q):
        for t in range(q):
            rows.append(
                Equation(
                    App("add", (sx[r], sx[t])),
                    sx[add[r][t]],
                    xy,
                    label="scalar sum",
                )
            )
    return tuple(rows)


_VS_RE = re.compile(r"vector-space\((\d+)\)\Z")


def preset(name: str) -> EquationSet:
    """Named equation sets: group, abelian-group, ring, lattice,
    boolean-algebra, semigroup, vector-space(q) for prime power q <= 9."""
    fixed = {
        "semigroup": _SEMIGROUP,
        "group": _GROUP,
        "abelian-group": _ABELIAN_GROUP,
        "ring": _RING,
        "lattice": _LATTICE,
        "boolean-algebra": _BOOLEAN,
    }
    if name in fixed:
        return EquationSet(name=name, equations=fixed[name])
    m = _VS_RE.match(name)
    if m:
        q = m.group(1).lstrip("0") or "0"
        if q not in map(str, _PRIME_POWERS):  # int() refuses thousands of digits
            raise UalgError(f"not a supported prime power: {q}")
        return EquationSet(name=name, equations=vector_space_equations(int(q)))
    raise UalgError(f"unknown preset: {name}")


PRESET_NAMES = (
    "semigroup",
    "group",
    "abelian-group",
    "ring",
    "lattice",
    "boolean-algebra",
) + tuple(f"vector-space({q})" for q in _PRIME_POWERS)

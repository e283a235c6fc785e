"""Categorical direct products over fresh urelements: construction via an
injective relabeling of the tuple carrier, projection homomorphisms, and
mediating-morphism synthesis with its verification transcript."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

from .core import IDENT_RE, MAX_TABLE_CELLS, BudgetExceeded, FiniteAlgebra, Rows, Signature, UalgError
from .core import gather, pack, power_exceeds, weighted_sum
from .morphisms import (
    Morphism,
    check_homomorphism,
    _require_shared_signature,
)


@dataclass(frozen=True)
class RelabeledProduct:
    factors: tuple[FiniteAlgebra, ...]
    product: FiniteAlgebra
    labels: tuple[tuple[str, tuple[str, ...]], ...]  # fresh urelement -> factor tuple
    projections: tuple[Morphism, ...]

    @cached_property
    def _parts_of(self) -> dict[str, tuple[str, ...]]:
        return dict(self.labels)

    @cached_property
    def _element_of(self) -> dict[tuple[str, ...], str]:
        return {t: e for e, t in self.labels}

    def relabel(self, element: str) -> tuple[str, ...]:
        return self._parts_of[element]

    def unrelabel(self, parts: Sequence[str]) -> str:
        return self._element_of[tuple(parts)]


def direct_product(
    factors: Sequence[FiniteAlgebra],
    prefix: str = "p",
    elements: Optional[Sequence[str]] = None,
    signature: Optional[Signature] = None,
    name: Optional[str] = None,
) -> RelabeledProduct:
    """Product with carrier relabeled onto fresh urelements.

    Tuple order is lexicographic in factor order with carrier orders,
    leftmost factor most significant; fresh names default to
    prefix+index in that order.  The empty product needs an explicit
    signature and yields the one-element algebra.  A table of more than
    `core.MAX_TABLE_CELLS` cells raises BudgetExceeded before any is built."""
    factors = tuple(factors)
    if not factors:
        if signature is None:
            raise UalgError("empty product requires an explicit signature")
        sig = signature
    else:
        sig = factors[0].signature
        for f in factors[1:]:
            _require_shared_signature(factors[0], f)

    size = math.prod(len(f.carrier) for f in factors)
    for sym, arity in sig.symbols:
        if power_exceeds(size, arity, MAX_TABLE_CELLS):
            raise BudgetExceeded(f"product table of {sym}/{arity} over {size} elements "
                                 f"would hold more than {MAX_TABLE_CELLS} cells")
    tuples = list(itertools.product(*(f.carrier for f in factors)))
    if elements is not None:
        if len(elements) != size:
            raise UalgError(f"expected {size} urelements, got {len(elements)}")
        if len(set(elements)) != len(elements):
            raise UalgError("duplicate urelement in explicit element list")
        fresh = tuple(elements)
    else:
        fresh = tuple(f"{prefix}{i}" for i in range(size))
    if name and not IDENT_RE.match(name):
        raise UalgError(f"bad algebra name: {name!r}")
    for e in fresh:
        if not IDENT_RE.match(e):
            raise UalgError(f"bad element name: {e!r}")
    # element p has the mixed-radix digits (p // strides[fi]) % len(f.carrier)
    strides = [math.prod(len(f.carrier) for f in factors[fi + 1:]) for fi in range(len(factors))]
    digits = [pack(((p // st) % len(f.carrier) for p in range(size)), size)
              for f, st in zip(factors, strides)]

    tables = []
    for sym, arity in sig.symbols:
        if arity == 0:
            tables.append((sum(st * f.table(sym)[0] for f, st in zip(factors, strides)),))
            continue
        # the row of a prefix of product elements sums, over the factors,
        # stride times the factor's row of that prefix's digits
        rows = [Rows(f.table(sym), len(f.carrier), size) for f in factors]
        cells: list[int] = []
        for prefix in itertools.product(range(size), repeat=arity - 1):
            parts = []
            for f, d, f_rows in zip(factors, digits, rows):
                r = 0
                for p in prefix:
                    r = r * len(f.carrier) + d[p]
                parts.append(gather(f_rows[r], d))
            cells.extend(weighted_sum(parts, strides, size, size))
        tables.append(tuple(cells))
    prod = FiniteAlgebra(
        name=name or ("x".join(f.name for f in factors) or "Terminal"),
        carrier=fresh,
        signature=sig,
        tables=tuple(tables),
    )

    projections = tuple(Morphism(prod, f, tuple(t[fi] for t in tuples))
                        for fi, f in enumerate(factors))
    labels = tuple(zip(fresh, tuples))
    return RelabeledProduct(factors=factors, product=prod, labels=labels, projections=projections)


@dataclass(frozen=True)
class PreservationRow:
    args: tuple[str, ...]
    mapped_result: str
    result_of_mapped: str

    @property
    def ok(self) -> bool:
        return self.mapped_result == self.result_of_mapped


@dataclass(frozen=True)
class MediationResult:
    """The mediating morphism together with the full verification
    transcript: per-symbol preservation rows and per-factor commutation
    checks of projection-after-mediating against each leg."""

    morphism: Morphism
    preservation: tuple[tuple[str, tuple[PreservationRow, ...]], ...]
    commutation_ok: tuple[bool, ...]

    @property
    def all_ok(self) -> bool:
        return all(r.ok for _, rows in self.preservation for r in rows) and all(
            self.commutation_ok
        )


def mediating_morphism(
    apex: FiniteAlgebra, legs: Sequence[Morphism], prod: RelabeledProduct
) -> MediationResult:
    """The unique map with relabel(phi(a)) = (leg_1(a), ..., leg_k(a)),
    verified to be a homomorphism that commutes with every projection."""
    if len(legs) != len(prod.factors):
        raise UalgError("one leg per factor required")
    for leg, factor in zip(legs, prod.factors):
        if leg.source != apex or leg.target != factor:
            raise UalgError("leg endpoints must run from the apex to the factors")
        ok, witness = check_homomorphism(leg)
        if not ok:
            raise UalgError(f"leg into {factor.name} is not a homomorphism: {witness}")

    images = tuple(
        prod.unrelabel([leg(a) for leg in legs]) for a in apex.carrier
    )
    phi = Morphism(apex, prod.product, images)

    preservation = []
    for sym, arity in apex.signature.symbols:
        rows = []
        for args in itertools.product(apex.carrier, repeat=arity):
            rows.append(
                PreservationRow(
                    args=args,
                    mapped_result=phi(apex.apply(sym, *args)),
                    result_of_mapped=prod.product.apply(sym, *(phi(a) for a in args)),
                )
            )
        preservation.append((sym, tuple(rows)))
    commutation = tuple(
        all(proj(phi(a)) == leg(a) for a in apex.carrier)
        for proj, leg in zip(prod.projections, legs)
    )
    return MediationResult(
        morphism=phi, preservation=tuple(preservation), commutation_ok=commutation
    )

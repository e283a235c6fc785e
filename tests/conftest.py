import random
from pathlib import Path

import pytest

from ualg import Signature, UalgError, validate_algebra
from ualg.reduced_power import _window, canonicalize

DATA = Path(__file__).resolve().parent.parent / "data"


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return DATA


def random_algebra(rng: random.Random, max_size: int = 5, max_arity: int = 2,
                   max_ops: int = 3, name: str = "R"):
    """A random valid algebra: random carrier size and random total tables."""
    size = rng.randint(1, max_size)
    elems = [f"e{i}" for i in range(size)]
    n_ops = rng.randint(1, max_ops)
    ops = []
    for oi in range(n_ops):
        arity = rng.randint(0, max_arity)
        values = [rng.choice(elems) for _ in range(size**arity)]
        ops.append((f"f{oi}", arity, values))
    return validate_algebra(name, elems, ops)


def pointwise_apply(symbol, args):
    """Apply a base operation of eventually periodic sequences index by
    index, on element names, then canonicalize: the string-level oracle
    for the closure of extensions.  The result is independent of the
    chosen representatives because canonical forms agree on a cofinite
    set."""
    if not args:
        raise UalgError("pointwise application needs at least one argument; "
                        "use std_embed for nullary values")
    base = args[0].base
    for s in args[1:]:
        if s.base != base:
            raise UalgError("mixed base algebras")
    if base.signature.arity(symbol) != len(args):
        raise UalgError(f"arity mismatch for {symbol}")
    pre_len, per_len = _window(args)
    pre = tuple(base.apply(symbol, *(s.at(i) for s in args)) for i in range(pre_len))
    per = tuple(base.apply(symbol, *(s.at(pre_len + i) for s in args)) for i in range(per_len))
    return canonicalize(base, pre, per)

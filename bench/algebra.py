"""Operation tables on carrier indices, built, evaluated and written out
without importing ualg.

The benchmark computes every expected answer with this module, so a
check never compares ualg with itself.  An algebra here is a carrier
size ``k`` plus ``(symbol, arity, table)`` triples; a table is a flat
row-major tuple of indices with the leftmost argument most significant,
which is also the layout of the ``.alg`` file format.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Alg:
    name: str
    size: int
    ops: tuple[tuple[str, int, tuple[int, ...]], ...]

    def table(self, symbol: str) -> tuple[int, ...]:
        for sym, _, tab in self.ops:
            if sym == symbol:
                return tab
        raise KeyError(symbol)

    def cells(self) -> int:
        return sum(len(tab) for _, _, tab in self.ops)


def index(args, k: int) -> int:
    i = 0
    for a in args:
        i = i * k + a
    return i


def build(name: str, size: int, ops) -> Alg:
    """ops: (symbol, arity, function of the argument indices)."""
    return Alg(name, size, tuple(
        (sym, arity, tuple(fn(*args) for args in itertools.product(range(size), repeat=arity)))
        for sym, arity, fn in ops))


def permute(alg: Alg, perm: list[int], name: str | None = None) -> Alg:
    """The isomorphic copy in which old element i becomes perm[i]."""
    k = alg.size
    inv = [0] * k
    for i, p in enumerate(perm):
        inv[p] = i
    ops = []
    for sym, arity, tab in alg.ops:
        ops.append((sym, arity, tuple(
            perm[tab[index([inv[a] for a in args], k)]]
            for args in itertools.product(range(k), repeat=arity))))
    return Alg(name or alg.name, k, tuple(ops))


def product(name: str, factors: list[Alg]) -> Alg:
    """Direct product with tuples in lexicographic order, leftmost factor
    most significant."""
    tuples = list(itertools.product(*(range(f.size) for f in factors)))
    pos = {t: i for i, t in enumerate(tuples)}
    ops = []
    for sym, arity, _ in factors[0].ops:
        tabs = [f.table(sym) for f in factors]
        ops.append((sym, arity, tuple(
            pos[tuple(tab[index([tuples[a][fi] for a in args], f.size)]
                      for fi, (f, tab) in enumerate(zip(factors, tabs)))]
            for args in itertools.product(range(len(tuples)), repeat=arity))))
    return Alg(name, len(tuples), tuple(ops))


# -- the algebras the workloads are made of ---------------------------------

def boolean_power(name: str, n: int) -> Alg:
    """2^n as subsets of n atoms, element i being the bitmask i."""
    full = (1 << n) - 1
    return build(name, 1 << n, [
        ("zero", 0, lambda: 0), ("one", 0, lambda: full),
        ("not", 1, lambda x: full ^ x),
        ("and", 2, lambda x, y: x & y), ("or", 2, lambda x, y: x | y)])


def divisors(n: int) -> list[int]:
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return sorted(set(small + [n // d for d in small]))


def divisor_lattice(name: str, n: int) -> Alg:
    divs = divisors(n)
    at = {d: i for i, d in enumerate(divs)}
    return build(name, len(divs), [
        ("and", 2, lambda x, y: at[math.gcd(divs[x], divs[y])]),
        ("or", 2, lambda x, y: at[math.lcm(divs[x], divs[y])])])


def abelian_group(name: str, orders: list[int], mul: bool = False) -> Alg:
    """Z_{o1} x ... x Z_{or}, in the signature mul/inv/one when mul is
    set, else add/neg/zero."""
    tuples = list(itertools.product(*(range(o) for o in orders)))
    pos = {t: i for i, t in enumerate(tuples)}

    def add(x, y):
        return pos[tuple((a + b) % o for a, b, o in zip(tuples[x], tuples[y], orders))]

    def neg(x):
        return pos[tuple(-a % o for a, o in zip(tuples[x], orders))]

    names = ("one", "inv", "mul") if mul else ("zero", "neg", "add")
    return build(name, len(tuples), [(names[0], 0, lambda: 0), (names[1], 1, neg),
                                     (names[2], 2, add)])


def ring_zn(name: str, n: int) -> Alg:
    return build(name, n, [
        ("zero", 0, lambda: 0), ("one", 0, lambda: 1 % n), ("neg", 1, lambda x: -x % n),
        ("add", 2, lambda x, y: (x + y) % n), ("mul", 2, lambda x, y: x * y % n)])


def vector_space(name: str, p: int, d: int) -> Alg:
    """GF(p)^d for a prime p, with scalar multiplications s0..s{p-1}."""
    vecs = list(itertools.product(range(p), repeat=d))
    pos = {v: i for i, v in enumerate(vecs)}
    ops = [("zero", 0, lambda: 0),
           ("neg", 1, lambda x: pos[tuple(-a % p for a in vecs[x])]),
           ("add", 2, lambda x, y: pos[tuple((a + b) % p for a, b in zip(vecs[x], vecs[y]))])]
    for r in range(p):
        ops.append((f"s{r}", 1, lambda x, r=r: pos[tuple(r * a % p for a in vecs[x])]))
    return build(name, len(vecs), ops)


def cycle(name: str, n: int) -> Alg:
    return build(name, n, [("s", 1, lambda x: (x + 1) % n)])


def lattice_2(name: str) -> Alg:
    return build(name, 2, [("and", 2, min), ("or", 2, max)])


def random_algebra(name: str, rng, size: int, symbols: list[tuple[str, int]]) -> Alg:
    return Alg(name, size, tuple(
        (sym, arity, tuple(rng.choices(range(size), k=size ** arity)))
        for sym, arity in symbols))


# -- text ------------------------------------------------------------------

def write_alg(alg: Alg, names: list[str]) -> str:
    """One block of the .alg format, element i written as names[i]."""
    lines = [f"algebra {alg.name}", "elements " + " ".join(names)]
    for sym, arity, tab in alg.ops:
        lines.append(f"op {sym}/{arity} = " + " ".join(names[v] for v in tab))
    lines.append("end")
    return "\n".join(lines) + "\n"


def read_alg(text: str) -> dict[str, tuple[list[str], dict[str, tuple[int, list[str]]]]]:
    """The blocks of an .alg text as name -> (elements, symbol -> (arity,
    values)), for checking algebras that ualg prints."""
    out = {}
    name = None
    for line in text.splitlines():
        tokens = line.split("#", 1)[0].split()
        if not tokens:
            continue
        if tokens[0] == "algebra":
            name, elements, ops = tokens[1], [], {}
        elif tokens[0] == "elements":
            elements = tokens[1:]
        elif tokens[0] == "op":
            sym, arity = tokens[1].split("/")
            ops[sym] = (int(arity), tokens[3:])
        elif tokens[0] == "end":
            out[name] = (elements, ops)
    return out


# -- terms and equations -----------------------------------------------------

def parse_term(text: str, variables: list[str]):
    """Prefix syntax `f(x, g(y))`; a term is ("v", i) or (symbol, args)."""
    tokens = text.replace("(", " ( ").replace(")", " ) ").replace(",", " , ").split()

    def parse(at):
        tok = tokens[at]
        if at + 1 < len(tokens) and tokens[at + 1] == "(":
            args, at = [], at + 2
            while tokens[at] != ")":
                arg, at = parse(at)
                args.append(arg)
                if tokens[at] == ",":
                    at += 1
            return (tok, tuple(args)), at + 1
        return ("v", variables.index(tok)), at + 1

    term, end = parse(0)
    if end != len(tokens):
        raise ValueError(f"trailing tokens in {text!r}")
    return term


def eval_term(alg: Alg, term, binding) -> int:
    head, args = term
    if head == "v":
        return binding[args]
    return alg.table(head)[index([eval_term(alg, a, binding) for a in args], alg.size)]


def first_counterexample(alg: Alg, lhs, rhs, nvars: int):
    """(lex rank, binding) of the first failing binding, or None."""
    for rank, binding in enumerate(itertools.product(range(alg.size), repeat=nvars)):
        if eval_term(alg, lhs, binding) != eval_term(alg, rhs, binding):
            return rank, binding
    return None


def is_homomorphism(src: Alg, dst: Alg, images: list[int]) -> bool:
    for sym, arity, tab in src.ops:
        dtab = dst.table(sym)
        for args in itertools.product(range(src.size), repeat=arity):
            if images[tab[index(args, src.size)]] != dtab[index([images[a] for a in args], dst.size)]:
                return False
    return True


def closure_stages(alg: Alg, seed: list[int]) -> list[list[int]]:
    """Breadth-first closure: stage 0 is the seed plus the constants, and
    stage i+1 adds every operation applied to stage i.  A round only
    evaluates tuples that hold an element new in the round before, since
    the others gave nothing new then."""
    current = set(seed) | {tab[0] for _, arity, tab in alg.ops if arity == 0}
    stages = [sorted(current)]
    new, old = current, set()
    while True:
        found = set()
        for _, arity, tab in alg.ops:
            # tuples whose first new element sits at position i
            for i in range(arity):
                for args in itertools.product(*[old] * i, new, *[current] * (arity - i - 1)):
                    found.add(tab[index(args, alg.size)])
        old, new = current, found - current
        if not new:
            return stages
        current = current | new
        stages.append(sorted(current))

"""The three workloads as lists of ualg CLI jobs, each with its expected
exit code and a check computed without ualg.

A workload is built from a seed: the seed picks element names, carrier
orders, and choices among inputs of equal size, never the size of the
work.  Hom and iso searches keep canonical carrier orders, because
their cost depends on the order (see README.md).  `smoke` shrinks every
input so that a pass takes well under a second.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import algebra as A


class CheckFailed(Exception):
    pass


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


@dataclass
class Job:
    """One `ualg --json <argv>` call.  `check` takes the parsed JSON
    output, raises CheckFailed on a wrong answer, and returns the work
    counts of the per-layer metrics that the answer implies."""

    id: str
    argv: list[str]
    code: int
    check: Callable[[dict], dict]
    cells: int = 0
    known_fault: Optional[str] = None


# The laws of the fixed presets as ualg renders them; every preset
# equation quantifies over the declared variables x, y, z.
SEMIGROUP = ["mul(x, mul(y, z)) = mul(mul(x, y), z)"]
GROUP = ["mul(x, one()) = x", "mul(one(), x) = x", "mul(x, inv(x)) = one()",
         "mul(inv(x), x) = one()", "mul(x, mul(y, z)) = mul(mul(x, y), z)"]
ABELIAN_GROUP = ["add(x, add(y, z)) = add(add(x, y), z)", "add(x, y) = add(y, x)",
                 "add(x, zero()) = x", "add(x, neg(x)) = zero()"]
RING = ABELIAN_GROUP + [
    "mul(x, mul(y, z)) = mul(mul(x, y), z)", "mul(x, one()) = x", "mul(one(), x) = x",
    "mul(x, add(y, z)) = add(mul(x, y), mul(x, z))",
    "mul(add(x, y), z) = add(mul(x, z), mul(y, z))"]
LATTICE = ["and(x, y) = and(y, x)", "or(x, y) = or(y, x)",
           "and(x, and(y, z)) = and(and(x, y), z)", "or(x, or(y, z)) = or(or(x, y), z)",
           "and(x, or(x, y)) = x", "or(x, and(x, y)) = x", "and(x, x) = x", "or(x, x) = x"]
BOOLEAN = LATTICE + [
    "and(x, or(y, z)) = or(and(x, y), and(x, z))",
    "or(x, and(y, z)) = and(or(x, y), or(x, z))",
    "and(x, one()) = x", "or(x, zero()) = x", "and(x, not(x)) = zero()",
    "or(x, not(x)) = one()"]
FIXED_PRESETS = {"semigroup": SEMIGROUP, "group": GROUP, "abelian-group": ABELIAN_GROUP,
                 "ring": RING, "lattice": LATTICE, "boolean-algebra": BOOLEAN}
XYZ = ["x", "y", "z"]


def preset_arities(name: str) -> list[int]:
    """Declared variable count of each equation of a preset, in order:
    vector-space(q) is the abelian group laws over x, y, z followed by
    q + q^2 + 1 + q^2 scalar laws over x, y."""
    if name in FIXED_PRESETS:
        return [3] * len(FIXED_PRESETS[name])
    q = int(name[len("vector-space("):-1])
    return [3] * 4 + [2] * (q + q * q + 1 + q * q)


class Inputs:
    """Writes the input files of one workload into a directory."""

    def __init__(self, root: Path, rng: random.Random):
        self.root = root
        self.rng = rng
        self.count = 0

    def names(self, k: int) -> list[str]:
        prefix = self.rng.choice("acefghkmuvw") + self.rng.choice("bdnprstxyz")
        return [f"{prefix}{i}" for i in range(k)]

    def shuffled(self, alg: A.Alg) -> A.Alg:
        perm = list(range(alg.size))
        self.rng.shuffle(perm)
        return A.permute(alg, perm)

    def write(self, *algs: A.Alg) -> tuple[str, list[list[str]], int]:
        """One file holding the algebras; returns its path, the element
        names of each algebra, and the number of table cells."""
        labels = [self.names(a.size) for a in algs]
        self.count += 1
        path = self.root / f"in{self.count:04d}.alg"
        path.write_text("".join(A.write_alg(a, n) for a, n in zip(algs, labels)))
        return str(path), labels, sum(a.cells() for a in algs)


# -- checks -------------------------------------------------------------------

def satisfies_job(inp: Inputs, alg: A.Alg, preset: str, tag: str, member: bool) -> Job:
    """`satisfies` against a preset.  A member of the variety by
    construction must pass every law; otherwise the benchmark scans for
    each law's first counterexample itself."""
    path, (names,), cells = inp.write(alg)
    arities = preset_arities(preset)
    if not member:
        expected = []
        for text in FIXED_PRESETS[preset]:
            lhs, rhs = (A.parse_term(side, XYZ) for side in text.split(" = "))
            hit = A.first_counterexample(alg, lhs, rhs, 3)
            expected.append((text, hit))
    else:
        expected = [(text, None) for text in FIXED_PRESETS.get(preset, [None] * len(arities))]
    member = all(hit is None for _, hit in expected)

    def check(out: dict) -> dict:
        rows = out["results"]
        expect(len(rows) == len(expected), f"{len(rows)} results, expected {len(expected)}")
        expect(out["variety_member"] is member, "wrong variety verdict")
        bindings = 0
        for row, (text, hit), nvars in zip(rows, expected, arities):
            if text is not None:
                expect(row["equation"] == text, f"equation {row['equation']!r}, expected {text!r}")
            if hit is None:
                expect(row["holds"] is True and row["counterexample"] is None,
                       f"{row['equation']} should hold")
                bindings += alg.size ** nvars
            else:
                rank, binding = hit
                named = {v: names[e] for v, e in zip(XYZ, binding)}
                expect(row["holds"] is False and row["counterexample"] == named,
                       f"{row['equation']}: counterexample {row['counterexample']}, "
                       f"expected {named}")
                bindings += rank + 1
        return {"terms.bindings": bindings}

    return Job(f"satisfies {tag} {preset}", ["satisfies", path, f"preset:{preset}"],
               0 if member else 1, check, cells)


def images_of(out_map: dict, src_names: list[str], dst_names: list[str]) -> list[int]:
    expect(list(out_map) == src_names, "map does not list the source carrier in order")
    at = {e: i for i, e in enumerate(dst_names)}
    expect(all(v in at for v in out_map.values()), "map leaves the target carrier")
    return [at[out_map[e]] for e in src_names]


def iso_job(inp: Inputs, a: A.Alg, b: A.Alg, isomorphic: bool, tag: str) -> Job:
    path, (na, nb), cells = inp.write(a, b)

    def check(out: dict) -> dict:
        expect(out["isomorphic"] is isomorphic, f"isomorphic={out['isomorphic']}")
        if not isomorphic:
            expect(out["map"] is None, "a map for a non-isomorphic pair")
            return {"morphisms.maps_found": 0}
        images = images_of(out["map"], na, nb)
        expect(sorted(images) == list(range(b.size)), "map is not a bijection")
        expect(A.is_homomorphism(a, b, images), "map is not a homomorphism")
        return {"morphisms.maps_found": 1}

    return Job(f"iso {tag}", ["iso", path, "--algebras", f"{a.name},{b.name}"],
               0 if isomorphic else 1, check, cells)


def hom_count_job(inp: Inputs, a: A.Alg, b: A.Alg, count: int, tag: str,
                  known_fault: Optional[str] = None) -> Job:
    path, _, cells = inp.write(a, b)

    def check(out: dict) -> dict:
        expect(out == {"count": count}, f"{out}, expected count {count}")
        return {"morphisms.maps_found": count}

    return Job(f"homs --count {tag}", ["homs", path, "--algebras", f"{a.name},{b.name}", "--count"],
               0 if count else 1, check, cells, known_fault)


def free_retract_job(gens: int, bound: int, image_bound: int) -> Job:
    assert image_bound < bound

    def check(out: dict) -> dict:
        expect(out["found"] is None, "a retraction onto a proper truncation")
        return {"free_semigroup.words": sum(gens ** i for i in range(1, bound + 1))}

    return Job(f"free-retract {gens}/{bound}/{image_bound}",
               ["free-retract", "--gens", str(gens), "--bound", str(bound),
                "--image-bound", str(image_bound)], 1, check)


def rotated(pattern: list[list[int]], rng: random.Random) -> list[list[int]]:
    """The 0/1 sequences of a fixed pattern, every one rotated by the same
    seeded offset.  A rotation keeps each primitive period and the
    number of distinct coordinate columns, so the seed does not change
    the work of the closure."""
    r = rng.randrange(len(pattern[0]))
    return [g[r:] + g[:r] for g in pattern]


def columns(gens: list[list[int]]) -> int:
    return len(set(zip(*gens)))


def rp_args(names: list[str], gens: list[list[int]]) -> list[str]:
    out = []
    for g in gens:
        out += ["--gen", "per " + " ".join(names[v] for v in g)]
    return out


# -- workloads ---------------------------------------------------------------

def verify(inp: Inputs, smoke: bool) -> list[Job]:
    """True verdicts only: every binding of every equation is evaluated."""
    rng = inp.rng
    jobs = []
    for n in ((2, 3) if smoke else (3, 4)):
        jobs.append(satisfies_job(inp, inp.shuffled(A.boolean_power("B", n)),
                                  "boolean-algebra", f"B^{n}", True))
    for divisors in ((6, 8) if smoke else (12, 24)):
        n = rng.choice([m for m in range(2, 1000) if len(A.divisors(m)) == divisors])
        alg = A.divisor_lattice("D", n)
        jobs.append(satisfies_job(inp, inp.shuffled(alg), "lattice", f"D{n}", True))
    # Abelian groups of one order, drawn by the seed: the group laws are
    # checked on order 24 and the abelian-group laws on order 20, so that
    # the median job of the pass stands apart from its neighbours.
    choices = {24: [[24], [3, 8], [2, 12], [2, 2, 6], [4, 6]],
               20: [[20], [4, 5], [2, 10], [2, 2, 5]], 8: [[8], [2, 4], [2, 2, 2]]}
    for preset, mul, order in (("group", True, 24), ("abelian-group", False, 20)):
        orders = rng.choice(choices[8 if smoke else order])
        alg = A.abelian_group("G", orders, mul=mul)
        jobs.append(satisfies_job(inp, inp.shuffled(alg), preset,
                                  "x".join(f"Z{o}" for o in orders), True))
    for n in ((6, 8) if smoke else (10, 12)):
        jobs.append(satisfies_job(inp, inp.shuffled(A.ring_zn("R", n)), "ring", f"Z{n}", True))
    for p, d in (((3, 1), (2, 2)) if smoke else ((3, 2), (5, 2))):
        jobs.append(satisfies_job(inp, inp.shuffled(A.vector_space("V", p, d)),
                                  f"vector-space({p})", f"GF({p})^{d}", True))
    jobs.append(rp_preserve_job(inp, [[0, 1], [0, 0]] if smoke else [[0, 1, 1, 0], [0, 0, 1, 1]]))
    return jobs


def rp_preserve_job(inp: Inputs, pattern: list[list[int]]) -> Job:
    base = A.boolean_power("B", 1)
    path, (names,), cells = inp.write(base)
    gens = rotated(pattern, inp.rng)
    members = 2 ** columns(gens)
    laws = len(BOOLEAN)

    def check(out: dict) -> dict:
        expect(out["all_pass"] is True, "an equation fails on the extension")
        expect(len(out["results"]) == laws and all(r["holds"] for r in out["results"]),
               "not every law holds")
        return {"terms.bindings": laws * (2 ** 3 + members ** 3),
                "reduced_power.members": members}

    return Job(f"rp preserve {len(gens)}x period {len(gens[0])}, {members} members",
               ["rp", "preserve", path, "preset:boolean-algebra", *rp_args(names, gens)],
               0, check, cells)


def refute(inp: Inputs, smoke: bool) -> list[Job]:
    """Screening: laws fail within the first few bindings, and iso stops
    at its first witness, so per-call costs dominate."""
    rng = inp.rng
    jobs = []
    for i in range(20 if smoke else 280):
        size = rng.randint(12, 32)
        if i % 2:
            alg = A.random_algebra("R", rng, size, [("and", 2), ("or", 2)])
            jobs.append(satisfies_job(inp, alg, "lattice", f"random{size}", False))
        else:
            alg = A.random_algebra("R", rng, size, [("mul", 2)])
            jobs.append(satisfies_job(inp, alg, "semigroup", f"random{size}", False))
    for _ in range(2 if smoke else 20):
        size = rng.randint(16, 32)
        a = A.random_algebra("A", rng, size, [("mul", 2), ("u", 1), ("c", 0)])
        perm = list(range(size))
        rng.shuffle(perm)
        jobs.append(iso_job(inp, a, A.permute(a, perm, "B"), True, f"random{size} shuffled"))
    # Six equal pairs, each under its own names, hold the top 2% of the
    # job times, so job_tail_ms (p99) falls inside them.  Carriers stay
    # in canonical order: shuffled, this search exceeds its node budget
    # (README.md, "Left out").
    p, q = (3, 4) if smoke else (3, 20)
    a = A.product("A", [A.abelian_group("A", [p]), A.abelian_group("A", [q])])
    b = A.abelian_group("B", [p * q])
    for _ in range(1 if smoke else 6):
        jobs.append(iso_job(inp, a, b, True, f"Z{p}xZ{q} Z{p * q}"))
    jobs.append(free_retract_job(2, 6 if smoke else 10, 2))
    return jobs


def structure(inp: Inputs, smoke: bool) -> list[Job]:
    """Exhaustive search and closure; no term evaluation."""
    jobs = []
    for m, n in (((4, 6),) if smoke else ((12, 18), (24, 36))):
        jobs.append(hom_count_job(inp, A.abelian_group("A", [m]), A.abelian_group("B", [n]),
                                  math.gcd(m, n), f"Z{m} Z{n}"))
    for a, b in (((2, 2),) if smoke else ((3, 4), (4, 3))):
        jobs.append(hom_count_job(inp, A.boolean_power("A", a), A.boolean_power("B", b),
                                  a ** b, f"2^{a} 2^{b}"))
    x, y = ([2, 4], [8]) if smoke else ([8, 8], [4, 16])
    ax = A.product("A", [A.abelian_group("A", [o]) for o in x])
    by = A.product("B", [A.abelian_group("B", [o]) for o in y])
    jobs.append(iso_job(inp, ax, by, False, "x".join(f"Z{o}" for o in x) + " "
                        + "x".join(f"Z{o}" for o in y)))
    jobs.append(retracts_job(inp, 3 if smoke else 6))
    jobs.append(clone_job(inp, A.boolean_power("B", 1), 2 if smoke else 3, "B"))
    jobs.append(clone_job(inp, A.lattice_2("L"), 3 if smoke else 4, "L2"))
    jobs.append(product_job(inp, 1 if smoke else 3))
    jobs.append(gen_job(inp, 4 if smoke else 8))
    jobs.append(rp_adjoin_job(inp, [[0, 1, 1, 0], [0, 0, 1, 1]] if smoke else [
        [1, 0, 0, 1, 1, 1, 1, 0], [1, 0, 1, 0, 0, 1, 0, 0],
        [1, 1, 1, 1, 1, 0, 1, 1], [0, 0, 0, 0, 1, 1, 0, 0]]))
    for n in (30 if smoke else 900, 1500):
        jobs.append(hom_count_job(inp, A.cycle("C", n), A.cycle("T", 3), 3, f"C{n} C3",
                                  "RecursionError" if n == 1500 else None))
    return jobs


def retracts_job(inp: Inputs, n: int) -> Job:
    alg = A.boolean_power("R", n)
    path, (names,), cells = inp.write(alg)
    bottom, top = 0, alg.size - 1

    def check(out: dict) -> dict:
        maps = [images_of(r, names, names) for r in out["retractions"]]
        expect(len(maps) == n, f"{len(maps)} retractions, expected {n}")
        expect(len(set(map(tuple, maps))) == n, "a retraction is listed twice")
        for images in maps:
            expect(set(images) == {bottom, top}, "range is not {0, 1}")
            expect(all(images[images[i]] == images[i] for i in range(alg.size)), "not idempotent")
            expect(A.is_homomorphism(alg, alg, images), "not a homomorphism")
        return {"morphisms.maps_found": n}

    return Job(f"retracts 2^{n} onto {{0, 1}}",
               ["retracts", path, "--image", f"{names[bottom]},{names[top]}"], 0, check, cells)


# Clone sizes: every function on {0, 1} is a term operation of the
# two-element boolean algebra; the 2-element lattice gives the monotone
# functions other than the two constants (Dedekind number - 2).
CLONE_SIZE = {("B", n): 2 ** (2 ** n) for n in range(1, 5)}
CLONE_SIZE.update({("L2", 1): 1, ("L2", 2): 4, ("L2", 3): 18, ("L2", 4): 166})


def clone_job(inp: Inputs, alg: A.Alg, arity: int, tag: str) -> Job:
    path, (names,), cells = inp.write(alg)
    size = CLONE_SIZE[tag, arity]
    variables = [f"x{i + 1}" for i in range(arity)]
    points = list(itertools.product(range(alg.size), repeat=arity))

    def check(out: dict) -> dict:
        members = out["members"]
        expect(out["complete"] is True, "clone fragment incomplete")
        expect(len(members) == size, f"{len(members)} members, expected {size}")
        tables = [tuple(names.index(v) for v in m["table"]) for m in members]
        expect(tables == sorted(set(tables)), "tables not distinct and sorted")
        for m, table in zip(members, tables):
            term = A.parse_term(m["witness"], variables)
            expect(tuple(A.eval_term(alg, term, p) for p in points) == table,
                   f"witness {m['witness']} does not give its table")
        return {"generation.clone_members": size}

    return Job(f"clone {tag} arity {arity}", ["clone", path, "--arity", str(arity)],
               0, check, cells)


def product_job(inp: Inputs, copies_of_o: int) -> Job:
    b, o = A.boolean_power("B", 1), A.boolean_power("O", 2)
    path, labels, cells = inp.write(b, o)
    factors = [b] + [o] * copies_of_o
    factor_names = [labels[0]] + [labels[1]] * copies_of_o
    size = 2 * 4 ** copies_of_o

    def check(out: dict) -> dict:
        (elements, ops), = A.read_alg(out["algebra"]).values()
        expect(len(elements) == size, f"{len(elements)} elements, expected {size}")
        relabel = {e: tuple(fn.index(v) for fn, v in zip(factor_names, out["relabel"][e]))
                   for e in elements}
        expect(len(set(relabel.values())) == size, "relabel is not a bijection")
        cells_built = 0
        for sym, arity, _ in b.ops:
            got_arity, values = ops[sym]
            expect(got_arity == arity and len(values) == size ** arity, f"{sym} table shape")
            tabs = [f.table(sym) for f in factors]
            for args, value in zip(itertools.product(elements, repeat=arity), values):
                want = tuple(tab[A.index([relabel[a][fi] for a in args], f.size)]
                             for fi, (f, tab) in enumerate(zip(factors, tabs)))
                expect(relabel[value] == want, f"{sym}{args} = {value}, not componentwise")
            cells_built += len(values)
        for fi, proj in enumerate(out["projections"]):
            expect(all(factor_names[fi][relabel[e][fi]] == proj["map"][e] for e in elements),
                   f"projection {fi} is wrong")
        return {"products.cells": cells_built}

    return Job(f"product B,{','.join(['O'] * copies_of_o)}",
               ["product", path, "--algebras", ",".join(["B"] + ["O"] * copies_of_o)],
               0, check, cells)


def gen_job(inp: Inputs, n: int) -> Job:
    alg = A.boolean_power("G", n)
    atoms = [1 << i for i in range(n)]
    path, (names,), cells = inp.write(alg)
    stages = [[names[i] for i in s] for s in A.closure_stages(alg, atoms)]

    def check(out: dict) -> dict:
        expect(out["stages"] == stages, "stages differ from the breadth-first closure")
        expect(out["members"] == stages[-1] and out["empty"] is False, "members differ")
        return {"generation.stages": len(stages)}

    return Job(f"gen 2^{n} from its atoms",
               ["gen", path, "--elements", ",".join(names[i] for i in atoms)], 0, check, cells)


def rp_adjoin_job(inp: Inputs, pattern: list[list[int]]) -> Job:
    base = A.boolean_power("B", 1)
    path, (names,), cells = inp.write(base)
    gens = rotated(pattern, inp.rng)
    members = 2 ** columns(gens)
    wanted = {"per " + " ".join(names[v] for v in g) for g in gens}
    wanted |= {f"per {e}" for e in names}

    def check(out: dict) -> dict:
        seqs = [m["sequence"] for m in out["members"]]
        expect(len(seqs) == members, f"{len(seqs)} members, expected {members}")
        expect(len(set(seqs)) == members, "a member is listed twice")
        expect(wanted <= set(seqs), "a generator or constant is missing")
        (elements, _), = A.read_alg(out["algebra"]).values()
        expect(len(elements) == members, "algebra view has the wrong size")
        return {"reduced_power.members": members}

    return Job(f"rp adjoin {len(gens)}x period {len(gens[0])}, {members} members",
               ["rp", "adjoin", path, *rp_args(names, gens)], 0, check, cells)


WORKLOADS = {"verify": verify, "refute": refute, "structure": structure}

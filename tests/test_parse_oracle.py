"""The streaming algebra-file parser against an oracle: the parser as it
was when it kept every value token of a block as a string until `end`
and then validated the block with the name-based `validate_algebra`.
Both must give equal algebras, or a ParseError with the same line,
column and message, on random files, on mutated files and on `op` lines
cut into many chunks."""

import random
import re
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from ualg import (
    FiniteAlgebra,
    InvalidAlgebra,
    ParseError,
    Signature,
    parse_algebra_file,
    serialize_algebra,
)
from ualg import fileformat
from ualg.catalog import cyclic_group
from ualg.core import IDENT_RE
from conftest import random_algebra

_OP_RE = re.compile(r"(?P<name>[A-Za-z][A-Za-z0-9_]*)/(?P<arity>\d+)\Z")


def oracle_validate_algebra(name, elements, operations):
    problems = []
    if not elements:
        problems.append("empty carrier")
    seen = set()
    for e in elements:
        if not IDENT_RE.match(e):
            problems.append(f"bad element token: {e!r}")
        if e in seen:
            problems.append(f"duplicate urelement: {e}")
        seen.add(e)

    sym_seen = set()
    for sym, arity, _ in operations:
        if sym in sym_seen:
            problems.append(f"duplicate symbol: {sym}")
        sym_seen.add(sym)
        if arity < 0:
            problems.append(f"negative arity for {sym}")

    k = len(elements)
    index = {e: i for i, e in enumerate(elements)}
    tables = []
    for sym, arity, values in operations:
        expected = k**arity
        if len(values) != expected:
            problems.append(
                f"table size mismatch: expected {expected}, found {len(values)} for {sym}/{arity}"
            )
            tables.append(None)
            continue
        try:
            tables.append(tuple(map(index.__getitem__, values)))
        except KeyError as exc:
            problems.append(f"unknown element in table for {sym}/{arity}: {exc.args[0]}")
            tables.append(None)

    if problems:
        raise InvalidAlgebra(problems)
    sig = Signature(tuple((sym, arity) for sym, arity, _ in operations))
    return FiniteAlgebra(name=name, carrier=tuple(elements), signature=sig, tables=tuple(tables))


def oracle_parse_algebra_file(text):
    algebras = []
    name = None
    elements = []
    ops = []
    block_line = 0

    def fail(lineno, col, msg):
        raise ParseError(lineno, col, msg)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        tokens = line.split()
        if not tokens:
            continue
        head = tokens[0]
        col = line.index(head) + 1
        if head == "algebra":
            if name is not None:
                fail(lineno, col, "previous algebra block not closed with `end`")
            if len(tokens) != 2:
                fail(lineno, col, "expected: algebra <Name>")
            if not IDENT_RE.match(tokens[1]):
                fail(lineno, col, f"bad algebra name: {tokens[1]!r}")
            name = tokens[1]
            elements, ops = [], []
            block_line = lineno
        elif head == "elements":
            if name is None:
                fail(lineno, col, "`elements` outside an algebra block")
            elements = tokens[1:]
            starts = [m.start() for m in re.finditer(r"\S+", line)]
            for e, at in zip(elements, starts[1:]):
                if not IDENT_RE.match(e):
                    fail(lineno, at + 1, f"bad element token: {e!r}")
        elif head == "op":
            if name is None:
                fail(lineno, col, "`op` outside an algebra block")
            if len(tokens) < 4 or tokens[2] != "=":
                fail(lineno, col, "expected: op <name>/<arity> = <values...>")
            m = _OP_RE.match(tokens[1])
            if not m:
                fail(lineno, col, f"bad operation header: {tokens[1]!r}")
            arity = int(m.group("arity"))
            values = tokens[3:]
            expected = len(elements) ** arity
            if len(values) != expected:
                fail(
                    lineno,
                    col,
                    f"expected {expected} values, found {len(values)} for {tokens[1]}",
                )
            ops.append((m.group("name"), arity, values))
        elif head == "end":
            if name is None:
                fail(lineno, col, "`end` outside an algebra block")
            try:
                algebras.append(oracle_validate_algebra(name, elements, ops))
            except InvalidAlgebra as exc:
                fail(block_line, 1, f"invalid algebra {name}: {'; '.join(exc.problems)}")
            name = None
        else:
            fail(lineno, col, f"unknown directive: {head!r}")
    if name is not None:
        fail(block_line, 1, f"algebra block {name} not closed with `end`")
    return algebras


def outcome(parse, text):
    try:
        return parse(text)
    except ParseError as exc:
        return ("ParseError", exc.line, exc.column, exc.message)


def assert_same_as_oracle(text, monkeypatch, chunks=(1, 2, 5, 16)):
    want = outcome(oracle_parse_algebra_file, text)
    assert outcome(parse_algebra_file, text) == want
    for chunk in chunks:
        monkeypatch.setattr(fileformat, "CHUNK", chunk)
        assert outcome(parse_algebra_file, text) == want, chunk
    monkeypatch.undo()
    return want


# -- mutations of a valid file, each on a random line -------------------------

def _token_spans(line):
    return [m.span() for m in re.finditer(r"\S+", line)]


def unknown_token(rng, lines):
    i = rng.randrange(len(lines))
    spans = _token_spans(lines[i])
    if spans:
        a, b = rng.choice(spans)
        lines[i] = lines[i][:a] + rng.choice(["zz", "e9", "1x", "e0e0"]) + lines[i][b:]


def dropped_token(rng, lines):
    i = rng.randrange(len(lines))
    spans = _token_spans(lines[i])
    if spans:
        a, b = rng.choice(spans)
        lines[i] = lines[i][:a] + lines[i][b:]


def stray_equals(rng, lines):
    i = rng.randrange(len(lines))
    spans = _token_spans(lines[i]) or [(0, 0)]
    a, _ = rng.choice(spans)
    lines[i] = lines[i][:a] + "= " + lines[i][a:]


def trailing_comment(rng, lines):
    i = rng.randrange(len(lines))
    at = rng.randrange(len(lines[i]) + 1)
    lines[i] = lines[i][:at] + rng.choice(["#", " # note e0 =", "#op f/0 = e0"])


def tabs(rng, lines):
    i = rng.randrange(len(lines))
    space = rng.choice(["\t", " \t ", " ", "　", "  "])
    lines[i] = rng.choice(["", "\t"]) + lines[i].replace(" ", space)


def repeated_elements(rng, lines):
    elements = [i for i, line in enumerate(lines) if line.startswith("elements")]
    ops = [i for i, line in enumerate(lines) if line.startswith("op")]
    if elements and ops:
        names = lines[rng.choice(elements)].split()[1:]
        rng.shuffle(names)
        names = names[:rng.randint(0, len(names))] + rng.choice([[], ["e7"], names[:1]])
        lines.insert(rng.choice(ops) + 1, " ".join(["elements"] + names))


def nullary_before_elements(rng, lines):
    elements = [i for i, line in enumerate(lines) if line.startswith("elements")]
    if elements:
        i = rng.choice(elements)
        value = rng.choice(lines[i].split()[1:] + ["zz"])
        lines.insert(i, f"op c{rng.randrange(3)}/0 = {value}")


def line_moved(rng, lines):
    line = lines.pop(rng.randrange(len(lines)))
    lines.insert(rng.randrange(len(lines) + 1), line)


MUTATIONS = [unknown_token, dropped_token, stray_equals, trailing_comment, tabs,
             repeated_elements, nullary_before_elements, line_moved]


def random_file(rng):
    algs = [random_algebra(rng, max_size=4, name=f"A{i}") for i in range(rng.randint(1, 3))]
    return "\n".join(map(serialize_algebra, algs))


def mutated_file(rng):
    lines = random_file(rng).splitlines()
    for _ in range(rng.randint(1, 3)):
        rng.choice(MUTATIONS)(rng, lines)
    return "\n".join(lines) + "\n"


def test_random_files_match_oracle(monkeypatch):
    rng = random.Random(5)
    for _ in range(150):
        text = random_file(rng)
        want = assert_same_as_oracle(text, monkeypatch)
        assert isinstance(want, list)


def test_mutated_files_match_oracle(monkeypatch):
    rng = random.Random(6)
    messages = []
    for _ in range(1500):
        want = assert_same_as_oracle(mutated_file(rng), monkeypatch)
        messages.append(want[3] if isinstance(want, tuple) else "valid")
    # the mutations reach valid files, op-line errors and both kinds of
    # table problem found at `end`, the last only through a later `elements` line
    for fragment in ("valid", "values, found", "unknown element in table",
                     "table size mismatch", "bad element token", "unknown directive"):
        assert any(fragment in m for m in messages), fragment


@pytest.mark.parametrize("mutation", MUTATIONS, ids=lambda m: m.__name__)
def test_each_mutation_matches_oracle(mutation, monkeypatch):
    rng = random.Random(mutation.__name__)
    for _ in range(60):
        lines = random_file(rng).splitlines()
        mutation(rng, lines)
        assert_same_as_oracle("\n".join(lines), monkeypatch)


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=2**62 - 1))
def test_mutated_files_match_oracle_property(seed):
    rng = random.Random(seed)
    text = mutated_file(rng)
    want = outcome(oracle_parse_algebra_file, text)
    saved = fileformat.CHUNK
    try:
        for chunk in (saved, rng.randint(1, 12)):
            fileformat.CHUNK = chunk
            assert outcome(parse_algebra_file, text) == want
    finally:
        fileformat.CHUNK = saved


def test_every_chunk_boundary(monkeypatch):
    """Each chunk size cuts the values line at a different place: inside
    a token, at its first or last character, or on the whitespace."""
    head = "algebra A\nelements a bb ccc\n"
    values = "a bb  ccc\ta bb ccc a bb ccc"
    for bad in ("", " zz", " a"):
        text = f"{head}op f/2 = {values}{bad}  # end\nend\n"
        for chunk in range(1, len(values) + 4):
            monkeypatch.setattr(fileformat, "CHUNK", chunk)
            assert outcome(parse_algebra_file, text) == outcome(oracle_parse_algebra_file, text)


def test_long_lines_split_into_chunks(monkeypatch):
    alg = cyclic_group(40)
    text = serialize_algebra(alg)
    monkeypatch.setattr(fileformat, "CHUNK", 64)
    assert parse_algebra_file(text) == [alg]
    # two unknown values in chunks far apart: the message names the first
    at = text.index("op mul/2 = ")
    bad = text[:at + 200] + text[at + 200:].replace(" g1 ", " h1 ", 1)
    bad = bad[:at + 3000] + bad[at + 3000:].replace(" g2 ", " h2 ", 1)
    want = outcome(oracle_parse_algebra_file, bad)
    assert want[3] == "invalid algebra Z40: unknown element in table for mul/2: h1"
    assert outcome(parse_algebra_file, bad) == want


def test_parse_memory_follows_the_tables():
    """The 65,536 value tokens of Z256's mul/2 are never all held at once:
    the parse peaks at about three times what the algebra keeps."""
    text = serialize_algebra(cyclic_group(256))
    tracemalloc.start()
    try:
        parse_algebra_file(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3.0e6, peak

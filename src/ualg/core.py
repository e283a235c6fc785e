"""Finite algebras as operation tables over ordered carriers of urelements.

Carriers are ordered tuples of opaque identifier strings.  Every operation
is stored as a flat row-major value table of carrier *indices*, with the
leftmost argument most significant, so two algebras are bit-comparable and
iteration order is deterministic everywhere.
"""

from __future__ import annotations

import itertools
import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from operator import add, itemgetter
from typing import Iterable, Optional, Sequence, Union

IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")


class UalgError(Exception):
    """Base class for errors raised by this package."""


class InvalidAlgebra(UalgError):
    """Raised by build_algebra; carries the full list of violations."""

    def __init__(self, problems: Sequence[str]):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


class BudgetExceeded(UalgError):
    """A search or enumeration exceeded its configured budget."""


class UnknownElement(UalgError):
    """An element name that is not in the algebra's carrier."""


class UnknownSymbol(UalgError, KeyError):
    """A symbol name that is not in the signature."""

    __str__ = Exception.__str__  # no KeyError quotes


@dataclass(frozen=True)
class Signature:
    """Ordered operation symbols with finite arities.

    Order is significant for display and file layout; cross-algebra
    comparisons match symbols by (name, arity) instead.
    """

    symbols: tuple[tuple[str, int], ...]

    def __post_init__(self):
        names = [name for name, _ in self.symbols]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate symbol name in signature: {names}")
        for name, arity in self.symbols:
            if not IDENT_RE.match(name):
                raise ValueError(f"bad symbol name: {name!r}")
            if arity < 0:
                raise ValueError(f"negative arity for {name}")

    @cached_property
    def by_name(self) -> dict[str, int]:
        return {name: arity for name, arity in self.symbols}

    def arity(self, symbol: str) -> int:
        try:
            return self.by_name[symbol]
        except KeyError:
            raise UnknownSymbol(f"unknown symbol: {symbol}") from None

    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.symbols)

    def nullary_names(self) -> tuple[str, ...]:
        return tuple(name for name, arity in self.symbols if arity == 0)

    def matches(self, other: "Signature") -> bool:
        """Name/arity compatibility, ignoring positional order."""
        return set(self.symbols) == set(other.symbols)


# The most cells one operation table built from other algebras may hold;
# `direct_product` raises BudgetExceeded before it builds a larger one.
MAX_TABLE_CELLS = 1 << 22

PACK_LIMIT = 256  # indices below this fit in a byte, so their vectors are packed as bytes


def pack(values: Iterable[int], n: int):
    """A vector of indices below n, in the form that `gather` reads: a
    bytearray when n <= PACK_LIMIT, else a list.  Both take slices, slice
    assignment and `extend`."""
    return bytearray(values) if n <= PACK_LIMIT else list(values)


def as_row(values: Sequence[int], n: int):
    """A map from each position of `values` to its value, in the form that
    `gather` reads, when n bounds every index and value met: bytes padded
    to 256, a translation table, when n <= PACK_LIMIT; else the values."""
    return bytes(values).ljust(256, b"\0") if n <= PACK_LIMIT else values


class Rows(dict):
    """The rows of an operation table over k elements, each built on first
    use: self[r] is `as_row` of the outputs for the argument prefix of
    row-major index r, one per last argument."""

    def __init__(self, table: Sequence[int], k: int, n: int):
        super().__init__()
        self.table, self.k, self.n = table, k, n

    def __missing__(self, r: int):
        k = self.k
        self[r] = row = as_row(self.table[r * k:(r + 1) * k], self.n)
        return row


def gather(row, column):
    """row[v] for each v of a column that `pack` made with the row's n."""
    if type(row) is bytes:
        return column.translate(row)
    return [row[v] for v in column]


def gather_blocks(rows: Rows, keys: Sequence[int], column, k: int):
    """Block b of a column that `pack` made, its entries b*k..(b+1)*k-1,
    gathered with rows[keys[b]]; the blocks concatenated in order."""
    starts = range(0, len(column), k)
    if type(column) is bytearray:
        return bytearray().join([column[i:i + k].translate(rows[key])
                                 for i, key in zip(starts, keys)])
    out: list[int] = []
    for i, key in zip(starts, keys):
        out += gather(rows[key], column[i:i + k])
    return out


def spread(vector, k: int):
    """Each entry of a vector that `pack` made, repeated k times in place:
    entry b becomes the block b*k..(b+1)*k-1."""
    out = vector * k
    for v in range(k):
        out[v::k] = vector
    return out


def weighted_sum(vectors: Sequence, weights: Sequence[int], n: int, length: int):
    """Position by position, the sum of w * v over the length-position
    vectors v that `pack` made, with n or a smaller bound, and their
    weights w; every sum is below n.  With no vectors every sum is 0.
    The sums are bytes when n <= PACK_LIMIT, else a list; `gather` reads
    either as a column."""
    if n <= PACK_LIMIT:  # no byte's sum carries into the next
        total = 0
        for v, w in zip(vectors, weights):
            total += w * int.from_bytes(v, "big")
        return total.to_bytes(length, "big")
    out = None
    for v, w in zip(vectors, weights):
        if out is None:
            out = [w * x for x in v]
        else:
            out = list(map(add, out, v)) if w == 1 else [o + w * x for o, x in zip(out, v)]
    return [0] * length if out is None else out


def apply_run(rows: Rows, k: int, prefix: Sequence[Sequence[int]], column, width: int):
    """One row-major run: the operation of `rows`, applied position by
    position to prefix + (v,) for each width-position vector v of a
    column of consecutive vectors that `pack` made with k.  The results
    overwrite the column: one gather per position, over its strided
    slice, with the row of that position's prefix."""
    row_of = [0] * width
    for vector in prefix:
        row_of = [r * k + v for r, v in zip(row_of, vector)]
    for i, r in enumerate(row_of):
        column[i::width] = gather(rows[r], column[i::width])
    return column


def semi_naive_runs(count: int, new_from: int,
                    arity: int) -> Iterable[tuple[tuple[int, ...], int]]:
    """Row-major runs of the argument tuples over members 0..count-1 that
    hold a new member (index >= new_from): (prefix, low) stands for the
    tuples prefix + (last,) for last in low..count-1.  Tuples of older
    members were all applied in an earlier closure round (semi-naive
    iteration).  Nullary operations have no runs."""
    for prefix in itertools.product(range(count), repeat=arity - 1) if arity else ():
        yield prefix, 0 if prefix and max(prefix) >= new_from else new_from


@dataclass(frozen=True)
class FiniteAlgebra:
    """An algebra: ordered carrier of urelements plus total operation tables.

    tables[i] is the row-major value table (carrier indices) of symbol
    signature.symbols[i]; a nullary table has exactly one entry.
    """

    name: str
    carrier: tuple[str, ...]
    signature: Signature
    tables: tuple[tuple[int, ...], ...]

    @cached_property
    def index_of(self) -> dict[str, int]:
        return {e: i for i, e in enumerate(self.carrier)}

    @cached_property
    def output_counts(self) -> tuple[tuple[int, ...], ...]:
        """Per symbol, in signature order: how many cells of its table
        hold each element, by element index."""
        k = len(self.carrier)
        counts = []
        for table in self.tables:
            hits = [0] * k
            for v in table:
                hits[v] += 1
            counts.append(tuple(hits))
        return tuple(counts)

    @cached_property
    def _table_by_name(self) -> dict[str, tuple[int, ...]]:
        return {sym: tab for (sym, _), tab in zip(self.signature.symbols, self.tables)}

    def table(self, symbol: str) -> tuple[int, ...]:
        try:
            return self._table_by_name[symbol]
        except KeyError:
            raise UnknownSymbol(f"unknown symbol: {symbol}") from None

    def apply(self, symbol: str, *args: str) -> str:
        try:
            idx = [self.index_of[a] for a in args]
        except KeyError as exc:
            raise UnknownElement(f"unknown element: {exc.args[0]}") from None
        arity = self.signature.arity(symbol)
        if len(args) != arity:
            raise ValueError(f"{symbol} expects {arity} arguments, got {len(args)}")
        cell = 0
        for a in idx:
            cell = cell * len(self.carrier) + a
        return self.carrier[self.table(symbol)[cell]]


def validate_algebra(
    name: str,
    elements: Sequence[str],
    operations: Sequence[tuple[str, int, Sequence[str]]],
) -> FiniteAlgebra:
    """Validate a raw description and build a FiniteAlgebra.

    operations is a sequence of (symbol, arity, row-major value list of
    element names).  Raises InvalidAlgebra listing every violated
    invariant; never returns a partially valid algebra.
    """
    index = dict(zip(elements, range(len(elements))))
    return build_algebra(name, elements, [
        (sym, arity, index_table(index, (values,), sym, arity, len(elements))[0])
        for sym, arity, values in operations])


def power_exceeds(base: int, exponent: int, limit: int) -> bool:
    """base**exponent > limit, for base >= 0 and exponent >= 0, without
    building a power much past the limit: with base >= 2 the power at
    exponent limit.bit_length() already exceeds a limit >= 0, and with
    base 0 or 1 the power does not change past exponent 1."""
    return base ** min(exponent, limit.bit_length() + 1) > limit


def size_mismatch(k: int, arity: int, found: int) -> Optional[str]:
    """None when found is k**arity, the cell count of a table of that
    arity over k elements; else that count as an error message shows it:
    in digits up to 2**64, past it as k^arity, never built.  None for a
    negative arity, which `build_algebra` reports instead."""
    if arity < 0:
        return None
    if power_exceeds(k, arity, 1 << 64):
        return f"{k}^{arity}"
    expected = k ** arity
    return None if expected == found else str(expected)


def index_table(index: dict[str, int], chunks: Iterable[Sequence[str]], symbol: str,
                arity: int, k: int) -> tuple[Union[tuple[int, ...], str], int]:
    """The value table of symbol/arity over k elements, given as element
    names in consecutive chunks, mapped through index: (the table of
    carrier indices, or the problem with it; the number of names).  The
    problem is a size mismatch, else the first name not in index."""
    parts, found, unknown = [], 0, None
    for names in chunks:
        found += len(names)
        if unknown is None:
            try:  # one itemgetter call maps a chunk in C; it returns a bare value for one name
                parts.append(itemgetter(*names)(index) if len(names) > 1
                             else tuple(map(index.__getitem__, names)))
            except KeyError as exc:
                unknown = exc.args[0]
    expected = size_mismatch(k, arity, found)
    if expected is not None:
        return (f"table size mismatch: expected {expected}, found {found} for {symbol}/{arity}",
                found)
    if unknown is not None:
        return f"unknown element in table for {symbol}/{arity}: {unknown}", found
    return (parts[0] if len(parts) == 1 else tuple(itertools.chain.from_iterable(parts))), found


def build_algebra(name: str, elements: Sequence[str],
                  operations: Sequence[tuple[str, int, Union[tuple[int, ...], str]]],
                  idents_checked: bool = False) -> FiniteAlgebra:
    """Check the carrier and the symbols and build a FiniteAlgebra.

    operations is a sequence of (symbol, arity, table) with each table as
    `index_table` gives it: carrier indices, or the problem found in it.
    Raises InvalidAlgebra listing the carrier problems, the symbol
    problems and the table problems, in that order.  idents_checked says
    that every element is already known to match IDENT_RE.
    """
    problems: list[str] = []
    if not elements:
        problems.append("empty carrier")
    if not idents_checked or len(set(elements)) < len(elements):
        seen = set()
        for e in elements:
            if not idents_checked and not IDENT_RE.match(e):
                problems.append(f"bad element token: {e!r}")
            if e in seen:
                problems.append(f"duplicate urelement: {e}")
            seen.add(e)

    sym_seen = set()
    for sym, arity, _ in operations:
        if not IDENT_RE.match(sym):
            problems.append(f"bad symbol name: {sym!r}")
        if sym in sym_seen:
            problems.append(f"duplicate symbol: {sym}")
        sym_seen.add(sym)
        if arity < 0:
            problems.append(f"negative arity for {sym}")
    problems += [table for _, _, table in operations if type(table) is str]

    if problems:
        raise InvalidAlgebra(problems)
    sig = Signature(tuple((sym, arity) for sym, arity, _ in operations))
    return FiniteAlgebra(name=name, carrier=tuple(elements), signature=sig,
                         tables=tuple(table for _, _, table in operations))


# Output digits (`Packing`) that `close` composes in one kernel pass,
# about: enough that the costs paid once per block vanish beside them.
BLOCK_CELLS = 1 << 14


def vector_keys(width: int, k: int):
    """A function keys(vectors, n) that gives one hashable key for each
    of n vectors of `width` carrier indices below k, held back to back
    in a vector that `pack` made with k; equal vectors, and only they,
    get equal keys.  Packed vectors are written in base k, g indices to
    a byte with k**g <= 256 (one `weighted_sum` per byte of the key).
    When one byte holds a whole vector (k**width <= 256) the keys are
    those bytes, a bytes-like vector of n keys; else a key is the bytes
    read as one unsigned int of 2, 4 or 8 bytes, or as a tuple of 8-byte
    ints.  So the low bits of a key vary with several indices, not with
    one index's low bits, which Python's int hash would keep as they
    are.  Byte order does not matter, since keys are only compared with
    each other.  Lists give tuples."""
    if k > PACK_LIMIT:
        return lambda vectors, n: list(zip(*[iter(vectors)] * width)) if width else [()] * n
    g = 1
    while g < width and k ** (g + 1) <= PACK_LIMIT:
        g += 1
    groups = [range(j, min(j + g, width)) for j in range(0, width, g)]
    size = next((s for s in (1, 2, 4) if len(groups) <= s), 8 * -(-len(groups) // 8))
    form = {2: "H", 4: "I"}.get(size, "Q")

    def keys(vectors, n: int):
        if size == width and g == 1:  # the vectors are their own base-k bytes
            digits = vectors
        else:
            digits = bytearray(n * size)
            for d, group in enumerate(groups):
                digits[d::size] = weighted_sum([vectors[j::width] for j in group],
                                               [k ** i for i in range(len(group))], k ** g, n)
        if size == 1:
            return digits
        ints = memoryview(digits).cast(form).tolist()
        return ints if size <= 8 else list(zip(*[iter(ints)] * (size // 8)))
    return keys


def fresh_keys(keys, known):
    """The keys of `keys` not in `known`, each once, in the order of
    their first appearance, added to `known`: a set, or for one-byte
    keys (`vector_keys`) a bytearray of them, which one `translate`
    deletes from `keys`, so that only what is left is walked."""
    if type(known) is bytearray:
        fresh = dict.fromkeys(keys.translate(None, known))
        known.extend(fresh)
        return fresh
    if known.issuperset(keys):
        return ()
    fresh = [key for key in dict.fromkeys(keys) if key not in known]
    known.update(fresh)
    return fresh


def run_blocks(count: int, new_from: int, arity: int, skip: bool, width: int, allowed):
    """The runs of one closure round for one symbol of arity >= 1
    (`semi_naive_runs`) as (prefix, low, length) triples, in blocks of
    about BLOCK_CELLS output cells at `width` cells a vector, each
    yielded with the ends of its runs, in attempts from the block's
    start.  skip starts each run at its first argument, for a
    commutative binary symbol.  length is the run's attempt count: the
    run in which `allowed` attempts run out is cut to them, to none at
    an exact run end, and ends the last block.  Runs are built a block
    at a time, by list comprehensions over the argument prefixes;
    `bisect` on the running sums of their lengths finds the block's end
    and the budget's cut."""
    per_block = -(-BLOCK_CELLS // max(width, 1))
    shortest = 1 if skip else count - new_from  # attempts of a run, at least
    prefixes = itertools.product(range(count), repeat=arity - 1)
    runs: list = []
    while True:
        # more prefixes, so that the runs fill the block or pass the budget
        want = max(0, -(-min(per_block, allowed + 1) // shortest) - len(runs))
        more = list(itertools.islice(prefixes, want))
        lows = ([0 if p and max(p) >= new_from else new_from for p in more] if arity != 2
                else [a if a > new_from else new_from for a, in more] if skip
                else [0 if a >= new_from else new_from for a, in more])
        runs += zip(more, lows, [count - low for low in lows])
        if not runs:
            return
        ends = list(itertools.accumulate(map(itemgetter(2), runs)))
        end = min(bisect_left(ends, per_block) + 1, len(runs))
        cut = bisect_right(ends, allowed)
        if cut < end:
            prefix, low, _ = runs[cut]
            start = ends[cut - 1] if cut else 0
            yield runs[:cut] + [(prefix, low, allowed - start)], ends[:cut] + [allowed]
            return
        yield runs[:end], ends[:end]
        if end == len(runs) and len(more) < want:  # no prefix is left
            return
        allowed -= ends[end - 1]
        del runs[:end]


class Packing:
    """How `close` and `induced_tables` hold vectors of `width` carrier
    indices of `alg`, over k elements: g indices to a digit of base
    k**g, the first most significant, so a vector is `length` =
    ceil(width / g) digits held as `pack` makes them with k**g.  A
    vector that does not fill its last digit is filled up with copies
    of its first index; operations applied pointwise keep that filling,
    so equal vectors, and only they, have equal digits.  g is the
    largest g <= width, and at most 8, with k**(g*a) <= PACK_LIMIT for
    every arity a >= 1 of the signature, so that each such table read
    on digits fits a byte; it is 1 when there is none (binary tables
    past 16 elements, carriers past PACK_LIMIT), and the digits are
    then the indices themselves.

    rows[i] reads symbol i on digits: the translation table of its
    outputs at the row-major index of its argument digits when its
    digit table has at most PACK_LIMIT cells, else its `Rows`.  tables
    holds the tables of `alg`, as bytes when k <= PACK_LIMIT, and keys
    is the `vector_keys` function of the digits, which gives one byte a
    vector when base**length <= PACK_LIMIT."""

    def __init__(self, alg: FiniteAlgebra, width: int):
        k = self.k = len(alg.carrier)
        top = max([1] + [arity for _, arity in alg.signature.symbols])
        g = 1
        while g < min(width, 8) and k ** ((g + 1) * top) <= PACK_LIMIT:
            g += 1
        self.g, self.width, self.base, self.length = g, width, k ** g, -(-width // g)
        self.keys = vector_keys(self.length, self.base)
        # each table read once as bytes, when its indices fit them
        self.tables = tables = [bytes(t) if k <= PACK_LIMIT else t for t in alg.tables]
        firsts: dict[int, bytes] = {}
        self.rows = [None if arity == 0 else self._digit_row(t, arity, firsts)
                     if k ** arity <= PACK_LIMIT else Rows(t, k, k)
                     for (_, arity), t in zip(alg.signature.symbols, tables)]

    def _places(self, count: int, which: Iterable[int]) -> list[bytes]:
        """For each place i in `which`, place i, the first most
        significant, of every number below k**count written with `count`
        base-k places: that of the first place at the number times k**i."""
        k = self.k
        first = b"".join([bytes((v,)) * k ** (count - 1) for v in range(k)])
        return [(first * k ** i)[::k ** i] for i in which]

    def _digit_row(self, table: bytes, arity: int, firsts: dict):
        """The translation table of one table on digits.  Entry e of the
        digit table holds arity * g cells, argument by argument, each
        base k, the first most significant; firsts[arity] holds the
        table index of the arguments' first cells, for every entry.  The
        index of their cells at place i is that of entry e * k**i (mod
        the entry count), whose places are those of e moved i up; so one
        translate gives the first output cell of every entry and shifted
        copies of it the others."""
        k, g = self.k, self.g
        if g == 1:
            return as_row(table, k ** arity)
        entries = self.base ** arity
        if arity not in firsts:
            firsts[arity] = weighted_sum(
                self._places(arity * g, range(0, arity * g, g)),
                [k ** (arity - 1 - j) for j in range(arity)], k ** arity, entries)
        first = firsts[arity].translate(as_row(table, k ** arity))
        return as_row(weighted_sum([(first * k ** i)[::k ** i] for i in range(g)],
                                   [k ** (g - 1 - i) for i in range(g)], self.base, entries),
                      entries)

    def to_digits(self, vectors: Sequence[tuple[int, ...]]):
        """The digits of vectors of `width` indices, back to back in a
        vector that `pack` made with k**g."""
        g, width, n = self.g, self.width, len(vectors)
        flat = pack(itertools.chain.from_iterable(vectors), self.k)
        if g == 1:
            return flat
        span = self.length * g
        if span != width:  # fill up the last digit with the first index
            cells = bytearray(n * span)
            for c in range(span):
                cells[c::span] = flat[c if c < width else 0::width]
            flat = cells
        return bytearray(weighted_sum([flat[i::g] for i in range(g)],
                                      [self.k ** (g - 1 - i) for i in range(g)], self.base,
                                      n * self.length))

    def from_digits(self, digits, n: int) -> list[tuple[int, ...]]:
        """The n vectors whose digits are held back to back in `digits`,
        as tuples of indices: one translate per cell of a digit."""
        g, width = self.g, self.width
        span = self.length * g
        if g > 1:
            cells = bytearray(len(digits) * g)
            for i, place in enumerate(self._places(g, range(g))):
                cells[i::g] = digits.translate(as_row(place, self.base))
            digits = cells
        return [tuple(digits[m * span:m * span + width]) for m in range(n)]

    def constant(self, value: int):
        """The digits of the vector whose every index is value."""
        return pack([value * sum(self.k ** i for i in range(self.g))] * self.length, self.base)

    def compose(self, i: int, arity: int, block: list, flat):
        """The outputs, as digits, of symbol i applied to every argument
        tuple of a block of runs (`run_blocks`) over the members whose
        digits `flat` holds back to back.  With a translation table, one
        `weighted_sum` of the argument digits (each prefix member
        repeated along its run, the runs' last arguments cut from
        `flat`) and one translate; else, on one-digit vectors, one
        translate per run through the row of its prefix, joined, and on
        wider ones one `apply_run` per run."""
        rows, width, base = self.rows[i], self.length, self.base
        lasts = [flat[low * width:(low + length) * width] for _, low, length in block]
        if type(rows) is bytes:
            index = b"".join(lasts)
            if arity > 1:
                index = weighted_sum(
                    [b"".join([flat[p[j] * width:(p[j] + 1) * width] * length
                               for p, _, length in block]) for j in range(arity - 1)]
                    + [index], [base ** (arity - 1 - j) for j in range(arity)],
                    base ** arity, len(index))
            return index.translate(rows)
        if width == 1 and type(flat) is bytearray:
            out = []
            for (prefix, _, _), column in zip(block, lasts):
                r = 0
                for c in prefix:
                    r = r * base + flat[c]
                out.append(column.translate(rows[r]))
            return bytearray().join(out)
        out = pack((), base)
        for (prefix, _, _), column in zip(block, lasts):
            out += apply_run(rows, base, [flat[c * width:(c + 1) * width] for c in prefix],
                             column, width)
        return out


# The most cells, members times width, that `close` holds: it raises
# BudgetExceeded rather than add a member past them.
MAX_MEMBER_CELLS = 1 << 23


def _too_many_members() -> BudgetExceeded:
    return BudgetExceeded(f"closure members would hold more than {MAX_MEMBER_CELLS} cells")


def close(alg: FiniteAlgebra, starts: Sequence[tuple[int, ...]], budget: Optional[int] = None
          ) -> tuple[list[tuple[int, ...]], list, list[int], bool]:
    """Closure of distinct equal-width start vectors of carrier indices
    under the basic operations applied pointwise.

    Members are the starts, then each new vector in the order found, so
    those new in a round form a suffix.  Each round composes only
    argument tuples that hold a member new in the round before, and
    skips f(b, a) after f(a, b) for a commutative binary f, which
    changes no member and no order.  Members are kept back to back in
    one vector of digits (`Packing`), and `known` holds their
    `vector_keys`: a bytearray when a key is one byte
    (base**length <= 256 in `Packing`), else a set.  A symbol's runs of
    last arguments are composed a block at a time (`run_blocks`,
    `Packing.compose`); then one key split, and a walk over the new
    keys only (`fresh_keys`), each to its run by `bisect`.  Returns
    (members, derivations, rounds, complete): derivations[i] is
    (symbol, argument member indices) for the application that found
    member i, or None for a start; rounds holds the member count after
    the starts and after each round that added members.  budget caps
    the composition attempts that the rounds make (a nullary symbol
    makes none); on overrun the closure stops at the exact attempt the
    budget allows and complete is False.  Once all k**width vectors are
    members no output can be new, so no block is composed: the attempts
    left are counted, not made, or, when the budget covers the rest of
    the round and one more, the closure returns at once, complete.
    Members of more than MAX_MEMBER_CELLS indices in all raise
    BudgetExceeded."""
    width = len(starts[0]) if starts else 0
    most = MAX_MEMBER_CELLS // width if width else float("inf")
    if len(starts) > most:
        raise _too_many_members()
    packing = Packing(alg, width)
    ndigits, keys_of, k = packing.length, packing.keys, packing.k
    commutative = [arity == 2 and all(t[a * k:(a + 1) * k] == t[a::k] for a in range(k))
                   for (_, arity), t in zip(alg.signature.symbols, packing.tables)]
    flat = packing.to_digits(starts)
    keys = keys_of(flat, len(starts))
    known = set(keys) if type(keys) is list else bytearray(keys)
    constants = [packing.constant(table[0]) if arity == 0 else None
                 for (_, arity), table in zip(alg.signature.symbols, alg.tables)]
    derivations: list = [None] * len(starts)
    rounds = [len(starts)]
    limit = float("inf") if budget is None else budget
    # once all k**width vectors are members no output is new, and at most
    # `rest` attempts are left: the rest of the round and one more round
    possible = float("inf") if power_exceeds(k, width, MAX_MEMBER_CELLS) else k ** width
    rest = 2 * sum(possible ** arity for _, arity in alg.signature.symbols)
    attempts, new_from, complete = 0, 0, True
    while complete and new_from < len(derivations):
        count = len(derivations)
        for i, ((sym, arity), const) in enumerate(zip(alg.signature.symbols, constants)):
            if arity == 0:
                if fresh_keys(keys_of(const, 1), known):
                    if len(derivations) >= most:
                        raise _too_many_members()
                    flat += const
                    derivations.append((sym, ()))
                continue
            for block, ends in run_blocks(count, new_from, arity, commutative[i], ndigits,
                                          limit - attempts):
                if len(derivations) < possible:
                    out = packing.compose(i, arity, block, flat)
                    keys, j = keys_of(out, ends[-1]), 0
                    for key in fresh_keys(keys, known):  # each at its first output, in order
                        j = keys.index(key, j)
                        r = bisect_right(ends, j)  # the run of output j
                        prefix, low, length = block[r]
                        if len(derivations) >= most:
                            raise _too_many_members()
                        derivations.append((sym, prefix + (low + j - ends[r] + length,)))
                        flat += out[j * ndigits:(j + 1) * ndigits]
                elif limit - attempts >= rest:  # no attempt left can be cut
                    if len(derivations) > count:
                        rounds.append(len(derivations))
                    return packing.from_digits(flat, len(derivations)), derivations, rounds, True
                attempts += ends[-1]
                prefix, low, length = block[-1]
                if length < count - low:
                    complete = False
            if not complete:
                break
        new_from = count
        if len(derivations) > count:
            rounds.append(len(derivations))
    return packing.from_digits(flat, len(derivations)), derivations, rounds, complete


def induced_tables(alg: FiniteAlgebra, members: Sequence[tuple[int, ...]]
                   ) -> tuple[tuple[int, ...], ...]:
    """The operation tables, over positions in `members`, of a non-empty
    list of equal-width vectors of carrier indices that is closed under
    the basic operations applied pointwise: the block pass of `close`
    over every row-major run, and one key lookup per output, or one
    `translate` per block through a key-to-position table when a key
    is one byte."""
    width, count = len(members[0]), len(members)
    packing = Packing(alg, width)
    keys_of = packing.keys
    flat = packing.to_digits(members)
    keys = keys_of(flat, count)
    position = dict(zip(keys, range(count)))
    # one-byte keys are read through one key-to-position translation table
    where = None if type(keys) is list else bytes.maketrans(keys, bytes(range(count)))
    tables = []
    for i, ((_, arity), table) in enumerate(zip(alg.signature.symbols, alg.tables)):
        if arity == 0:
            tables.append((position[keys_of(packing.constant(table[0]), 1)[0]],))
            continue
        cells: list[int] = []
        for block, ends in run_blocks(count, 0, arity, False, packing.length, float("inf")):
            keys = keys_of(packing.compose(i, arity, block, flat), ends[-1])
            cells += keys.translate(where) if where else map(position.__getitem__, keys)
        tables.append(tuple(cells))
    return tuple(tables)


@dataclass(frozen=True)
class ClosureWitness:
    """An operation application that escapes a candidate subuniverse."""

    symbol: str
    args: tuple[str, ...]
    result: str

    def __str__(self) -> str:
        return f"{self.symbol}({', '.join(self.args)}) = {self.result}"


def is_subuniverse(
    alg: FiniteAlgebra, subset: Iterable[str]
) -> tuple[bool, Optional[ClosureWitness]]:
    """Closure check: True iff subset is closed under every operation and
    contains every nullary value.  On failure returns the first escaping
    application (symbol order, then row-major argument order).  One
    `apply_run` call per row-major run of last arguments over the sorted
    members, stopping at the first run with an output outside them.
    """
    members = set()
    for e in subset:
        if e not in alg.index_of:
            raise UnknownElement(f"unknown element: {e}")
        members.add(alg.index_of[e])
    ordered = sorted(members)
    k = len(alg.carrier)
    flat = pack(ordered, k)
    for (sym, arity), table in zip(alg.signature.symbols, alg.tables):
        if arity == 0:
            if table[0] not in members:
                return False, ClosureWitness(sym, (), alg.carrier[table[0]])
            continue
        rows = Rows(table, k, k)
        for prefix, _ in semi_naive_runs(len(ordered), 0, arity):
            outs = apply_run(rows, k, [(ordered[c],) for c in prefix], flat[:], 1)
            if not members.issuperset(outs):
                last = next(i for i, out in enumerate(outs) if out not in members)
                return False, ClosureWitness(
                    sym, tuple(alg.carrier[ordered[c]] for c in prefix + (last,)),
                    alg.carrier[outs[last]])
    return True, None


@dataclass(frozen=True)
class Subuniverse:
    """A verified closed subset of a parent algebra, in carrier order."""

    parent: FiniteAlgebra
    members: tuple[str, ...]

    @classmethod
    def of(cls, parent: FiniteAlgebra, members: Iterable[str]) -> "Subuniverse":
        members = list(members)
        closed, witness = is_subuniverse(parent, members)  # raises UnknownElement
        if not closed:
            raise ValueError(f"not a subuniverse, escaping application: {witness}")
        wanted = set(members)
        return cls(parent=parent, members=tuple(e for e in parent.carrier if e in wanted))

    def as_algebra(self, name: Optional[str] = None) -> FiniteAlgebra:
        """The induced algebra on the members (empty members is an error)."""
        if not self.members:
            raise ValueError("empty subuniverse is not an algebra")
        return FiniteAlgebra(
            name=name or f"{self.parent.name}_sub",
            carrier=self.members,
            signature=self.parent.signature,
            tables=induced_tables(self.parent, [(self.parent.index_of[e],) for e in self.members]),
        )

"""Monomials and monomial ideals: parsing, minimal generators, powers, predicates.

Exponent vectors are plain tuples of non-negative integers; a monomial ideal
is a finite antichain of such vectors together with an ordered variable list.
All operations are pure functions on immutable data.

Minimal generators keep, of the vectors sorted by (total degree, lex), each
one that no vector of smaller degree divides (see _minimal_rows).  At most
_SMALL vectors take a Python loop over tuples; more take one numpy pass
(_minimal), whose arrays are int64 while every degree is below 2^63 and
exact Python ints (an object array) past it, so no sum wraps; its
divisibility test narrows int64 to the smallest unsigned dtype that holds
the largest degree.
"""
from __future__ import annotations

import collections
import itertools
import operator
import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

ExponentVector = tuple  # tuple[int, ...], length = number of variables

# Divisibility cells (vectors x vectors of smaller degree) per batch of _minimal.
_CHUNK_CELLS = 1 << 15

# Most vectors _minimal_rows scans in Python; above it numpy's fixed cost per
# call pays off.  Per call on random vectors in {0..3}^6: 16 vectors take
# 28 us in Python and 40 us in numpy, 32 vectors 60 us and 54 us.
_SMALL = 16


class IdealSyntaxError(ValueError):
    """Raised when an ideal description string is malformed; carries the offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


def divides(g: Sequence[int], u: Sequence[int]) -> bool:
    """Componentwise g <= u, i.e. the monomial x^g divides x^u."""
    return all(map(operator.le, g, u))


def _graded(gens: Iterable[Sequence[int]]) -> list[tuple[int, ...]]:
    # Each vector with its total degree in front.
    return [(sum(g), *g) for g in gens]


def _columns(rows: list[tuple[int, ...]], top: int) -> np.ndarray:
    # The rows as (1 + n, len(rows)) columns; top bounds every degree they
    # sum to, and so every entry of non-negative vectors.
    return np.array(rows, dtype=np.int64 if top < 1 << 63 else object).T


def _minimal(T: np.ndarray) -> tuple[ExponentVector, ...]:
    """The minimal antichain of the columns of T (degree row first), sorted.

    If g divides u and g != u then deg g < deg u, and two vectors of one
    degree divide each other only when they are equal.  So, sorted by
    (degree, lex), a vector is minimal iff no vector of strictly smaller
    degree divides it, and those all lie in the sorted prefix before its
    degree class; when every vector has one degree, none is tested.  Before
    the test, equal neighbours are dropped so it sees each vector once; it
    runs one comparison per variable over batches of at most _CHUNK_CELLS
    vectors x prefix cells, in the narrowest unsigned dtype that holds the
    largest degree (so every entry) unless T holds exact Python ints.  Equal
    vectors left over are dropped last.
    """
    T = T[:, np.lexsort(T[::-1])]
    deg = T[0]
    if deg[0] < deg[-1]:
        fresh = np.ones(len(deg), dtype=bool)
        np.logical_or.reduce(T[:, 1:] != T[:, :-1], axis=0, out=fresh[1:])
        T = T[:, fresh]
        if T.dtype != object:
            T = T.astype(np.min_scalar_type(T[0, -1]))
        deg = T[0]
        size, last = len(deg), deg.searchsorted(deg[-1])
        divided = np.zeros(size, dtype=bool)
        step = max(1, _CHUNK_CELLS // last)
        for start in range(0, size, step):
            stop = min(start + step, size)
            prefix = last if stop == size else deg.searchsorted(deg[stop - 1])
            low, high = T[:, :prefix], T[:, start:stop, None]
            # Strictly smaller degree leaves out the vector itself.
            D = low[0] < high[0]
            for a, b in zip(low[1:], high[1:]):
                D &= a <= b
            np.logical_or.reduce(D, axis=1, out=divided[start:stop])
        T = T[:, ~divided]
    return tuple(dict.fromkeys(map(tuple, T[1:].T.tolist())))


def _minimal_rows(rows: list[tuple[int, ...]]) -> tuple[ExponentVector, ...]:
    """The minimal antichain of graded rows (degree first), sorted, ungraded.

    Up to _SMALL rows are scanned in Python: the distinct rows in (degree,
    lex) order, each kept unless a kept row of strictly smaller degree
    divides it (a graded row divides another iff its vector does; see
    _minimal for why that suffices).  More rows go to _minimal.
    """
    if len(rows) > _SMALL:
        return _minimal(_columns(rows, max(rows)[0]))
    kept: list[tuple[int, ...]] = []
    for _, same in itertools.groupby(sorted(set(rows)), operator.itemgetter(0)):
        # The class is tested whole before it joins kept.
        kept += [row for row in same if not any(divides(low, row) for low in kept)]
    return tuple(row[1:] for row in kept)


def minimalize(gens: Iterable[Sequence[int]]) -> tuple[ExponentVector, ...]:
    """Reduce vectors of non-negative integers to the unique minimal antichain.

    A vector is kept iff no other given vector strictly divides it; the result
    is sorted by (total degree, lex) and holds tuples of Python ints.  The
    work is one sort and one divisibility scan (see _minimal_rows).
    """
    rows = _graded(tuple(map(operator.index, g)) for g in gens)
    if not rows:
        return ()
    return _minimal_rows(rows)


@dataclass(frozen=True)
class MonomialIdeal:
    """A monomial ideal given by its minimal generators in a fixed variable order."""

    variables: tuple[str, ...]
    generators: tuple[ExponentVector, ...]

    @classmethod
    def from_generators(
        cls,
        variables: Sequence[str],
        gens: Iterable[Sequence[int]],
    ) -> "MonomialIdeal":
        variables = tuple(variables)
        if len(set(variables)) != len(variables):
            raise ValueError("duplicate variable names")
        # Checked here, before minimalize: its Python scan would order ragged
        # or negative rows without complaint, and its numpy pass (more than
        # _SMALL vectors) would reject ragged rows with numpy's own message.
        gens = [tuple(map(operator.index, g)) for g in gens]
        if not gens:
            raise ValueError("empty generator list")
        n = len(variables)
        for g in gens:
            if len(g) != n:
                raise ValueError(f"generator {g} has wrong length, expected {n}")
            if any(e < 0 for e in g):
                raise ValueError(f"negative exponent in generator {g}")
        gens = minimalize(gens)
        if gens[0] == (0,) * n:
            raise ValueError("unit generator: the unit ideal is not accepted as input")
        return cls(variables, gens)

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def contains(self, u: Sequence[int]) -> bool:
        """Membership test: x^u lies in the ideal iff some generator divides it."""
        return any(divides(g, u) for g in self.generators)

    def monomial_str(self, g: Sequence[int]) -> str:
        parts = [
            v if e == 1 else f"{v}^{e}"
            for v, e in zip(self.variables, g)
            if e > 0
        ]
        return "*".join(parts) if parts else "1"

    def __str__(self) -> str:
        gens = ", ".join(self.monomial_str(g) for g in self.generators)
        return f"<{gens}> in K[{', '.join(self.variables)}]"


_TOKEN = re.compile(r"\s*([A-Za-z_][A-Za-z_0-9]*|\d+|[;:,*^])")


def _tokenize(text: str) -> Iterator[tuple[str, int]]:
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                return
            raise IdealSyntaxError(
                f"unexpected character {stripped[0]!r}", len(text) - len(stripped)
            )
        yield m.group(1), m.start(1)
        pos = m.end()


def parse_ideal(text: str) -> MonomialIdeal:
    """Parse an ideal description of the form "vars: x y; gens: x*y, x^2".

    Whitespace between tokens is ignored, # starts a line comment, and
    repeating a variable inside one monomial adds the exponents.  The result
    is minimalized.
    """
    # Blank out comments instead of removing them so error positions still
    # point into the original text.
    text = re.sub(r"#[^\n]*", lambda m: " " * len(m.group()), text)
    tokens = list(_tokenize(text)) + [("", len(text))]
    i = 0

    def peek() -> str:
        return tokens[i][0]

    def take(expected: Optional[str] = None) -> str:
        nonlocal i
        tok, pos = tokens[i]
        if expected is not None and tok != expected:
            raise IdealSyntaxError(f"expected {expected!r}, found {tok!r}", pos)
        i += 1
        return tok

    def fail(message: str) -> IdealSyntaxError:
        return IdealSyntaxError(message, tokens[i][1])

    if take() != "vars" or take(":") != ":":
        raise IdealSyntaxError("input must start with 'vars:'", 0)
    variables: list[str] = []
    while peek() not in (";", ""):
        name = take()
        if not name[0].isalpha() and name[0] != "_":
            raise fail(f"invalid variable name {name!r}")
        if name in variables:
            raise fail(f"duplicate variable {name!r}")
        variables.append(name)
    if not variables:
        raise fail("no variables declared")
    take(";")
    if take() != "gens" or take(":") != ":":
        raise fail("expected 'gens:' after the variable list")
    index = {v: j for j, v in enumerate(variables)}

    def parse_monomial() -> ExponentVector:
        exps = [0] * len(variables)
        while True:
            name = peek()
            if name not in index:
                raise fail(
                    f"unknown variable {name!r}" if name else "expected a variable name"
                )
            take()
            e = 1
            if peek() == "^":
                take("^")
                num = peek()
                if not num.isdigit() or int(num) < 1:
                    raise fail("exponent must be a positive integer")
                e = int(take())
            exps[index[name]] += e
            if peek() == "*":
                take("*")
                continue
            return tuple(exps)

    gens = [parse_monomial()]
    while peek() == ",":
        take(",")
        gens.append(parse_monomial())
    if peek() != "":
        raise fail(f"unexpected trailing token {peek()!r}")
    return MonomialIdeal.from_generators(variables, gens)


def powers(I: MonomialIdeal, kmax: int) -> Iterator[MonomialIdeal]:
    """The powers I^1, ..., I^kmax in turn, each one product after the last."""
    return itertools.accumulate(itertools.repeat(I, kmax), product)


def power(I: MonomialIdeal, k: int) -> MonomialIdeal:
    """The k-th power I*I*...*I (k >= 1), the last of powers(I, k)."""
    if k < 1:
        raise ValueError("power requires k >= 1; the unit ideal I^0 is out of scope")
    return collections.deque(powers(I, k), maxlen=1).pop()


def product(I: MonomialIdeal, J: MonomialIdeal) -> MonomialIdeal:
    """The product ideal I*J (same ambient variables).

    The candidate sums g + h of graded rows (degree first) are formed as
    tuples when there are at most _SMALL of them, and otherwise as one
    broadcast add over the generators' columns, in the dtype the largest
    candidate degree needs (see _columns); either way the minimal ones are
    kept (see _minimal_rows).
    """
    if I.variables != J.variables:
        raise ValueError("ideals live in different polynomial rings")
    m = len(I.generators)
    rows = _graded(I.generators + J.generators)
    if m * len(J.generators) <= _SMALL:
        sums = [tuple(map(operator.add, a, b)) for a in rows[:m] for b in rows[m:]]
        return MonomialIdeal(I.variables, _minimal_rows(sums))
    A = _columns(rows, max(rows[:m])[0] + max(rows[m:])[0])
    T = (A[:, :m, None] + A[:, None, m:]).reshape(len(A), -1)
    return MonomialIdeal(I.variables, _minimal(T))


def _pure_powers(I: MonomialIdeal) -> dict[int, int]:
    # Variable index -> smallest exponent e with x_i^e among the generators.
    out: dict[int, int] = {}
    for g in I.generators:
        support = [i for i, e in enumerate(g) if e]
        if len(support) == 1:
            i = support[0]
            out[i] = min(out.get(i, g[i]), g[i])
    return out


def is_artinian(I: MonomialIdeal) -> bool:
    """True iff the ideal contains a pure power of every variable."""
    return len(_pure_powers(I)) == I.nvars


def generator_degree_profile(I: MonomialIdeal) -> tuple[bool, Optional[int]]:
    """Whether all minimal generators share one total degree, and that degree."""
    degrees = {sum(g) for g in I.generators}
    if len(degrees) == 1:
        return True, degrees.pop()
    return False, None

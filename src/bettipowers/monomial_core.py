"""Monomials and monomial ideals: parsing, minimal generators, powers, predicates.

Exponent vectors are plain tuples of non-negative integers; a monomial ideal
is a finite antichain of such vectors together with an ordered variable list.
All operations are pure functions on immutable data.
"""
from __future__ import annotations

import collections
import itertools
import operator
import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

ExponentVector = tuple  # tuple[int, ...], length = number of variables


class IdealSyntaxError(ValueError):
    """Raised when an ideal description string is malformed; carries the offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


def divides(g: Sequence[int], u: Sequence[int]) -> bool:
    """Componentwise g <= u, i.e. the monomial x^g divides x^u."""
    return all(map(operator.le, g, u))


def minimalize(gens: Iterable[Sequence[int]]) -> tuple[ExponentVector, ...]:
    """Reduce a generating set to the unique minimal antichain.

    A vector is kept iff no other given vector strictly divides it.  Scanning
    in order of increasing total degree makes a single pass sufficient.
    """
    out: list[ExponentVector] = []
    for g in sorted({tuple(v) for v in gens}, key=lambda v: (sum(v), v)):
        if not any(divides(h, g) for h in out):
            out.append(g)
    return tuple(out)


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
        gens = minimalize(gens)
        if not gens:
            raise ValueError("empty generator list")
        n = len(variables)
        for g in gens:
            if len(g) != n:
                raise ValueError(f"generator {g} has wrong length, expected {n}")
            if any(e < 0 for e in g):
                raise ValueError(f"negative exponent in generator {g}")
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
    """The product ideal I*J (same ambient variables)."""
    if I.variables != J.variables:
        raise ValueError("ideals live in different polynomial rings")
    prods = {
        tuple(a + b for a, b in zip(g, h))
        for g in I.generators
        for h in J.generators
    }
    return MonomialIdeal(I.variables, minimalize(prods))


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


def socle_dimension(I: MonomialIdeal) -> int:
    """Dimension of the socle of S/I for Artinian I.

    Counts monomials u outside I with u*x_i inside I for every variable; the
    enumeration runs over the finite box spanned by the pure-power generators.
    """
    pure = _pure_powers(I)
    n = I.nvars
    if len(pure) != n:
        raise ValueError("socle enumeration requires an Artinian ideal")
    bounds = [pure[i] for i in range(n)]
    count = 0
    for u in itertools.product(*(range(b) for b in bounds)):
        if I.contains(u):
            continue
        if all(
            I.contains(u[:i] + (u[i] + 1,) + u[i + 1:])
            for i in range(n)
        ):
            count += 1
    return count


def generator_degree_profile(I: MonomialIdeal) -> tuple[bool, Optional[int]]:
    """Whether all minimal generators share one total degree, and that degree."""
    degrees = {sum(g) for g in I.generators}
    if len(degrees) == 1:
        return True, degrees.pop()
    return False, None

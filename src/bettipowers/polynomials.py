"""Exact univariate polynomials over the rationals (coefficients lowest degree first)."""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

Scalar = Union[int, Fraction]

NEG_INFINITY = float("-inf")


def fraction_str(q: Fraction) -> str:
    """Serialize an exact rational as "p/q", or plain "p" for integers."""
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


@dataclass(frozen=True)
class RationalPolynomial:
    """Immutable polynomial with Fraction coefficients, lowest degree first.

    The zero polynomial is represented by an empty coefficient tuple and has
    degree -inf.
    """

    coefficients: tuple[Fraction, ...]

    @classmethod
    def from_coefficients(cls, coeffs: Sequence[Scalar]) -> "RationalPolynomial":
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        return cls(tuple(cs))

    @classmethod
    def zero(cls) -> "RationalPolynomial":
        return cls(())

    @classmethod
    def constant(cls, c: Scalar) -> "RationalPolynomial":
        return cls.from_coefficients([c])

    @classmethod
    def interpolate(cls, points: Sequence[tuple[Scalar, Scalar]]) -> "RationalPolynomial":
        """Exact interpolation through distinct abscissae.

        Newton divided differences, then the Newton form expanded by Horner's
        rule: O(n^2) Fraction operations for n points.
        """
        xs = [Fraction(x) for x, _ in points]
        if len(set(xs)) != len(xs):
            raise ValueError("interpolation nodes must be distinct")
        dd = [Fraction(y) for _, y in points]
        for j in range(1, len(xs)):
            for i in range(len(xs) - 1, j - 1, -1):
                dd[i] = (dd[i] - dd[i - 1]) / (xs[i] - xs[i - j])
        coeffs: list[Fraction] = []
        for x, c in zip(reversed(xs), reversed(dd)):
            # coeffs * (t - x) + c
            shifted = [c] + coeffs
            for i, a in enumerate(coeffs):
                shifted[i] -= x * a
            coeffs = shifted
        return cls.from_coefficients(coeffs)

    @property
    def is_zero(self) -> bool:
        return not self.coefficients

    @property
    def degree(self) -> Union[int, float]:
        """Degree as an int; -inf for the zero polynomial."""
        return len(self.coefficients) - 1 if self.coefficients else NEG_INFINITY

    @property
    def leading_coefficient(self) -> Fraction:
        if self.is_zero:
            return Fraction(0)
        return self.coefficients[-1]

    def __call__(self, x):
        """Evaluate by Horner's rule; exact for int/Fraction, works for complex.

        An int or Fraction x = p/q is evaluated in integers: Horner on the
        numerators over one common denominator D, homogenised in q, gives
        N = sum n_i p^i q^(d-i), and the value is the Fraction N / (D q^d).
        """
        if not isinstance(x, (int, Fraction)):
            acc = 0
            for c in reversed(self.coefficients):
                acc = acc * x + c
            return acc
        coeffs = self.coefficients
        if not coeffs:
            return Fraction(0)
        denominator = math.lcm(*(c.denominator for c in coeffs))
        numerators = [c.numerator * (denominator // c.denominator) for c in reversed(coeffs)]
        p, q = x.numerator, x.denominator
        acc, qpow = 0, 1
        for n in numerators:
            acc = acc * p + n * qpow
            qpow *= q
        return Fraction(acc, denominator * qpow // q)

    def __add__(self, other: "RationalPolynomial") -> "RationalPolynomial":
        a, b = self.coefficients, other.coefficients
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return RationalPolynomial.from_coefficients(out)

    def __neg__(self) -> "RationalPolynomial":
        return RationalPolynomial(tuple(-c for c in self.coefficients))

    def __sub__(self, other: "RationalPolynomial") -> "RationalPolynomial":
        return self + (-other)

    def scale(self, c: Scalar) -> "RationalPolynomial":
        c = Fraction(c)
        if c == 0:
            return RationalPolynomial.zero()
        return RationalPolynomial(tuple(a * c for a in self.coefficients))

    def derivative(self) -> "RationalPolynomial":
        return RationalPolynomial.from_coefficients(
            [i * c for i, c in enumerate(self.coefficients)][1:]
        )

    def divmod(self, other: "RationalPolynomial") -> tuple["RationalPolynomial", "RationalPolynomial"]:
        """Exact polynomial division with remainder."""
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coefficients)
        d = other.degree
        lead = other.leading_coefficient
        quot = [Fraction(0)] * max(len(rem) - d, 0)
        for i in range(len(rem) - 1, d - 1, -1):
            q = rem[i] / lead
            if q == 0:
                continue
            quot[i - d] = q
            for j, c in enumerate(other.coefficients):
                rem[i - d + j] -= q * c
        return (
            RationalPolynomial.from_coefficients(quot),
            RationalPolynomial.from_coefficients(rem),
        )

    def monic(self) -> "RationalPolynomial":
        if self.is_zero:
            return self
        return self.scale(1 / self.leading_coefficient)

    def gcd(self, other: "RationalPolynomial") -> "RationalPolynomial":
        """Monic greatest common divisor via the Euclidean algorithm."""
        a, b = self, other
        while not b.is_zero:
            a, b = b, a.divmod(b)[1]
        return a.monic()

    def squarefree_part(self) -> "RationalPolynomial":
        """The product of the distinct irreducible factors, made monic."""
        if self.degree < 1:
            return self.monic()
        return self.divmod(self.gcd(self.derivative()))[0].monic()

    def coefficient_strings(self) -> list[str]:
        return [fraction_str(c) for c in self.coefficients]

    def pretty(self, var: str = "k") -> str:
        """Human-readable form such as "3k^2+4k-7"."""
        if self.is_zero:
            return "0"
        parts = []
        for d in range(len(self.coefficients) - 1, -1, -1):
            c = self.coefficients[d]
            if c == 0:
                continue
            sign = "-" if c < 0 else ("+" if parts else "")
            mag = abs(c)
            if d == 0:
                body = fraction_str(mag)
            else:
                head = "" if mag == 1 else f"{fraction_str(mag)}*"
                body = f"{head}{var}" + (f"^{d}" if d > 1 else "")
            parts.append(sign + body)
        return "".join(parts)

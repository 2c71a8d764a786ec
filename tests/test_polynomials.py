"""Exact rational polynomial arithmetic used everywhere downstream."""
from fractions import Fraction

import pytest

from bettipowers.polynomials import RationalPolynomial, fraction_str


def test_fraction_strings_roundtrip():
    for q in (Fraction(3), Fraction(-7, 2), Fraction(0), Fraction(5, 3)):
        assert Fraction(fraction_str(q)) == q
    assert fraction_str(Fraction(4, 2)) == "2"


def test_trailing_zeros_stripped():
    p = RationalPolynomial.from_coefficients([1, 2, 0, 0])
    assert p.coefficients == (Fraction(1), Fraction(2))
    assert p.degree == 1
    assert p.leading_coefficient == 2


def test_zero_polynomial():
    z = RationalPolynomial.zero()
    assert z.is_zero
    assert z.degree == float("-inf")
    assert z.leading_coefficient == 0
    assert z(Fraction(7)) == 0


def test_interpolate_quadratic():
    # 3k^2 + 4k - 7 through three nodes, checked off-node.
    target = RationalPolynomial.from_coefficients([-7, 4, 3])
    points = [(k, target(k)) for k in (3, 4, 5)]
    fit = RationalPolynomial.interpolate(points)
    assert fit == target
    assert fit(Fraction(11)) == target(Fraction(11))


def test_interpolate_rejects_duplicate_nodes():
    with pytest.raises(ValueError):
        RationalPolynomial.interpolate([(1, 1), (1, 2)])


def test_arithmetic():
    p = RationalPolynomial.from_coefficients([1, 1])
    q = RationalPolynomial.from_coefficients([-1, 1])
    assert (p * q).coefficients == (Fraction(-1), Fraction(0), Fraction(1))
    assert (p + q).coefficients == (Fraction(0), Fraction(2))
    assert (p - p).is_zero
    assert (-p)(5) == -6


def test_call_is_exact():
    p = RationalPolynomial.from_coefficients([Fraction(1, 3), Fraction(1, 2)])
    value = p(Fraction(1, 5))
    assert value == Fraction(1, 3) + Fraction(1, 10)
    assert isinstance(value, Fraction)


def test_divmod_exact():
    p = RationalPolynomial.from_coefficients([-2, 1]) * RationalPolynomial.from_coefficients(
        [5, 3]
    )
    q, r = p.divmod(RationalPolynomial.from_coefficients([-2, 1]))
    assert r.is_zero
    assert q.coefficients == (Fraction(5), Fraction(3))
    with pytest.raises(ZeroDivisionError):
        p.divmod(RationalPolynomial.zero())


def test_gcd_is_monic_common_factor():
    a = RationalPolynomial.from_coefficients([1, 1])
    b = RationalPolynomial.from_coefficients([2, 1])
    c = RationalPolynomial.from_coefficients([3, 1])
    g = (a * b).scale(6).gcd((a * c).scale(10))
    assert g == a


def test_squarefree_part():
    a = RationalPolynomial.from_coefficients([1, 1])
    b = RationalPolynomial.from_coefficients([2, 1])
    p = a * a * b.scale(4)
    assert p.squarefree_part() == a * b


def test_derivative():
    p = RationalPolynomial.from_coefficients([5, -1, 3])
    assert p.derivative().coefficients == (Fraction(-1), Fraction(6))
    assert RationalPolynomial.constant(3).derivative().is_zero


def test_pretty_and_strings():
    p = RationalPolynomial.from_coefficients([-7, 4, 3])
    assert p.pretty() == "3*k^2+4*k-7"
    assert p.coefficient_strings() == ["-7", "4", "3"]
    half = RationalPolynomial.from_coefficients([0, Fraction(1, 2)])
    assert half.pretty() == "1/2*k"
    assert RationalPolynomial.zero().pretty() == "0"


"""Exact rational polynomial arithmetic used everywhere downstream."""
import random
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
    with pytest.raises(ValueError):
        RationalPolynomial.interpolate([(Fraction(1, 2), 1), (3, 0), (Fraction(2, 4), 5)])


def _lagrange_reference(points):
    # Lagrange interpolation, one product of n-1 linear factors per basis
    # polynomial: O(n^4) Fraction operations, but plainly correct.
    result = RationalPolynomial.zero()
    for j, (xj, yj) in enumerate(points):
        basis = RationalPolynomial.constant(1)
        denom = Fraction(1)
        for m, (xm, _) in enumerate(points):
            if m == j:
                continue
            basis = basis * RationalPolynomial.from_coefficients([-Fraction(xm), 1])
            denom *= Fraction(xj) - Fraction(xm)
        result = result + basis.scale(Fraction(yj) / denom)
    return result


def test_interpolate_matches_lagrange_reference():
    cases = [
        [],
        [(4, 7)],
        [(4, 0)],
        [(Fraction(1, 3), Fraction(-2, 5)), (Fraction(-7, 2), 3), (0, Fraction(9, 4))],
        [(k, k**5 - 3 * k) for k in range(-4, 9)],
    ]
    rng = random.Random(20261018)
    for _ in range(40):
        xs = rng.sample(range(-30, 31), rng.randint(1, 12))
        nodes = [Fraction(x, rng.randint(1, 6)) for x in xs]
        if len(set(nodes)) == len(nodes):
            cases.append([(x, Fraction(rng.randint(-99, 99), rng.randint(1, 9))) for x in nodes])
    for points in cases:
        fit = RationalPolynomial.interpolate(points)
        assert fit == _lagrange_reference(points), points
        assert all(fit(x) == y for x, y in points)


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


def test_call_matches_fraction_horner():
    # Integer and Fraction points are evaluated in integers over one common
    # denominator; the value must be the Fraction that plain Horner gives.
    def horner(p, x):
        acc = Fraction(0)
        for c in reversed(p.coefficients):
            acc = acc * x + c
        return acc

    rng = random.Random(20261018)
    polys = [RationalPolynomial.zero(), RationalPolynomial.constant(Fraction(-5, 3))]
    for _ in range(60):
        degree = rng.randint(0, 8)
        polys.append(
            RationalPolynomial.from_coefficients(
                [Fraction(rng.randint(-40, 40), rng.randint(1, 12)) for _ in range(degree + 1)]
            )
        )
    points = [0, 1, -1, 7, -13, 10**12, Fraction(1, 2), Fraction(-7, 3), Fraction(22, 15)]
    points += [Fraction(rng.randint(-50, 50), rng.randint(1, 30)) for _ in range(10)]
    for p in polys:
        for x in points:
            value = p(x)
            assert type(value) is Fraction
            assert value == horner(p, x), (p, x)
    assert polys[0](Fraction(-7, 3)) == 0 and polys[0](4) == 0


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


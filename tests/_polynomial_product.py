"""The product of exact polynomials, for building test inputs.

The package never multiplies two polynomials, so RationalPolynomial has no
product; the tests build their inputs from factors with this one.
"""
from fractions import Fraction

from bettipowers.polynomials import RationalPolynomial


def multiply(*factors: RationalPolynomial) -> RationalPolynomial:
    """The product of the factors (the constant 1 for none)."""
    out = [Fraction(1)]
    for factor in factors:
        product = [Fraction(0)] * (len(out) + len(factor.coefficients) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(factor.coefficients):
                product[i + j] += a * b
        out = product
    return RationalPolynomial.from_coefficients(out)

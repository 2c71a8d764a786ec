"""Betti numbers over powers: series computation, stabilization detection, profile extraction.

For k large, each column beta_i(S/I^k) agrees with a polynomial in k of
degree at most n-1.  The fitting strategy interpolates the tail of the data
and certifies the interpolant by counting exact matches beyond the points
needed to determine it; failure to certify is the first-class NotStabilized
result, never an exception.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

from .monomial_core import MonomialIdeal, powers
from .monomial_core import power  # unused here, but perfbench/tracer.py wraps it here
from .polynomials import RationalPolynomial
from .resolution_engine import (
    RATIONALS,
    BettiTable,
    CoefficientField,
    betti_table,
    betti_totals,
)

DEFAULT_GUARD = 3


class ProfileInvariantError(RuntimeError):
    """A structural invariant of the asymptotic profile failed.

    These invariants (constant P_0, degree chain, apd >= ell, integrality
    and sign of the multiplicities, alternating sum) are theorems; a
    violation means either an engine bug or a window too short to have
    truly stabilized.
    """


@dataclass(frozen=True)
class BettiSeries:
    """Betti totals of S/I^k for k = 1..kmax, and the full Betti table of S/I."""

    ideal: MonomialIdeal
    field: CoefficientField
    kmax: int
    rows: tuple[tuple[int, ...], ...]
    table: BettiTable

    @property
    def nvars(self) -> int:
        return self.ideal.nvars

    def column(self, i: int) -> list[tuple[int, int]]:
        return [(k + 1, row[i]) for k, row in enumerate(self.rows)]


@dataclass(frozen=True)
class NotStabilized:
    """Report that some Betti columns did not certify a polynomial by kmax."""

    failed_indices: tuple[int, ...]
    kmax: int
    guard: int


@dataclass(frozen=True)
class KodiyalamProfile:
    """The asymptotic data of an ideal: fitted polynomials and invariants.

    polynomials[i] agrees with beta_i(S/I^k) for all k >= k0; apd is the
    largest index with a nonzero polynomial; ell - 1 is the degree of the
    first polynomial; bigK is the last index still attaining that degree;
    multiplicities[i-1] = (leading coefficient of P_i) * (ell-1)!.
    """

    polynomials: tuple[RationalPolynomial, ...]
    k0: int
    apd: int
    ell: int
    bigK: int
    multiplicities: tuple[int, ...]
    column_thresholds: tuple[int, ...]


def betti_series(
    I: MonomialIdeal, kmax: int, F: CoefficientField = RATIONALS
) -> BettiSeries:
    """Betti totals of S/I^k for k = 1..kmax (exact, row per power).

    The full table is built for k = 1 only; later powers give their totals.
    """
    if kmax < 1:
        raise ValueError("kmax must be at least 1")
    rows = []
    for k, ideal_k in enumerate(powers(I, kmax), start=1):
        try:
            if k == 1:
                first = betti_table(ideal_k, F)
                rows.append(first.totals)
            else:
                rows.append(betti_totals(ideal_k, F))
        except Exception as exc:
            # Name the power only in an exception whose one argument is its
            # message; structured arguments (an errno, a key) stay intact.
            if exc.args == (str(exc),):
                exc.args = (f"power k={k}: {exc}",)
            raise
    return BettiSeries(I, F, kmax, tuple(rows), first)


FitResult = Union[tuple[RationalPolynomial, int], NotStabilized]


def fit_polynomial(
    values: Sequence[tuple[int, int]], max_degree: int, guard: int
) -> FitResult:
    """Detect eventual polynomial behavior in an integer sequence.

    Interpolates the last max_degree+1 points exactly, then finds the
    smallest k from which the interpolant matches every supplied value
    onward.  The fit is certified when the matched range contains at least
    guard points beyond the deg+1 needed to determine the interpolant;
    otherwise NotStabilized is returned.  On success returns (polynomial,
    threshold).
    """
    if max_degree < 0 or guard < 1:
        raise ValueError("max_degree must be >= 0 and guard >= 1")
    if not values:
        raise ValueError("empty value sequence")
    ks = [k for k, _ in values]
    if ks != list(range(ks[0], ks[0] + len(ks))):
        raise ValueError("values must be given at consecutive k")
    window = list(values)[-(max_degree + 1):]
    poly = RationalPolynomial.interpolate(window)
    threshold = window[0][0]
    for k, v in reversed(values[: len(values) - len(window)]):
        if poly(k) == v:
            threshold = k
        else:
            break
    matched = ks[-1] - threshold + 1
    needed = (poly.degree + 1 if not poly.is_zero else 1) + guard
    if matched < needed:
        return NotStabilized((), ks[-1], guard)
    return poly, threshold


def kodiyalam_profile(
    series: BettiSeries, guard: int = DEFAULT_GUARD
) -> Union[KodiyalamProfile, NotStabilized]:
    """Fit every Betti column and extract the asymptotic invariants.

    Columns are fitted independently with degree bound n-1.  If any column
    fails to certify, NotStabilized lists the failing indices.  Violations
    of the structural invariants raise ProfileInvariantError: they cannot
    occur on correctly stabilized data.
    """
    n = series.nvars
    polys: list[RationalPolynomial] = []
    thresholds: list[int] = []
    failed: list[int] = []
    for i in range(n + 1):
        fit = fit_polynomial(series.column(i), max_degree=n - 1, guard=guard)
        if isinstance(fit, NotStabilized):
            failed.append(i)
        else:
            polys.append(fit[0])
            thresholds.append(fit[1])
    if failed:
        return NotStabilized(tuple(failed), series.kmax, guard)
    if polys[0] != RationalPolynomial.constant(1):
        raise ProfileInvariantError(f"P_0 = {polys[0].pretty()} is not the constant 1")
    apd = max((i for i in range(n + 1) if not polys[i].is_zero), default=0)
    if polys[1].is_zero:
        raise ProfileInvariantError("P_1 vanishes for a proper nonzero ideal")
    degs = [p.degree for p in polys]
    for i in range(1, n):
        if degs[i] < degs[i + 1]:
            raise ProfileInvariantError(
                f"degree chain broken: deg P_{i} = {degs[i]} < deg P_{i+1} = {degs[i+1]}"
            )
    ell = int(degs[1]) + 1
    # Brodmann (1979): lim depth S/I^k <= n - ell, so by Auslander-Buchsbaum
    # the limit projective dimension apd is at least ell.
    if apd < ell:
        raise ProfileInvariantError(f"apd = {apd} < ell = {ell}, against Brodmann's bound")
    bigK = max(i for i in range(1, n + 1) if degs[i] == ell - 1)
    mults = []
    for i in range(1, bigK + 1):
        m = polys[i].leading_coefficient * math.factorial(ell - 1)
        if m.denominator != 1 or m <= 0:
            raise ProfileInvariantError(
                f"multiplicity of P_{i} is {m}, not a positive integer"
            )
        mults.append(int(m))
    if ell >= 2:
        alt = sum((-1) ** i * m for i, m in enumerate(mults, start=1))
        if alt != 0:
            raise ProfileInvariantError(f"alternating multiplicity sum is {alt}")
    return KodiyalamProfile(
        polynomials=tuple(polys),
        k0=max(thresholds),
        apd=apd,
        ell=ell,
        bigK=bigK,
        multiplicities=tuple(mults),
        column_thresholds=tuple(thresholds),
    )


def closed_form_profile(n: int) -> KodiyalamProfile:
    """Exact profile of a length-n regular sequence, from the closed form.

    Column i >= 1 is C(k+n-1, n-i) * C(k-2+i, i-1): for k >= 1 the product
    of the linear factors k, k+1, ..., k+n-1 other than k+i-1, divided by
    (i-1)! (n-i)!, so a polynomial in k of degree exactly n-1 valid from
    k = 1.  The multiplicities are the binomial coefficients C(n-1, i-1).
    """
    if n < 2:
        raise ValueError("regular-sequence profile needs n >= 2")
    rising = [1]  # k(k+1)...(k+n-1) in integers, lowest degree first
    for a in range(n):
        rising = [a * c + b for c, b in zip(rising + [0], [0] + rising)]
    polys = [RationalPolynomial.constant(1)]
    for i in range(1, n + 1):
        quotient = [rising[n]]  # synthetic division by k + i-1, highest degree first
        for c in rising[n - 1 : 0 : -1]:
            quotient.append(c - (i - 1) * quotient[-1])
        scale = math.factorial(i - 1) * math.factorial(n - i)
        polys.append(RationalPolynomial.from_coefficients([Fraction(c, scale) for c in quotient[::-1]]))
    return KodiyalamProfile(
        polynomials=tuple(polys),
        k0=1,
        apd=n,
        ell=n,
        bigK=n,
        multiplicities=tuple(math.comb(n - 1, i - 1) for i in range(1, n + 1)),
        column_thresholds=(1,) * (n + 1),
    )


def default_kmax(I: MonomialIdeal) -> int:
    return I.nvars + 6


def profile_to_json(result: Union[KodiyalamProfile, NotStabilized]) -> dict:
    """JSON-ready dict with every exact rational rendered as a "p/q" string."""
    if isinstance(result, NotStabilized):
        return {
            "status": "not-stabilized",
            "failed_indices": list(result.failed_indices),
            "kmax": result.kmax,
            "guard": result.guard,
        }
    return {
        "status": "ok",
        "polynomials": [p.coefficient_strings() for p in result.polynomials],
        "pretty": [p.pretty("k") for p in result.polynomials],
        "k0": result.k0,
        "apd": result.apd,
        "ell": result.ell,
        "bigK": result.bigK,
        "multiplicities": list(result.multiplicities),
        "column_thresholds": list(result.column_thresholds),
    }

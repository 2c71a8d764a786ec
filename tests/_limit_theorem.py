"""Reference check of the limit theorem for the roots of the Betti polynomial.

The bounded roots of P(I)(k,t) approach the roots of the limit polynomial
sum_i k_i t^(apd-i), and -1 is one of them.  verify_limit_theorem reports
that picture numerically over a range of powers; no command runs it, so it
lives with the tests that check it.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from bettipowers.asymptotics import KodiyalamProfile
from bettipowers.polynomials import RationalPolynomial
from bettipowers.spectra import RootLocus, betti_polynomial_at, find_roots, root_locus


def limit_polynomial(profile: KodiyalamProfile) -> RationalPolynomial:
    """The limit polynomial sum_i k_i t^(apd-i) that governs root convergence.

    The k_i are the profile's multiplicities, i = 1..bigK.  Requires ell >= 2;
    the result has degree apd - 1 and -1 as an exact root.
    """
    if profile.ell < 2:
        raise ValueError("limit polynomial requires ell >= 2 (non-principal ideal)")
    apd = profile.apd
    coeffs = [Fraction(0)] * apd
    for i, m in enumerate(profile.multiplicities, start=1):
        coeffs[apd - i] = Fraction(m)
    poly = RationalPolynomial.from_coefficients(coeffs)
    if poly(-1) != 0:
        raise RuntimeError("limit polynomial does not vanish at -1")
    return poly


def limit_root_multiset(profile: KodiyalamProfile) -> list[complex]:
    """The apd-1 roots of the limit polynomial (exact when it is k_1 t^z (t+1)^r)."""
    poly = limit_polynomial(profile)
    zeros = profile.apd - profile.bigK
    reduced = RationalPolynomial.from_coefficients(poly.coefficients[zeros:])
    binomial = RationalPolynomial.from_coefficients([1, 1])
    power_form = RationalPolynomial.constant(profile.multiplicities[0])
    for _ in range(profile.bigK - 1):
        power_form = power_form * binomial
    if reduced == power_form:
        rest = [complex(-1.0)] * (profile.bigK - 1)
    else:
        rest = find_roots(reduced)
    return [complex(0.0)] * zeros + rest


@dataclass(frozen=True)
class ConvergenceReport:
    """Numeric convergence picture of the root trajectories toward the limit roots."""

    krange: tuple[int, ...]
    locus: RootLocus
    limit_roots: tuple[complex, ...]
    bounded_trajectories: tuple[int, ...]
    bounded_final_distances: tuple[float, ...]
    max_bounded_distance: dict[int, float]
    sampled_ks: tuple[int, ...]
    distances_nonincreasing: Optional[bool]
    escape_real: Optional[bool]
    escape_divergent: Optional[bool]
    minus_one_exact: dict[int, bool]


def verify_limit_theorem(
    profile: KodiyalamProfile,
    krange: Iterable[int],
    sample_ks: Optional[Sequence[int]] = None,
) -> ConvergenceReport:
    """Check the limiting root picture over an increasing range of powers.

    Reports, per bounded trajectory, the final distance to the nearest limit
    root; whether the maximum such distance is non-increasing over the
    sampled ks; whether the escape root is real and divergent; and the exact
    vanishing of the Betti polynomial at -1 for every k.  Short ranges
    yield None (inconclusive) for the trend fields.
    """
    if profile.ell < 2:
        raise ValueError("convergence checks require ell >= 2")
    locus = root_locus(profile, krange)
    ks = locus.krange
    limit_roots = limit_root_multiset(profile)
    esc = locus.escape_trajectory
    bounded = tuple(t for t in range(locus.degree) if t != esc)
    dist_by_k = {
        k: max(
            min(abs(locus.roots[k][t] - a) for a in limit_roots) for t in bounded
        )
        for k in ks
    }
    final = tuple(
        min(abs(locus.roots[ks[-1]][t] - a) for a in limit_roots) for t in bounded
    )
    if sample_ks is None:
        tail = [k for k in ks if k >= ks[-1] // 2]
        sample_ks = tail[:: max(1, len(tail) // 5)][-5:]
    sample_ks = tuple(k for k in sample_ks if k in dist_by_k)
    trend: Optional[bool] = None
    if len(sample_ks) >= 2:
        trend = all(
            dist_by_k[b] <= dist_by_k[a] + 1e-12
            for a, b in zip(sample_ks, sample_ks[1:])
        )
    escape_real: Optional[bool] = None
    escape_divergent: Optional[bool] = None
    if esc is not None:
        tail_ks = [k for k in ks if k >= ks[-1] // 2]
        escape_real = all(locus.roots[k][esc].imag == 0.0 for k in tail_ks)
        moduli = [abs(locus.roots[k][esc]) for k in tail_ks]
        escape_divergent = all(b > a for a, b in zip(moduli, moduli[1:]))
    minus_one = {
        k: betti_polynomial_at(profile, k, allow_unstabilized=True)(Fraction(-1)) == 0
        for k in ks
    }
    return ConvergenceReport(
        krange=ks,
        locus=locus,
        limit_roots=tuple(limit_roots),
        bounded_trajectories=bounded,
        bounded_final_distances=final,
        max_bounded_distance=dist_by_k,
        sampled_ks=tuple(sample_ks),
        distances_nonincreasing=trend,
        escape_real=escape_real,
        escape_divergent=escape_divergent,
        minus_one_exact=minus_one,
    )

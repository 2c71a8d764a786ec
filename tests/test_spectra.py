"""Root finding, Sturm certification, loci, and the convergence report."""
import random
from fractions import Fraction

import pytest

from bettipowers.asymptotics import (
    KodiyalamProfile,
    betti_series,
    closed_form_profile,
    kodiyalam_profile,
)
from bettipowers.polynomials import RationalPolynomial
from bettipowers.spectra import (
    RootFindingError,
    betti_polynomial_at,
    find_roots,
    limit_polynomial,
    limit_root_multiset,
    real_root_multiplicities,
    root_locus,
    sturm_real_root_count,
    verify_limit_theorem,
)

from _fixtures import fixture_ideal


def _poly(*coeffs):
    return RationalPolynomial.from_coefficients(list(coeffs))


def _maximal2_profile():
    return kodiyalam_profile(betti_series(fixture_ideal("maximal2"), 8))


def test_betti_polynomial_is_monic_with_exact_root():
    profile = _maximal2_profile()
    poly = betti_polynomial_at(profile, 3)
    # t^2 + 4t + 3 = (t+1)(t+3)
    assert poly.coefficients == (Fraction(3), Fraction(4), Fraction(1))
    assert poly(Fraction(-1)) == 0


def test_betti_polynomial_threshold_gate():
    profile = _maximal2_profile()
    gated = KodiyalamProfile(
        polynomials=profile.polynomials,
        k0=3,
        apd=profile.apd,
        ell=profile.ell,
        bigK=profile.bigK,
        multiplicities=profile.multiplicities,
        column_thresholds=profile.column_thresholds,
    )
    with pytest.raises(ValueError):
        betti_polynomial_at(gated, 2)
    assert betti_polynomial_at(gated, 2, allow_unstabilized=True)(Fraction(-1)) == 0
    with pytest.raises(ValueError):
        betti_polynomial_at(profile, 0)


def test_find_roots_linear_and_quadratic():
    assert find_roots(_poly(6, 2)) == [complex(-3.0)]
    roots = find_roots(_poly(2, -3, 1))
    assert [round(z.real, 12) for z in roots] == [1.0, 2.0]
    pair = find_roots(_poly(5, 2, 1))
    assert pair[0] == pair[1].conjugate()
    assert pair[0].imag == -2.0 and pair[0].real == -1.0


def test_find_roots_quartic_accuracy():
    roots = find_roots(_poly(24, -50, 35, -10, 1))
    assert all(z.imag == 0.0 for z in roots)
    for got, want in zip(roots, (1.0, 2.0, 3.0, 4.0)):
        assert abs(got - want) < 1e-9


def test_find_roots_valuation_zeros_are_exact():
    roots = find_roots(_poly(0, 0, 0, 1, 0, 1))
    assert roots.count(complex(0.0)) == 3
    assert sum(1 for z in roots if z.imag != 0.0) == 2


def test_find_roots_rejects_constants():
    with pytest.raises(ValueError):
        find_roots(_poly(5))


def test_find_roots_high_multiplicity_cluster():
    # (1+t)^20: the cluster passes by backward error, not by step convergence.
    p = RationalPolynomial.constant(1)
    for _ in range(20):
        p = p * _poly(1, 1)
    roots = find_roots(p)
    assert len(roots) == 20
    assert sum(1 for z in roots if z.imag == 0.0) == 2
    assert max(abs(z + 1) for z in roots) < 0.5


def test_find_roots_error_carries_best_iterate():
    with pytest.raises(RootFindingError) as err:
        find_roots(_poly(1, 1, 0, 1), max_iter=1, residual_tol=1e-30)
    assert len(err.value.roots) == 3
    assert len(err.value.residuals) == 3


def test_sturm_counts_and_intervals():
    p = _poly(2, -3, 1)  # roots 1, 2
    assert sturm_real_root_count(p) == 2
    assert sturm_real_root_count(p, (1, 2)) == 1  # half-open: 1 excluded
    assert sturm_real_root_count(p, (0, 1)) == 1
    assert sturm_real_root_count(p, (2, None)) == 0
    assert sturm_real_root_count(p, (None, 0)) == 0
    assert sturm_real_root_count(_poly(1, 0, 1)) == 0
    with pytest.raises(ValueError):
        sturm_real_root_count(RationalPolynomial.zero())


def test_sturm_counts_distinct_roots():
    p = _poly(1, 1) * _poly(1, 1) * _poly(-2, 1)
    assert sturm_real_root_count(p) == 2
    assert real_root_multiplicities(p) == {1: 1, 2: 1}
    assert real_root_multiplicities(_poly(0, 0, 0, 1)) == {3: 1}
    assert real_root_multiplicities(_poly(1, 0, 1)) == {}


def test_random_polynomials_against_sturm():
    """Numeric real-root counts must match the exact Sturm census."""
    rng = random.Random(20260815)
    for trial in range(200):
        degree = rng.randint(3, 9)
        coeffs = [rng.randint(-9, 9) for _ in range(degree)] + [rng.randint(1, 9)]
        p = RationalPolynomial.from_coefficients(coeffs)
        roots = find_roots(p)
        assert len(roots) == p.degree
        # every root is a backward-stable zero
        for z in roots:
            value = abs(p(z))
            scale = sum(
                abs(float(c)) * abs(z) ** i for i, c in enumerate(p.coefficients)
            )
            assert value <= 1e-10 * scale
        # the root multiset is closed under conjugation, exactly
        assert sorted((z.real, z.imag) for z in roots) == sorted(
            (z.real, -z.imag) for z in roots
        )
        exact = sum(m * c for m, c in real_root_multiplicities(p).items())
        numeric = sum(1 for z in roots if z.imag == 0.0)
        assert numeric == exact, f"trial {trial}: {coeffs}"


def test_limit_polynomial_vanishes_at_minus_one():
    profile = _maximal2_profile()
    lp = limit_polynomial(profile)
    assert lp.polynomial == _poly(1, 1)
    assert limit_root_multiset(profile) == [complex(-1.0)]


def test_limit_polynomial_requires_ell_two():
    profile = kodiyalam_profile(betti_series(fixture_ideal("principal"), 6))
    with pytest.raises(ValueError):
        limit_polynomial(profile)


def test_limit_root_multiset_with_zero_roots():
    # apd=5, bigK=3, multiplicities (6,12,6): limit polynomial 6t^2(t+1)^2
    profile = KodiyalamProfile(
        polynomials=(
            RationalPolynomial.constant(1),
            _poly(-7, 4, 3),
            _poly(-7, 3, 6),
            _poly(5, -1, 3),
            RationalPolynomial.constant(5),
            RationalPolynomial.constant(1),
            RationalPolynomial.zero(),
        ),
        k0=3,
        apd=5,
        ell=3,
        bigK=3,
        multiplicities=(6, 12, 6),
        column_thresholds=(1, 3, 3, 3, 1, 1, 1),
    )
    roots = limit_root_multiset(profile)
    assert roots == [complex(0.0), complex(0.0), complex(-1.0), complex(-1.0)]


def test_root_locus_trajectories_of_maximal2():
    # P(k,t) = (t+1)(t+k): one trajectory pinned at -1, one escaping at -k.
    profile = _maximal2_profile()
    locus = root_locus(profile, range(1, 11))
    pinned = [t for t in range(2) if abs(locus.roots[10][t] + 1) < 1e-9]
    assert len(pinned) == 1
    escaping = 1 - pinned[0]
    assert locus.escape_trajectory == escaping
    for k in range(3, 11):
        assert locus.escape_index[k] == escaping
        assert abs(locus.roots[k][escaping] + k) < 1e-9
    assert locus.escape_index[1] is None
    assert locus.escape_index[2] is None
    assert locus.real_count(7) == 2


def test_root_locus_csv_layout():
    locus = root_locus(_maximal2_profile(), range(1, 4))
    lines = locus.to_csv().splitlines()
    assert lines[0] == "k,root_index,re,im,trajectory_id,is_escape"
    assert len(lines) == 1 + 3 * 2
    assert lines[1].startswith("1,0,")


def test_verify_limit_theorem_maximal3():
    report = verify_limit_theorem(closed_form_profile(3), range(1, 13))
    assert report.limit_roots == (complex(-1.0), complex(-1.0))
    assert report.distances_nonincreasing is True
    assert report.escape_real is True
    assert report.escape_divergent is True
    assert all(report.minus_one_exact.values())
    assert len(report.bounded_trajectories) == 2


def test_verify_limit_theorem_requires_ell_two():
    profile = kodiyalam_profile(betti_series(fixture_ideal("principal"), 6))
    with pytest.raises(ValueError):
        verify_limit_theorem(profile, range(1, 5))

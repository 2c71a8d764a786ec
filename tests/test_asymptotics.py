"""Series computation, stabilization detection, and profile invariants."""
from fractions import Fraction

import pytest

from bettipowers import asymptotics
from bettipowers.asymptotics import (
    BettiSeries,
    KodiyalamProfile,
    NotStabilized,
    ProfileInvariantError,
    betti_series,
    closed_form_profile,
    closed_form_regular_sequence,
    default_kmax,
    fit_polynomial,
    kodiyalam_profile,
    profile_to_json,
)
from bettipowers.polynomials import RationalPolynomial
from bettipowers.resolution_engine import RATIONALS, betti_table
from bettipowers.spectra import RootFindingError

from _fixtures import fixture_ideal

QUADRATIC = RationalPolynomial.from_coefficients([-7, 4, 3])


def _quadratic_values(ks, junk_before=None):
    out = []
    for k in ks:
        if junk_before is not None and k < junk_before:
            out.append((k, 999))
        else:
            out.append((k, int(QUADRATIC(k))))
    return out


def test_fit_polynomial_with_junk_prefix():
    values = _quadratic_values(range(1, 9), junk_before=3)
    poly, threshold = fit_polynomial(values, max_degree=2, guard=3)
    assert poly == QUADRATIC
    assert threshold == 3


def test_fit_polynomial_guard_unmet():
    values = _quadratic_values(range(1, 8), junk_before=3)
    result = fit_polynomial(values, max_degree=2, guard=3)
    assert isinstance(result, NotStabilized)
    assert result.kmax == 7


def test_fit_polynomial_threshold_extends_to_start():
    values = [(k, k + 1) for k in range(1, 6)]
    poly, threshold = fit_polynomial(values, max_degree=1, guard=3)
    assert poly == RationalPolynomial.from_coefficients([1, 1])
    assert threshold == 1


def test_fit_polynomial_zero_column():
    poly, threshold = fit_polynomial([(k, 0) for k in range(1, 5)], 2, 3)
    assert poly.is_zero
    assert threshold == 1
    assert isinstance(fit_polynomial([(k, 0) for k in range(1, 4)], 2, 3), NotStabilized)


def test_fit_polynomial_degree_bound_too_small():
    values = [(k, k**3) for k in range(1, 9)]
    assert isinstance(fit_polynomial(values, max_degree=2, guard=3), NotStabilized)


def test_fit_polynomial_input_validation():
    with pytest.raises(ValueError):
        fit_polynomial([], 2, 3)
    with pytest.raises(ValueError):
        fit_polynomial([(1, 1), (3, 2)], 1, 1)
    with pytest.raises(ValueError):
        fit_polynomial([(1, 1), (2, 2)], 1, 0)


def test_betti_series_of_maximal_ideal():
    series = betti_series(fixture_ideal("maximal2"), 3)
    assert series.rows == ((1, 2, 1), (1, 3, 2), (1, 4, 3))
    assert series.column(2) == [(1, 1), (2, 2), (3, 3)]
    assert series.to_csv().splitlines()[0] == "k,beta_0,beta_1,beta_2"


def test_profile_of_maximal_ideal():
    series = betti_series(fixture_ideal("maximal2"), 8)
    profile = kodiyalam_profile(series)
    assert isinstance(profile, KodiyalamProfile)
    assert profile.polynomials[1] == RationalPolynomial.from_coefficients([1, 1])
    assert profile.polynomials[2] == RationalPolynomial.from_coefficients([0, 1])
    assert (profile.k0, profile.apd, profile.ell, profile.bigK) == (1, 2, 2, 2)
    assert profile.multiplicities == (1, 1)


def test_profile_of_regular_sequence_matches_degree_independence():
    # Pure powers of any degrees resolve identically to the maximal ideal case.
    series = betti_series(fixture_ideal("purepowers2"), 8)
    profile = kodiyalam_profile(series)
    assert profile.polynomials[1] == RationalPolynomial.from_coefficients([1, 1])
    assert profile.multiplicities == (1, 1)


def test_profile_of_principal_ideal():
    series = betti_series(fixture_ideal("principal"), 6)
    profile = kodiyalam_profile(series)
    assert profile.ell == 1
    assert profile.apd == 1
    assert profile.bigK == 1
    assert profile.multiplicities == (1,)


def test_profile_not_stabilized_lists_columns():
    series = betti_series(fixture_ideal("mixed6"), 5)
    result = kodiyalam_profile(series)
    assert isinstance(result, NotStabilized)
    assert result.failed_indices == (1, 2, 3)
    assert result.kmax == 5


def test_profile_guard_is_honored():
    # Quadratic columns, polynomial from k=1: six values certify against
    # guard 3 (3 + 3 needed) but not against guard 4.
    series = betti_series(fixture_ideal("edges5"), 6)
    assert isinstance(kodiyalam_profile(series, guard=4), NotStabilized)
    profile = kodiyalam_profile(series, guard=3)
    assert isinstance(profile, KodiyalamProfile)
    assert profile.k0 == 1


def _series_from_columns(nvars, columns, kmax):
    rows = tuple(
        tuple(columns[i](k) for i in range(nvars + 1)) for k in range(1, kmax + 1)
    )
    ideal = fixture_ideal("maximal2")
    return BettiSeries(ideal, RATIONALS, kmax, rows, betti_table(ideal))


def test_invariant_error_on_bad_constant_column():
    series = _series_from_columns(2, [lambda k: 2, lambda k: k + 1, lambda k: k], 6)
    with pytest.raises(ProfileInvariantError):
        kodiyalam_profile(series)


def test_invariant_error_on_broken_degree_chain():
    series = _series_from_columns(2, [lambda k: 1, lambda k: 1, lambda k: k], 6)
    with pytest.raises(ProfileInvariantError):
        kodiyalam_profile(series)


def test_invariant_error_on_alternating_sum():
    series = _series_from_columns(2, [lambda k: 1, lambda k: k, lambda k: 2 * k], 6)
    with pytest.raises(ProfileInvariantError):
        kodiyalam_profile(series)


def test_closed_form_values():
    assert closed_form_regular_sequence(3, 2) == (1, 6, 8, 3)
    assert closed_form_regular_sequence(2, 5) == (1, 6, 5)
    # k=1 is the Koszul resolution: plain binomials
    assert closed_form_regular_sequence(4, 1) == (1, 4, 6, 4, 1)
    with pytest.raises(ValueError):
        closed_form_regular_sequence(0, 1)


def test_closed_form_profile_extrapolates():
    profile = closed_form_profile(3)
    assert profile.multiplicities == (1, 2, 1)
    assert (profile.ell, profile.bigK, profile.apd, profile.k0) == (3, 3, 3, 1)
    # interpolated from k = 1..3, checked well beyond
    for i in range(4):
        assert profile.polynomials[i](9) == closed_form_regular_sequence(3, 9)[i]
    with pytest.raises(ValueError):
        closed_form_profile(1)


def test_engine_agrees_with_closed_form_profile():
    series = betti_series(fixture_ideal("maximal3"), 9)
    profile = kodiyalam_profile(series)
    assert profile.polynomials == closed_form_profile(3).polynomials


def test_default_kmax():
    assert default_kmax(fixture_ideal("maximal3")) == 9
    assert default_kmax(fixture_ideal("mixed6")) == 12


def test_profile_to_json_shapes():
    series = betti_series(fixture_ideal("maximal2"), 8)
    ok = profile_to_json(kodiyalam_profile(series))
    assert ok["status"] == "ok"
    assert ok["polynomials"][1] == ["1", "1"]
    assert ok["multiplicities"] == [1, 1]
    bad = profile_to_json(NotStabilized((1, 2), 5, 3))
    assert bad["status"] == "not-stabilized"
    assert bad["failed_indices"] == [1, 2]


def test_series_error_annotation(monkeypatch):
    with pytest.raises(ValueError):
        betti_series(fixture_ideal("maximal2"), 0)

    # The failing power is named in the message; the exception keeps its
    # type and attributes, even when its constructor takes more than a message.
    def broken(ideal, field):
        raise RootFindingError("bad", [1j], [])

    monkeypatch.setattr(asymptotics, "betti_table", broken)
    with pytest.raises(RootFindingError) as err:
        betti_series(fixture_ideal("maximal2"), 3)
    assert str(err.value) == "power k=1: bad"
    assert err.value.roots == [1j]

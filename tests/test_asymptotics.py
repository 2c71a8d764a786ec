"""Series computation, stabilization detection, and profile invariants."""
import math
import time

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
    ideal = fixture_ideal(f"maximal{nvars}")
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


def test_invariant_error_when_apd_is_below_ell():
    # P_1 = P_2 = k^2 and P_3 = 0 in three variables: ell = 3, apd = 2, and
    # every other invariant holds (multiplicities 2, 2 sum to 0 alternately).
    series = _series_from_columns(
        3, [lambda k: 1, lambda k: k * k, lambda k: k * k, lambda k: 0], 6
    )
    with pytest.raises(ProfileInvariantError, match="apd = 2 < ell = 3"):
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
    # checked against the binomials at k = 1..n and well beyond
    for n in (3, 20):
        polys = closed_form_profile(n).polynomials
        for k in range(1, 31):
            assert tuple(p(k) for p in polys) == closed_form_regular_sequence(n, k)
    with pytest.raises(ValueError):
        closed_form_profile(1)


def _interpolated_columns(n):
    # The closed form's columns interpolated through k = 1..n in Fractions,
    # which a polynomial of degree n-1 valid from k = 1 must equal.
    ks = range(1, n + 1)
    rows = [closed_form_regular_sequence(n, k) for k in ks]
    return tuple(RationalPolynomial.interpolate(list(zip(ks, col))) for col in zip(*rows))


def test_closed_form_profile_equals_interpolation():
    for n in range(2, 26):
        assert closed_form_profile(n).polynomials == _interpolated_columns(n), n


def test_closed_form_profile_of_a_long_sequence_is_fast():
    # A regression alarm, not a benchmark: interpolating the 161 columns in
    # Fractions took about 35 s.
    start = time.perf_counter()
    profile = closed_form_profile(160)
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0, f"took {elapsed:.1f}s"
    assert profile.multiplicities[80] == math.comb(159, 80)
    assert tuple(p(3) for p in profile.polynomials) == closed_form_regular_sequence(160, 3)


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


@pytest.mark.parametrize(
    "error",
    [OSError(28, "No space left on device"), KeyError("x1"), KeyError(3), ValueError("a", 2)],
    ids=["errno", "str-key", "int-key", "two-args"],
)
def test_series_error_keeps_structured_arguments(monkeypatch, error):
    # Only a lone message gets the power's name; any other arguments reach
    # the caller exactly as raised.
    args = error.args

    def broken(ideal, field):
        raise error

    monkeypatch.setattr(asymptotics, "betti_table", broken)
    with pytest.raises(type(error)) as err:
        betti_series(fixture_ideal("maximal2"), 3)
    assert err.value is error and err.value.args == args
    if isinstance(error, OSError):
        assert (err.value.errno, err.value.strerror) == (28, "No space left on device")

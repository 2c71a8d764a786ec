"""Verdict evaluation: statement statuses and replayable witnesses."""
import json
from fractions import Fraction
from math import comb

import pytest

from bettipowers.asymptotics import BettiSeries, KodiyalamProfile, betti_series, kodiyalam_profile
from bettipowers.resolution_engine import RATIONALS, betti_table
from bettipowers.verdicts import (
    ARTINIAN_SPREAD,
    CONJECTURE,
    EULER,
    FAILS,
    HOLDS,
    INCONCLUSIVE,
    LOG_CONCAVITY,
    NOT_APPLICABLE,
    SATISFIED,
    VerdictReport,
    artinian_spread_check,
    conjecture_check,
    corollary_last_check,
    corollary_satisfied_check,
    euler_check,
    full_report,
    log_concavity,
    unimodality,
)

from _fixtures import fixture_ideal


def _profile(multiplicities, ell=2, bigK=None):
    # Synthetic profile carrying only the invariants the comparators read.
    bigK = len(multiplicities) if bigK is None else bigK
    return KodiyalamProfile(
        polynomials=(),
        k0=1,
        apd=len(multiplicities),
        ell=ell,
        bigK=bigK,
        multiplicities=tuple(multiplicities),
        column_thresholds=(),
    )


def _pipeline(name, kmax):
    ideal = fixture_ideal(name)
    series = betti_series(ideal, kmax)
    profile = kodiyalam_profile(series)
    assert isinstance(profile, KodiyalamProfile)
    return ideal, series, profile


def test_log_concavity_statuses():
    assert log_concavity((1, 3, 3, 1)) == ("strict", "strict")
    assert log_concavity((1, 2, 4, 8)) == ("weak", "weak")
    assert log_concavity((1, 1, 3)) == ("fail",)


def test_log_concavity_input_validation():
    with pytest.raises(ValueError):
        log_concavity((1, 2))
    with pytest.raises(ValueError):
        log_concavity((1, -1, 1))


def test_unimodality_shapes():
    assert unimodality((1, 4, 4, 2)) == (True, (1, 2))
    assert unimodality((2, 2, 2)) == (True, (0, 2))
    assert unimodality((5,)) == (True, (0, 0))
    assert unimodality((1, 3, 2, 3)) == (False, None)
    assert unimodality((3, 1, 2)) == (False, None)
    with pytest.raises(ValueError):
        unimodality(())


def test_euler_check_statuses():
    entry = euler_check((1, 3, 3, 1))
    assert entry.status == HOLDS
    assert entry.witness["alternating_sum"] == 0
    entry = euler_check((1, 2, 2))
    assert entry.status == FAILS
    assert entry.witness["alternating_sum"] == 1


def test_conjecture_equality_everywhere():
    entry = conjecture_check(_profile((1, 1)))
    assert entry.status == HOLDS
    assert entry.witness["equality_everywhere"] is True
    assert entry.witness["bounds"] == [1, 1]


def test_conjecture_holds_with_strict_excess():
    entry = conjecture_check(_profile((1, 3, 1), ell=3))
    assert entry.status == HOLDS
    assert entry.witness["comparisons"] == ["equal", "greater", "equal"]
    assert entry.witness["equality_everywhere"] is False


def test_conjecture_fails_below_bound():
    entry = conjecture_check(_profile((2, 1, 2), ell=3))
    assert entry.status == FAILS
    assert entry.witness["ratios"] == ["1", "1/2", "1"]
    assert entry.witness["comparisons"] == ["equal", "less", "equal"]


def test_conjecture_principal_not_applicable():
    _, _, profile = _pipeline("principal", 4)
    assert profile.ell == 1
    assert conjecture_check(profile).status == NOT_APPLICABLE


def test_satisfied_holds_on_square_of_maximal():
    ideal, series, profile = _pipeline("msquare2", 6)
    entry = corollary_satisfied_check(ideal, betti_table(ideal), profile)
    assert entry.status == HOLDS
    witness = entry.witness
    assert witness["single_degree"] == 2
    assert witness["artinian"] is True
    assert witness["linear_relations"] is True
    assert witness["equality_case"] is True
    assert witness["max_spread"] is True
    assert witness["conclusion_holds"] is True


def test_satisfied_not_applicable_without_artinian():
    # The graph ideal meets the equality case even though the preconditions
    # fail, and the witness keeps both facts separate.
    ideal, series, profile = _pipeline("edges5", 6)
    entry = corollary_satisfied_check(ideal, betti_table(ideal), profile)
    assert entry.status == NOT_APPLICABLE
    witness = entry.witness
    assert witness["artinian"] is False
    assert witness["linear_relations"] is False
    assert witness["equality_case"] is True
    assert witness["max_spread"] is False
    assert witness["conclusion_holds"] is False


def test_satisfied_not_applicable_with_mixed_degrees():
    ideal, series, profile = _pipeline("purepowers2", 6)
    entry = corollary_satisfied_check(ideal, betti_table(ideal), profile)
    assert entry.status == NOT_APPLICABLE
    witness = entry.witness
    assert witness["single_degree"] is None
    assert witness["linear_relations"] is None
    assert witness["conclusion_holds"] is True


def test_artinian_spread_statuses():
    ideal, _, profile = _pipeline("maximal2", 5)
    assert artinian_spread_check(ideal, profile).status == HOLDS
    edges = fixture_ideal("edges5")
    assert artinian_spread_check(edges, _profile((1, 2, 1), ell=3)).status == NOT_APPLICABLE
    # Synthetic profile with a short spread exercises the failure branch.
    entry = artinian_spread_check(ideal, _profile((1,), ell=2, bigK=1))
    assert entry.status == FAILS
    assert entry.witness["bigK"] == 1


def test_corollary_last_holds_when_applicable():
    ideal, series, profile = _pipeline("maximal3", 6)
    entry = corollary_last_check(series, profile, applicable=True)
    assert entry.status == HOLDS
    assert entry.witness["k"] == 6
    assert entry.witness["row"] == [1, 28, 48, 21]
    assert entry.witness["statuses"] == ["strict", "strict"]
    assert entry.witness["unimodal"] is True
    assert entry.witness["peak_interval"] == [2, 2]


def test_corollary_last_inconclusive_before_strictness():
    # The claim has no effective bound, so an applicable ideal whose last
    # computed row is only weakly log-concave stays inconclusive.
    ideal = fixture_ideal("msquare2")
    _, _, profile = _pipeline("msquare2", 6)
    series = BettiSeries(ideal, RATIONALS, 1, ((1, 2, 4),), betti_table(ideal))
    entry = corollary_last_check(series, profile, applicable=True)
    assert entry.status == INCONCLUSIVE
    assert entry.witness["statuses"] == ["weak"]


def test_corollary_last_informational_without_preconditions():
    ideal, series, profile = _pipeline("edges5", 6)
    entry = corollary_last_check(series, profile, applicable=False)
    assert entry.status == NOT_APPLICABLE
    assert entry.witness["row"] == [1, 28, 48, 21, 0, 0]
    assert entry.witness["statuses"] == ["strict", "strict", "strict", "weak"]


def test_corollary_last_principal_trivial():
    _, series, profile = _pipeline("principal", 4)
    entry = corollary_last_check(series, profile)
    assert entry.status == NOT_APPLICABLE
    assert "reason" in entry.witness


def test_full_report_statuses_and_lookup():
    _, series, profile = _pipeline("msquare2", 6)
    report = full_report(series, profile)
    assert report.statuses() == {
        CONJECTURE: HOLDS,
        SATISFIED: HOLDS,
        LOG_CONCAVITY: HOLDS,
        EULER: HOLDS,
        ARTINIAN_SPREAD: HOLDS,
    }
    assert report.entry(EULER).witness["row"] == list(series.rows[-1])
    with pytest.raises(KeyError):
        report.entry("no-such-statement")


def test_full_report_witnesses_replay():
    _, series, profile = _pipeline("maximal3", 6)
    report = full_report(series, profile)
    witness = report.entry(CONJECTURE).witness
    k1 = profile.multiplicities[0]
    ratios = [Fraction(ki, k1) for ki in profile.multiplicities]
    bounds = [comb(profile.bigK - 1, i - 1) for i in range(1, profile.bigK + 1)]
    replayed = [
        "greater" if r > b else ("equal" if r == b else "less")
        for r, b in zip(ratios, bounds)
    ]
    assert witness["comparisons"] == replayed
    assert witness["bounds"] == bounds
    # Applicability of the log-concavity statement is inherited from the
    # equality-case preconditions.
    assert report.entry(LOG_CONCAVITY).witness["applicable"] is True


def test_report_json_serializable():
    ideal, series, profile = _pipeline("maximal2", 5)
    report = full_report(series, profile)
    payload = json.loads(json.dumps(report.to_json(), sort_keys=True))
    assert payload["ideal"] == str(ideal)
    ids = [s["id"] for s in payload["statements"]]
    assert ids == [CONJECTURE, SATISFIED, LOG_CONCAVITY, EULER, ARTINIAN_SPREAD]
    assert all(set(s) == {"id", "status", "witness"} for s in payload["statements"])

"""Scan-level behavior: the finding pipeline on genuine violations and the
exhaustive cleanliness of the squarefree class in three variables.

The multiplicity bound k_i/k_1 >= C(bigK-1, i-1) is not a theorem for ideals
with mixed generator degrees, and the uniform-exponent generator model does
sample violating ideals once exponents above 1 are allowed.  Two such ideals
are pinned here as positive controls for the finding machinery.  The
acceptance scan runs over the squarefree box, whose entire population is
checked statement-by-statement below, so its zero-findings assertion is a
property of the class and not of a particular seed.
"""
from __future__ import annotations

import itertools
from fractions import Fraction

from bettipowers import asymptotics
from bettipowers.asymptotics import (
    KodiyalamProfile,
    betti_series,
    kodiyalam_profile,
)
from bettipowers.monomial_core import MonomialIdeal
from bettipowers.resolution_engine import RATIONALS, EngineInvariantError, ResourceLimitError
from bettipowers.scan import ScanParameters, scan_record
from bettipowers.verdicts import FAILS, HOLDS, conjecture_check, full_report

VARS3 = ("x", "y", "z")


def _pipeline(generators, kmax=9):
    ideal = MonomialIdeal.from_generators(VARS3, generators)
    series = betti_series(ideal, kmax, RATIONALS)
    profile = kodiyalam_profile(series, guard=3)
    assert isinstance(profile, KodiyalamProfile)
    return ideal, series, profile


def test_squarefree_population_exhaustively_clean():
    vectors = [v for v in itertools.product((0, 1), repeat=3) if any(v)]
    seen = {}
    for r in range(1, len(vectors) + 1):
        for combo in itertools.combinations(vectors, r):
            ideal = MonomialIdeal.from_generators(VARS3, combo)
            seen.setdefault(ideal.generators, ideal)
    assert len(seen) == 18
    equality_cases = {}
    for gens, ideal in sorted(seen.items()):
        series = betti_series(ideal, 9, RATIONALS)
        profile = kodiyalam_profile(series, guard=3)
        assert isinstance(profile, KodiyalamProfile), gens
        report = full_report(series, profile)
        failed = [e.statement for e in report.entries if e.status == FAILS]
        assert failed == [], (gens, failed)
        if profile.ell >= 2:
            entry = conjecture_check(profile)
            assert entry.status == HOLDS, gens
            if entry.witness["equality_everywhere"]:
                equality_cases[gens] = profile.multiplicities
    # The variable ideal and the triangle ideal meet the bound exactly.
    assert equality_cases[((0, 0, 1), (0, 1, 0), (1, 0, 0))] == (1, 2, 1)
    assert equality_cases[((0, 1, 1), (1, 0, 1), (1, 1, 0))] == (1, 2, 1)


def test_minimal_mixed_degree_ideal_fails_multiplicity_bound():
    # (x^2, y^2, xyz): mu(I^k) = 2k+1 because any term with two or more xyz
    # factors already lies in (x^2)(y^2) times a monomial, so the fitted
    # first polynomial has degree 1 and ell = 2, while the top Betti number
    # still grows linearly, giving bigK = 3 and bounds (1, 2, 1).
    _, series, profile = _pipeline([(2, 0, 0), (0, 2, 0), (1, 1, 1)])
    for k, row in enumerate(series.rows, start=1):
        assert row == (1, 2 * k + 1, 3 * k, k)
        assert sum((-1) ** i * b for i, b in enumerate(row)) == 0
    assert (profile.ell, profile.bigK, profile.multiplicities) == (2, 3, (2, 3, 1))
    entry = conjecture_check(profile)
    assert entry.status == FAILS
    assert entry.witness["ratios"] == ["1", "3/2", "1/2"]
    assert entry.witness["bounds"] == [1, 2, 1]
    assert entry.witness["comparisons"] == ["equal", "less", "less"]
    assert [Fraction(r) for r in entry.witness["ratios"]] == [
        Fraction(1), Fraction(3, 2), Fraction(1, 2)
    ]


def test_scan_emits_replayable_finding_for_violating_record():
    params = ScanParameters(nvars=3, ngens=4, max_exp=2, count=100, seed=1)
    record = scan_record(params, 45)
    assert record.generators == ((0, 2, 0), (2, 0, 0), (1, 1, 1))
    kinds = [f["kind"] for f in record.findings]
    assert kinds == ["multiplicity-binomial-bound-violation"]
    finding = record.findings[0]
    assert finding["index"] == 45 and finding["seed"] == 1
    assert finding["generators"] == [[0, 2, 0], [2, 0, 0], [1, 1, 1]]
    # Replay from the finding alone and reproduce the verdict.
    _, _, profile = _pipeline(finding["generators"], kmax=record.kmax)
    replayed = conjecture_check(profile)
    assert replayed.status == FAILS
    assert replayed.witness["ratios"] == finding["witness"]["ratios"]


def test_wider_box_counterexample_is_detected():
    params = ScanParameters(nvars=3, ngens=4, max_exp=4, count=100, seed=1)
    record = scan_record(params, 23)
    assert record.generators == ((2, 0, 0), (0, 4, 0), (1, 2, 3))
    assert [f["kind"] for f in record.findings] == [
        "multiplicity-binomial-bound-violation"
    ]
    _, series, profile = _pipeline(record.generators, kmax=12)
    for k, row in enumerate(series.rows, start=1):
        assert row == (1, 2 * k + 1, 3 * k, k)
    assert (profile.ell, profile.bigK, profile.multiplicities) == (2, 3, (2, 3, 1))


def test_artinian_scan_records_reach_full_spread():
    params = ScanParameters(
        nvars=3, ngens=2, max_exp=1, count=4, seed=5, artinian=True
    )
    for index in range(params.count):
        record = scan_record(params, index)
        assert record.findings == []
        assert record.profile["status"] == "ok"
        assert record.profile["bigK"] == 3
        assert record.verdicts["multiplicity-binomial-bound"] == "holds"
        assert record.verdicts["artinian-max-spread"] == "holds"


def test_engine_faults_become_findings_and_limits_get_their_own_status(monkeypatch):
    params = ScanParameters(nvars=3, ngens=4, max_exp=1, count=1, seed=1)

    def broken(I, F):
        raise EngineInvariantError("beta_1 = 0 disagrees with 4 minimal generators")

    monkeypatch.setattr(asymptotics, "betti_table", broken)
    record = scan_record(params, 0)
    assert record.profile["status"] == "error"
    assert [f["kind"] for f in record.findings] == ["engine-invariant"]
    finding = record.findings[0]
    assert "beta_1 = 0" in finding["message"]
    assert finding["generators"] == [list(g) for g in record.generators]

    def too_big(I, F):
        raise ResourceLimitError("lcm lattice exceeds cap of 3 elements")

    monkeypatch.setattr(asymptotics, "betti_table", too_big)
    record = scan_record(params, 0)
    assert record.profile["status"] == "resource-limit"
    assert "cap of 3" in record.profile["error"]
    assert record.findings == []

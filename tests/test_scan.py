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

import io
import itertools
from fractions import Fraction

import pytest

from bettipowers import asymptotics, scan
from bettipowers.asymptotics import (
    KodiyalamProfile,
    betti_series,
    kodiyalam_profile,
)
from bettipowers.monomial_core import MonomialIdeal
from bettipowers.resolution_engine import (
    RATIONALS,
    CoefficientField,
    EngineInvariantError,
    ResourceLimitError,
)
from bettipowers.scan import ScanParameters, run_scan, scan_record, write_jsonl
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


def test_unexpected_engine_errors_propagate(monkeypatch):
    # Only the limit and the invariant errors become records; any other
    # exception is a fault in the package and must not turn into one.
    params = ScanParameters(nvars=3, ngens=4, max_exp=1, count=1, seed=1)

    def faulty(I, F):
        raise ZeroDivisionError("division by zero")

    monkeypatch.setattr(asymptotics, "betti_table", faulty)
    with pytest.raises(ZeroDivisionError, match="power k=1: division by zero"):
        scan_record(params, 0)


def _jsonl(records) -> list[str]:
    stream = io.StringIO()
    write_jsonl(iter(records), stream)
    return stream.getvalue().splitlines()


def _first_repeat(params: ScanParameters) -> tuple:
    """The generators of the first ideal the scan draws more than once."""
    seen = set()
    for index in range(params.count):
        generators = scan._record_ideal(params, index).generators
        if generators in seen:
            return generators
        seen.add(generators)
    raise AssertionError("no repeated ideal")


def _classes(params: ScanParameters) -> dict:
    """The generators of each draw, in draw order, under their memo key."""
    classes = {}
    for index in range(params.count):
        generators = scan._record_ideal(params, index).generators
        classes.setdefault(scan._relabelled(generators), []).append(generators)
    return classes


def _assert_reuse_is_exact(params: ScanParameters, records: list) -> None:
    # A record reused for a relabelled or repeated ideal is its key's first
    # record under its own index and generators, and shares no mutable part
    # with the records before it.
    assert _jsonl(records) == _jsonl(scan_record(params, i) for i in range(params.count))
    first = {}
    for record in records:
        earlier = first.setdefault(scan._relabelled(record.generators), record)
        if earlier is record:
            continue
        for name in ("profile", "verdicts", "findings"):
            assert getattr(record, name) is not getattr(earlier, name)
        assert all(a is not b for a in record.findings for b in earlier.findings)
        assert all(f["generators"] == [list(g) for g in record.generators]
                   for f in record.findings)


@pytest.mark.parametrize(
    "max_exp, count, seed", [(1, 100, 1), (1, 100, 2), (1, 100, 3), (2, 80, 10)]
)
def test_scan_reuses_repeats_exactly(max_exp, count, seed):
    # The mixed-degree box at seed 10 draws a violating ideal at 58 and
    # again at 79.
    params = ScanParameters(3, 4, max_exp, count=count, seed=seed)
    records = list(run_scan(params))
    _assert_reuse_is_exact(params, records)
    if max_exp == 2:
        record = records[79]
        assert record.generators == ((0, 0, 2), (1, 2, 0), (2, 1, 1))
        assert record.findings and all(f["index"] == 79 for f in record.findings)


@pytest.mark.parametrize(
    "nvars, ngens, max_exp, count, seed, options",
    [
        (3, 4, 1, 100, 4, {"field": CoefficientField(2)}),
        (3, 4, 2, 100, 1, {}),
        (4, 5, 1, 100, 1, {}),
        (3, 3, 3, 100, 1, {}),
        (2, 3, 3, 100, 1, {"artinian": True}),
        (5, 5, 1, 30, 1, {}),
    ],
    ids=["sqfree3-f2", "exp2", "vars4", "exp3", "artinian2", "vars5"],
)
def test_scan_matches_memo_free_records(monkeypatch, nvars, ngens, max_exp, count, seed, options):
    # With test_scan_reuses_repeats_exactly these cover square-free,
    # mixed-degree, wider and Artinian boxes, F_2, and 2 to 5 variables; each
    # relabelling class is computed once.
    params = ScanParameters(nvars, ngens, max_exp, count=count, seed=seed, **options)
    calls = _counting_series(monkeypatch)
    records = list(run_scan(params))
    assert len(calls) == len(set(calls)) == len(_classes(params))
    _assert_reuse_is_exact(params, records)


def test_scan_reuses_findings_under_relabellings(monkeypatch):
    # (x^2, y^2, xyz) fails the multiplicity bound; the scan draws it under
    # three labellings, one of them twice, and computes it once.
    draws = [
        ((2, 0, 0), (0, 2, 0), (1, 1, 1)),
        ((2, 0, 0), (0, 0, 2), (1, 1, 1)),
        ((0, 2, 0), (0, 0, 2), (1, 1, 1)),
        ((2, 0, 0), (0, 0, 2), (1, 1, 1)),
    ]
    monkeypatch.setattr(
        scan, "_record_ideal", lambda params, index: MonomialIdeal.from_generators(
            ("x1", "x2", "x3"), draws[index]
        )
    )
    params = ScanParameters(3, 3, 2, count=len(draws), seed=1)
    calls = _counting_series(monkeypatch)
    records = list(run_scan(params))
    assert len(calls) == 1
    _assert_reuse_is_exact(params, records)
    for record in records:
        assert [f["kind"] for f in record.findings] == ["multiplicity-binomial-bound-violation"]
        assert set(record.generators) == set(draws[record.index])


def _injected(monkeypatch, hit, error, message=lambda I: "injected failure") -> list:
    # betti_table raises error on the ideals hit selects (only k=1 reaches
    # it); returns the generators it raised on.
    real = asymptotics.betti_table
    raised = []

    def failing(I, F):
        if hit(I.generators):
            raised.append(I.generators)
            raise error(message(I))
        return real(I, F)

    monkeypatch.setattr(asymptotics, "betti_table", failing)
    return raised


@pytest.mark.parametrize(
    "error, status, kinds",
    [
        (ResourceLimitError, "resource-limit", []),
        (EngineInvariantError, "error", ["engine-invariant"]),
    ],
    ids=["resource-limit", "engine-invariant"],
)
def test_scan_reuses_in_place_failures(monkeypatch, error, status, kinds):
    params = ScanParameters(3, 4, 1, count=100, seed=1)
    classes = _classes(params)
    if error is ResourceLimitError:
        # A real limit does not depend on the labelling: fail the whole class
        # with the most labellings, which the scan computes once.
        key = max(classes, key=lambda k: len(set(classes[k])))
        assert len(set(classes[key])) >= 2

        def hit(generators):
            return scan._relabelled(generators) == key
    else:
        # An engine fault is reused for exact repeats only, so the target is
        # the first draw of its class and is drawn again.
        target = next(d[0] for d in classes.values() if d.count(d[0]) >= 2)

        def hit(generators):
            return generators == target

    raised = _injected(monkeypatch, hit, error)
    records = list(run_scan(params))
    assert len(raised) == 1
    assert _jsonl(records) == _jsonl(scan_record(params, i) for i in range(100))
    hits = [r for r in records if hit(r.generators)]
    assert len(hits) >= 2
    for record in hits:
        assert record.profile["status"] == status
        assert [f["kind"] for f in record.findings] == kinds
        assert all(f["index"] == record.index for f in record.findings)


def test_scan_recomputes_engine_faults_per_labelling(monkeypatch):
    # A fault whose message names the ideal, on every labelling of one class:
    # each labelling is computed once and keeps its own message, and exact
    # repeats reuse its record.
    params = ScanParameters(3, 4, 1, count=100, seed=1)
    classes = _classes(params)
    key = max(classes, key=lambda k: len(set(classes[k])))
    draws = classes[key]
    raised = _injected(
        monkeypatch,
        lambda generators: scan._relabelled(generators) == key,
        EngineInvariantError,
        lambda I: f"injected fault at {I.generators}",
    )
    records = list(run_scan(params))
    assert sorted(raised) == sorted(set(draws))
    assert 2 <= len(raised) < len(draws)
    assert _jsonl(records) == _jsonl(scan_record(params, i) for i in range(100))
    hits = [r for r in records if r.generators in raised]
    assert len(hits) == len(draws)
    for record in hits:
        assert record.profile == {
            "status": "error",
            "error": f"EngineInvariantError: power k=1: injected fault at {record.generators}",
        }
        [finding] = record.findings
        assert finding["kind"] == "engine-invariant" and finding["index"] == record.index
        assert finding["generators"] == [list(g) for g in record.generators]
        assert str(record.generators) in finding["message"]


def _counting_series(monkeypatch) -> list:
    calls = []
    real = scan.betti_series

    def counted(I, kmax, F):
        calls.append(I.generators)
        return real(I, kmax, F)

    monkeypatch.setattr(scan, "betti_series", counted)
    return calls


def test_scan_computes_each_distinct_ideal_once(monkeypatch):
    params = ScanParameters(3, 4, 1, count=100, seed=1)
    calls = _counting_series(monkeypatch)
    list(run_scan(params))
    # 14 distinct ideals fall into 6 relabelling classes, each computed once.
    classes = _classes(params)
    assert sum(len(set(draws)) for draws in classes.values()) == 14
    assert len(calls) == len(set(calls)) == len(classes) == 6
    assert len({scan._relabelled(c) for c in calls}) == 6
    # Edits to a yielded record do not reach the later repeats of its ideal.
    target = _first_repeat(params)
    stream = run_scan(params)
    for record in stream:
        if record.generators == target:
            record.profile.clear()
            record.verdicts.clear()
            break
    rest = list(stream)
    assert _jsonl(rest) == _jsonl(scan_record(params, r.index) for r in rest)


def test_scan_draws_each_ideal_once(monkeypatch):
    # run_scan hands each drawn ideal to the record it computes, so a
    # first-seen ideal is not drawn a second time.
    params = ScanParameters(3, 4, 1, count=100, seed=1)
    draws = []
    real = scan._record_ideal

    def counted(params, index):
        draws.append(index)
        return real(params, index)

    monkeypatch.setattr(scan, "_record_ideal", counted)
    list(run_scan(params))
    assert draws == list(range(100))


def test_scan_computes_its_records_with_scan_record(monkeypatch):
    # run_scan builds each record it computes with scan_record, handing it
    # the ideal it drew, so a counting wrapper (as the benchmark's tracer
    # installs) sees the seed-1 scan's 6 relabelling classes.
    params = ScanParameters(3, 4, 1, count=100, seed=1)
    calls = []
    real = scan.scan_record

    def counted(params, index, ideal=None):
        calls.append(ideal)
        return real(params, index, ideal)

    monkeypatch.setattr(scan, "scan_record", counted)
    records = list(run_scan(params))
    assert len(calls) == 6 and None not in calls
    assert len({scan._relabelled(r.generators) for r in records}) == 6


def test_scan_serializes_each_outcome_once(monkeypatch):
    # The seed-1 scan's 94 repeats are parsed from the text each of its 6
    # memo entries stored when it was computed, not serialized again.
    params = ScanParameters(3, 4, 1, count=100, seed=1)
    dumped = []
    real = scan.json.dumps

    def counted(obj, *args, **kwargs):
        dumped.append(obj)
        return real(obj, *args, **kwargs)

    monkeypatch.setattr(scan.json, "dumps", counted)
    records = list(run_scan(params))
    assert len(records) == 100
    assert len(dumped) == len(_classes(params)) == 6


def test_scan_memo_cap_keeps_output(monkeypatch):
    params = ScanParameters(3, 4, 1, count=100, seed=1)
    monkeypatch.setattr(scan, "SCAN_MEMO_CAP", 2)
    calls = _counting_series(monkeypatch)
    records = list(run_scan(params))
    keys = [scan._relabelled(r.generators) for r in records]
    kept = list(dict.fromkeys(keys))[:2]
    assert len(calls) == 2 + sum(key not in kept for key in keys)
    assert _jsonl(records) == _jsonl(scan_record(params, i) for i in range(100))

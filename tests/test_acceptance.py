"""Acceptance suite: end-to-end checks of the full pipeline on the fixtures.

Each test prints one PASS line on success; tolerances and runtime budgets
are pinned as constants.  Profiles are cached per fixture so the expensive
series are computed once.
"""
import hashlib
import json
import time
from fractions import Fraction
from functools import lru_cache

import numpy as np

from bettipowers.asymptotics import (
    KodiyalamProfile,
    betti_series,
    closed_form_profile,
    closed_form_regular_sequence,
    default_kmax,
    kodiyalam_profile,
)
from bettipowers.cli import main as cli_main
from bettipowers.monomial_core import parse_ideal, power, socle_dimension
from bettipowers.polynomials import RationalPolynomial
from bettipowers.resolution_engine import (
    RATIONALS,
    CoefficientField,
    betti_table,
    betti_totals,
    taylor_betti,
)
from bettipowers.spectra import betti_polynomial_at
from bettipowers.verdicts import conjecture_check

from _fixtures import FIXTURE_DIR, fixture_ideal
from _limit_theorem import verify_limit_theorem

RESIDUAL_TOL = 1e-10
TREND_SLACK = 1e-12
GF2 = CoefficientField.parse("2")

# Smallest windows at which every column certifies with the default guard.
KMAX = {
    "maximal2": 8,
    "principal": 6,
    "purepowers2": 8,
    "msquare2": 8,
    "purepowers3": 8,
    "maximal3": 9,
    "mixed6": 8,
    "edges5": 8,
}

# The fixtures that contain a pure power of every variable.
ARTINIAN = ("maximal2", "purepowers2", "msquare2", "purepowers3", "maximal3", "artinian4")


@lru_cache(maxsize=None)
def _profile(name: str):
    ideal = fixture_ideal(name)
    series = betti_series(ideal, KMAX[name])
    profile = kodiyalam_profile(series)
    assert isinstance(profile, KodiyalamProfile), f"{name} did not stabilize"
    return series, profile


def _scaled_residual(coeffs, z: complex) -> float:
    # Backward error |p(z)| / sum |c_i||z|^i, through the reversed
    # polynomial for |z| > 1 so the escape root does not overflow.
    c = np.array([float(v) for v in coeffs])
    c = c / c[-1]
    if abs(z) <= 1.0:
        return float(abs(np.polyval(c[::-1], z)) / np.polyval(np.abs(c[::-1]), abs(z)))
    w = 1.0 / z
    return float(abs(np.polyval(c, w)) / np.polyval(np.abs(c), abs(w)))


def test_showcase_profile_exact_polynomials(capsys):
    _, profile = _profile("mixed6")
    expected = (
        RationalPolynomial.constant(1),
        RationalPolynomial.from_coefficients([-7, 4, 3]),
        RationalPolynomial.from_coefficients([-7, 3, 6]),
        RationalPolynomial.from_coefficients([5, -1, 3]),
        RationalPolynomial.constant(5),
        RationalPolynomial.constant(1),
        RationalPolynomial.zero(),
    )
    assert profile.polynomials == expected
    assert profile.apd == 5
    assert profile.ell == 3
    assert profile.bigK == 3
    with capsys.disabled():
        print("\nPASS: 7-generator showcase stabilizes to the exact quadratics "
              "with apd=5, ell=3, K=3")


def test_graph_ideal_profile_and_equality(capsys):
    start = time.perf_counter()
    _, profile = _profile("edges5")
    expected = (
        RationalPolynomial.constant(1),
        RationalPolynomial.from_coefficients([1, Fraction(3, 2), Fraction(1, 2)]),
        RationalPolynomial.from_coefficients([0, 2, 1]),
        RationalPolynomial.from_coefficients([0, Fraction(1, 2), Fraction(1, 2)]),
        RationalPolynomial.zero(),
        RationalPolynomial.zero(),
    )
    assert profile.polynomials == expected
    assert profile.multiplicities == (1, 2, 1)
    entry = conjecture_check(profile)
    assert entry.status == "holds"
    assert entry.witness["equality_everywhere"] is True
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    with capsys.disabled():
        print(f"\nPASS: graph ideal fits (k^2/2+3k/2+1, k^2+2k, k^2/2+k/2), "
              f"multiplicities (1,2,1), equality case, in {elapsed:.1f}s")


def test_mixed_degree_artinian_fails_the_binomial_bound(capsys):
    # A mixed-degree Artinian ideal whose multiplicities (5, 9, 4) fall below
    # the binomial bounds C(2, i-1) at i = 2, 3.  The totals are checked
    # against an independent count: for Artinian S/I^k in three variables,
    # beta_1 = mu(I^k), beta_3 = the socle dimension, and the Euler sum gives
    # beta_2 = beta_1 + beta_3 - 1.
    ideal = fixture_ideal("art3mixed")
    series = betti_series(ideal, default_kmax(ideal))
    profile = kodiyalam_profile(series)
    assert isinstance(profile, KodiyalamProfile)
    assert (profile.k0, profile.ell, profile.bigK) == (1, 3, 3)
    assert profile.polynomials == (
        RationalPolynomial.constant(1),
        RationalPolynomial.from_coefficients([1, Fraction(7, 2), Fraction(5, 2)]),
        RationalPolynomial.from_coefficients([0, Fraction(11, 2), Fraction(9, 2)]),
        RationalPolynomial.from_coefficients([0, 2, 2]),
    )
    assert profile.multiplicities == (5, 9, 4)
    entry = conjecture_check(profile)
    assert entry.status == "fails"
    assert entry.witness["comparisons"] == ["equal", "less", "less"]
    expected = {1: (1, 7, 10, 4), 2: (1, 18, 29, 12), 5: (1, 81, 140, 60)}
    for k, totals in expected.items():
        ideal_k = power(ideal, k)
        mu, socle = len(ideal_k.generators), socle_dimension(ideal_k)
        assert (1, mu, mu + socle - 1, socle) == totals, k
        assert betti_totals(ideal_k) == totals == series.rows[k - 1], k
        assert tuple(p(k) for p in profile.polynomials) == totals, k
    with capsys.disabled():
        print("\nPASS: mixed-degree Artinian ideal fits multiplicities (5,9,4), "
              "fails the binomial bound, and matches the independent count")


def test_regular_sequence_closed_form(capsys):
    for name, n in (("maximal2", 2), ("purepowers3", 3)):
        ideal = fixture_ideal(name)
        for k in range(1, 7):
            engine = betti_table(power(ideal, k)).totals
            closed = closed_form_regular_sequence(n, k)
            assert engine == closed, (name, k, engine, closed)
    with capsys.disabled():
        print("\nPASS: engine matches the closed form for regular sequences "
              "n in {2,3}, k <= 6")


def test_minus_one_root_and_alternating_sum(capsys):
    checked = 0
    for name in KMAX:
        _, profile = _profile(name)
        if profile.ell < 2:
            continue
        alt = sum((-1) ** i * m for i, m in enumerate(profile.multiplicities, start=1))
        assert alt == 0, name
        for k in range(profile.k0, KMAX[name] + 1):
            value = betti_polynomial_at(profile, k)(Fraction(-1))
            assert value == 0, (name, k, value)
            checked += 1
    assert checked > 0
    with capsys.disabled():
        print(f"\nPASS: P(k,-1) = 0 exactly at {checked} stabilized (ideal, k) "
              f"pairs, and every alternating multiplicity sum vanishes")


def test_large_scale_root_locus(capsys):
    start = time.perf_counter()
    profile = closed_form_profile(20)
    report = verify_limit_theorem(profile, range(1, 41), sample_ks=(20, 25, 30, 35, 40))
    elapsed = time.perf_counter() - start
    locus = report.locus
    for k in range(1, 41):
        roots = locus.roots[k]
        assert len(roots) == 20
        poly = betti_polynomial_at(profile, k)
        worst = max(_scaled_residual(poly.coefficients, z) for z in roots)
        assert worst <= RESIDUAL_TOL, (k, worst)
        real = sum(1 for z in roots if z.imag == 0.0)
        assert real in (2, 3), (k, real)
    sampled = [report.max_bounded_distance[k] for k in (20, 25, 30, 35, 40)]
    for a, b in zip(sampled, sampled[1:]):
        assert b <= a + TREND_SLACK, sampled
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    with capsys.disabled():
        print(f"\nPASS: n=20, k=1..40 locus has residuals <= 1e-10, real counts "
              f"in {{2,3}}, and max bounded distance {sampled[0]:.3f} -> "
              f"{sampled[-1]:.3f} non-increasing, in {elapsed:.1f}s")


def test_taylor_koszul_oracle_equivalence(capsys):
    pairs = 0
    for path in sorted(FIXTURE_DIR.glob("*.ideal")):
        ideal = parse_ideal(path.read_text())
        assert len(ideal.generators) <= 12
        for field in (RATIONALS, GF2):
            koszul = betti_table(ideal, field).totals
            taylor = taylor_betti(ideal, field)
            assert koszul == taylor, (path.name, str(field), koszul, taylor)
            pairs += 1
    assert pairs > 0
    with capsys.disabled():
        print(f"\nPASS: Taylor and upper-Koszul Betti totals agree on {pairs} "
              f"(ideal, field) pairs across the fixtures")


def test_socle_identity_on_artinian_powers(capsys):
    checked = 0
    for name in ARTINIAN:
        ideal = fixture_ideal(name)
        n = ideal.nvars
        for k in range(1, 5):
            ideal_k = power(ideal, k)
            top = betti_table(ideal_k).totals[n]
            assert top == socle_dimension(ideal_k), (name, k)
            checked += 1
    with capsys.disabled():
        print(f"\nPASS: beta_n(S/I^k) equals the socle dimension at {checked} "
              f"Artinian (ideal, k) pairs")


def test_property_suite_and_deterministic_scan(tmp_path, capsys):
    for name in KMAX:
        series, profile = _profile(name)
        n = series.nvars
        degs = [p.degree for p in profile.polynomials]
        for i in range(1, n):
            assert degs[i] >= degs[i + 1], (name, degs)
        assert all(isinstance(m, int) and m > 0 for m in profile.multiplicities), name
        if name in ARTINIAN:
            assert profile.bigK == n, (name, profile.bigK)
    # The squarefree exponent box is the scan regime whose whole population
    # satisfies every checked inequality (tests/test_scan.py verifies that
    # exhaustively), so zero findings is a fact about the class rather than
    # a property of one lucky sample.  Wider exponent boxes contain genuine
    # violations of the multiplicity bound; those are pinned as positive
    # controls in tests/test_scan.py.
    outputs = []
    for run in range(2):
        out_path = tmp_path / f"scan{run}.jsonl"
        code = cli_main(
            ["scan", "--vars", "3", "--gens", "4", "--max-exp", "1",
             "--count", "100", "--seed", "1", "--out", str(out_path)]
        )
        assert code == 0
        outputs.append(out_path.read_bytes())
    assert outputs[0] == outputs[1], "scan output is not deterministic"
    lines = [json.loads(line) for line in outputs[0].decode().splitlines()]
    records = [r for r in lines if r["type"] == "record"]
    findings = [r for r in lines if r["type"] == "finding"]
    assert len(records) == 100
    assert findings == []
    assert all(r["profile"]["status"] == "ok" for r in records)
    checked = [r for r in records
               if r["verdicts"].get("multiplicity-binomial-bound") == "holds"]
    assert len(checked) >= 50, "scan must exercise the bound on most records"
    with capsys.disabled():
        print("\nPASS: degree chains, integer multiplicities, Artinian max "
              "spread, and a byte-deterministic 100-ideal scan with zero findings")


def test_artinian_scan_in_four_variables(tmp_path, capsys):
    # The Artinian statements at more than the maximal ideal: 20 seeded
    # records, each with the pure powers x_i^3, pinned by digest.  About 4 s
    # on a 2-CPU host; the budget is a regression alarm.
    out_path = tmp_path / "artinian.jsonl"
    start = time.perf_counter()
    code = cli_main(
        ["scan", "--vars", "4", "--gens", "4", "--max-exp", "2", "--artinian",
         "--count", "20", "--seed", "1", "--out", str(out_path)]
    )
    elapsed = time.perf_counter() - start
    assert code == 0
    output = out_path.read_bytes()
    assert hashlib.sha256(output).hexdigest() == (
        "8cec64a3f66f7e3b22f939396914749ae1196a79cee0a27d8547aacdf7afe2c6"
    )
    records = [json.loads(line) for line in output.decode().splitlines()]
    assert len(records) == 20 and all(r["type"] == "record" for r in records)
    assert all(r["verdicts"]["artinian-max-spread"] == "holds" for r in records)
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    with capsys.disabled():
        print(f"\nPASS: 20-record Artinian scan in 4 variables, max spread "
              f"everywhere and zero findings, in {elapsed:.1f}s")


def test_characteristic_dependence_probe(capsys):
    ideal = fixture_ideal("rp2")
    koszul_q = betti_table(ideal, RATIONALS).totals
    koszul_2 = betti_table(ideal, GF2).totals
    taylor_q = taylor_betti(ideal, RATIONALS)
    taylor_2 = taylor_betti(ideal, GF2)
    assert koszul_q == taylor_q
    assert koszul_2 == taylor_2
    assert koszul_q != koszul_2
    code = cli_main(["oracle-check", str(FIXTURE_DIR / "rp2.ideal"), "--fields", "q,2"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0, "characteristic dependence must be a finding, not a failure"
    assert payload["engines_agree"] is True
    kinds = {f["kind"] for f in payload["findings"]}
    assert kinds == {"characteristic-dependence"}
    with capsys.disabled():
        print("\nPASS: triangulated-surface fixture separates the fields "
              "(both engines), reported as a finding with exit 0")

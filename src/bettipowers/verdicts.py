"""Verdict evaluation for the checkable asymptotic statements.

Each check runs in exact arithmetic and returns a VerdictEntry whose witness
data (indices, ratios, per-position statuses) is enough to replay the
comparison.  Statuses: "holds", "fails", "not-applicable", "inconclusive".
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Optional, Sequence

from .asymptotics import BettiSeries, KodiyalamProfile
from .monomial_core import MonomialIdeal, generator_degree_profile, is_artinian
from .polynomials import fraction_str
from .resolution_engine import BettiTable

HOLDS = "holds"
FAILS = "fails"
NOT_APPLICABLE = "not-applicable"
INCONCLUSIVE = "inconclusive"

CONJECTURE = "multiplicity-binomial-bound"
SATISFIED = "single-degree-artinian-equality"
LOG_CONCAVITY = "betti-row-log-concavity"
EULER = "euler-alternating-sum"
ARTINIAN_SPREAD = "artinian-max-spread"


@dataclass(frozen=True)
class VerdictEntry:
    statement: str
    status: str
    witness: dict

    def to_json(self) -> dict:
        return {"id": self.statement, "status": self.status, "witness": self.witness}


@dataclass(frozen=True)
class VerdictReport:
    ideal: str
    entries: tuple[VerdictEntry, ...]

    def entry(self, statement: str) -> VerdictEntry:
        for e in self.entries:
            if e.statement == statement:
                return e
        raise KeyError(statement)

    def statuses(self) -> dict[str, str]:
        return {e.statement: e.status for e in self.entries}

    def to_json(self) -> dict:
        return {"ideal": self.ideal, "statements": [e.to_json() for e in self.entries]}


def conjecture_check(profile: KodiyalamProfile) -> VerdictEntry:
    """Compare each multiplicity ratio k_i/k_1 against C(bigK-1, i-1).

    Holds when every ratio meets the binomial bound; the witness records the
    exact ratios, the bounds, and whether equality holds everywhere.
    """
    if profile.ell < 2:
        return VerdictEntry(
            CONJECTURE, NOT_APPLICABLE, {"reason": "ell < 2 (principal-type profile)"}
        )
    k1 = profile.multiplicities[0]
    ratios = [Fraction(ki, k1) for ki in profile.multiplicities]
    bounds = [comb(profile.bigK - 1, i - 1) for i in range(1, profile.bigK + 1)]
    comparisons = [
        "greater" if r > b else ("equal" if r == b else "less")
        for r, b in zip(ratios, bounds)
    ]
    status = HOLDS if all(c != "less" for c in comparisons) else FAILS
    witness = {
        "bigK": profile.bigK,
        "multiplicities": list(profile.multiplicities),
        "ratios": [fraction_str(r) for r in ratios],
        "bounds": bounds,
        "comparisons": comparisons,
        "equality_everywhere": all(c == "equal" for c in comparisons),
    }
    return VerdictEntry(CONJECTURE, status, witness)


def _has_linear_relations(table: BettiTable, degree: int) -> bool:
    # All first syzygies concentrated in total degree d+1.
    return all(
        sum(a) == degree + 1
        for (i, a), beta in table.entries.items()
        if i == 2 and beta != 0
    )


def corollary_satisfied_check(
    ideal: MonomialIdeal, table: BettiTable, profile: KodiyalamProfile
) -> VerdictEntry:
    """Single-degree Artinian ideals with linear relations force the equality case.

    Preconditions (single generating degree, Artinian quotient, linear first
    syzygies) are decided exactly from the ideal and its k=1 table.  The
    conclusion, k_i/k_1 = C(n-1, i-1) with bigK = n, is evaluated and
    reported even when the preconditions fail.
    """
    n = ideal.nvars
    single, degree = generator_degree_profile(ideal)
    artinian = is_artinian(ideal)
    linear = _has_linear_relations(table, degree) if single else None
    preconditions = bool(single and artinian and linear)
    k1 = profile.multiplicities[0]
    ratios = [Fraction(ki, k1) for ki in profile.multiplicities]
    # The binomial equality is stated against bigK; under the preconditions
    # bigK = n is part of the claim, so both are recorded.
    expected = [Fraction(comb(profile.bigK - 1, i - 1)) for i in range(1, profile.bigK + 1)]
    equality_case = ratios == expected
    conclusion = equality_case and profile.bigK == n
    if preconditions:
        status = HOLDS if conclusion else FAILS
    else:
        status = NOT_APPLICABLE
    witness = {
        "single_degree": degree if single else None,
        "artinian": artinian,
        "linear_relations": linear,
        "preconditions_hold": preconditions,
        "nvars": n,
        "bigK": profile.bigK,
        "ratios": [fraction_str(r) for r in ratios],
        "expected": [fraction_str(e) for e in expected],
        "equality_case": equality_case,
        "max_spread": profile.bigK == n,
        "conclusion_holds": conclusion,
    }
    return VerdictEntry(SATISFIED, status, witness)


def log_concavity(seq: Sequence[int]) -> tuple[str, ...]:
    """Per-interior-position status of a_i^2 vs a_{i-1} a_{i+1}: strict, weak, or fail."""
    if len(seq) < 3:
        raise ValueError("log-concavity needs at least 3 terms")
    if any(v < 0 for v in seq):
        raise ValueError("sequence terms must be non-negative")
    out = []
    for i in range(1, len(seq) - 1):
        lhs = seq[i] * seq[i]
        rhs = seq[i - 1] * seq[i + 1]
        out.append("strict" if lhs > rhs else ("weak" if lhs == rhs else "fail"))
    return tuple(out)


def unimodality(seq: Sequence[int]) -> tuple[bool, Optional[tuple[int, int]]]:
    """Whether the sequence weakly rises then weakly falls, with its peak interval.

    The peak interval (j1, j2) spans the occurrences of the maximum, which
    are contiguous exactly when the sequence is unimodal.
    """
    if not seq:
        raise ValueError("empty sequence")
    i = 0
    while i + 1 < len(seq) and seq[i] <= seq[i + 1]:
        i += 1
    while i + 1 < len(seq) and seq[i] >= seq[i + 1]:
        i += 1
    if i != len(seq) - 1:
        return False, None
    peak = max(seq)
    return True, (seq.index(peak), len(seq) - 1 - seq[::-1].index(peak))


def euler_check(row: Sequence[int]) -> VerdictEntry:
    """Exact alternating sum of a Betti row; zero for any quotient resolution."""
    total = sum((-1) ** i * b for i, b in enumerate(row))
    return VerdictEntry(
        EULER,
        HOLDS if total == 0 else FAILS,
        {"row": list(row), "alternating_sum": total},
    )


def artinian_spread_check(ideal: MonomialIdeal, profile: KodiyalamProfile) -> VerdictEntry:
    """Artinian ideals must attain the maximal spread bigK = n."""
    n = ideal.nvars
    if not is_artinian(ideal):
        return VerdictEntry(ARTINIAN_SPREAD, NOT_APPLICABLE, {"artinian": False})
    status = HOLDS if profile.bigK == n else FAILS
    witness = {
        "artinian": True,
        "nvars": n,
        "bigK": profile.bigK,
        "ell": profile.ell,
        "apd": profile.apd,
    }
    return VerdictEntry(ARTINIAN_SPREAD, status, witness)


def corollary_last_check(
    series: BettiSeries,
    profile: KodiyalamProfile,
    applicable: Optional[bool] = None,
) -> VerdictEntry:
    """Strict log-concavity of the Betti row at the largest computed power.

    The asymptotic claim carries no effective bound, so when it is expected
    (applicable=True, from the single-degree preconditions) but the last row
    is not yet strictly log-concave the verdict is inconclusive rather than
    a failure.  With applicable False or unknown the row statuses are
    reported informationally.
    """
    if profile.ell < 2:
        return VerdictEntry(
            LOG_CONCAVITY, NOT_APPLICABLE, {"reason": "ell < 2 (trivial situation)"}
        )
    k, row = series.kmax, series.rows[-1]
    statuses = log_concavity(row)
    strict = all(s == "strict" for s in statuses)
    modal, peak = unimodality(row)
    if strict and all(v > 0 for v in row) and not modal:
        raise RuntimeError("strictly log-concave positive row must be unimodal")
    if applicable:
        status = HOLDS if strict else INCONCLUSIVE
    else:
        status = NOT_APPLICABLE
    witness = {
        "k": k,
        "row": list(row),
        "statuses": list(statuses),
        "strict_everywhere": strict,
        "unimodal": modal,
        "peak_interval": list(peak) if peak is not None else None,
        "applicable": applicable,
    }
    return VerdictEntry(LOG_CONCAVITY, status, witness)


def full_report(series: BettiSeries, profile: KodiyalamProfile) -> VerdictReport:
    """All statement verdicts for series.ideal, from its series and profile."""
    ideal = series.ideal
    satisfied = corollary_satisfied_check(ideal, series.table, profile)
    entries = (
        conjecture_check(profile),
        satisfied,
        corollary_last_check(
            series, profile, applicable=satisfied.witness["preconditions_hold"]
        ),
        euler_check(series.rows[-1]),
        artinian_spread_check(ideal, profile),
    )
    return VerdictReport(ideal=str(ideal), entries=entries)

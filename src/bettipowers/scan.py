"""Randomized conjecture scans with deterministic, replayable JSONL records.

Each record is generated from (seed, index) alone: the per-record RNG is
random.Random(seed * 1_000_003 + index), so any line of the stream can be
reproduced in isolation.  Violations of the checked statements are emitted
as separate finding records.  Three failures are recorded in place without
aborting the stream: a resource limit, a violated profile invariant and a
violated engine invariant (the last two also as findings).  Any other
exception is a fault and propagates.

Within one scan an ideal is computed once per relabelling of its variables:
permuting them keeps every beta_i(S/I^k), and with the scan's kmax, guard and
field those decide a record but its index, generators and timing.  The memo
key (_relabelled) is itself a relabelling, so a hit is exact; it gets the
first record of its key under its own index and generators (memo bounded by
SCAN_MEMO_CAP keys).  An engine fault's message can name a multidegree, so an
"error" record is reused only for identical generators.  timing_seconds is
the time actually spent on each record, so repeats report about 0.
"""
from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field, replace
from typing import Iterator, Optional, TextIO

from .asymptotics import (
    DEFAULT_GUARD,
    KodiyalamProfile,
    ProfileInvariantError,
    betti_series,
    default_kmax,
    kodiyalam_profile,
    profile_to_json,
)
from .monomial_core import MonomialIdeal
from .resolution_engine import (
    RATIONALS,
    CoefficientField,
    EngineInvariantError,
    ResourceLimitError,
    betti_table,  # unused here, but perfbench/tracer.py wraps it here
)
from .verdicts import FAILS, VerdictReport, full_report

RECORD_SEED_STRIDE = 1_000_003

# Memo keys (relabelling classes, and the ideals of a class whose first
# record is an engine fault) one run_scan call keeps records for (about
# 1.7 KB each in three variables); read at call time.
SCAN_MEMO_CAP = 1024


@dataclass(frozen=True)
class ScanParameters:
    """Generator model: ngens exponent vectors uniform in {0..max_exp}^nvars
    excluding zero, minimalized; artinian additionally prepends every
    x_i^(max_exp+1)."""

    nvars: int
    ngens: int
    max_exp: int
    count: int
    seed: int
    artinian: bool = False
    kmax: Optional[int] = None
    guard: int = DEFAULT_GUARD
    field: CoefficientField = RATIONALS

    def __post_init__(self):
        if min(self.nvars, self.ngens, self.max_exp) < 1 or self.count < 0:
            raise ValueError("scan parameters must be positive (count may be 0)")


@dataclass
class ScanRecord:
    index: int
    seed: int
    params: ScanParameters
    generators: tuple[tuple[int, ...], ...]
    kmax: int
    profile: dict
    verdicts: dict[str, str]
    findings: list[dict] = field(default_factory=list)
    timing: float = 0.0

    def to_json(self, include_timing: bool = False) -> dict:
        out = {
            "type": "record",
            "index": self.index,
            "seed": self.seed,
            "parameters": {
                "nvars": self.params.nvars,
                "ngens": self.params.ngens,
                "max_exp": self.params.max_exp,
                "artinian": self.params.artinian,
            },
            "generators": [list(g) for g in self.generators],
            "field": str(self.params.field),
            "kmax": self.kmax,
            "profile": self.profile,
            "verdicts": self.verdicts,
        }
        if include_timing:
            out["timing_seconds"] = round(self.timing, 6)
        return out


def random_ideal(rng: random.Random, params: ScanParameters) -> MonomialIdeal:
    vectors = []
    if params.artinian:
        e = params.max_exp + 1
        vectors.extend(
            tuple(e if j == i else 0 for j in range(params.nvars))
            for i in range(params.nvars)
        )
    drawn = 0
    while drawn < params.ngens:
        v = tuple(rng.randint(0, params.max_exp) for _ in range(params.nvars))
        if any(v):
            vectors.append(v)
            drawn += 1
    return MonomialIdeal.from_generators(
        tuple(f"x{i + 1}" for i in range(params.nvars)), vectors
    )


def _finding(kind: str, record: ScanRecord, **detail) -> dict:
    # The generators make every finding replayable without its record.
    generators = [list(g) for g in record.generators]
    return {
        "type": "finding",
        "kind": kind,
        "index": record.index,
        "seed": record.seed,
        "generators": generators,
        **detail,
    }


def _record_ideal(params: ScanParameters, index: int) -> MonomialIdeal:
    return random_ideal(random.Random(params.seed * RECORD_SEED_STRIDE + index), params)


def scan_record(
    params: ScanParameters, index: int, ideal: Optional[MonomialIdeal] = None
) -> ScanRecord:
    """Compute one fully deterministic record for (params.seed, index).

    ideal, if given, is the ideal of that record, already drawn.
    """
    if ideal is None:
        ideal = _record_ideal(params, index)
    kmax = params.kmax if params.kmax is not None else default_kmax(ideal)
    record = ScanRecord(
        index=index,
        seed=params.seed,
        params=params,
        generators=ideal.generators,
        kmax=kmax,
        profile={},
        verdicts={},
    )
    start = time.perf_counter()
    try:
        series = betti_series(ideal, kmax, params.field)
        result = kodiyalam_profile(series, guard=params.guard)
        record.profile = profile_to_json(result)
        if isinstance(result, KodiyalamProfile):
            report = full_report(series, result)
            record.verdicts = report.statuses()
            record.findings.extend(_report_findings(report, record))
    except ProfileInvariantError as exc:
        record.profile = {"status": "invariant-error", "message": str(exc)}
        record.findings.append(_finding("invariant-violation", record, message=str(exc)))
    except ResourceLimitError as exc:
        record.profile = {"status": "resource-limit", "error": str(exc)}
    except EngineInvariantError as exc:
        record.profile = {"status": "error", "error": f"{type(exc).__name__}: {exc}"}
        record.findings.append(_finding("engine-invariant", record, message=str(exc)))
    record.timing = time.perf_counter() - start
    return record


def _report_findings(report: VerdictReport, record: ScanRecord) -> list[dict]:
    # A failed statement on a random ideal is a reportable counterexample.
    return [
        _finding(f"{e.statement}-violation", record, statement=e.statement, witness=e.witness)
        for e in report.entries
        if e.status == FAILS
    ]


def _reindexed(record: ScanRecord, index: int, generators: tuple) -> ScanRecord:
    """record's outcome as the record of index and generators, sharing
    nothing mutable with it."""
    start = time.perf_counter()
    # Records are JSON trees, so a JSON round trip copies them whole.
    outcome = json.dumps([record.profile, record.verdicts, record.findings])
    profile, verdicts, findings = json.loads(outcome)
    for finding in findings:
        finding["index"] = index
        finding["generators"] = [list(g) for g in generators]
    copied = replace(
        record, index=index, generators=generators,
        profile=profile, verdicts=verdicts, findings=findings,
    )
    copied.timing = time.perf_counter() - start
    return copied


def _relabelled(generators: tuple) -> tuple:
    # The (degree, lex) sorted generators with the variables sorted by
    # (sorted column, column), re-sorted by (degree, lex).
    columns = sorted(zip(*generators), key=lambda c: (sorted(c), c))
    return tuple(sorted(zip(*columns), key=lambda g: (sum(g), g)))


def run_scan(params: ScanParameters) -> Iterator[ScanRecord]:
    # Records are kept as private copies, so a caller that edits a yielded
    # record cannot change later ones.  A key whose first record is an engine
    # fault keeps each ideal's record under (key, generators).
    memo: dict[tuple, ScanRecord] = {}
    for index in range(params.count):
        ideal = _record_ideal(params, index)
        key = _relabelled(ideal.generators)
        exact = (key, ideal.generators)
        first = memo.get(key)
        if first is not None and first.profile["status"] == "error":
            first = memo.get(exact)
        if first is not None:
            yield _reindexed(first, index, ideal.generators)
            continue
        record = scan_record(params, index, ideal)
        if len(memo) < SCAN_MEMO_CAP:
            kept = _reindexed(record, index, ideal.generators)
            if memo.setdefault(key, kept).profile["status"] == "error":
                memo[exact] = kept
        yield record


def write_jsonl(
    records: Iterator[ScanRecord], stream: TextIO, include_timing: bool = False
) -> tuple[int, int]:
    """Serialize records (and their findings) one JSON object per line.

    Returns (record_count, finding_count).  Output is byte-deterministic
    unless include_timing is set.
    """
    n_records = n_findings = 0
    for record in records:
        stream.write(json.dumps(record.to_json(include_timing), sort_keys=True) + "\n")
        n_records += 1
        for finding in record.findings:
            stream.write(json.dumps(finding, sort_keys=True) + "\n")
            n_findings += 1
    return n_records, n_findings

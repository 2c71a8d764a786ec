"""Output checks for the benchmark workloads.

Each check takes the exact text a workload's CLI call wrote and returns a
`Verdict`: how many units of work the output holds, how many of them are
wrong, and why.  A unit is one power's Betti row (profile), one k of the
locus (roots), one scan record (scan) or one field x power comparison
(oracle).  Checks run outside every timed region.

References were generated from the program itself and are stored under
reference/: the exact outputs, their SHA-256 digests, and the exact counts a
traced run must repeat.
"""
from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
ROOT_TOLERANCE = 1e-6  # |z - z_ref| <= ROOT_TOLERANCE * (1 + |z_ref|)
RESIDUAL_GATE = 1e-10
REGSEQ_N, REGSEQ_KMAX = 20, 20
PROFILE_KMAX = 8
SCAN_COUNT = 100
SCAN_REPLAYS = 3
# The reference output of each workload's timed CLI call.
REFERENCE_FILES = {
    "profile-mixed6": "profile-mixed6.json",
    "roots-regseq20": "roots-regseq20.csv",
    "scan-sqfree3": "scan-sqfree3-seed1.jsonl",
    "oracle-rp2": "oracle-rp2.json",
}


@dataclass
class Verdict:
    units: int
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def fail(self, units: int, problem: str) -> None:
        self.failed = min(self.units, self.failed + units)
        self.problems.append(problem)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_reference() -> dict:
    return json.loads((REFERENCE_DIR / "reference.json").read_text(encoding="utf-8"))


def reference_text(workload: str) -> str:
    return (REFERENCE_DIR / REFERENCE_FILES[workload]).read_text(encoding="utf-8")


def reference_digest(workload: str) -> str:
    return load_reference()["digests"][REFERENCE_FILES[workload]]


def _first_difference(text: str, ref: str) -> str:
    for lineno, (a, b) in enumerate(zip(text.splitlines(), ref.splitlines()), start=1):
        if a != b:
            return f"line {lineno}: {a[:120]!r} != reference {b[:120]!r}"
    return f"{len(text.splitlines())} lines against {len(ref.splitlines())} in the reference"


def check_profile(text: str, seed: int) -> Verdict:
    """The profile JSON must equal the reference byte for byte."""
    verdict = Verdict(units=PROFILE_KMAX)
    if digest(text) != reference_digest("profile-mixed6"):
        verdict.fail(verdict.units, "profile differs: "
                     + _first_difference(text, reference_text("profile-mixed6")))
    return verdict


def check_oracle(text: str, seed: int) -> Verdict:
    """Every field x power comparison must equal the reference and agree."""
    ref = json.loads(reference_text("oracle-rp2"))
    units = [(f, entry) for f, entries in ref["results"].items() for entry in entries]
    verdict = Verdict(units=len(units))
    try:
        doc = json.loads(text)
        results = doc["results"]
        if not isinstance(results, dict):
            raise TypeError("results is not an object")
    except (ValueError, KeyError, TypeError) as exc:
        verdict.fail(verdict.units, f"oracle output unreadable: {exc}")
        return verdict
    for f, expected in units:
        got = [e for e in results.get(f, []) if e.get("k") == expected["k"]]
        if got != [expected] or not expected["agree"]:
            verdict.fail(1, f"field {f} k={expected['k']}: {got} != reference {expected}")
    if not verdict.failed and digest(text) != reference_digest("oracle-rp2"):
        verdict.fail(verdict.units, "oracle output differs: "
                     + _first_difference(text, reference_text("oracle-rp2")))
    return verdict


def check_scan(text: str, seed: int) -> Verdict:
    """Records 0..99 in order, all clean; replayed indices reproduce exactly.

    Every squarefree ideal in three variables stabilizes and satisfies every
    checked statement, so a correct scan has no error record and no finding
    for any seed.  At seed 1 each line must also equal the reference.
    """
    from bettipowers.scan import ScanParameters, scan_record

    verdict = Verdict(units=SCAN_COUNT)
    lines = text.splitlines()
    bad: dict[int, str] = {}
    records: dict[int, str] = {}
    order: list[int] = []
    for lineno, line in enumerate(lines, start=1):
        try:
            obj = json.loads(line)
        except ValueError:
            obj = None
        if not isinstance(obj, dict):
            verdict.fail(verdict.units, f"line {lineno} is not a JSON object")
            return verdict
        index = obj.get("index")
        if obj.get("type") == "finding":
            bad.setdefault(index, f"finding {obj.get('kind')} for record {index}")
        elif obj.get("type") == "record" and isinstance(index, int) and index not in records:
            records[index] = line
            order.append(index)
            if obj.get("profile", {}).get("status") != "ok":
                bad.setdefault(index, f"record {index} has profile {obj.get('profile')}")
        else:
            verdict.fail(verdict.units, f"line {lineno} is neither a record nor a finding")
            return verdict
    if order != sorted(order):
        verdict.fail(verdict.units, "records are out of order")
        return verdict
    for index in range(SCAN_COUNT):
        if index not in records:
            bad.setdefault(index, f"record {index} is missing")
    extra = set(records) - set(range(SCAN_COUNT))
    if extra:
        verdict.fail(len(extra), f"unexpected record indices {sorted(extra)[:5]}")
    if seed == 1:
        ref_lines = reference_text("scan-sqfree3").splitlines()
        ref_records = {json.loads(ln)["index"]: ln for ln in ref_lines}
        for index, line in records.items():
            if ref_records.get(index) != line:
                bad.setdefault(index, f"record {index} differs from the reference")
        if not bad and digest(text) != reference_digest("scan-sqfree3"):
            verdict.fail(verdict.units, "scan output differs from the reference digest")
    params = ScanParameters(nvars=3, ngens=4, max_exp=1, count=SCAN_COUNT, seed=seed)
    for index in random.Random(seed).sample(range(SCAN_COUNT), SCAN_REPLAYS):
        replay = json.dumps(scan_record(params, index).to_json(), sort_keys=True)
        if index in records and records[index] != replay:
            bad.setdefault(index, f"record {index} differs from its replay")
    for problem in bad.values():
        verdict.fail(1, problem)
    return verdict


def scaled_residuals(coeffs: list[float], roots: list[complex]) -> list[float]:
    """|p(z)| / sum_i |c_i| |z|^i, through the reversed polynomial for |z| > 1.

    coeffs are low-degree first.  The same backward error the program gates
    on, computed independently of it.
    """
    out = []
    for z in roots:
        if abs(z) <= 1.0:
            c, w = coeffs, z
        else:
            c, w = coeffs[::-1], 1.0 / z
        num = 0j
        den = 0.0
        for a in reversed(c):
            num = num * w + a
            den = den * abs(w) + abs(a)
        out.append(abs(num) / den)
    return out


def _parse_locus(text: str) -> dict[int, list[tuple[int, complex, int, int]]]:
    lines = text.splitlines()
    if not lines or lines[0] != "k,root_index,re,im,trajectory_id,is_escape":
        raise ValueError("missing or wrong CSV header")
    by_k: dict[int, list] = {}
    for line in lines[1:]:
        k, idx, re, im, traj, esc = line.split(",")
        by_k.setdefault(int(k), []).append((int(idx), complex(float(re), float(im)), int(traj), int(esc)))
    return by_k


def check_roots(text: str, seed: int) -> Verdict:
    """Per k: exact index/trajectory/escape columns, roots within tolerance of
    the reference, every scaled residual within the gate, and a real-root
    count equal to the exact Sturm count."""
    from bettipowers.asymptotics import closed_form_profile
    from bettipowers.spectra import betti_polynomial_at, sturm_real_root_count

    verdict = Verdict(units=REGSEQ_KMAX)
    try:
        got = _parse_locus(text)
    except ValueError as exc:
        verdict.fail(verdict.units, f"locus CSV unreadable: {exc}")
        return verdict
    ref = _parse_locus(reference_text("roots-regseq20"))
    if set(got) - set(ref):
        verdict.fail(verdict.units, f"unexpected k values {sorted(set(got) - set(ref))[:5]}")
        return verdict
    profile = closed_form_profile(REGSEQ_N)
    for k in range(1, REGSEQ_KMAX + 1):
        rows, ref_rows = got.get(k, []), ref[k]
        shape = [(i, t, e) for i, _, t, e in rows]
        if shape != [(i, t, e) for i, _, t, e in ref_rows]:
            verdict.fail(1, f"k={k}: root_index/trajectory_id/is_escape columns differ")
            continue
        far = [
            i for (i, z, _, _), (_, zr, _, _) in zip(rows, ref_rows)
            if not abs(z - zr) <= ROOT_TOLERANCE * (1.0 + abs(zr))
        ]
        if far:
            verdict.fail(1, f"k={k}: roots {far[:5]} moved beyond {ROOT_TOLERANCE} relative")
            continue
        poly = betti_polynomial_at(profile, k, allow_unstabilized=True)
        lead = float(poly.leading_coefficient)
        coeffs = [float(c) / lead for c in poly.coefficients]
        roots = [z for _, z, _, _ in rows]
        worst = max(scaled_residuals(coeffs, roots))
        if not worst <= RESIDUAL_GATE or math.isnan(worst):
            verdict.fail(1, f"k={k}: scaled residual {worst:.3e} above {RESIDUAL_GATE}")
            continue
        # Sturm counts distinct real roots, so the numeric side counts distinct
        # real values.  At k=1 the polynomial is (1+t)^20, whose 20-fold root
        # the finder returns as two points at exactly -1 and a complex ring.
        real = len({z.real for z in roots if z.imag == 0.0})
        exact = sturm_real_root_count(poly)
        if real != exact:
            verdict.fail(1, f"k={k}: {real} distinct real roots, Sturm count {exact}")
    return verdict

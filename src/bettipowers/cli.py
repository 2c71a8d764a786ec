"""Command-line interface: exact Betti tables, profiles, root loci, scans.

Exit codes: 0 on success (including NotStabilized profiles and scans that
emit findings), 1 on usage errors, 2 on computation errors (parse failures,
resource limits, violated preconditions).  All exact data is serialized as
integers or "p/q" strings; only root coordinates are floats.
"""
from __future__ import annotations

import argparse
import itertools
import json
import sys
from typing import Optional, Sequence

from .asymptotics import (
    DEFAULT_GUARD,
    KodiyalamProfile,
    betti_series,
    closed_form_profile,
    default_kmax,
    kodiyalam_profile,
    profile_to_json,
)
# perfbench/tracer.py wraps power here, so cli keeps importing it by that name.
from .monomial_core import MonomialIdeal, parse_ideal, power, powers
from .resolution_engine import (
    DEFAULT_TAYLOR_CAP,
    RATIONALS,
    CoefficientField,
    betti_table,
    betti_totals,
    taylor_betti,
)
from .scan import ScanParameters, run_scan, write_jsonl
from .spectra import root_locus
from .svgplot import render_locus_svg
from .verdicts import full_report


class UsageError(Exception):
    """Command-line usage problem detected after argparse (exit code 1)."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; the interface contract wants 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be a non-negative integer")
    return value


def _field(text: str) -> CoefficientField:
    try:
        return CoefficientField.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _fields(text: str) -> list[CoefficientField]:
    fields = [_field(s.strip()) for s in text.split(",")]
    if len(set(fields)) != len(fields):
        raise argparse.ArgumentTypeError(f"repeated field in {text!r}")
    return fields


def _load_ideal(path: str) -> MonomialIdeal:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_ideal(fh.read())


def _write_output(text: str, path: Optional[str]) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def cmd_betti(args) -> int:
    ideal = _load_ideal(args.ideal)
    table = betti_table(power(ideal, args.power), args.field)
    sys.stdout.write(table.to_csv())
    return 0


def cmd_profile(args) -> int:
    ideal = _load_ideal(args.ideal)
    kmax = args.kmax if args.kmax is not None else default_kmax(ideal)
    series = betti_series(ideal, kmax, args.field)
    result = kodiyalam_profile(series, guard=args.guard)
    out = {
        "ideal": str(ideal),
        "field": str(args.field),
        "kmax": kmax,
        "guard": args.guard,
        "profile": profile_to_json(result),
        "verdicts": None,
    }
    if isinstance(result, KodiyalamProfile):
        out["verdicts"] = full_report(series, result).to_json()
    sys.stdout.write(json.dumps(out, indent=2, sort_keys=True) + "\n")
    return 0


def cmd_roots(args) -> int:
    if (args.ideal is None) == (args.regular_sequence is None):
        raise UsageError("provide exactly one of an ideal file or --regular-sequence")
    if args.regular_sequence is not None:
        if args.regular_sequence < 2:
            raise UsageError("--regular-sequence needs N >= 2")
        profile = closed_form_profile(args.regular_sequence)
    else:
        ideal = _load_ideal(args.ideal)
        fit_kmax = args.fit_kmax if args.fit_kmax is not None else default_kmax(ideal)
        series = betti_series(ideal, fit_kmax, RATIONALS)
        result = kodiyalam_profile(series, guard=args.guard)
        if not isinstance(result, KodiyalamProfile):
            raise RuntimeError(
                f"profile did not stabilize by kmax={fit_kmax} "
                f"(failed columns {list(result.failed_indices)}); raise --fit-kmax"
            )
        profile = result
    locus = root_locus(profile, range(1, args.kmax + 1))
    _write_output(locus.to_csv(), args.csv)
    if args.svg is not None:
        _write_output(render_locus_svg(locus), args.svg)
    return 0


def cmd_scan(args) -> int:
    params = ScanParameters(
        nvars=args.vars,
        ngens=args.gens,
        max_exp=args.max_exp,
        count=args.count,
        seed=args.seed,
        artinian=args.artinian,
        kmax=args.kmax,
        guard=args.guard,
        field=args.field,
    )
    if args.out is None:
        write_jsonl(run_scan(params), sys.stdout, include_timing=args.timing)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            n_rec, n_find = write_jsonl(run_scan(params), fh, include_timing=args.timing)
        print(f"wrote {n_rec} records, {n_find} findings to {args.out}", file=sys.stderr)
    return 0


def cmd_oracle_check(args) -> int:
    ideal = _load_ideal(args.ideal)
    fields = args.fields
    ideal_powers = []
    for k, ideal_k in enumerate(powers(ideal, args.kmax), start=1):
        if len(ideal_k.generators) > DEFAULT_TAYLOR_CAP:
            raise RuntimeError(
                f"power k={k} has {len(ideal_k.generators)} generators, above "
                f"the Taylor oracle cap {DEFAULT_TAYLOR_CAP}; lower --kmax"
            )
        ideal_powers.append(ideal_k)
    results: dict[str, list[dict]] = {str(field): [] for field in fields}
    mismatch = False
    for k, ideal_k in enumerate(ideal_powers, start=1):
        # One Taylor complex per power, ranked over every field.
        for field, taylor in zip(fields, taylor_betti(ideal_k, fields)):
            koszul, taylor = list(betti_totals(ideal_k, field)), list(taylor)
            agree = koszul == taylor
            mismatch = mismatch or not agree
            results[str(field)].append({"k": k, "koszul": koszul, "taylor": taylor, "agree": agree})
    findings = [
        {
            "type": "finding",
            "kind": "characteristic-dependence",
            "k": row_a["k"],
            "field_a": fa,
            "field_b": fb,
            "betti_a": row_a["koszul"],
            "betti_b": row_b["koszul"],
        }
        for fa, fb in itertools.combinations(results, 2)
        for row_a, row_b in zip(results[fa], results[fb])
        if row_a["koszul"] != row_b["koszul"]
    ]
    report = {
        "ideal": str(ideal),
        "kmax": args.kmax,
        "fields": [str(f) for f in fields],
        "results": results,
        "findings": findings,
        "engines_agree": not mismatch,
    }
    sys.stdout.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return 2 if mismatch else 0


def build_parser() -> _Parser:
    parser = _Parser(
        prog="bettipowers",
        description="Exact Betti numbers of powers of monomial ideals, "
        "asymptotic polynomial profiles, and Betti polynomial root loci.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_betti = sub.add_parser("betti", help="multigraded Betti table of one power")
    p_betti.add_argument("ideal", help="path to an ideal description file")
    p_betti.add_argument("--power", type=_positive_int, default=1, metavar="K")
    p_betti.add_argument("--field", type=_field, default="q", help='"q" or a prime p')
    p_betti.set_defaults(handler=cmd_betti)

    p_prof = sub.add_parser(
        "profile", help="fit the asymptotic polynomials and run all verdicts"
    )
    p_prof.add_argument("ideal")
    p_prof.add_argument("--kmax", type=_positive_int, default=None)
    p_prof.add_argument("--guard", type=_positive_int, default=DEFAULT_GUARD)
    p_prof.add_argument("--field", type=_field, default="q")
    p_prof.set_defaults(handler=cmd_profile)

    p_roots = sub.add_parser(
        "roots", help="root locus of the Betti polynomial over a power range"
    )
    p_roots.add_argument("ideal", nargs="?", default=None)
    p_roots.add_argument(
        "--regular-sequence",
        type=_positive_int,
        default=None,
        metavar="N",
        help="use the closed-form profile of a length-N regular sequence",
    )
    p_roots.add_argument("--kmax", type=_positive_int, default=10)
    p_roots.add_argument("--fit-kmax", type=_positive_int, default=None)
    p_roots.add_argument("--guard", type=_positive_int, default=DEFAULT_GUARD)
    p_roots.add_argument("--csv", default=None, help="CSV path (default stdout)")
    p_roots.add_argument("--svg", default=None, help="optional SVG path")
    p_roots.set_defaults(handler=cmd_roots)

    p_scan = sub.add_parser(
        "scan", help="randomized conjecture scan emitting JSONL records"
    )
    p_scan.add_argument("--vars", type=_positive_int, required=True)
    p_scan.add_argument("--gens", type=_positive_int, required=True)
    p_scan.add_argument("--max-exp", type=_positive_int, required=True)
    p_scan.add_argument("--count", type=_nonnegative_int, required=True)
    p_scan.add_argument("--seed", type=int, default=1)
    p_scan.add_argument("--artinian", action="store_true")
    p_scan.add_argument("--kmax", type=_positive_int, default=None)
    p_scan.add_argument("--guard", type=_positive_int, default=DEFAULT_GUARD)
    p_scan.add_argument("--field", type=_field, default="q")
    p_scan.add_argument("--out", default=None, help="JSONL path (default stdout)")
    p_scan.add_argument(
        "--timing",
        action="store_true",
        help="include per-record timing (breaks byte determinism)",
    )
    p_scan.set_defaults(handler=cmd_scan)

    p_oracle = sub.add_parser(
        "oracle-check", help="cross-validate the homology engine against the Taylor oracle"
    )
    p_oracle.add_argument("ideal")
    p_oracle.add_argument("--kmax", type=_positive_int, default=1)
    p_oracle.add_argument(
        "--fields", type=_fields, default="q,2", help="comma-separated: q and/or primes"
    )
    p_oracle.set_defaults(handler=cmd_oracle_check)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Exact Betti numbers of powers of monomial ideals and their asymptotics.

The package computes multigraded Betti numbers of S/I^k in exact arithmetic
over the rationals or a prime field, detects the eventual polynomial
behavior of each homological column, extracts the asymptotic invariants
(apd, ell, bigK, multiplicities), analyzes the roots of the associated
Betti polynomial across k, and evaluates the checkable structural
statements on fixtures and random scans.
"""

from .asymptotics import (
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
from .monomial_core import (
    IdealSyntaxError,
    MonomialIdeal,
    is_artinian,
    minimalize,
    parse_ideal,
    power,
    product,
    socle_dimension,
)
from .polynomials import RationalPolynomial, fraction_str
from .resolution_engine import (
    GF2,
    RATIONALS,
    BettiTable,
    CoefficientField,
    EngineInvariantError,
    ResourceLimitError,
    betti_table,
    lcm_lattice,
    taylor_betti,
)
from .scan import ScanParameters, ScanRecord, run_scan, scan_record, write_jsonl
from .spectra import (
    ConvergenceReport,
    LimitPolynomial,
    RootFindingError,
    RootLocus,
    betti_polynomial_at,
    find_roots,
    limit_polynomial,
    real_root_multiplicities,
    root_locus,
    sturm_real_root_count,
    verify_limit_theorem,
)
from .svgplot import render_locus_svg
from .verdicts import (
    VerdictEntry,
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

__version__ = "0.1.0"

__all__ = [
    "BettiSeries",
    "BettiTable",
    "CoefficientField",
    "ConvergenceReport",
    "EngineInvariantError",
    "GF2",
    "IdealSyntaxError",
    "KodiyalamProfile",
    "LimitPolynomial",
    "MonomialIdeal",
    "NotStabilized",
    "ProfileInvariantError",
    "RATIONALS",
    "RationalPolynomial",
    "ResourceLimitError",
    "RootFindingError",
    "RootLocus",
    "ScanParameters",
    "ScanRecord",
    "VerdictEntry",
    "VerdictReport",
    "artinian_spread_check",
    "betti_polynomial_at",
    "betti_series",
    "betti_table",
    "closed_form_profile",
    "closed_form_regular_sequence",
    "conjecture_check",
    "corollary_last_check",
    "corollary_satisfied_check",
    "default_kmax",
    "euler_check",
    "find_roots",
    "fit_polynomial",
    "fraction_str",
    "full_report",
    "is_artinian",
    "kodiyalam_profile",
    "lcm_lattice",
    "limit_polynomial",
    "log_concavity",
    "minimalize",
    "parse_ideal",
    "power",
    "product",
    "profile_to_json",
    "real_root_multiplicities",
    "render_locus_svg",
    "root_locus",
    "run_scan",
    "scan_record",
    "socle_dimension",
    "sturm_real_root_count",
    "taylor_betti",
    "unimodality",
    "verify_limit_theorem",
    "write_jsonl",
]

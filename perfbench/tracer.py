"""Span tracing of the bettipowers layers, installed from outside the package.

Each traced function is replaced by a wrapper at every place a caller looks
it up: in the module that imported it by name, or in its own module when it
is called as a module global.  A wrapper records one span (name, parent
span, start, end) per call and, for some layers, a count taken from the
arguments or the result.  Spans stay in memory; `Tracer.metrics` reduces
them to the per-layer metrics the benchmark reports.  The tracing overhead
is estimated in the same process: the time a wrapper adds to an empty call,
times the number of spans.
"""
from __future__ import annotations

import functools
import importlib
from collections import defaultdict
from time import perf_counter

PACKAGE = "bettipowers"
ROOT = -1
OVERHEAD_CALLS = 20000  # calls per timing of an empty function, wrapped and bare


def _points(counts, args, result):
    counts["resolution_engine.lcm_lattice.points"] += len(result)


def _gens(counts, args, result):
    counts["monomial_core.power.gens"] += len(result.generators)


def _cells(counts, args, result):
    rows, ncols = args[0], args[1]
    counts["resolution_engine.rank.cells"] += len(rows) * ncols


def _residuals(counts, args, result):
    worst = max((r for res in result.residuals.values() for r in res), default=0.0)
    key = "spectra.residual.max"
    counts[key] = max(counts.get(key, 0.0), worst)


# (span name, defining module, attribute, modules that look the attribute up,
#  count hook).  Names imported with `from .x import f` must be patched in the
# importing module; module globals are patched in their own module.
SITES = (
    ("monomial_core.power", "monomial_core", "power", ("asymptotics", "cli"), _gens),
    ("resolution_engine.lcm_lattice", "resolution_engine", "lcm_lattice",
     ("resolution_engine",), _points),
    ("resolution_engine.betti_table", "resolution_engine", "betti_table",
     ("asymptotics", "cli", "scan"), None),
    ("resolution_engine.homology", "resolution_engine", "_homology_dims_cached",
     ("resolution_engine",), None),
    ("resolution_engine.rank", "resolution_engine", "rank_over",
     ("resolution_engine",), _cells),
    ("resolution_engine.taylor_betti", "resolution_engine", "taylor_betti", ("cli",), None),
    ("asymptotics.betti_series", "asymptotics", "betti_series", ("cli", "scan"), None),
    ("asymptotics.fit_polynomial", "asymptotics", "fit_polynomial", ("asymptotics",), None),
    ("asymptotics.kodiyalam_profile", "asymptotics", "kodiyalam_profile",
     ("cli", "scan"), None),
    ("asymptotics.closed_form_profile", "asymptotics", "closed_form_profile", ("cli",), None),
    ("spectra.root_locus", "spectra", "root_locus", ("cli",), _residuals),
    ("spectra.betti_polynomial_at", "spectra", "betti_polynomial_at", ("spectra",), None),
    ("spectra.find_roots", "spectra", "find_roots", ("spectra",), None),
    ("spectra.aberth", "spectra", "_aberth_sweeps", ("spectra",), None),
    ("spectra.polish", "spectra", "_newton_polish", ("spectra",), None),
    ("spectra.match_order", "spectra", "_match_order", ("spectra",), None),
    ("verdicts.full_report", "verdicts", "full_report", ("cli", "scan"), None),
    ("scan.scan_record", "scan", "scan_record", ("scan",), None),
)

# Exact counts that must repeat from run to run.
EXACT_COUNTS = (
    "resolution_engine.homology.misses",
    "resolution_engine.lcm_lattice.points",
    "resolution_engine.rank.cells",
    "monomial_core.power.gens",
)

# Per-layer metrics: name -> unit.  Every traced run reports all of them.
LAYER_METRICS = {
    "resolution_engine.lcm_lattice.s": "s",
    "resolution_engine.lcm_lattice.points": "count",
    "resolution_engine.assembly.self_s": "s",
    "resolution_engine.betti_table.calls": "count",
    "resolution_engine.betti_table.s": "s",
    "resolution_engine.homology.calls": "count",
    "resolution_engine.homology.misses": "count",
    "resolution_engine.homology.hit_ratio": "ratio",
    "resolution_engine.homology.s": "s",
    "resolution_engine.rank.calls": "count",
    "resolution_engine.rank.cells": "count",
    "resolution_engine.rank.s": "s",
    "resolution_engine.taylor_betti.s": "s",
    "monomial_core.power.s": "s",
    "monomial_core.power.gens": "count",
    "asymptotics.betti_series.s": "s",
    "asymptotics.fit_polynomial.calls": "count",
    "asymptotics.fit_polynomial.s": "s",
    "asymptotics.kodiyalam_profile.s": "s",
    "asymptotics.closed_form_profile.s": "s",
    "spectra.root_locus.s": "s",
    "spectra.find_roots.calls": "count",
    "spectra.find_roots.s": "s",
    "spectra.aberth.calls": "count",
    "spectra.aberth.s": "s",
    "spectra.aberth.fallbacks": "count",
    "spectra.polish.s": "s",
    "spectra.match_order.s": "s",
    "spectra.betti_polynomial_at.s": "s",
    "spectra.residual.max": "ratio",
    "verdicts.full_report.s": "s",
    "scan.scan_record.s": "s",
    "scan.scan_record.calls": "count",
    "cli.other.self_s": "s",
    "trace.wall_s": "s",
    "trace.coverage": "ratio",
    "trace.overhead_s": "s",
}


class Tracer:
    """Wraps the layer entry points of one process and keeps their spans."""

    def __init__(self):
        self.spans: list[list] = []  # [name, parent index, start, end]
        self.counts: dict[str, float] = defaultdict(int)
        self._stack: list[int] = []
        self._homology = None

    def _wrap(self, name, fn, hook):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, stack[-1] if stack else ROOT, perf_counter(), 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(counts, args, result)
            return result

        # The homology cache stays reachable through the wrapper.
        for attr in ("cache_info", "cache_clear"):
            if hasattr(fn, attr):
                setattr(wrapper, attr, getattr(fn, attr))
        return wrapper

    def install(self) -> None:
        for name, home, attr, lookups, hook in SITES:
            original = getattr(importlib.import_module(f"{PACKAGE}.{home}"), attr)
            wrapper = self._wrap(name, original, hook)
            for mod in lookups:
                module = importlib.import_module(f"{PACKAGE}.{mod}")
                if getattr(module, attr) is not original:
                    raise RuntimeError(f"{mod}.{attr} is not {home}.{attr}")
                setattr(module, attr, wrapper)
            if attr == "_homology_dims_cached":
                self._homology = original

    def span_cost(self) -> float:
        """Seconds a wrapper adds to one call of an empty function (best of 3)."""

        def empty():
            return None

        wrapped = Tracer()._wrap("empty", empty, None)

        def best(fn) -> float:
            times = []
            for _ in range(3):
                start = perf_counter()
                for _ in range(OVERHEAD_CALLS):
                    fn()
                times.append(perf_counter() - start)
            return min(times)

        return max(0.0, (best(wrapped) - best(empty)) / OVERHEAD_CALLS)

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Reduce the spans of one traced CLI call lasting wall_s seconds."""
        total: dict[str, float] = defaultdict(float)
        child_time: dict[int, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        aberth_children: dict[int, int] = defaultdict(int)
        top = 0.0
        for name, parent, start, end in self.spans:
            dur = end - start
            total[name] += dur
            calls[name] += 1
            if parent == ROOT:
                top += dur
            else:
                child_time[parent] += dur
                if name == "spectra.aberth" and self.spans[parent][0] == "spectra.find_roots":
                    aberth_children[parent] += 1
        self_time: dict[str, float] = defaultdict(float)
        for idx, (name, _, start, end) in enumerate(self.spans):
            self_time[name] += end - start - child_time[idx]

        out: dict[str, float] = {}
        for name, *_ in SITES:
            out[f"{name}.s"] = total[name]
            out[f"{name}.calls"] = calls[name]
        homology_calls = calls["resolution_engine.homology"]
        misses = self._homology.cache_info().misses if self._homology else 0
        out.update(
            {
                "resolution_engine.assembly.self_s": self_time["resolution_engine.betti_table"],
                "resolution_engine.homology.misses": misses,
                "resolution_engine.homology.hit_ratio": (
                    (homology_calls - misses) / homology_calls if homology_calls else 0.0
                ),
                "spectra.aberth.fallbacks": sum(max(0, c - 1) for c in aberth_children.values()),
                "cli.other.self_s": wall_s - top,
                "trace.wall_s": wall_s,
                "trace.coverage": top / wall_s,
                "trace.overhead_s": self.span_cost() * len(self.spans),
                "spectra.residual.max": 0.0,
                "resolution_engine.lcm_lattice.points": 0,
                "resolution_engine.rank.cells": 0,
                "monomial_core.power.gens": 0,
            }
        )
        out.update(self.counts)
        return out

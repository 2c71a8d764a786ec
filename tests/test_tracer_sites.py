"""The benchmark finds every package name it uses.

perfbench/tracer.py replaces each entry point at every module that looks it
up, and refuses to install if one of those modules no longer holds the same
object; the output checks in perfbench/ import package names directly.
Checking both here makes a refactor that drops one fail the tests instead of
the benchmark.  A layer the package stops calling through its traced name
would read 0 in the benchmark, so the Betti engine's traced layers are also
checked to be called.
"""
import ast
import importlib
import importlib.util
import math
from pathlib import Path

import pytest

from bettipowers import resolution_engine
from bettipowers.monomial_core import parse_ideal

from _fixtures import fixture_ideal

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACER = PERFBENCH / "tracer.py"


def test_every_traced_name_resolves_to_its_home_object():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)  # defines SITES; installs nothing
    for _, home, attr, lookups, _ in tracer.SITES:
        original = getattr(importlib.import_module(f"bettipowers.{home}"), attr)
        for mod in lookups:
            module = importlib.import_module(f"bettipowers.{mod}")
            assert getattr(module, attr, None) is original, f"{mod}.{attr}"


def test_every_name_the_benchmark_imports_exists():
    imported = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.ImportFrom) or node.level:
                continue
            if node.module.split(".")[0] == "bettipowers":
                imported += [(path.name, node.module, alias.name) for alias in node.names]
    assert imported, "perfbench/ imports nothing from bettipowers"
    for source, module, name in imported:
        assert hasattr(importlib.import_module(module), name), f"{source}: {module}.{name}"


def test_betti_table_calls_its_traced_layers(monkeypatch):
    calls = {"lcm_lattice": 0, "_homology_dims_cached": 0}
    for attr in calls:
        original = getattr(resolution_engine, attr)

        def counting(*args, _attr=attr, _original=original, **kwargs):
            calls[_attr] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(resolution_engine, attr, counting)
    ideal = parse_ideal("vars: x y; gens: x^2, x*y, y^2")
    assert resolution_engine.betti_table(ideal).totals == (1, 3, 2)
    assert calls["lcm_lattice"] == 1
    assert calls["_homology_dims_cached"] > 0


@pytest.mark.parametrize(
    "field, totals",
    [
        (resolution_engine.RATIONALS, (1, 10, 15, 6, 0, 0, 0)),
        (resolution_engine.GF2, (1, 10, 15, 7, 1, 0, 0)),
    ],
)
def test_taylor_betti_calls_rank_over_on_full_boundary_maps(monkeypatch, field, totals):
    # The benchmark's rank.cells adds len(rows) * ncols over rank_over calls:
    # the dense size of each Taylor boundary map, one row per generator subset.
    cells = []
    original = resolution_engine.rank_over

    def counting(rows, ncols, F):
        cells.append(len(rows) * ncols)
        return original(rows, ncols, F)

    monkeypatch.setattr(resolution_engine, "rank_over", counting)
    assert resolution_engine.taylor_betti(fixture_ideal("rp2"), field) == totals
    assert len(cells) == 9
    assert sum(cells) == sum(math.comb(10, s) * math.comb(10, s - 1) for s in range(2, 11))
    assert sum(cells) == 167950

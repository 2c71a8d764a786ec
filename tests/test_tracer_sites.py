"""The benchmark finds every package name it uses.

perfbench/tracer.py replaces each entry point at every module that looks it
up, and refuses to install if one of those modules no longer holds the same
object; the output checks in perfbench/ import package names directly.
Checking both here makes a refactor that drops one fail the tests instead of
the benchmark.  A layer the package stops calling through its traced name
would read 0 in the benchmark, so the Betti engine's traced layers are also
checked to be called, and so are the root finder's.
"""
import ast
import importlib
import importlib.util
import math
from pathlib import Path

import pytest

from bettipowers import resolution_engine, spectra
from bettipowers.asymptotics import closed_form_profile
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
    # betti_table closes the lattice once.  The table route (at most 6
    # variables, dense key space) reads it from _grid_table directly, so the
    # traced lcm_lattice reads 0 there.  The mask route calls lcm_lattice,
    # which closes a dense key space with _grid_table and any other with
    # _join_closure.
    calls = dict.fromkeys(
        ("_grid_table", "_join_closure", "lcm_lattice", "_homology_dims_cached"), 0
    )
    for attr in calls:
        original = getattr(resolution_engine, attr)

        def counting(*args, _attr=attr, _original=original, **kwargs):
            calls[_attr] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(resolution_engine, attr, counting)
    ideal = parse_ideal("vars: x y; gens: x^2, x*y, y^2")
    assert resolution_engine.betti_table(ideal).totals == (1, 3, 2)
    assert calls["_grid_table"] == 1
    assert calls["_join_closure"] == calls["lcm_lattice"] == 0
    assert calls["_homology_dims_cached"] > 0
    calls.update(dict.fromkeys(calls, 0))
    seven = parse_ideal("vars: a b c d e f g; gens: a*b, c*d, e*f*g")
    assert resolution_engine.betti_table(seven).totals == (1, 3, 3, 1, 0, 0, 0, 0)
    assert calls["_grid_table"] == calls["lcm_lattice"] == 1
    assert calls["_join_closure"] == 0
    assert calls["_homology_dims_cached"] > 0
    # A lattice cap and a grid bound at the lattice size (6 points) are below
    # the radix product (9), so the key space is not dense and the mask route
    # closes it by joins.
    monkeypatch.setattr(resolution_engine, "DEFAULT_LATTICE_CAP", 6)
    monkeypatch.setattr(resolution_engine, "GRID_CAP", 6)
    calls.update(dict.fromkeys(calls, 0))
    assert resolution_engine.betti_table(ideal).totals == (1, 3, 2)
    assert calls["_join_closure"] == calls["lcm_lattice"] == 1
    assert calls["_grid_table"] == 0
    assert len(resolution_engine.lcm_lattice(ideal)) == 6


def test_root_locus_calls_its_traced_layers(monkeypatch):
    # One batch sweep over the whole locus, then one polish of all its
    # accepted rows (this profile needs no fallback).
    calls = {"_aberth_sweeps": 0, "_newton_polish": 0}
    for attr in calls:
        original = getattr(spectra, attr)

        def counting(*args, _attr=attr, _original=original, **kwargs):
            calls[_attr] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(spectra, attr, counting)
    locus = spectra.root_locus(closed_form_profile(6), range(1, 9))
    assert locus.degree == 6
    assert calls == {"_aberth_sweeps": 1, "_newton_polish": 1}


def _counting_rank_over(monkeypatch):
    # Records (rows, columns, characteristic) per rank_over call, after
    # checking that the call holds one (plus, minus) pair of ints per row.
    calls = []
    original = resolution_engine.rank_over

    def counting(rows, ncols, F):
        assert all(type(plus) is type(minus) is int for plus, minus in rows)
        calls.append((len(rows), ncols, F.characteristic))
        return original(rows, ncols, F)

    monkeypatch.setattr(resolution_engine, "rank_over", counting)
    return calls


def _maps(calls, p):
    # The s of each d_s ranked over F_p, from its shape C(10, s) x C(10, s - 1).
    shapes = {(math.comb(10, s), math.comb(10, s - 1)): s for s in range(2, 11)}
    return [shapes[rows, ncols] for rows, ncols, q in calls if q == p]


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
    # Every map is ranked over F_2, also when only Q is asked for: its F_2
    # ranks certify the Q ranks next to a zero mod-2 Betti number.  On rp2
    # the mod-2 Betti numbers are 1, 10, 15, 7, 1, 0, ..., so d_2, d_3 and
    # d_4 have nonzero ones on both sides.  Their certificate reads the F_3
    # ranks of d_2 to d_5; the mod-3 Betti numbers 1, 10, 15, 6, 0, ...
    # certify d_4, so only d_2 and d_3 are ranked over Q.
    calls = _counting_rank_over(monkeypatch)
    assert resolution_engine.taylor_betti(fixture_ideal("rp2"), field) == totals
    assert _maps(calls, 2) == list(range(2, 11))
    assert sum(rows * ncols for rows, ncols, p in calls if p == 2) == 167950
    if field == resolution_engine.GF2:
        assert len(calls) == 9
    else:
        assert _maps(calls, 3) == [2, 3, 4, 5]
        assert _maps(calls, 0) == [2, 3]
        assert sum(rows * ncols for rows, ncols, p in calls if p == 0) == 5850
        assert len(calls) == 15


def test_taylor_betti_ranks_each_map_once_per_field(monkeypatch):
    # F_3 ranks are kept: asked for beside Q, each map is ranked over F_3
    # once, and the certificate reads those ranks again.
    calls = _counting_rank_over(monkeypatch)
    fields = [resolution_engine.RATIONALS, resolution_engine.CoefficientField(3)]
    assert resolution_engine.taylor_betti(fixture_ideal("rp2"), fields) == [
        (1, 10, 15, 6, 0, 0, 0),
        (1, 10, 15, 6, 0, 0, 0),
    ]
    assert _maps(calls, 2) == _maps(calls, 3) == list(range(2, 11))
    assert _maps(calls, 0) == [2, 3]


def test_taylor_betti_ranks_over_q_where_no_mod_3_betti_number_is_zero(monkeypatch):
    # rp2 has no 3-torsion, so its F_3 ranks equal its Q ranks and a Q rank
    # taken from F_3 without a certificate would go unseen.  Report the F_3
    # rank of d_4 one short, as 3-torsion there would: the mod-3 Betti
    # numbers beside d_4 become 7 and 1, so Q must rank d_4 itself, and the
    # Q totals stay right.
    calls = _counting_rank_over(monkeypatch)
    counting = resolution_engine.rank_over

    def short_d4(rows, ncols, F):
        rank = counting(rows, ncols, F)
        return rank - 1 if F.characteristic == 3 and len(rows) == math.comb(10, 4) else rank

    monkeypatch.setattr(resolution_engine, "rank_over", short_d4)
    totals = resolution_engine.taylor_betti(fixture_ideal("rp2"), resolution_engine.RATIONALS)
    assert totals == (1, 10, 15, 6, 0, 0, 0)
    assert _maps(calls, 3) == [2, 3, 4, 5]
    assert _maps(calls, 0) == [2, 3, 4]

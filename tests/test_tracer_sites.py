"""The benchmark's tracer finds every name it wraps.

perfbench/tracer.py replaces each entry point at every module that looks it
up, and refuses to install if one of those modules no longer holds the same
object.  Checking the lookups here makes a refactor that drops one fail the
tests instead of the benchmark.
"""
import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_every_traced_name_resolves_to_its_home_object():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)  # defines SITES; installs nothing
    for _, home, attr, lookups, _ in tracer.SITES:
        original = getattr(importlib.import_module(f"bettipowers.{home}"), attr)
        for mod in lookups:
            module = importlib.import_module(f"bettipowers.{mod}")
            assert getattr(module, attr, None) is original, f"{mod}.{attr}"

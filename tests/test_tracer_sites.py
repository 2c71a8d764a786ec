"""The benchmark finds every package name it uses.

perfbench/tracer.py replaces each entry point at every module that looks it
up, and refuses to install if one of those modules no longer holds the same
object; the output checks in perfbench/ import package names directly.
Checking both here makes a refactor that drops one fail the tests instead of
the benchmark.
"""
import ast
import importlib
import importlib.util
from pathlib import Path

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

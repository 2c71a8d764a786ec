"""Every name a package module imports is used there, and a run imports no more.

The one exception is a name that perfbench/tracer.py looks up in that
module: the tracer wraps it there, so the module keeps the import even
when its own code calls the function through another path.  Likewise every
public function and class is used in the package: code kept only for a test
lives under tests/.
"""
import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "bettipowers"
PERFBENCH = ROOT / "perfbench"
TRACER = PERFBENCH / "tracer.py"

# Public names with no caller in the package yet, each with the ROADMAP item
# that gives it one.
AWAITING_CALLERS = {
    "real_root_multiplicities": "item 2(a): Yun factors before the root finder",
}


def _traced_lookups():
    # (module, attribute) for every place the tracer patches an attribute.
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)  # defines SITES; installs nothing
    return {(mod, attr) for _, _, attr, lookups, _ in tracer.SITES for mod in lookups}


def test_every_imported_name_is_used():
    traced = _traced_lookups()
    paths = sorted(PACKAGE.glob("*.py"))
    assert paths
    unused = []
    for path in paths:
        tree = ast.parse(path.read_text(), str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    imported[name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [
            f"{path.name}:{line}: {name}"
            for name, line in sorted(imported.items())
            if name not in used and (path.stem, name) not in traced
        ]
    assert unused == []


def _benchmark_names():
    # Every package name perfbench/ looks up: the tracer's patched attributes
    # and each `from bettipowers... import`.
    names = {attr for _, attr in _traced_lookups()}
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and not node.level:
                if node.module.split(".")[0] == "bettipowers":
                    names.update(alias.name for alias in node.names)
    return names


def test_every_public_name_is_used_in_the_package():
    defined, used = {}, set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                defined[node.name] = f"{path.name}:{node.lineno}"
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    unreferenced = {name for name in defined if name not in used}
    # An exemption that gains a caller, or loses its definition, leaves the list.
    assert AWAITING_CALLERS.keys() <= unreferenced
    unused = [
        f"{defined[name]}: {name}"
        for name in sorted(unreferenced - _benchmark_names() - AWAITING_CALLERS.keys())
    ]
    assert unused == []


def test_profile_does_not_import_numpy_ma():
    # np.unique imports numpy.ma on its first call, about 15 ms and 1.7 MiB
    # of resident memory in a fresh interpreter; the engine deduplicates by
    # sorting instead.
    code = (
        "import sys\n"
        "from bettipowers import cli\n"
        "cli.main(['profile', 'fixtures/mixed6.ideal', '--kmax', '3'])\n"
        "assert 'numpy.ma' not in sys.modules, 'numpy.ma was imported'\n"
    )
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    result = subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr

"""The package's public surface."""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
import tokenize
from pathlib import Path

import indexdensity

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "bench" / "tracing.py"


def _traced_layers():
    """bench/tracing.py's LAYERS: module name -> the names it wraps there."""
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.LAYERS


def _used_names(path):
    """The names a file's code uses: its NAME tokens (so not docstrings or
    comments), less those in import statements and in a def or class of
    the same name, which a name's own definition spans."""
    tree = ast.parse(path.read_text())
    imports = {
        line
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for line in range(node.lineno, node.end_lineno + 1)
    }
    spans: dict[str, set[int]] = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            spans.setdefault(node.name, set()).update(
                range(node.lineno, node.end_lineno + 1)
            )
    with tokenize.open(path) as f:
        tokens = list(tokenize.generate_tokens(f.readline))
    return {
        t.string
        for t in tokens
        if t.type == tokenize.NAME
        and t.start[0] not in imports
        and t.start[0] not in spans.get(t.string, ())
    }


def test_every_export_resolves():
    missing = [name for name in indexdensity.__all__ if not hasattr(indexdensity, name)]
    assert missing == []
    assert len(set(indexdensity.__all__)) == len(indexdensity.__all__)


def test_every_export_has_a_use():
    # a public name kept alive only by its own tests is dead code; the names
    # the bench tracer wraps are used by the bench
    files = [p for p in (ROOT / "src" / "indexdensity").glob("*.py") if p.name != "__init__.py"]
    used = set().union(*map(_used_names, files + list((ROOT / "demos").glob("*.py"))))
    traced = {name for names in _traced_layers().values() for name in names}
    assert sorted(set(indexdensity.__all__) - used - traced) == []


def test_every_public_method_has_a_use():
    # a public method kept alive only by its own tests is test-only API
    src = sorted((ROOT / "src" / "indexdensity").glob("*.py"))
    code = src + sorted((ROOT / "demos").glob("*.py"))
    code += sorted((ROOT / "bench").glob("*.py"))
    used = set().union(*map(_used_names, code))
    unused = [
        f"{path.stem}.{cls.name}.{node.name}"
        for path in src
        for cls in ast.walk(ast.parse(path.read_text()))
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef)
        and not node.name.startswith("_")
        and node.name not in used
    ]
    assert unused == []


def test_src_imports_only_what_it_uses():
    # an imported name the module never uses is a stale import; __init__
    # imports to re-export. artin binds euler_phi unused because
    # bench/tests/test_bench.py::test_tracing_restores_every_wrapped_function
    # asserts that the tracer rewraps it there
    exempt = {"artin.euler_phi"}
    stale = []
    for path in sorted((ROOT / "src" / "indexdensity").glob("*.py")):
        if path.name == "__init__.py":
            continue
        used = _used_names(path)
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in used:
                        stale.append(f"{path.stem}.{name}")
    assert sorted(set(stale) - exempt) == []


def test_every_traced_layer_resolves():
    # the bench tracer wraps these names with getattr; a deleted one breaks it
    missing = []
    for module_name, names in _traced_layers().items():
        module = importlib.import_module(f"indexdensity.{module_name}")
        for name in names:
            owner = module
            for part in name.split("."):
                owner = getattr(owner, part, None)
            if owner is None:
                missing.append(f"{module_name}.{name}")
    assert missing == []


def test_the_cli_loads_no_undeclared_dependency():
    # mpmath and sympy may be installed, but pyproject.toml declares numpy only
    probe = (
        "import sys; import indexdensity.cli; "
        "print(sorted({'mpmath', 'sympy'} & set(sys.modules)))"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, "-c", probe],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.strip() == "[]"

"""The package's public surface."""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import indexdensity

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "bench" / "tracing.py"


def test_every_export_resolves():
    missing = [name for name in indexdensity.__all__ if not hasattr(indexdensity, name)]
    assert missing == []
    assert len(set(indexdensity.__all__)) == len(indexdensity.__all__)


def test_every_traced_layer_resolves():
    # the bench tracer wraps these names with getattr; a deleted one breaks it
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for module_name, names in tracing.LAYERS.items():
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

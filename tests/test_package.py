"""The package's public surface: each name declared once, in one module.

It also pins what importing and running the package loads: no module imports
scipy; the line sweeps load scipy's compiled LAPACK wrapper module and no
other part of scipy, so only line runs load it.
"""

import ast
import importlib
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import dghlab
from dghlab import (
    characteristics,
    diagnostics,
    dissipative,
    grid,
    helmholtz,
    invariants,
    profiles,
    solver,
)

MODULES = (characteristics, diagnostics, dissipative, grid, helmholtz, invariants, profiles, solver)
SRC = Path(dghlab.__file__).resolve().parent
ROOT = SRC.parents[1]


def test_all_is_the_union_of_the_module_lists():
    from_modules = [name for m in MODULES for name in m.__all__]
    assert len(from_modules) == len(set(from_modules))  # no name in two modules
    assert sorted(dghlab.__all__) == sorted(from_modules + ["__version__"])
    assert len(dghlab.__all__) == len(set(dghlab.__all__))
    assert len(dghlab.__all__) <= 39


def test_every_exported_name_resolves_to_its_module_object():
    for m in MODULES:
        for name in m.__all__:
            assert getattr(dghlab, name) is getattr(m, name), name
    assert isinstance(dghlab.__version__, str)


def _names_read(paths):
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                yield node.id
            elif isinstance(node, ast.Attribute):
                yield node.attr


def test_every_definition_is_used_by_the_library_or_exported():
    # a function, class, method or property that only tests reach belongs in tests/
    sources = sorted(SRC.glob("*.py"))
    used = set(_names_read(sources + sorted((ROOT / "perfbench").glob("*.py"))))
    for path in sources:
        if path.stem not in ("__init__", "__main__"):  # __main__ runs the CLI when imported
            used.update(importlib.import_module(f"dghlab.{path.stem}").__all__)
    defined = {
        (path.name, node.name)
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    }
    dunder = {name for _, name in defined if name.startswith("__") and name.endswith("__")}
    unused = {(f, name) for f, name in defined if name not in used | dunder}
    assert len(defined) > 100
    assert not sorted(unused)


def _scipy_imports(path: Path):
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [a.name for a in node.names] if isinstance(node, ast.Import) else [node.module or ""]
            yield from (f"{path.name}:{node.lineno} {n}" for n in names if n.split(".")[0] == "scipy")


def test_no_module_imports_scipy():
    # function bodies included: the line sweeps load dtbtrs from the extension file
    sources = sorted(SRC.glob("*.py"))
    assert len(sources) > 10
    assert not [hit for path in sources for hit in _scipy_imports(path)]


_FOOTPRINT = textwrap.dedent(
    """
    import sys
    from pathlib import Path

    import yaml

    import dghlab
    import dghlab.cli
    from dghlab.scenario import load_scenario

    def scipy_modules():
        return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

    out = sys.argv[1]
    configs = sorted(Path("configs").glob("*.yaml"))
    line = [p for p in configs if yaml.safe_load(p.read_text())["grid"]["kind"] == "line"]
    periodic = [p for p in configs if p not in line]
    assert len(line) == 3 and len(periodic) == 6, configs
    assert not scipy_modules(), scipy_modules()
    for p in periodic:
        assert load_scenario(p).grid.is_periodic, p
        assert not scipy_modules(), (p.name, scipy_modules())
        assert dghlab.cli.main(["run", str(p), "--output-root", out]) == 0
        assert not scipy_modules(), (p.name, scipy_modules())
    for p in line:
        assert dghlab.cli.main(["run", str(p), "--output-root", out]) == 0
    # the line sweeps load the one extension module, and neither scipy package
    assert scipy_modules() == ["scipy.linalg._flapack"], scipy_modules()
    """
)


def test_only_the_runs_that_call_scipy_load_it(tmp_path):
    # a fresh interpreter, since this one has long loaded scipy
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC.parent), os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-c", _FOOTPRINT, str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, env=env,
    )
    assert out.returncode == 0, out.stderr

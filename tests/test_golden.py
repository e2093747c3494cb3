"""Golden numbers: every shipped config reproduces its recorded checks and results.

``golden_configs.json`` holds, per file in ``configs/``, the checks (name,
passed, value), the ``results`` mapping that ``execute`` returned when the
fixture was recorded, and the names of the series and the labels of the
snapshots, which the CLI writes as ``series_<name>.csv`` and
``snapshot_<label>.csv``.  A refactor that leaves the arithmetic alone reproduces
them to rounding; anything else shows up here before it shows up as a failed
threshold.  After a deliberate change of the numbers, rewrite the fixture with

    PYTHONPATH=src python tests/test_golden.py

which prints every value that moved as ``config.path: old -> new``, and
say in the change description why the numbers moved.
"""

from __future__ import annotations

import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from dghlab import GridKind, helmholtz, simulate
from dghlab.experiments import execute
from dghlab.scenario import load_scenario

from conftest import panel_integrals_reference

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = sorted((ROOT / "configs").glob("*.yaml"))
FIXTURE = Path(__file__).resolve().parent / "golden_configs.json"


def observed(path: Path) -> dict:
    """Checks, results, series names and snapshot labels of one config, as plain JSON data."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        result = execute(load_scenario(path))
    checks = [{"name": c.name, "passed": c.passed, "value": c.value} for c in result.checks]
    return json.loads(
        json.dumps(
            {
                "checks": checks,
                "results": result.metadata,
                "series": sorted(result.series),
                "snapshots": [label for label, _ in result.snapshots],
            }
        )
    )


def flatten(doc, where: str) -> dict:
    """The leaves of a JSON document by path, ``where.key`` in mappings and
    ``where[i]`` in lists; an empty mapping or list is a leaf."""
    if isinstance(doc, dict) and doc:
        items = ((f"{where}.{key}", value) for key, value in doc.items())
    elif isinstance(doc, list) and doc:
        items = ((f"{where}[{i}]", value) for i, value in enumerate(doc))
    else:
        return {where: doc}
    return {path: leaf for sub, value in items for path, leaf in flatten(value, sub).items()}


def assert_matches(got, want, where: str) -> None:
    got, want = flatten(got, where), flatten(want, where)
    assert sorted(got) == sorted(want), where
    for path, w in want.items():
        g = got[path]
        if isinstance(w, float) and not isinstance(g, bool):
            assert isinstance(g, (int, float)), path
            assert math.isclose(g, w, rel_tol=1e-9, abs_tol=1e-14), f"{path}: {g!r} != {w!r}"
        else:
            assert g == w and type(g) is type(w), f"{path}: {g!r} != {w!r}"


def moved(old: dict, new: dict) -> list[str]:
    """``config.path: old -> new`` for every leaf that differs between two fixtures."""
    lines = []
    for name in new:
        stem = Path(name).stem
        was = flatten(old[name], stem) if name in old else {}
        now = flatten(new[name], stem)
        for path in [*now, *(path for path in was if path not in now)]:
            a, b = was.get(path, "absent"), now.get(path, "absent")
            if type(a) is not type(b) or a != b:
                lines.append(f"{path}: {a!r} -> {b!r}")
    return lines


def test_fixture_covers_every_config():
    assert sorted(json.loads(FIXTURE.read_text())) == [p.name for p in CONFIGS]


def test_moved_lists_every_changed_leaf():
    name, stem = CONFIGS[0].name, CONFIGS[0].stem
    old = {name: {"checks": [{"value": 1.0}, {"value": 2}], "gone": [], "same": "x"}}
    new = {name: {"checks": [{"value": 1.5}, {"value": 2.0}], "added": {}, "same": "x"}}
    assert moved(old, new) == [
        f"{stem}.checks[0].value: 1.0 -> 1.5",
        f"{stem}.checks[1].value: 2 -> 2.0",
        f"{stem}.added: 'absent' -> {{}}",
        f"{stem}.gone: [] -> 'absent'",
    ]


@pytest.mark.parametrize("path", CONFIGS, ids=[p.stem for p in CONFIGS])
def test_config_reproduces_golden_numbers(path):
    want = json.loads(FIXTURE.read_text())[path.name]
    assert_matches(observed(path), want, path.stem)


LINE_CONFIGS = [p for p in CONFIGS if load_scenario(p).grid.kind is GridKind.TRUNCATED_LINE]


@pytest.mark.parametrize("path", LINE_CONFIGS, ids=[p.stem for p in LINE_CONFIGS])
def test_line_config_snapshots_are_bitwise_equal_to_sliding_window_panels(path, monkeypatch):
    # bitwise for the BLAS and CPU noted at the panel oracle test in test_helmholtz.py
    scn = load_scenario(path)
    got = simulate(scn.runs["solver.dt"], scn.u0)
    monkeypatch.setattr(helmholtz, "_panel_integrals", panel_integrals_reference)
    want = simulate(scn.runs["solver.dt"], scn.u0)
    assert np.array_equal(got.values_matrix(), want.values_matrix())


if __name__ == "__main__":
    old = json.loads(FIXTURE.read_text()) if FIXTURE.exists() else {}
    new = {p.name: observed(p) for p in CONFIGS}
    FIXTURE.write_text(json.dumps(new, indent=1) + "\n")
    print(f"wrote {FIXTURE}")
    print("\n".join(moved(old, new)) or "no value moved")

"""Golden numbers: every shipped config reproduces its recorded checks and results.

``golden_configs.json`` holds, per file in ``configs/``, the checks (name,
passed, value), the ``results`` mapping that ``execute`` returned when the
fixture was recorded, and the names of the series and the labels of the
snapshots, which the CLI writes as ``series_<name>.csv`` and
``snapshot_<label>.csv``.  A refactor that leaves the arithmetic alone reproduces
them to rounding; anything else shows up here before it shows up as a failed
threshold.  After a deliberate change of the numbers, rewrite the fixture with

    PYTHONPATH=src python tests/test_golden.py

and say in the change description why the numbers moved.
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


def assert_matches(got, want, where: str) -> None:
    if isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), where
        for key in want:
            assert_matches(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            assert_matches(g, w, f"{where}[{i}]")
    elif isinstance(want, float) and not isinstance(got, bool):
        assert isinstance(got, (int, float)), where
        assert math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-14), f"{where}: {got!r} != {want!r}"
    else:
        assert got == want and type(got) is type(want), f"{where}: {got!r} != {want!r}"


def test_fixture_covers_every_config():
    assert sorted(json.loads(FIXTURE.read_text())) == [p.name for p in CONFIGS]


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
    FIXTURE.write_text(json.dumps({p.name: observed(p) for p in CONFIGS}, indent=1) + "\n")
    print(f"wrote {FIXTURE}")

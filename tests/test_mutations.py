"""Defects planted in-process must fail a shipped config's paper-claim check.

Each plant swaps a piece of the library for a defective one; the matching
config in ``configs/`` must then fail its check, and pass it unplanted.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from dghlab import grid
from dghlab.experiments import execute
from dghlab.scenario import load_scenario

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
# caches that keep what a plant computed past its removal
CACHES = (grid._spectral_factors, grid._line_stencils)


def no_dealiasing(mp):
    """The 2/3 keep-mask of every periodic grid set to all ones, wherever
    ``_spectral_factors`` is bound."""
    real = grid._spectral_factors

    def planted(g):
        sf = real(g)
        return sf._replace(keep=np.ones_like(sf.keep))

    bound = [
        m
        for name, m in list(sys.modules.items())
        if name.startswith("dghlab.") and getattr(m, "_spectral_factors", None) is real
    ]
    assert len(bound) >= 3  # grid, helmholtz and solver at least
    for module in bound:
        mp.setattr(module, "_spectral_factors", planted)


def second_order_line_stencil(mp):
    """Line derivatives from 3-point stencils with one ghost node per end."""
    mp.setattr(grid, "_HALF_WIDTH", 1)


def energy_drift(config: str) -> tuple[bool, float]:
    for cache in CACHES:
        cache.cache_clear()
    (check,) = [c for c in execute(load_scenario(CONFIGS / config)).checks if c.name == "energy_drift"]
    return check.passed, check.value


@pytest.mark.parametrize(
    "plant, config",
    [
        (no_dealiasing, "invariant_audit_coarse.yaml"),
        (second_order_line_stencil, "invariant_audit_line.yaml"),
    ],
    ids=["no_dealiasing", "second_order_line_stencil"],
)
def test_a_planted_defect_fails_its_config(monkeypatch, plant, config):
    passed, clean = energy_drift(config)
    assert passed
    with monkeypatch.context() as mp:
        plant(mp)
        passed, planted = energy_drift(config)
    for cache in CACHES:
        cache.cache_clear()
    assert not passed and planted > 100 * clean

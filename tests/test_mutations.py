"""Defects planted in-process must fail a shipped config's paper-claim check.

Each plant swaps a piece of the library for a defective one; the matching
config in ``configs/`` must then fail its check, and pass it unplanted.
"""

import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from dghlab import grid, helmholtz, solver
from dghlab.experiments import execute
from dghlab.scenario import load_scenario

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
# caches that keep what a plant computed past its removal
CACHES = (grid._spectral_factors, grid._line_stencils, helmholtz._sweep_bands)


def _replace_spectral_factors(mp, edit):
    """``edit(factors)`` in place of every periodic grid's Fourier
    multipliers, wherever ``_spectral_factors`` is bound."""
    real = grid._spectral_factors
    bound = [
        m
        for name, m in list(sys.modules.items())
        if name.startswith("dghlab.") and getattr(m, "_spectral_factors", None) is real
    ]
    assert len(bound) >= 3  # grid, helmholtz and solver at least
    for module in bound:
        mp.setattr(module, "_spectral_factors", lambda g: edit(real(g)))


def no_dealiasing(mp):
    """The 2/3 keep-mask of every periodic grid set to all ones."""
    _replace_spectral_factors(mp, lambda sf: sf._replace(keep=np.ones_like(sf.keep)))


def second_order_line_stencil(mp):
    """Line derivatives from 3-point stencils with one ghost node per end."""
    mp.setattr(grid, "_HALF_WIDTH", 1)


def forward_euler(mp):
    """The time loop steps u + dt rhs(t, u) in place of classical RK4."""
    mp.setattr(solver, "step_rk4", lambda u, t, dt, rhs: u + dt * rhs(t, u))


def no_nonlocal_term_on_the_line(mp):
    """The line kernel drops d/dx Lambda^{-2}(u^2 + u_x^2/2 + (2 omega + gamma) u)."""
    mp.setattr(solver, "_dx_invert_line", lambda g, vals, pq: np.zeros_like(vals))


def flipped_gamma(mp):
    """Every kernel steps its rows with the sign of gamma reversed."""
    real = solver._kernel
    mp.setattr(solver, "_kernel", lambda g, params: real(g, [replace(p, gamma=-p.gamma) for p in params]))


def halved_helmholtz_symbol(mp):
    """The symbol of 1 - d^2/dx^2 taken as 1 + 2 pi^2 k^2 instead of 1 + 4 pi^2 k^2."""

    def edit(sf):
        k = sf.ik.imag / (2.0 * np.pi)
        symbol = 1.0 + 2.0 * np.pi**2 * k**2
        return sf._replace(helmholtz=symbol, dx_helmholtz=sf.dx / symbol)

    _replace_spectral_factors(mp, edit)


def wrong_line_kernel_decay(mp):
    """The P/Q sweeps of the line decay by exp(-1.1 h) per node, not exp(-h)."""
    real = helmholtz._sweep_bands
    mp.setattr(helmholtz, "_sweep_bands", lambda n, h: real.__wrapped__(n, 1.1 * h))


def checks(config: str, names: tuple[str, ...]) -> list:
    for cache in CACHES:
        cache.cache_clear()
    by_name = {c.name: c for c in execute(load_scenario(CONFIGS / config)).checks}
    return [by_name[name] for name in names]


# (plant, config, checks it must fail)
PLANTS = [
    (no_dealiasing, "invariant_audit_coarse.yaml", ("energy_drift",)),
    (second_order_line_stencil, "invariant_audit_line.yaml", ("energy_drift",)),
    (forward_euler, "invariant_audit.yaml", ("energy_drift",)),
    (no_nonlocal_term_on_the_line, "support_propagation.yaml", ("support_in_characteristic_cone",)),
    (flipped_gamma, "continuation_probe.yaml", ("continuation_identity",)),
    (halved_helmholtz_symbol, "invariant_audit.yaml", ("energy_drift",)),
    (wrong_line_kernel_decay, "tail_formation.yaml", ("right_tail_rate", "left_tail_rate")),
]


@pytest.mark.parametrize("plant, config, names", PLANTS, ids=[p.__name__ for p, _, _ in PLANTS])
def test_a_planted_defect_fails_its_config(monkeypatch, plant, config, names):
    clean = checks(config, names)
    assert all(c.passed for c in clean)
    with monkeypatch.context() as mp:
        plant(mp)
        planted = checks(config, names)
    for cache in CACHES:
        cache.cache_clear()
    assert not any(c.passed for c in planted)
    if names == ("energy_drift",):
        assert planted[0].value > 100 * clean[0].value

"""Defects planted in-process must fail a shipped config's paper-claim check.

Each plant swaps a piece of the library for a defective one; the matching
config in ``configs/`` must then fail its check, and pass it unplanted.
The defect ledger, every plant against every check of every shipped config
(about 1.5 s per plant), prints with

    PYTHONPATH=src python tests/test_mutations.py

as ``config.check: clean -> planted (threshold)``, marking each check that
passes clean and fails planted.
"""

import math
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from dghlab import characteristics, experiments, grid, helmholtz, solver
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


def faster_advection(mp):
    """Every kernel advects with 1.5 u u_x: its rhs subtracts another u u_x / 2.

    On the circle the extra term is dealiased and transformed.
    """
    real = solver._kernel

    def kernel(g, params):
        decode, rhs = real(g, params)

        def planted(v, rows, *f):
            extra = 0.5 * np.multiply(rows[0], rows[1])
            if g.is_periodic:
                extra = grid._spectral_factors(g).keep * np.fft.rfft(extra, n=g.n)
            return rhs(v, rows, *f) - extra

        return decode, planted

    mp.setattr(solver, "_kernel", kernel)


def ssp_rk3(mp):
    """The time loop steps the three-stage SSP Runge-Kutta scheme in place of classical RK4."""

    def step(u, t, dt, rhs):
        u1 = u + dt * rhs(t, u)
        u2 = 0.75 * u + 0.25 * (u1 + dt * rhs(t + dt, u1))
        return u / 3.0 + (2.0 / 3.0) * (u2 + dt * rhs(t + 0.5 * dt, u2))

    mp.setattr(solver, "step_rk4", step)


def third_stage_from_k1(mp):
    """Classical RK4, except that its third stage starts from u + dt k1 / 2."""

    def step(u, t, dt, rhs):
        k1 = rhs(t, u)
        k2 = rhs(t + 0.5 * dt, u + (0.5 * dt) * k1)
        k3 = rhs(t + 0.5 * dt, u + (0.5 * dt) * k1)
        k4 = rhs(t + dt, u + dt * k3)
        return u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    mp.setattr(solver, "step_rk4", step)


def halved_omega_in_the_kernel(mp):
    """Every kernel steps with omega / 2, so its linear term is (omega + gamma) u."""
    real = solver._kernel
    mp.setattr(solver, "_kernel", lambda g, params: real(g, [replace(p, omega=0.5 * p.omega) for p in params]))


def trapezoid_panels(mp):
    """The line's panel integrals by the trapezoid rule, not the exact moments of the cubic."""

    def panels(g, vals, A, B):
        half_h, decay = 0.5 * g.spacing, math.exp(-g.spacing)
        A[:] = half_h * (decay * vals[:-1] + vals[1:])
        B[:] = half_h * (vals[:-1] + decay * vals[1:])

    mp.setattr(helmholtz, "_panel_integrals", panels)


def zero_ghost_values(mp):
    """Line derivatives pad each end with zeros, not with the exponential-tail ghost values."""
    real = grid._line_stencils
    mp.setattr(grid, "_line_stencils", lambda h, order: (real(h, order)[0], np.zeros(grid._HALF_WIDTH)))


def characteristics_at_u_plus_gamma(mp):
    """Characteristics move at u + gamma, not u - gamma."""
    real = characteristics.evolve_characteristics

    def evolve(traj, seeds):
        p = traj.config.params
        flipped = replace(traj.config, params=replace(p, gamma=-p.gamma))
        return real(replace(traj, config=flipped), seeds)

    mp.setattr(experiments, "evolve_characteristics", evolve)


def zero_ghost_at_the_end_panels(mp):
    """The P/Q sweeps pad their end panels with zeros, not with the extrapolated cubic.

    The sweeps' source f is below 1e-17 at both ends of every shipped line
    run, so no shipped check sees it;
    ``test_line_end_panels_integrate_the_one_sided_cubic`` in
    ``tests/test_helmholtz.py`` guards it.
    """

    def panels(g, vals, A, B):
        w_a, w_b = helmholtz._panel_weights(g.spacing)
        padded = np.concatenate(([0.0], vals, [0.0]))
        A[:] = np.correlate(padded, w_a, "valid")
        B[:] = np.correlate(padded, w_b, "valid")

    mp.setattr(helmholtz, "_panel_integrals", panels)


def checks(config: str, names: tuple[str, ...] | None = None) -> list:
    """The checks of one shipped config, by name, or all of them."""
    for cache in CACHES:
        cache.cache_clear()
    found = execute(load_scenario(CONFIGS / config)).checks
    if names is None:
        return found
    by_name = {c.name: c for c in found}
    return [by_name[name] for name in names]


# (plant, config, checks it must fail), one pair per row of the defect table
PLANTS = [
    (no_dealiasing, "invariant_audit_coarse.yaml", ("energy_drift",)),
    (second_order_line_stencil, "invariant_audit_line.yaml", ("energy_drift",)),
    (forward_euler, "invariant_audit.yaml", ("energy_drift",)),
    (no_nonlocal_term_on_the_line, "support_propagation.yaml", ("support_in_characteristic_cone",)),
    (flipped_gamma, "continuation_probe.yaml", ("continuation_identity",)),
    (halved_helmholtz_symbol, "invariant_audit.yaml", ("energy_drift",)),
    (wrong_line_kernel_decay, "tail_formation.yaml", ("right_tail_rate", "left_tail_rate")),
    (faster_advection, "continuation_probe.yaml", ("continuation_identity",)),
    (ssp_rk3, "manufactured_convergence.yaml", ("temporal_order",)),
    (third_stage_from_k1, "invariant_audit_coarse.yaml", ("energy_drift",)),
    (halved_omega_in_the_kernel, "continuation_probe.yaml", ("continuation_identity",)),
    (trapezoid_panels, "invariant_audit_line.yaml", ("energy_drift",)),
    (zero_ghost_values, "tail_formation.yaml", ("right_tail_rate", "left_tail_rate")),
]
# Rows 14 and 15 fail no shipped config: the one SupportPropagation config has
# gamma = 0, and no shipped line run has f above round-off at its ends.
LEDGER_ONLY = [characteristics_at_u_plus_gamma, zero_ghost_at_the_end_panels]


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


def ledger() -> list[str]:
    """Every check of every shipped config, clean and under each plant in turn."""
    configs = sorted(p.name for p in CONFIGS.glob("*.yaml"))
    lines = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        clean = {config: checks(config) for config in configs}
        for row, plant in enumerate([plant for plant, _, _ in PLANTS] + LEDGER_ONLY, 1):
            lines.append(f"row {row}: {plant.__name__} -- {plant.__doc__.splitlines()[0]}")
            with pytest.MonkeyPatch.context() as mp:
                plant(mp)
                planted = {config: {c.name: c for c in checks(config)} for config in configs}
            caught = 0
            for config in configs:
                for before in clean[config]:
                    after = planted[config].get(before.name)
                    fails = before.passed and not (after and after.passed)
                    caught += fails
                    line = f"  {Path(config).stem}.{before.name}: {_entry(before)} -> {_entry(after)}"
                    if before.threshold is not None:
                        line += f" (threshold {before.threshold:.3g})"
                    lines.append(line + ("  FAILS" if fails else ""))
            lines.append(f"  row {row} fails {caught} check(s)")
    for cache in CACHES:
        cache.cache_clear()
    return lines


def _entry(check) -> str:
    if check is None:
        return "absent"
    if check.value is None:
        return "pass" if check.passed else "fail"
    return f"{check.value:.3g}"


if __name__ == "__main__":
    print("\n".join(ledger()))

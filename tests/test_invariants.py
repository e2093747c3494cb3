import math

import numpy as np
import pytest
from scipy.integrate import quad

import dghlab as d
from dghlab import GridKind as GK

from conftest import band_limited, h2_drifts, run


# -- pointwise functionals ----------------------------------------------------


def test_energy_trivials():
    g = d.make_grid(GK.PERIODIC, 256)
    assert d.energy_h1(d.Field.zeros(g)) == 0.0
    u = d.Field(g, np.sin(2 * np.pi * g.nodes))
    # int sin^2 = int cos^2 = 1/2 over one period
    assert d.energy_h1(u) == pytest.approx(0.25 + np.pi**2, rel=1e-12)


def test_energy_gaussian_against_quadrature_oracle():
    # oracle: adaptive quadrature of (u^2 + u_x^2)/2 for u = exp(-x^2)
    oracle = 0.5 * (
        quad(lambda x: math.exp(-2 * x**2), -20, 20)[0]
        + quad(lambda x: 4 * x**2 * math.exp(-2 * x**2), -20, 20)[0]
    )
    # both moments equal sqrt(pi/2)/2 + ... : the closed form is sqrt(pi/2)
    assert oracle == pytest.approx(math.sqrt(math.pi / 2), rel=1e-12)
    g = d.make_grid(GK.TRUNCATED_LINE, 2048, 20.0)
    u = d.Field(g, np.exp(-(g.nodes**2)))
    assert d.energy_h1(u) == pytest.approx(oracle, rel=1e-8)


def test_energy_positivity():
    g = d.make_grid(GK.PERIODIC, 128)
    tiny = d.make_profile(g, "cosine", amplitude=1e-13)
    small = d.make_profile(g, "cosine", amplitude=1e-3)
    assert d.energy_h1(tiny) >= 0.0
    assert d.energy_h1(tiny) < 1e-24
    assert d.energy_h1(small) > 1e-8


def test_mass_values():
    g = d.make_grid(GK.PERIODIC, 128)
    assert d.mass(d.Field(g, np.sin(2 * np.pi * g.nodes))) == pytest.approx(0.0, abs=1e-15)
    assert d.mass(d.Field(g, np.ones(g.n))) == pytest.approx(1.0)
    gl = d.make_grid(GK.TRUNCATED_LINE, 2048, 20.0)
    gauss = d.Field(gl, np.exp(-(gl.nodes**2)))
    assert d.mass(gauss) == pytest.approx(math.sqrt(math.pi), rel=1e-10)


def test_h2_zero_and_sine():
    g = d.make_grid(GK.PERIODIC, 512)
    p = d.PhysParams(1.0, 0.0)
    zero = d.Field.zeros(g)
    for variant in d.H2Variant:
        assert d.hamiltonian_h2(zero, p, variant) == 0.0
    u = d.Field(g, np.sin(2 * np.pi * g.nodes))
    # cubic harmonics integrate to zero over a period; 2 omega int sin^2 = 1
    assert d.hamiltonian_h2(u, p, d.H2Variant.AS_WRITTEN) == pytest.approx(1.0, rel=1e-10)
    assert d.hamiltonian_h2(u, p, d.H2Variant.CUBIC_GRADIENT) == pytest.approx(1.0, rel=1e-10)


def _mixed_sign_fields():
    """A shifted cosine on the circle and a bump's u on the line: u_x has both signs."""
    g = d.make_grid(GK.PERIODIC, 256)
    yield d.Field(g, 0.4 + np.cos(2 * np.pi * g.nodes) + 0.3 * np.sin(6 * np.pi * g.nodes))
    gl = d.make_grid(GK.TRUNCATED_LINE, 1024, 20.0)
    yield d.make_profile(gl, "bump", space="m", amplitude=0.8, center=0.2, width=1.0)


def test_h2_cubes_by_multiplication_match_np_power():
    p = d.PhysParams(0.3, -0.2)
    for u in _mixed_sign_fields():
        v, ux = u.values, d.derivative(u, 1).values
        assert np.any(ux < 0) and np.any(ux > 0)
        cubic = {
            d.H2Variant.AS_WRITTEN: np.power(ux, 3),
            d.H2Variant.CUBIC_GRADIENT: v * np.power(ux, 2),
        }
        for variant in d.H2Variant:
            integrand = np.power(v, 3) + cubic[variant] + 2.0 * p.omega * v**2 - p.gamma * ux**2
            want = d.integrate(d.Field(u.grid, integrand))
            assert d.hamiltonian_h2(u, p, variant) == pytest.approx(want, rel=1e-14, abs=0)


def test_energy_and_mass_are_the_plain_formulas_bitwise():
    for u in _mixed_sign_fields():
        ux = d.derivative(u, 1).values
        assert d.energy_h1(u) == 0.5 * d.integrate(d.Field(u.grid, u.values**2 + ux**2))
        assert d.mass(u) == d.integrate(u)


def test_weighted_momentum_zero_case():
    g = d.make_grid(GK.TRUNCATED_LINE, 512, 15.0)
    p = d.PhysParams(0.5, -1.0)  # omega + gamma/2 = 0
    assert d.weighted_momentum(d.Field.zeros(g), p, "+") == pytest.approx(0.0, abs=1e-14)


def test_weighted_momentum_of_momentum_bump():
    # u built so that m = bump exactly; the weighted momentum is then the
    # exponential moment of the bump
    g = d.make_grid(GK.TRUNCATED_LINE, 2048, 20.0)
    p = d.PhysParams(0.0, 0.0)
    u = d.make_profile(g, "bump", space="m", amplitude=1.0, width=1.0)

    def bump_fn(x):
        s = x
        return math.exp(1 - 1 / (1 - s**2)) if abs(s) < 1 else 0.0

    oracle_plus = quad(lambda x: math.exp(x) * bump_fn(x), -1, 1, limit=200)[0]
    oracle_minus = quad(lambda x: math.exp(-x) * bump_fn(x), -1, 1, limit=200)[0]
    assert d.weighted_momentum(u, p, "+") == pytest.approx(oracle_plus, rel=1e-5)
    assert d.weighted_momentum(u, p, "-") == pytest.approx(oracle_minus, rel=1e-5)


def test_weighted_momentum_growth_rate_matches_quadratic_density():
    # d/dt int e^{+x} (m + omega + gamma/2) dx equals
    # int e^{+x} [ (u + omega + gamma/2)^2 + u_x^2/2 ] dx  (omega + gamma/2 = 0 here)
    g = d.make_grid(GK.TRUNCATED_LINE, 2048, 20.0)
    p = d.PhysParams(0.0, 0.0)
    u0 = d.make_profile(g, "bump", space="m", amplitude=1.0, width=1.0)
    cfg = d.SimConfig(g, p, dt=1e-3, t_end=0.1, snapshot_stride=10)
    traj = run(cfg, u0)
    w = np.array([d.weighted_momentum(s, p, "+") for s in traj.snapshots])
    for k in range(1, len(traj.times) - 1):
        dt2 = traj.times[k + 1] - traj.times[k - 1]
        dwdt = (w[k + 1] - w[k - 1]) / dt2
        u = traj.snapshots[k]
        ux = d.derivative(u, 1)
        rate = d.weighted_integral(
            d.Field(g, u.values**2 + 0.5 * ux.values**2), "+"
        )
        assert dwdt == pytest.approx(rate, rel=1e-2)


# -- drift tracking -----------------------------------------------------------


def test_drift_series_zero_run():
    g = d.make_grid(GK.PERIODIC, 128)
    p = d.PhysParams(0.1, 0.1)
    cfg = d.SimConfig(g, p, dt=1e-3, t_end=0.05, snapshot_stride=10)
    traj = run(cfg, d.Field.zeros(g))
    s = d.drift_series(traj, d.energy_h1, "energy")
    assert np.all(s.values == 0.0) and s.drift == 0.0


def test_conservative_run_preserves_energy_and_mass():
    g = d.make_grid(GK.PERIODIC, 256)
    p = d.PhysParams(0.1, -0.2)
    cfg = d.SimConfig(g, p, dt=5e-4, t_end=0.5, snapshot_stride=20)
    u0 = d.make_profile(g, "cosine", amplitude=0.05)
    traj = run(cfg, u0)
    assert d.drift_series(traj, d.energy_h1).drift < 1e-6
    assert d.drift_series(traj, d.mass).drift < 1e-8


def test_dissipative_run_energy_strictly_decreases():
    g = d.make_grid(GK.PERIODIC, 256)
    p = d.PhysParams(0.0, 0.0, lam=0.5)
    cfg = d.SimConfig(g, p, dt=5e-4, t_end=0.5, snapshot_stride=20)
    u0 = d.make_profile(g, "cosine", amplitude=0.05)
    traj = run(cfg, u0)
    values = d.drift_series(traj, d.energy_h1).values
    assert np.all(np.diff(values) < 1e-10)
    assert values[-1] < values[0]


def test_energy_drift_is_fourth_order_in_dt():
    g = d.make_grid(GK.PERIODIC, 256)
    p = d.PhysParams(0.2, 0.05)
    u0 = d.Field(
        g,
        0.15 * np.cos(2 * np.pi * g.nodes) + 0.08 * np.sin(4 * np.pi * g.nodes),
    )
    drifts = []
    for dt in (2e-3, 1e-3, 5e-4):
        cfg = d.SimConfig(g, p, dt=dt, t_end=0.5, snapshot_stride=int(round(0.05 / dt)))
        traj = run(cfg, u0)
        drifts.append(d.drift_series(traj, d.energy_h1).drift)
        assert d.drift_series(traj, d.mass).drift < 1e-8
    assert drifts[0] / drifts[1] > 8.0
    assert drifts[1] / drifts[2] > 8.0


def test_energy_drift_shrinks_with_resolution():
    # an initial profile needing ~30 modes: underresolved at n=64, resolved
    # at n=256, so the drift must not grow and must end tiny
    p = d.PhysParams(0.1, -0.1)
    drifts = []
    for n in (64, 128, 256):
        g = d.make_grid(GK.PERIODIC, n)
        u0 = d.Field(g, 0.2 * np.exp(-50 * (g.nodes - 0.5) ** 2))
        cfg = d.SimConfig(g, p, dt=2e-4, t_end=0.1, snapshot_stride=50)
        traj = run(cfg, u0)
        drifts.append(d.drift_series(traj, d.energy_h1).drift)
    assert drifts[2] <= drifts[0] + 1e-15
    assert drifts[2] < 1e-10


# -- the two cubic variants ---------------------------------------------------


def test_h2_discrimination_identifies_cubic_gradient():
    g = d.make_grid(GK.PERIODIC, 256)
    p = d.PhysParams(0.2, 0.05)
    u0 = d.Field(
        g,
        0.15 * np.cos(2 * np.pi * g.nodes) + 0.08 * np.sin(4 * np.pi * g.nodes),
    )
    drifts = h2_drifts(run(d.SimConfig(g, p, dt=1e-3, t_end=0.5, snapshot_stride=25), u0), p)
    assert d.discriminate_h2(drifts) is d.H2Variant.CUBIC_GRADIENT
    assert drifts[d.H2Variant.AS_WRITTEN] > 1e-3
    assert drifts[d.H2Variant.CUBIC_GRADIENT] < 1e-8


def _audit_drifts(amplitude, lam=0.0):
    """Both cubic drifts of a periodic n = 256 cosine run, dt = 1e-3 to t = 1."""
    g = d.make_grid(GK.PERIODIC, 256)
    p = d.PhysParams(0.1, -0.2, lam)
    cfg = d.SimConfig(g, p, dt=1e-3, t_end=1.0, snapshot_stride=10)
    return h2_drifts(run(cfg, d.Field(g, amplitude * np.cos(2 * np.pi * g.nodes))), p)


def test_h2_discrimination_holds_at_the_narrowest_measured_gap():
    # amplitude 1: the integrator's error lifts the conserved drift to 2e-3,
    # still 6.8e4 times below the other
    drifts = _audit_drifts(1.0)
    assert d.discriminate_h2(drifts) is d.H2Variant.CUBIC_GRADIENT
    assert 1e-3 < drifts[d.H2Variant.CUBIC_GRADIENT] < 1e-2
    assert drifts[d.H2Variant.AS_WRITTEN] > 1e4 * drifts[d.H2Variant.CUBIC_GRADIENT]


@pytest.mark.parametrize("lam", [0.1, 1.0])
def test_h2_discrimination_gives_no_verdict_on_damped_runs(lam):
    # damping moves both variants: their drifts differ by a factor of 3 or less
    drifts = _audit_drifts(0.05, lam)
    assert min(drifts.values()) > 1e-3
    assert d.discriminate_h2(drifts) is None


def test_h2_discrimination_gives_no_verdict_on_zero_data():
    drifts = _audit_drifts(0.0)
    assert drifts == {v: 0.0 for v in d.H2Variant}
    assert d.discriminate_h2(drifts) is None


def test_h2_discrimination_rule():
    aw, cg = d.H2Variant.AS_WRITTEN, d.H2Variant.CUBIC_GRADIENT
    gap = d.invariants.H2_GAP
    assert d.discriminate_h2({aw: gap * 1e-9, cg: 1e-9}) is cg
    assert d.discriminate_h2({aw: 1e-9, cg: gap * 1e-9}) is aw
    assert d.discriminate_h2({aw: 1.0, cg: 0.0}) is cg
    assert d.discriminate_h2({aw: 0.9 * gap * 1e-9, cg: 1e-9}) is None
    assert d.discriminate_h2({aw: 1e-3, cg: 1e-3}) is None
    assert d.discriminate_h2({aw: 0.0, cg: 0.0}) is None


# -- flux-form identities -----------------------------------------------------


def _flux_setup(seed=21):
    g = d.make_grid(GK.PERIODIC, 256)
    rng = np.random.default_rng(seed)
    u = band_limited(g, 16, 0.2, rng)
    p = d.PhysParams(0.3, -0.15)
    u_t = d.rhs_nonlocal(u, p)
    return g, u, p, u_t


def test_mass_flux_form_identity():
    # d/dt u + d/dx (3/2 u^2 - u u_xx - u_x^2/2 - u_tx + 2 omega u + gamma u_xx) = 0
    g, u, p, u_t = _flux_setup()
    u_xx = d.derivative(u, 2)
    u_x = d.derivative(u, 1)
    flux = d.Field(
        g,
        1.5 * u.values**2
        - u.values * u_xx.values
        - 0.5 * u_x.values**2
        - d.derivative(u_t, 1).values
        + 2 * p.omega * u.values
        + p.gamma * u_xx.values,
    )
    resid = u_t.values + d.derivative(flux, 1).values
    assert np.max(np.abs(resid)) < 1e-7
    # on the circle the flux divergence integrates to zero exactly
    assert abs(d.integrate(d.derivative(flux, 1))) < 1e-13


def test_energy_flux_form_identity():
    # d/dt (u^2 + u_x^2)/2 + d/dx (u^3 - u^2 u_xx - u u_tx - gamma/2 u_x^2
    #                              + gamma u u_xx + omega u^2) = 0
    g, u, p, u_t = _flux_setup(22)
    u_x = d.derivative(u, 1)
    u_xx = d.derivative(u, 2)
    u_tx = d.derivative(u_t, 1)
    flux = d.Field(
        g,
        u.values**3
        - u.values**2 * u_xx.values
        - u.values * u_tx.values
        - 0.5 * p.gamma * u_x.values**2
        + p.gamma * u.values * u_xx.values
        + p.omega * u.values**2,
    )
    ddt_density = u.values * u_t.values + u_x.values * u_tx.values
    resid = ddt_density + d.derivative(flux, 1).values
    assert np.max(np.abs(resid)) < 1e-7
    assert abs(d.integrate(d.derivative(flux, 1))) < 1e-13

import math
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import dghlab as d
from dghlab import GridKind as GK
from dghlab.experiments import execute
from dghlab.scenario import load_scenario, parse_scenario

from conftest import band_limited, decaying, manufactured_forcing_oracle, run, subsample


@pytest.fixture
def pgrid():
    return d.make_grid(GK.PERIODIC, 512)


# -- parameter and config validation -----------------------------------------


def test_params_reject_negative_dissipation():
    with pytest.raises(ValueError):
        d.PhysParams(0.0, 0.0, lam=-0.1)


def test_sim_config_validation(pgrid):
    p = d.PhysParams(0.0, 0.0)
    for kw in ({"dt": 0.0}, {"t_end": -1.0}, {"snapshot_stride": 0}, {"blowup_guard": 0.0}):
        args = {"dt": 1e-3, "t_end": 1.0}
        args.update(kw)
        with pytest.raises(ValueError):
            d.SimConfig(pgrid, p, **args)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "build",
    [
        lambda g, x: d.PhysParams(x, 0.0),
        lambda g, x: d.PhysParams(0.0, x),
        lambda g, x: d.PhysParams(0.0, 0.0, lam=x),
        lambda g, x: d.SimConfig(g, d.PhysParams(0.0, 0.0), dt=x, t_end=1.0),
        lambda g, x: d.SimConfig(g, d.PhysParams(0.0, 0.0), dt=1e-3, t_end=x),
        lambda g, x: d.SimConfig(g, d.PhysParams(0.0, 0.0), 1e-3, 1.0, blowup_guard=x),
        lambda g, x: d.make_grid(GK.TRUNCATED_LINE, 64, x),
        lambda g, x: d.grid.Grid(GK.TRUNCATED_LINE, 64, x),
    ],
    ids=["omega", "gamma", "lam", "dt", "t_end", "blowup_guard", "extent", "length"],
)
def test_non_finite_numbers_are_rejected(pgrid, build, bad):
    with pytest.raises(ValueError, match="finite"):
        build(pgrid, bad)


@pytest.mark.parametrize("stride", [math.nan, 2.5, 2.0])
def test_sim_config_rejects_a_non_integer_stride(pgrid, stride):
    with pytest.raises(TypeError, match="snapshot_stride must be an integer"):
        d.SimConfig(pgrid, d.PhysParams(0.0, 0.0), 1e-3, 1e-2, snapshot_stride=stride)


def test_sim_config_keeps_an_integer_stride_as_int(pgrid):
    cfg = d.SimConfig(pgrid, d.PhysParams(0.0, 0.0), 1e-3, 1e-2, snapshot_stride=np.int64(5))
    assert type(cfg.snapshot_stride) is int and cfg.snapshot_stride == 5


def test_simulate_rejects_a_run_of_zero_steps(pgrid):
    cfg = d.SimConfig(pgrid, d.PhysParams(0.0, 0.0), dt=1e-3, t_end=1e-12, snapshot_stride=1)
    with pytest.raises(ValueError, match="shorter than one step"):
        d.simulate(cfg, d.Field.zeros(pgrid))


# -- right-hand sides ---------------------------------------------------------


def test_rhs_zero_field(pgrid):
    p = d.PhysParams(0.3, -0.7)
    assert d.rhs_nonlocal(d.Field.zeros(pgrid), p).max_abs() == 0.0


def test_rhs_constant_state_is_steady(pgrid):
    p = d.PhysParams(0.4, 0.9)
    c = d.Field(pgrid, np.full(pgrid.n, 0.8))
    assert d.rhs_nonlocal(c, p).max_abs() < 1e-13


def test_rhs_sine_against_momentum_form_oracle(pgrid):
    # oracle: evaluate the time derivative of the momentum from the local
    # balance m_t = -(2 omega u_x + u m_x + 2 u_x m + gamma u_xxx), then
    # invert the Helmholtz operator spectrally
    p = d.PhysParams(1.0, -2.0)
    u = d.Field(pgrid, 0.1 * np.sin(2 * np.pi * pgrid.nodes))
    m = d.apply_lambda2(u)
    ux = d.derivative(u, 1)
    mx = d.derivative(m, 1)
    uxxx = ux - mx  # m = u - u_xx, so u_xxx = u_x - m_x
    m_t = -(
        2 * p.omega * ux.values
        + u.values * mx.values
        + 2 * ux.values * m.values
        + p.gamma * uxxx.values
    )
    oracle = d.invert_lambda2(d.Field(pgrid, m_t))
    got = d.rhs_nonlocal(u, p)
    scale = oracle.max_abs()
    assert np.max(np.abs(got.values - oracle.values)) / scale < 1e-8


def test_rhs_momentum_form_identity_random_fields(pgrid):
    rng = np.random.default_rng(42)
    for _ in range(5):
        u = band_limited(pgrid, 24, 0.3, rng)
        omega, gamma = rng.uniform(-1, 1, size=2)
        p = d.PhysParams(omega, gamma)
        du = d.rhs_nonlocal(u, p)
        m = d.apply_lambda2(u)
        ux = d.derivative(u, 1)
        mx = d.derivative(m, 1)
        uxxx = ux - mx  # m = u - u_xx, so u_xxx = u_x - m_x
        res = (
            d.apply_lambda2(du).values
            + 2 * omega * ux.values
            + u.values * mx.values
            + 2 * ux.values * m.values
            + gamma * uxxx.values
        )
        assert np.max(np.abs(res)) < 1e-6


def test_rhs_gamma_reduction_matches_advective_form(pgrid):
    # for gamma = -2 omega the right-hand side must equal the independently
    # coded advective form -(u + 2 omega) u_x - d/dx Lambda^{-2}(u^2 + u_x^2/2)
    rng = np.random.default_rng(9)
    u = band_limited(pgrid, 20, 0.2, rng)
    omega = 0.35
    p = d.PhysParams(omega, -2 * omega)
    got = d.rhs_nonlocal(u, p)
    ux = d.derivative(u, 1)
    quad = d.Field(pgrid, u.values**2 + 0.5 * ux.values**2)
    expected = -(u.values + 2 * omega) * ux.values - d.dx_invert_lambda2(quad).values
    assert np.max(np.abs(got.values - expected)) < 1e-12


@pytest.mark.parametrize("n", [128, 256, 255])
@pytest.mark.parametrize("lam", [0.0, 0.5])
def test_fused_periodic_rhs_matches_reference_arithmetic(n, lam):
    # the one-expression Fourier RHS reorders the rounding of _rhs_reference's
    # eight-FFT arithmetic; 1e-13 relative is 200x the 4.3e-16 measured
    g = d.make_grid(GK.PERIODIC, n)
    rng = np.random.default_rng(n)
    for _ in range(3):
        u = band_limited(g, n // 4, 0.5, rng)
        omega, gamma = rng.uniform(0.1, 1.0, size=2) * rng.choice([-1, 1], size=2)
        p = d.PhysParams(omega, gamma, lam=lam)
        want = _rhs_reference(u, p).values
        got = d.rhs_nonlocal(u, p).values
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_rhs_fft_counts(monkeypatch):
    calls = []
    for name in ("rfft", "irfft"):
        fn = getattr(np.fft, name)
        monkeypatch.setattr(np.fft, name, lambda *a, fn=fn, **k: calls.append(1) or fn(*a, **k))
    g = d.make_grid(GK.PERIODIC, 256)
    p = d.PhysParams(0.1, -0.3, lam=0.5)
    u = d.make_profile(g, "cosine", amplitude=0.05)
    push = lambda t: np.full(g.n, 1e-3)
    counts = {}
    for what, call in [
        ("rhs_nonlocal", lambda: d.rhs_nonlocal(u, p)),
        ("1 step", lambda: d.simulate(d.SimConfig(g, p, dt=1e-3, t_end=1e-3), u)),
        ("2 steps", lambda: d.simulate(d.SimConfig(g, p, dt=1e-3, t_end=2e-3), u)),
        ("1 forced step", lambda: d.simulate(d.SimConfig(g, p, dt=1e-3, t_end=1e-3), u, push)),
        ("2 forced steps", lambda: d.simulate(d.SimConfig(g, p, dt=1e-3, t_end=2e-3), u, push)),
    ]:
        calls.clear()
        call()
        counts[what] = len(calls)
    # a step after the first: one irfft decodes u and u_x for the checks and
    # stage 1, then one rfft of the products (and forcing) per stage, and one
    # decoding irfft for each of stages 2 to 4
    counts["simulate step"] = counts.pop("2 steps") - counts.pop("1 step")
    counts["forced simulate step"] = counts.pop("2 forced steps") - counts.pop("1 forced step")
    line = d.make_grid(GK.TRUNCATED_LINE, 256, 25.0)
    bump = d.make_profile(line, "bump", space="m", amplitude=0.5, center=0.0, width=1.0)
    calls.clear()
    d.rhs_nonlocal(bump, p)
    d.simulate(d.SimConfig(line, p, dt=1e-3, t_end=2e-3), bump)
    counts["line"] = len(calls)
    assert counts == {
        "rhs_nonlocal": 4,
        "simulate step": 8,
        "forced simulate step": 8,
        "line": 0,
    }


def test_spectral_factors_looked_up_once_per_run(monkeypatch):
    lookups = []
    factors = d.solver._spectral_factors
    monkeypatch.setattr(d.solver, "_spectral_factors", lambda g: lookups.append(1) or factors(g))
    g = d.make_grid(GK.PERIODIC, 64)
    p = d.PhysParams(0.1, -0.3, lam=0.5)
    u = d.make_profile(g, "cosine", amplitude=0.05)
    push = lambda t: np.full(g.n, 1e-3)
    counts = {}
    for steps in (1, 10):
        for forcing in (None, push):
            lookups.clear()
            d.simulate(d.SimConfig(g, p, dt=1e-3, t_end=steps * 1e-3), u, forcing)
            counts[steps, forcing is None] = len(lookups)
    assert counts[1, True] == counts[10, True] == counts[1, False] == counts[10, False] >= 1


def test_rhs_dissipative_reduces_and_adds_damping(pgrid):
    rng = np.random.default_rng(2)
    u = band_limited(pgrid, 16, 0.1, rng)
    p0 = d.PhysParams(0.2, -0.4, lam=0.0)
    assert np.array_equal(
        d.rhs_nonlocal(u, p0).values, d.rhs_nonlocal(u, d.PhysParams(0.2, -0.4)).values
    )
    p5 = d.PhysParams(0.2, -0.4, lam=0.5)
    expected = d.rhs_nonlocal(u, p0).values - 0.5 * u.values
    assert np.max(np.abs(d.rhs_nonlocal(u, p5).values - expected)) < 1e-15


def test_rhs_dissipative_sine_additivity(pgrid):
    u = d.Field(pgrid, 0.1 * np.sin(2 * np.pi * pgrid.nodes))
    p = d.PhysParams(0.0, 0.0, lam=0.5)
    diff = d.rhs_nonlocal(u, p).values - d.rhs_nonlocal(u, replace(p, lam=0.0)).values
    exact = -0.05 * np.sin(2 * np.pi * pgrid.nodes)
    assert np.max(np.abs(diff - exact)) < 1e-14


# -- time stepping ------------------------------------------------------------


def test_step_rk4_zero_fixed_point(pgrid):
    p = d.PhysParams(0.1, 0.2)
    rhs = lambda t, u: d.rhs_nonlocal(u, p)
    u = d.step_rk4(d.Field.zeros(pgrid), 0.0, 1e-3, rhs)
    assert u.max_abs() == 0.0


def test_step_rk4_constant_steady_state(pgrid):
    p = d.PhysParams(0.1, 0.2)
    rhs = lambda t, u: d.rhs_nonlocal(u, p)
    c = d.Field(pgrid, np.full(pgrid.n, 0.3))
    u = d.step_rk4(c, 0.0, 1e-3, rhs)
    assert np.max(np.abs(u.values - 0.3)) < 1e-15


def test_step_rk4_rejects_nonpositive_dt(pgrid):
    rhs = lambda t, u: u
    with pytest.raises(ValueError):
        d.step_rk4(d.Field.zeros(pgrid), 0.0, -1e-3, rhs)


def test_step_rk4_takes_a_dt_column():
    # a (r, 1) dt and t step each row as the scalar step of that row would
    rng = np.random.default_rng(5)
    u = rng.normal(size=(3, 16))
    rate = rng.normal(size=(3, 1))
    t = np.array([[0.0], [0.1], [0.25]])
    dt = np.array([[1e-3], [2e-3], [5e-4]])
    got = d.step_rk4(u, t, dt, lambda t, v: rate * np.sin(v) + t)
    for i in range(3):
        rhs = lambda t, v, a=float(rate[i, 0]): a * np.sin(v) + t
        assert np.array_equal(got[i], d.step_rk4(u[i], float(t[i, 0]), float(dt[i, 0]), rhs))
    for bad in (0.0, -1e-3, np.nan):
        with pytest.raises(ValueError):
            d.step_rk4(u, t, np.array([[1e-3], [bad], [5e-4]]), lambda t, v: v)


def test_time_reversibility():
    g = d.make_grid(GK.PERIODIC, 256)
    p = d.PhysParams(0.1, -0.2)
    u0 = d.make_profile(g, "cosine", amplitude=0.05)
    fwd = lambda t, u: d.rhs_nonlocal(u, p)
    bwd = lambda t, u: -1.0 * d.rhs_nonlocal(u, p)
    u = u0
    for _ in range(200):
        u = d.step_rk4(u, 0.0, 1e-3, fwd)
    for _ in range(200):
        u = d.step_rk4(u, 0.0, 1e-3, bwd)
    assert np.max(np.abs(u.values - u0.values)) < 1e-5


# -- simulate -----------------------------------------------------------------


def test_simulate_zero_data(pgrid):
    p = d.PhysParams(0.1, -0.2)
    cfg = d.SimConfig(pgrid, p, dt=5e-4, t_end=0.05, snapshot_stride=10)
    traj = d.simulate(cfg, d.Field.zeros(pgrid))
    assert traj.termination is d.Termination.COMPLETED
    assert all(s.max_abs() == 0.0 for s in traj.snapshots)
    assert traj.times[0] == 0.0 and np.all(np.diff(traj.times) > 0)


def test_simulate_constant_fixed_point(pgrid):
    p = d.PhysParams(0.3, 0.1)
    cfg = d.SimConfig(pgrid, p, dt=2e-4, t_end=0.02, snapshot_stride=10)
    c = d.Field(pgrid, np.full(pgrid.n, 0.25))
    traj = d.simulate(cfg, c)
    assert np.max(np.abs(traj.snapshots[-1].values - 0.25)) < 1e-13


def test_simulate_cfl_gate(pgrid):
    p = d.PhysParams(0.1, -0.2)
    u0 = d.make_profile(pgrid, "cosine", amplitude=0.05)
    from dghlab.solver import cfl_bound

    bound = cfl_bound(pgrid, p, u0)
    with pytest.raises(ValueError):
        d.simulate(d.SimConfig(pgrid, p, dt=3.0 * bound, t_end=3.0 * bound * 10), u0)
    with pytest.warns(d.CflWarning):
        dt = 1.5 * bound
        d.simulate(d.SimConfig(pgrid, p, dt=dt, t_end=10 * dt), u0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", d.CflWarning)
        dt = 0.5 * bound
        d.simulate(d.SimConfig(pgrid, p, dt=dt, t_end=10 * dt), u0)


def test_cfl_warning_points_at_the_caller_of_simulate(pgrid):
    p = d.PhysParams(0.1, -0.2)
    u0 = d.make_profile(pgrid, "cosine", amplitude=0.05)
    from dghlab.solver import cfl_bound

    dt = 1.5 * cfl_bound(pgrid, p, u0)
    with pytest.warns(d.CflWarning) as caught:
        d.simulate(d.SimConfig(pgrid, p, dt=dt, t_end=10 * dt), u0)
    assert [w.filename for w in caught] == [__file__]


def test_simulate_rejects_unaligned_t_end(pgrid):
    p = d.PhysParams(0.0, 0.0)
    with pytest.raises(ValueError):
        d.simulate(d.SimConfig(pgrid, p, dt=3e-4, t_end=1e-3), d.Field.zeros(pgrid))


def test_simulate_rejects_foreign_grid(pgrid):
    other = d.make_grid(GK.PERIODIC, 256)
    p = d.PhysParams(0.0, 0.0)
    cfg = d.SimConfig(pgrid, p, dt=1e-3, t_end=0.01)
    with pytest.raises(ValueError):
        d.simulate(cfg, d.Field.zeros(other))


def test_simulate_flags_nonfinite_and_keeps_prefix(pgrid):
    p = d.PhysParams(0.0, 0.0)
    cfg = d.SimConfig(pgrid, p, dt=5e-4, t_end=0.1, snapshot_stride=10)
    u0 = d.make_profile(pgrid, "cosine", amplitude=0.01)

    def poison(t):
        out = np.zeros(pgrid.n)
        if t > 0.05:
            out[0] = np.nan
        return out

    traj = d.simulate(cfg, u0, forcing=poison)
    assert traj.termination is d.Termination.NON_FINITE
    assert traj.times[-1] <= 0.06
    assert all(np.all(np.isfinite(s.values)) for s in traj.snapshots)


def test_simulate_flags_nonfinite_at_a_half_step(pgrid):
    # NaN enters only through the two midpoint stages and must still stop the run
    p = d.PhysParams(0.0, 0.0)
    dt = 5e-4
    cfg = d.SimConfig(pgrid, p, dt=dt, t_end=0.1, snapshot_stride=10)
    u0 = d.make_profile(pgrid, "cosine", amplitude=0.01)
    poisoned = []

    def poison(t):
        out = np.zeros(pgrid.n)
        steps = t / dt
        if t > 0.05 and abs(steps - round(steps)) > 0.25:
            out[0] = np.nan
            poisoned.append(t)
        return out

    traj = d.simulate(cfg, u0, forcing=poison)
    assert poisoned
    assert traj.termination is d.Termination.NON_FINITE
    assert traj.times[-1] <= 0.06
    assert all(np.all(np.isfinite(s.values)) for s in traj.snapshots)


def test_simulate_blowup_guard_hits_in_finite_time():
    # a steep bump steepens and breaks; the guard converts that into an event
    g = d.make_grid(GK.TRUNCATED_LINE, 512, 8.0)
    p = d.PhysParams(0.0, 0.0)
    u0 = d.make_profile(g, "bump", amplitude=2.0, center=-2.0, width=0.8)
    hits = {}
    for dt in (2.5e-3, 1.25e-3):
        cfg = d.SimConfig(g, p, dt=dt, t_end=5.0, snapshot_stride=100, blowup_guard=50.0)
        traj = run(cfg, u0)
        assert traj.termination is d.Termination.BLOWUP_GUARD
        assert traj.guard_time is not None and traj.guard_time < 5.0
        hits[dt] = traj.guard_time
    assert abs(hits[2.5e-3] - hits[1.25e-3]) / hits[1.25e-3] < 0.10


def test_simulate_warns_boundary_decay_once_per_run():
    # a gaussian of width 2 is still 2e-3 of its peak at the edges of [-5, 5]
    g = d.make_grid(GK.TRUNCATED_LINE, 512, 5.0)
    u0 = d.make_profile(g, "gaussian", width=2.0)
    cfg = d.SimConfig(g, d.PhysParams(0.0, 0.0), dt=1e-3, t_end=0.05)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        d.simulate(cfg, u0)
    decay = [w for w in caught if issubclass(w.category, d.BoundaryDecayWarning)]
    assert len(decay) == 1
    assert decay[0].filename == __file__


@pytest.mark.parametrize("omega, gamma", [(0.45, -0.9), (-0.45, 0.9)])
def test_a_zigzag_at_the_inflow_end_stays_at_round_off(omega, gamma):
    # 2 omega + gamma = 0 and |u| ~ 1e-15 leave u_t = gamma u_x: transport at
    # speed 0.9 into the domain from the left end for gamma < 0, the right for
    # gamma > 0.  A zigzag planted there must not grow.
    g = d.make_grid(GK.TRUNCATED_LINE, 2048, 25.0)
    u0 = np.zeros(g.n)
    inflow = slice(0, 10) if gamma < 0 else slice(-10, None)
    u0[inflow] = 1.5e-15 * (-1.0) ** np.arange(10)
    steps = math.ceil(2.0 / (0.2 * g.spacing))
    cfg = d.SimConfig(g, d.PhysParams(omega, gamma), 2.0 / steps, 2.0, snapshot_stride=steps)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", d.CflWarning)
        with pytest.warns(d.BoundaryDecayWarning):
            traj = d.simulate(cfg, d.Field(g, u0))
    assert traj.times[-1] == pytest.approx(2.0)
    assert traj.snapshots[-1].max_abs() < 1e-12


def test_simulate_is_deterministic(pgrid):
    p = d.PhysParams(0.1, -0.2)
    cfg = d.SimConfig(pgrid, p, dt=5e-4, t_end=0.05, snapshot_stride=10)
    u0 = d.make_profile(pgrid, "cosine", amplitude=0.05)
    a = d.simulate(cfg, u0)
    b = d.simulate(cfg, u0)
    assert all(
        np.array_equal(x.values, y.values) for x, y in zip(a.snapshots, b.snapshots)
    )


def _dealias_reference(grid, vals):
    coef = np.fft.rfft(vals)
    k = np.fft.rfftfreq(grid.n, d=grid.spacing)
    coef[k > grid.n / 3.0] = 0.0
    return np.fft.irfft(coef, n=grid.n)


def _rhs_reference(u, p):
    """The right-hand side in Field arithmetic, operation for operation as rhs_nonlocal."""
    grid = u.grid
    ux = d.derivative(u, 1)
    if grid.is_periodic:
        advect = _dealias_reference(grid, u.values * ux.values)
        quad = _dealias_reference(grid, u.values**2 + 0.5 * ux.values**2)
    else:
        advect = u.values * ux.values
        quad = u.values**2 + 0.5 * ux.values**2
    arg = d.Field(grid, quad + (2.0 * p.omega + p.gamma) * u.values)
    du = -advect + p.gamma * ux.values - d.dx_invert_lambda2(arg).values
    if p.lam > 0:
        du = du - p.lam * u.values
    return d.Field(grid, du)


def _reference_snapshots(cfg, u0, forcing=None):
    """simulate's snapshots from a plain loop of step_rk4 over Fields."""
    p = cfg.params
    if forcing is None:
        rhs = lambda t, u: d.rhs_nonlocal(u, p)
    else:
        rhs = lambda t, u: d.Field(u.grid, d.rhs_nonlocal(u, p).values + forcing(t))
    n_steps = int(round(cfg.t_end / cfg.dt))
    u, snaps = u0, [u0]
    for step in range(1, n_steps + 1):
        u = d.step_rk4(u, (step - 1) * cfg.dt, cfg.dt, rhs)
        if step % cfg.snapshot_stride == 0 or step == n_steps:
            snaps.append(u)
    return snaps


def _bitwise_cases():
    """(config, u0, forcing given to simulate, forcing given to the reference loop)."""
    g = d.make_grid(GK.PERIODIC, 256)
    cosine = d.make_profile(g, "cosine", amplitude=0.05)
    for lam in (0.0, 0.5):
        p = d.PhysParams(0.1, -0.2, lam=lam)
        yield d.SimConfig(g, p, dt=1e-3, t_end=0.06, snapshot_stride=7), cosine, None, None
    line = d.make_grid(GK.TRUNCATED_LINE, 512, 20.0)
    bump = d.make_profile(line, "bump", space="m", amplitude=1.0, center=0.0, width=1.0)
    for p in (d.PhysParams(0.0, 0.0), d.PhysParams(0.1, -0.2, lam=0.3)):
        yield d.SimConfig(line, p, dt=2e-3, t_end=0.1, snapshot_stride=9), bump, None, None
    g = d.make_grid(GK.PERIODIC, 128)
    u0 = _sine(g)
    p = d.PhysParams(0.1, -0.3, lam=0.2)
    oracle = manufactured_forcing_oracle(decaying(u0), p, g)
    cfg = d.SimConfig(g, p, dt=1.2e-3, t_end=0.096, snapshot_stride=11)
    yield cfg, u0, d.manufactured_forcing(u0, p), oracle


def test_simulate_is_bitwise_equal_to_field_loop():
    # Bytes, not np.array_equal, which cannot see a -0.0 that the CSV writer prints.
    lines = 0
    for cfg, u0, forcing, ref_forcing in _bitwise_cases():
        if cfg.grid.is_periodic:  # stepped in Fourier space: see the test below
            continue
        lines += 1
        rhs = d.rhs_nonlocal(u0, cfg.params).values
        assert rhs.tobytes() == _rhs_reference(u0, cfg.params).values.tobytes()
        traj = d.simulate(cfg, u0, forcing=forcing)
        ref = _reference_snapshots(cfg, u0, ref_forcing)
        assert traj.termination is d.Termination.COMPLETED
        assert len(traj.snapshots) == len(ref)
        assert all(a.values.tobytes() == b.values.tobytes() for a, b in zip(traj.snapshots, ref))
    assert lines == 2  # omega = gamma = lam = 0, and all three nonzero


@pytest.mark.parametrize("omega, gamma, lam", [(0.0, 0.0, 0.0), (0.1, -0.2, 0.3), (0.1, -0.2, 0.0)])
def test_line_rhs_keeps_the_sign_of_every_zero(omega, gamma, lam):
    # Signed zeros in u, u_x and every product: the kernel's in-place sums and
    # any term it skips must leave the bytes of the Field arithmetic.
    g = d.make_grid(GK.TRUNCATED_LINE, 64, 8.0)
    zeros = np.zeros(g.n)
    zeros[::3] = -0.0
    zeros[1::5] = -0.0
    block = zeros.copy()
    block[20:40] = np.sin(np.linspace(0.0, 3.0, 20))
    p = d.PhysParams(omega, gamma, lam)
    for vals in (zeros, -zeros, block, -block):
        u = d.Field(g, vals)
        assert d.rhs_nonlocal(u, p).values.tobytes() == _rhs_reference(u, p).values.tobytes()


def test_periodic_simulate_matches_field_loop():
    # simulate steps the rfft coefficients, the Field loop the node values; the
    # two round differently, by at most 1.3e-15 relative when last measured
    for cfg, u0, forcing, ref_forcing in _bitwise_cases():
        if not cfg.grid.is_periodic:
            continue
        traj = d.simulate(cfg, u0, forcing=forcing)
        ref = _reference_snapshots(cfg, u0, ref_forcing)
        assert traj.termination is d.Termination.COMPLETED
        assert len(traj.snapshots) == len(ref)
        for a, b in zip(traj.snapshots, ref):
            assert np.max(np.abs(a.values - b.values)) <= 1e-13 * b.max_abs()


def _poison_rows(monkeypatch, lam, after):
    """Every right-hand side of a row damped by lam is NaN after the first
    ``after`` evaluations; returns the evaluation counter, to reset per run."""
    kernel = d.solver._kernel
    evaluations = [0]

    def poisoned_kernel(grid, params):
        decode, rhs = kernel(grid, params)
        hit = [j for j, q in enumerate(params) if q.lam == lam]

        def poisoned(v, rows, *f):
            du = rhs(v, rows, *f)
            evaluations[0] += 1
            if evaluations[0] > after:
                du[hit] = np.nan
            return du

        return decode, poisoned

    monkeypatch.setattr(d.solver, "_kernel", poisoned_kernel)
    return evaluations


def _row_case(kind):
    """(u0, four configs differing in lam, dt and stride, with the third row's
    guard tripping mid-run) on one grid."""
    if kind == "periodic":
        grid = d.make_grid(GK.PERIODIC, 64)
        u0 = d.make_profile(grid, "cosine", amplitude=0.5)
        p, guard = d.PhysParams(0.1, -0.3), 3.3  # max|u_x| grows from 3.14
    else:
        grid = d.make_grid(GK.TRUNCATED_LINE, 256, 25.0)
        u0 = d.make_profile(grid, "bump", space="m", amplitude=1.0, center=0.0, width=1.0)
        p, guard = d.PhysParams(0.0, 0.0), 0.2861  # max|u_x| rises from 0.28605
    base = d.SimConfig(grid, p, dt=1e-3, t_end=0.05, snapshot_stride=5)
    return u0, [
        base,
        replace(base, params=replace(p, lam=0.5), dt=5e-4, snapshot_stride=7),
        replace(base, params=replace(p, lam=0.01), dt=2e-3, t_end=0.06, blowup_guard=guard),
        replace(base, params=replace(p, lam=1.0), dt=1.25e-3, snapshot_stride=3),
    ]


@pytest.mark.parametrize("kind", ["periodic", "line"])
def test_each_row_of_a_batch_is_its_own_run(kind, monkeypatch):
    u0, configs = _row_case(kind)
    evaluations = _poison_rows(monkeypatch, lam=1.0, after=4 * 20 + 2)  # in step 21
    batch = d.solver._simulate_rows(configs, u0)
    solo = []
    for cfg in configs:
        evaluations[0] = 0
        solo.append(d.simulate(cfg, u0))
    for got, want in zip(batch, solo):
        assert got.config is want.config
        assert np.array_equal(got.times, want.times)
        assert len(got.snapshots) == len(want.snapshots)
        pairs = zip(got.snapshots, want.snapshots)
        assert all(np.array_equal(a.values, b.values) for a, b in pairs)
        assert got.termination is want.termination
        assert got.guard_time == want.guard_time
    untouched, damped, guarded, poisoned = batch
    for traj in (untouched, damped):
        assert traj.termination is d.Termination.COMPLETED
        assert math.isclose(traj.times[-1], traj.config.t_end)
    assert guarded.termination is d.Termination.BLOWUP_GUARD
    assert 0.0 < guarded.guard_time == guarded.times[-1] < guarded.config.t_end
    assert poisoned.termination is d.Termination.NON_FINITE
    assert poisoned.times[-1] == 18 * poisoned.config.dt  # the last stride-3 record before step 21


def test_a_batch_rejects_rows_it_cannot_share(pgrid):
    u0 = d.make_profile(pgrid, "cosine", amplitude=0.05)
    cfg = d.SimConfig(pgrid, d.PhysParams(0.1, -0.2), dt=5e-4, t_end=5e-3)
    with pytest.raises(ValueError, match="omega and gamma"):
        d.solver._simulate_rows([cfg, replace(cfg, params=d.PhysParams(0.2, -0.2))], u0)


@pytest.mark.parametrize("kind", ["periodic", "line"])
def test_each_row_of_a_forced_batch_is_its_own_forced_run(kind):
    u0, configs = _row_case(kind)
    forcing = d.manufactured_forcing(u0, configs[0].params)
    batch = d.solver._simulate_rows(configs, u0, forcing)
    assert len({len(traj.times) for traj in batch}) > 1  # rows leave the batch at different steps
    for got in batch:
        want = d.simulate(got.config, u0, forcing)
        assert np.array_equal(got.times, want.times)
        assert len(got.snapshots) == len(want.snapshots)
        pairs = zip(got.snapshots, want.snapshots)
        assert all(np.array_equal(a.values, b.values) for a, b in pairs)
        assert got.termination is want.termination
        assert got.guard_time == want.guard_time


def test_a_batch_warns_boundary_decay_once_per_row():
    g = d.make_grid(GK.TRUNCATED_LINE, 512, 5.0)
    u0 = d.make_profile(g, "gaussian", width=2.0)
    cfg = d.SimConfig(g, d.PhysParams(0.0, 0.0), dt=1e-3, t_end=0.05)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        d.solver._simulate_rows([cfg, replace(cfg, params=d.PhysParams(0.0, 0.0, lam=0.5))], u0)
    assert sum(issubclass(w.category, d.BoundaryDecayWarning) for w in caught) == 2


def _assert_snapshots_share_no_memory_with_the_kernel_buffers(kind, monkeypatch):
    """A shrinking forced batch of four rows, each with its own lam, keeps no
    kernel buffer in a snapshot, and later runs leave its snapshots alone."""
    u0, configs = _row_case(kind)
    forcing = d.manufactured_forcing(u0, configs[0].params)
    buffers = {}  # every array a kernel of the run holds, by id
    kernels = []
    build = d.solver._kernel

    def recording(grid, params):
        decode, rhs = build(grid, params)
        kernels.append(len(params))
        for fn in (decode, rhs):
            for cell in fn.__closure__:
                if isinstance(cell.cell_contents, np.ndarray):
                    buffers[id(cell.cell_contents)] = cell.cell_contents
        return decode, rhs

    monkeypatch.setattr(d.solver, "_kernel", recording)
    batch = d.solver._simulate_rows(configs, u0, forcing)
    assert kernels[0] == 4 and len(kernels) > 1  # the batch shrank, so several kernels were built
    assert len(buffers) >= {"periodic": 10, "line": 3}[kind] * len(kernels)
    values = [snap.values for traj in batch for snap in traj.snapshots[1:]]  # [0] is u0 itself
    for i, a in enumerate(values):
        assert not any(np.shares_memory(a, b) for b in values[i + 1 :])
    for a in [u0.values, *values]:
        assert not any(np.shares_memory(a, buf) for buf in buffers.values())

    # A kernel built in between (rhs_nonlocal) leaves the earlier run's values as they were.
    monkeypatch.setattr(d.solver, "_kernel", build)
    first = d.simulate(configs[0], u0)
    kept = [snap.values.copy() for snap in first.snapshots]
    d.rhs_nonlocal(-u0, configs[1].params)
    d.simulate(configs[1], d.Field(u0.grid, 2.0 * u0.values))
    assert all(np.array_equal(a, snap.values) for a, snap in zip(kept, first.snapshots))


def test_periodic_snapshots_share_no_memory_with_the_kernel_buffers(monkeypatch):
    _assert_snapshots_share_no_memory_with_the_kernel_buffers("periodic", monkeypatch)


def test_line_snapshots_share_no_memory_with_the_kernel_buffers(monkeypatch):
    _assert_snapshots_share_no_memory_with_the_kernel_buffers("line", monkeypatch)


def test_line_dissipative_equivalence_steps_its_rows_as_their_own_runs(monkeypatch):
    doc = {
        "name": "line-equivalence",
        "kind": "DissipativeEquivalence",
        "grid": {"kind": "line", "n": 256, "half_width": 25.0},
        "params": {"omega": 0.0, "gamma": 0.0},
        "initial": {"family": "bump", "space": "m", "amplitude": 0.5, "center": 0.0, "width": 1.0},
        "solver": {"dt": 2.0e-3, "t_end": 0.2, "snapshot_stride": 5},
        "options": {"lambdas": [0.5, 1.0], "error_tol": 1.0e-5},
    }
    scn = parse_scenario(doc)
    batches = []
    simulate_rows = d.solver._simulate_rows

    def recording(cfgs, u0, *args):
        batches.append(simulate_rows(cfgs, u0, *args))
        return batches[-1]

    monkeypatch.setattr("dghlab.experiments._simulate_rows", recording)
    result = execute(scn)
    assert result.all_passed and len(result.checks) == 2
    (batch,) = batches
    assert [traj.config for traj in batch] == [
        scn.runs[k] for k in ("options.lambdas", "options.lambdas[0]", "options.lambdas[1]")
    ]
    for traj in batch:
        want = d.simulate(traj.config, scn.u0)
        assert np.array_equal(traj.times, want.times)
        pairs = zip(traj.snapshots, want.snapshots)
        assert all(np.array_equal(a.values, b.values) for a, b in pairs)


def _bench_equivalence(lambdas):
    """The benchmark's DissipativeEquivalence request, with the given lambdas."""
    return parse_scenario(
        {
            "name": "equivalence",
            "kind": "DissipativeEquivalence",
            "grid": {"kind": "periodic", "n": 256},
            "params": {"omega": 0.0, "gamma": 0.0},
            "initial": {"family": "cosine", "amplitude": 0.05},
            "solver": {"dt": 1.0e-3, "t_end": 0.1, "snapshot_stride": 10},
            "options": {"lambdas": lambdas, "error_tol": 1.0e-5},
        }
    )


def _fft_lengths(monkeypatch) -> list:
    """The ``n`` that each later rfft/irfft call states, in call order."""
    lengths = []
    for name in ("rfft", "irfft"):
        fn = getattr(np.fft, name)

        def counted(a, n=None, *args, fn=fn, **kw):
            lengths.append(n)
            return fn(a, n, *args, **kw)

        monkeypatch.setattr(np.fft, name, counted)
    return lengths


def test_a_batch_costs_the_fft_calls_of_one_run_and_states_every_length(monkeypatch):
    # Each transform names n = grid.n, so a wrapper that reads the length from
    # len(a) (the leading axis) cannot miscount a batched call.
    lengths = _fft_lengths(monkeypatch)
    counts = {}
    for lambdas in ([0.1], [0.1, 0.5, 1.0]):
        scn = _bench_equivalence(lambdas)
        lengths.clear()
        assert execute(scn).all_passed
        assert lengths and all(n == scn.grid.n for n in lengths)
        counts[len(lambdas)] = len(lengths)
    # 100 steps of 8 calls, one rfft of u0 and one first decode
    assert counts == {1: 802, 3: 802}


def test_a_forced_ladder_costs_the_fft_calls_of_one_batch_and_states_every_length(monkeypatch):
    # The benchmark's ManufacturedConvergence request steps its two rungs in
    # one batch: 8 calls for each of its 120 steps (the coarse rung rides in
    # the first 60), the rfft of u0, a decode at the start and one when the
    # coarse rung leaves, and 4 calls for each of the two rhs_nonlocal calls
    # that build the forcing; its 720 evaluations make no FFT.
    scn = parse_scenario(
        {
            "name": "manufactured-convergence",
            "kind": "ManufacturedConvergence",
            "grid": {"kind": "periodic", "n": 128},
            "params": {"omega": 0.0, "gamma": 0.0},
            "initial": {"family": "cosine", "amplitude": 1.0},
            "solver": {"dt": 8.0e-4, "t_end": 0.096, "snapshot_stride": 12},
            "options": {"dts": [1.6e-3, 8.0e-4], "error_tol": 1.0e-6},
        }
    )
    lengths = _fft_lengths(monkeypatch)
    assert execute(scn).all_passed
    assert lengths and all(n == scn.grid.n for n in lengths)
    assert len(lengths) == 971


def test_trajectory_subsample(pgrid):
    p = d.PhysParams(0.0, 0.0)
    cfg = d.SimConfig(pgrid, p, dt=5e-4, t_end=0.02, snapshot_stride=2)
    traj = d.simulate(cfg, d.Field.zeros(pgrid))
    sub = subsample(traj, 2)
    assert sub.times[0] == 0.0 and sub.times[-1] == traj.times[-1]
    assert len(sub.snapshots) < len(traj.snapshots)


def test_trajectory_keeps_a_read_only_copy_of_its_times(pgrid):
    snaps = [d.Field.zeros(pgrid), d.Field.zeros(pgrid)]
    cfg = d.SimConfig(pgrid, d.PhysParams(0.0, 0.0), dt=0.1, t_end=0.1)
    t = np.array([0.0, 0.1])
    tr = d.Trajectory(cfg, t, snaps, d.Termination.COMPLETED)
    t[1] = -5.0
    assert tr.times.tolist() == [0.0, 0.1]
    assert not tr.times.flags.writeable
    with pytest.raises(ValueError):
        tr.times[1] = 0.2
    assert isinstance(tr.snapshots, tuple) and tr.snapshots == tuple(snaps)


def test_trajectories_compare_and_hash_by_identity(pgrid):
    cfg = d.SimConfig(pgrid, d.PhysParams(0.0, 0.0), dt=5e-4, t_end=0.01, snapshot_stride=5)
    u0 = d.make_profile(pgrid, "cosine", amplitude=0.1)
    a, b = d.simulate(cfg, u0), d.simulate(cfg, u0)
    assert a != b and a == a
    assert len({a, b, a}) == 2
    assert not a.times.flags.writeable


# -- manufactured solutions ---------------------------------------------------


def test_manufactured_forcing_trivial_cases(pgrid):
    p = d.PhysParams(0.2, -0.1)
    zero = d.Field.zeros(pgrid)
    const = d.Field(pgrid, np.full(pgrid.n, 0.4))
    assert np.max(np.abs(d.manufactured_forcing(zero, p)(0.3))) == 0.0
    # the right-hand side vanishes on constants, so only u_t = -exp(-t) 0.4 is left
    f = d.manufactured_forcing(const, p)(0.3)
    assert np.max(np.abs(f + 0.4 * math.exp(-0.3))) < 1e-13


def _sine(g):
    return d.Field(g, np.sin(2 * np.pi * g.nodes))


@pytest.mark.parametrize("kind", ["periodic", "line"])
def test_manufactured_forcing_matches_the_per_time_oracle(kind):
    # s R1 + s^2 R2 against R(exp(-t) u0) evaluated afresh at each t, every term active
    p = d.PhysParams(0.1, -0.3, lam=0.2)
    if kind == "periodic":
        g = d.make_grid(GK.PERIODIC, 128)
        u0 = d.make_profile(g, "cosine", amplitude=1.0, modes=2, mean=0.1)
    else:
        g = d.make_grid(GK.TRUNCATED_LINE, 512, 20.0)
        u0 = d.make_profile(g, "bump", space="m", amplitude=1.0, center=0.0, width=1.0)
    forcing = d.manufactured_forcing(u0, p)
    oracle = manufactured_forcing_oracle(decaying(u0), p, u0.grid)
    for t in (0.0, 0.05, 0.37, 1.0):
        want = oracle(t)
        assert np.max(np.abs(forcing(t) - want)) <= 1e-13 * np.max(np.abs(want))
    zero = d.manufactured_forcing(d.Field.zeros(u0.grid), p)
    assert all(np.max(np.abs(zero(t))) == 0.0 for t in (0.0, 0.37))


def _stage_times(dts, n_steps):
    """RK4's stage times for rows stepped together, t accumulated as the stepper does."""
    ts, calls = [0.0] * len(dts), []
    for step in range(max(n_steps)):
        live = [i for i, n in enumerate(n_steps) if step < n]
        for c in (0.0, 0.5, 0.5, 1.0):
            calls += [ts[i] + c * dts[i] for i in live]
        for i in live:
            ts[i] = ts[i] + dts[i]
    return calls


def test_manufactured_forcing_is_evaluated_for_each_row_at_each_stage(monkeypatch):
    g = d.make_grid(GK.PERIODIC, 128)
    p = d.PhysParams(0.1, -0.3)
    u0 = _sine(g)
    forcing = d.manufactured_forcing(u0, p)
    fresh = d.manufactured_forcing(u0, p)
    for t in (0.0, 0.2, 0.2, 0.1):
        assert np.array_equal(forcing(t), fresh(t))

    rhs_calls = []
    rhs = d.solver.rhs_nonlocal
    monkeypatch.setattr(d.solver, "rhs_nonlocal", lambda u, p: rhs_calls.append(1) or rhs(u, p))
    forcing = d.manufactured_forcing(u0, p)
    forcing_calls = []
    counted = lambda t: forcing_calls.append(t) or forcing(t)
    cfg = d.SimConfig(g, p, dt=1.2e-3, t_end=0.12, snapshot_stride=100)
    d.simulate(cfg, u0, forcing=counted)
    assert len(forcing_calls) == 4 * 100
    assert forcing_calls == _stage_times([1.2e-3], [100])
    assert len(rhs_calls) == 2  # R(u0) and R(-u0), when the forcing is built

    # a two-rung ladder: one call per live row per stage, the coarse rung leaving after 50 steps
    forcing_calls.clear()
    ladder = [replace(cfg, dt=dt, t_end=0.06) for dt in (1.2e-3, 6e-4)]
    d.solver._simulate_rows(ladder, u0, counted)
    assert len(forcing_calls) == 4 * (50 + 100)
    assert forcing_calls == _stage_times([1.2e-3, 6e-4], [50, 100])


def test_manufactured_convergence_evaluates_the_rhs_twice(monkeypatch):
    # the forcing is built once, from R(u0) and R(-u0)
    config = Path(__file__).resolve().parents[1] / "configs" / "manufactured_convergence.yaml"
    rhs_calls = []
    rhs = d.solver.rhs_nonlocal
    monkeypatch.setattr(d.solver, "rhs_nonlocal", lambda u, p: rhs_calls.append(1) or rhs(u, p))
    assert execute(load_scenario(config)).all_passed
    assert len(rhs_calls) == 2


def test_manufactured_solution_reproduced():
    g = d.make_grid(GK.PERIODIC, 128)
    p = d.PhysParams(0.0, 0.0)
    u0 = _sine(g)
    forcing = d.manufactured_forcing(u0, p)
    cfg = d.SimConfig(g, p, dt=1.6e-3, t_end=1.0, snapshot_stride=125)
    traj = d.simulate(cfg, u0, forcing=forcing)
    err = np.max(np.abs(traj.snapshots[-1].values - math.exp(-1.0) * u0.values))
    assert err < 1e-6


def test_manufactured_temporal_order_is_four():
    g = d.make_grid(GK.PERIODIC, 128)
    p = d.PhysParams(0.0, 0.0)
    u0 = _sine(g)
    forcing = d.manufactured_forcing(u0, p)
    errs = []
    for dt in (1.6e-3, 8e-4):
        cfg = d.SimConfig(g, p, dt=dt, t_end=1.0, snapshot_stride=int(round(0.2 / dt)))
        traj = d.simulate(cfg, u0, forcing=forcing)
        errs.append(np.max(np.abs(traj.snapshots[-1].values - math.exp(-1.0) * u0.values)))
    order = math.log2(errs[0] / errs[1])
    assert 3.8 <= order <= 4.2

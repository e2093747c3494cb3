import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dghlab as d
from dghlab import GridKind as GK

from conftest import run, subsample


# -- the exponential clock ----------------------------------------------------


def test_clock_conservative_limit():
    assert d.to_conservative_time(1.0, 0.0) == 1.0
    assert d.to_conservative_time(0.7, 1e-12) == pytest.approx(0.7, rel=1e-10)


def test_clock_value_at_lambda_one():
    assert d.to_conservative_time(1.0, 1.0) == pytest.approx(1 - math.exp(-1), rel=1e-15)
    assert d.to_conservative_time(1.0, 1.0) == pytest.approx(0.632121, abs=1e-6)


def test_clock_bounded_horizon():
    assert d.to_conservative_time(1e9, 1.0) == pytest.approx(1.0, rel=1e-12)
    assert d.to_conservative_time(1e9, 2.5) == pytest.approx(0.4, rel=1e-12)


def test_clock_series_branch_matches_exact_formula():
    # both branches of the implementation agree with the closed form
    t = 0.9
    for lam in (0.99e-8, 1.01e-8):
        oracle = -math.expm1(-lam * t) / lam
        assert d.to_conservative_time(t, lam) == pytest.approx(oracle, rel=1e-12)


def test_clock_rejects_negative_arguments():
    with pytest.raises(ValueError):
        d.to_conservative_time(-1.0, 0.5)
    with pytest.raises(ValueError):
        d.to_conservative_time(1.0, -0.5)


@given(
    lam=st.floats(1e-6, 1.0),
    t=st.floats(0.0, 15.0),
    dt=st.floats(1e-3, 1.0),
)
@settings(max_examples=200, derandomize=True)
def test_clock_monotone_concave_bounded(lam, t, dt):
    # parameter ranges keep exp(-lam t) well above the floating-point floor,
    # where strict monotonicity is representable
    tau0 = d.to_conservative_time(t, lam)
    tau1 = d.to_conservative_time(t + dt, lam)
    assert tau1 > tau0  # strictly increasing
    assert tau0 <= min(t, 1.0 / lam) + 1e-12
    mid = d.to_conservative_time(t + 0.5 * dt, lam)
    assert mid >= 0.5 * (tau0 + tau1) - 1e-12  # concavity


# -- mapping trajectories -----------------------------------------------------


@pytest.fixture(scope="module")
def conservative_run():
    g = d.make_grid(GK.PERIODIC, 256)
    p = d.PhysParams(0.0, 0.0)
    u0 = d.make_profile(g, "cosine", amplitude=0.05)
    cfg = d.SimConfig(g, p, dt=1e-3, t_end=1.0, snapshot_stride=5)
    return run(cfg, u0)


def test_map_with_zero_damping_is_identity(conservative_run):
    assert d.map_solution(conservative_run, 0.0) is conservative_run


def test_map_zero_trajectory_stays_zero():
    g = d.make_grid(GK.PERIODIC, 128)
    p = d.PhysParams(0.0, 0.0)
    cfg = d.SimConfig(g, p, dt=1e-3, t_end=0.2, snapshot_stride=20)
    traj = run(cfg, d.Field.zeros(g))
    mapped = d.map_solution(traj, 0.7)
    assert all(s.max_abs() == 0.0 for s in mapped.snapshots)


def test_map_fixes_initial_data(conservative_run):
    mapped = d.map_solution(conservative_run, 0.5)
    assert np.array_equal(
        mapped.snapshots[0].values, conservative_run.snapshots[0].values
    )
    assert mapped.times[0] == 0.0


def test_map_amplitude_decay_bound(conservative_run):
    lam = 0.8
    mapped = d.map_solution(conservative_run, lam)
    v_peak = max(s.max_abs() for s in conservative_run.snapshots)
    for t, snap in zip(mapped.times, mapped.snapshots):
        assert snap.max_abs() <= math.exp(-lam * t) * v_peak + 1e-12


def test_map_rejects_uncovered_times(conservative_run):
    lam = 0.5
    # tau(t) for this t exceeds the stored conservative horizon
    t_far = 10.0
    assert d.to_conservative_time(t_far, lam) > conservative_run.times[-1]
    with pytest.raises(ValueError):
        d.map_solution(conservative_run, lam, times=np.array([0.0, t_far]))


def test_equivalence_report_trivial_cases(conservative_run):
    rep = d.equivalence_report(conservative_run, conservative_run)
    assert rep.worst == 0.0
    shifted = d.Trajectory(
        conservative_run.config,
        conservative_run.times,
        tuple(d.Field(s.grid, s.values + 0.25) for s in conservative_run.snapshots),
        conservative_run.termination,
    )
    rep2 = d.equivalence_report(conservative_run, shifted)
    assert rep2.worst == pytest.approx(0.25, rel=1e-12)


def test_equivalence_report_rejects_mismatched_grids(conservative_run):
    g = d.make_grid(GK.PERIODIC, 128)
    p = d.PhysParams(0.0, 0.0)
    cfg = d.SimConfig(g, p, dt=1e-3, t_end=0.1, snapshot_stride=10)
    other = run(cfg, d.Field.zeros(g))
    with pytest.raises(ValueError):
        d.equivalence_report(conservative_run, other)
    with pytest.raises(ValueError, match="snapshot times"):
        d.equivalence_report(conservative_run, subsample(conservative_run, 2))


def _stacked(traj: d.Trajectory) -> np.ndarray:
    return np.stack([s.values for s in traj.snapshots])


def _map_values_stacked(conservative: d.Trajectory, lam: float, times) -> np.ndarray:
    """``map_solution``'s values gathered from the whole (n_t, n) stack of snapshots."""
    tau_grid = conservative.times
    tau = np.minimum(d.to_conservative_time(times, lam), tau_grid[-1])
    p = min(4, tau_grid.size)
    first = np.clip(np.searchsorted(tau_grid, tau, "right") - p // 2, 0, tau_grid.size - p)
    nodes = first[:, None] + np.arange(p)
    at = tau_grid[nodes]
    eye = np.eye(p, dtype=bool)
    num = np.where(eye, 1.0, tau[:, None, None] - at[:, None, :])
    den = np.where(eye, 1.0, at[:, :, None] - at[:, None, :])
    v = np.einsum("tm,tmn->tn", (num / den).prod(axis=2), _stacked(conservative)[nodes])
    return np.exp(-lam * times)[:, None] * v


@pytest.mark.parametrize("lam, times", [(0.3, None), (0.8, None), (0.5, np.linspace(0.0, 1.0, 37))])
def test_map_is_bitwise_its_stacked_form(conservative_run, lam, times):
    mapped = d.map_solution(conservative_run, lam, times=times)
    want = _map_values_stacked(conservative_run, lam, mapped.times)
    assert np.array_equal(_stacked(mapped), want)


def test_equivalence_report_is_bitwise_its_stacked_form(conservative_run):
    # the damped values on the conservative clock differ from it at every time but t = 0
    other = replace(d.map_solution(conservative_run, 0.8), times=conservative_run.times)
    rep = d.equivalence_report(conservative_run, other)
    want = np.max(np.abs(_stacked(conservative_run) - _stacked(other)), axis=1)
    assert rep.max_abs.dtype == want.dtype and np.array_equal(rep.max_abs, want)
    assert np.all(rep.max_abs[1:] > 0.0)


def test_direct_damped_run_matches_transformed_conservative():
    g = d.make_grid(GK.PERIODIC, 256)
    u0 = d.make_profile(g, "cosine", amplitude=0.05)
    lam = 0.5
    direct = run(
        d.SimConfig(g, d.PhysParams(0.0, 0.0, lam), dt=1e-3, t_end=1.0, snapshot_stride=10),
        u0,
    )
    tau_max = float(d.to_conservative_time(1.0, lam))
    n_steps = int(math.ceil(tau_max / 1e-3))
    cons = run(
        d.SimConfig(g, d.PhysParams(0.0, 0.0), dt=tau_max / n_steps, t_end=tau_max, snapshot_stride=5),
        u0,
    )
    mapped = d.map_solution(cons, lam, times=direct.times)
    rep = d.equivalence_report(direct, mapped)
    assert rep.worst < 1e-5


@pytest.mark.parametrize(
    "tau_nodes, degree",
    [
        # non-uniform, with a last panel far shorter than the others
        ([0.0, 0.1, 0.25, 0.33, 0.5, 0.62, 0.8, 0.802], 3),
        ([0.0, 0.3], 1),
        ([0.0, 0.2, 0.45], 2),
    ],
)
def test_map_reproduces_polynomials_in_tau(tau_nodes, degree):
    g = d.make_grid(GK.PERIODIC, 64)
    x = g.nodes
    coeffs = [np.cos(2 * np.pi * x), 1.0 + x, np.sin(2 * np.pi * x), 0.5 - x**2][: degree + 1]

    def v(tau):
        return sum(c * tau**k for k, c in enumerate(coeffs))

    tau_nodes = np.array(tau_nodes)
    cfg = d.SimConfig(g, d.PhysParams(0.0, 0.0), dt=1e-3, t_end=tau_nodes[-1], snapshot_stride=1)
    cons = d.Trajectory(cfg, tau_nodes, [d.Field(g, v(t)) for t in tau_nodes], d.Termination.COMPLETED)
    lam = 0.7
    tau = np.concatenate([np.linspace(0.0, tau_nodes[-1], 41), tau_nodes[-1] - [5e-4, 1e-3]])
    times = np.sort(-np.log1p(-lam * tau) / lam)
    mapped = d.map_solution(cons, lam, times=times)
    for t, snap in zip(mapped.times, mapped.snapshots):
        want = math.exp(-lam * t) * v(d.to_conservative_time(t, lam))
        assert np.max(np.abs(snap.values - want)) <= 1e-13

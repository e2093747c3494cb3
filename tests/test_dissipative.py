import math
from pathlib import Path

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
    u0 = d.Field.from_function(g, lambda x: 0.05 * np.cos(2 * np.pi * x))
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


def test_direct_damped_run_matches_transformed_conservative():
    g = d.make_grid(GK.PERIODIC, 256)
    u0 = d.Field.from_function(g, lambda x: 0.05 * np.cos(2 * np.pi * x))
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


def _equivalence_run_counting_splines(monkeypatch, cache) -> tuple[int, dict]:
    """execute() of the shipped config, with CubicSpline constructions counted."""
    import scipy.interpolate

    from dghlab import dissipative
    from dghlab.experiments import execute
    from dghlab.scenario import load_scenario

    built = []

    class CountingSpline(scipy.interpolate.CubicSpline):
        def __init__(self, *args, **kwargs):
            built.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(scipy.interpolate, "CubicSpline", CountingSpline)
    monkeypatch.setattr(dissipative, "_TAU_SPLINE", cache)
    config = Path(__file__).resolve().parent.parent / "configs" / "dissipative_equivalence.yaml"
    result = execute(load_scenario(config))
    return len(built), result.metadata["max_error_by_lambda"]


class _NoCache(dict):
    """Forgets every spline: one solve per lambda."""

    def __setitem__(self, key, value):
        pass


def test_one_tau_spline_per_undamped_run(monkeypatch):
    once, errors = _equivalence_run_counting_splines(monkeypatch, {})
    per_lambda, want = _equivalence_run_counting_splines(monkeypatch, _NoCache())
    assert once == 1
    assert per_lambda == len(want) > 1
    assert errors == want  # the shared spline gives the same floats

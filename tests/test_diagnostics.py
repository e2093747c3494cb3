import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import dghlab as d
from dghlab import GridKind as GK
from dghlab.diagnostics import _quiet_runs

from conftest import dx_invert_lambda2_direct, run, vanishing_rectangle_stacked


# -- support detection --------------------------------------------------------


def test_support_of_zero_field_is_empty():
    g = d.make_grid(GK.PERIODIC, 128)
    rep = d.support_interval(d.Field.zeros(g), 1e-10)
    assert rep.interval is None and not rep.boundary_touch


def test_support_threshold_must_be_positive():
    g = d.make_grid(GK.PERIODIC, 128)
    with pytest.raises(ValueError):
        d.support_interval(d.Field.zeros(g), 0.0)


def test_support_of_bump_matches_threshold_crossing():
    # oracle: the bump amplitude*exp(1 - 1/(1 - s^2)) crosses level thr at
    # s* = sqrt(1 - 1/(1 + ln(amplitude e / thr)))
    g = d.make_grid(GK.TRUNCATED_LINE, 2048, 20.0)
    f = d.make_profile(g, "bump", amplitude=1.0, width=1.0)
    thr = 1e-10
    s_star = math.sqrt(1.0 - 1.0 / (1.0 + math.log(1.0 / thr)))
    rep = d.support_interval(f, thr)
    assert not rep.boundary_touch
    lo, hi = rep.interval
    assert lo == pytest.approx(-s_star, abs=1.5 * g.spacing)
    assert hi == pytest.approx(+s_star, abs=1.5 * g.spacing)
    assert -1.0 - g.spacing <= lo and hi <= 1.0 + g.spacing


def test_support_of_sine_spans_domain_and_touches_boundary():
    g = d.make_grid(GK.PERIODIC, 256)
    f = d.Field(g, np.sin(2 * np.pi * g.nodes))
    rep = d.support_interval(f, 1e-10)
    assert rep.boundary_touch
    lo, hi = rep.interval
    assert hi - lo > 1.0 - 3 * g.spacing


# -- the sign comparison kernel ----------------------------------------------


def test_sign_kernel_point_values():
    assert d.sign_kernel_S(0, 1, -1) == pytest.approx(math.exp(-1) - math.exp(-2), rel=1e-15)
    assert d.sign_kernel_S(0, 1, 2) == pytest.approx(math.exp(-1) - math.exp(-2), rel=1e-15)
    # sgn(0) = 0 convention at y = a
    assert d.sign_kernel_S(0, 1, 0) == pytest.approx(-math.exp(-1), rel=1e-15)


def test_sign_kernel_rejects_degenerate_interval():
    with pytest.raises(ValueError):
        d.sign_kernel_S(1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        d.sign_kernel_S(2.0, 1.0, 0.0)


@given(
    a=st.floats(-50, 50),
    width=st.floats(1e-6, 50),
    offset=st.floats(1e-9, 50),
    right=st.booleans(),
)
@settings(max_examples=300, derandomize=True)
def test_sign_kernel_positive_outside_interval(a, width, offset, right):
    b = a + width
    y = b + offset if right else a - offset
    assert d.sign_kernel_S(a, b, y) > 0.0


@given(a=st.floats(-20, 20), width=st.floats(1e-6, 20), dist=st.floats(1e-6, 20))
@settings(max_examples=200, derandomize=True)
def test_sign_kernel_mirror_symmetry(a, width, dist):
    b = a + width
    assert d.sign_kernel_S(a, b, a - dist) == pytest.approx(
        d.sign_kernel_S(a, b, b + dist), abs=1e-12
    )


def test_sign_kernel_positivity_many_random_triples():
    rng = np.random.default_rng(2024)
    a = rng.uniform(-50, 50, size=10_000)
    b = a + rng.uniform(1e-6, 50, size=10_000)
    off = rng.uniform(1e-9, 50, size=10_000)
    left = rng.integers(0, 2, size=10_000).astype(bool)
    y = np.where(left, a - off, b + off)
    vals = np.array([d.sign_kernel_S(ai, bi, yi) for ai, bi, yi in zip(a, b, y)])
    assert np.all(vals > 0.0)


def test_sign_kernel_absolutely_integrable():
    val, _ = quad(lambda y: abs(d.sign_kernel_S(-1.0, 2.0, y)), -40, 40, points=[-1.0, 2.0], limit=300)
    assert np.isfinite(val) and 0 < val < 20


# -- continuation probe -------------------------------------------------------


def test_probe_zero_field():
    g = d.make_grid(GK.PERIODIC, 128)
    p = d.PhysParams(0.25, -0.5)
    probe = d.continuation_probe(d.Field.zeros(g), d.Field.zeros(g), p)
    assert probe.max_residual == 0.0
    assert probe.F.max_abs() == 0.0
    assert probe.quiet and probe.quiet[0].max_abs_F == 0.0


def test_probe_requires_gamma_minus_two_omega():
    g = d.make_grid(GK.PERIODIC, 128)
    with pytest.raises(ValueError):
        d.continuation_probe(d.Field.zeros(g), d.Field.zeros(g), d.PhysParams(0.3, 0.0))


def test_probe_sine_closed_form_and_two_paths():
    # u = sin(2 pi x): u^2 + u_x^2/2 = (1/2 + pi^2) + (pi^2 - 1/2) cos(4 pi x),
    # so F = -(pi^2 - 1/2) 4 pi sin(4 pi x) / (1 + 16 pi^2)
    g = d.make_grid(GK.PERIODIC, 512)
    u = d.Field(g, np.sin(2 * np.pi * g.nodes))
    p = d.PhysParams(0.1, -0.2)
    probe = d.continuation_probe(u, d.rhs_nonlocal(u, p), p)
    closed = -(np.pi**2 - 0.5) * 4 * np.pi * np.sin(4 * np.pi * g.nodes) / (1 + 16 * np.pi**2)
    assert np.max(np.abs(probe.F.values - closed)) < 1e-12

    # two independent evaluation paths for F (spectral division vs sampled
    # kernel), compared at high resolution where aliasing is negligible
    g2 = d.make_grid(GK.PERIODIC, 65536)
    u2 = d.Field(g2, np.sin(2 * np.pi * g2.nodes))
    ux2 = d.derivative(u2, 1)
    h2 = d.Field(g2, u2.values**2 + 0.5 * ux2.values**2)
    spectral = d.dx_invert_lambda2(h2)
    direct = dx_invert_lambda2_direct(h2)
    assert np.max(np.abs(spectral.values - direct.values)) < 1e-8


def test_probe_residual_small_on_simulated_snapshot():
    g = d.make_grid(GK.PERIODIC, 256)
    p = d.PhysParams(0.1, -0.2)
    cfg = d.SimConfig(g, p, dt=5e-4, t_end=0.2, snapshot_stride=40)
    traj = run(cfg, d.make_profile(g, "cosine", amplitude=0.05))
    for snap in traj.snapshots:
        probe = d.continuation_probe(snap, d.rhs_nonlocal(snap, p), p)
        assert probe.max_residual < 1e-6


def test_probe_reports_quiet_intervals():
    g = d.make_grid(GK.TRUNCATED_LINE, 1024, 10.0)
    u = d.make_profile(g, "bump", amplitude=0.5, center=-5.0, width=1.0)
    p = d.PhysParams(0.0, 0.0)
    probe = d.continuation_probe(u, d.Field.zeros(g), p)
    assert probe.quiet  # the field vanishes outside the bump
    widest = max(probe.quiet, key=lambda q: q.x_hi - q.x_lo)
    assert widest.x_hi > 4.0  # the whole right half is quiet
    assert np.isfinite(widest.max_abs_F)


def _quiet_runs_loop(mask):
    """Maximal runs of True entries by a scalar scan: the oracle for the library's."""
    runs = []
    j = 0
    n = mask.size
    while j < n:
        if mask[j]:
            j0 = j
            while j + 1 < n and mask[j + 1]:
                j += 1
            runs.append((j0, j))
        j += 1
    return runs


def test_quiet_runs_match_scalar_scan():
    rng = np.random.default_rng(7)
    masks = [rng.random(n) < p for n in (1, 2, 17, 300) for p in (0.1, 0.5, 0.9)]
    n = 64
    edge = np.zeros(n, dtype=bool)
    edge[:3] = edge[-5:] = True
    masks += [np.ones(n, dtype=bool), np.zeros(n, dtype=bool), edge, ~edge]
    masks += [np.array([True]), np.array([False]), np.zeros(0, dtype=bool)]
    for mask in masks:
        runs = _quiet_runs(mask)
        assert runs == _quiet_runs_loop(mask)
        assert all(type(j) is int for run_ in runs for j in run_)
    assert _quiet_runs(edge) == [(0, 2), (n - 5, n - 1)]
    assert _quiet_runs(np.ones(n, dtype=bool)) == [(0, n - 1)]


def test_smoothed_density_vanishes_iff_field_does():
    # max |Lambda^{-2}(u^2 + u_x^2/2)| is comparable to max|u|^2 from both
    # sides on a scaled family, so one vanishes exactly when the other does
    g = d.make_grid(GK.PERIODIC, 256)
    for eps in (1e-2, 1e-5, 1e-8):
        u = d.make_profile(g, "cosine", amplitude=eps)
        ux = d.derivative(u, 1)
        f = d.invert_lambda2(d.Field(g, u.values**2 + 0.5 * ux.values**2))
        peak = f.max_abs()
        assert 0.4 * eps**2 < peak < 30 * eps**2


# -- tail decay fitting -------------------------------------------------------


def test_tail_fit_exact_exponentials():
    g = d.make_grid(GK.TRUNCATED_LINE, 2048, 20.0)
    f1 = d.Field(g, np.exp(-np.abs(g.nodes)))
    assert d.tail_decay_fit(f1, "right", (5.0, 15.0)) == pytest.approx(-1.0, abs=1e-6)
    assert d.tail_decay_fit(f1, "left", (-15.0, -5.0)) == pytest.approx(1.0, abs=1e-6)
    f2 = d.Field(g, np.exp(-2 * np.abs(g.nodes)))
    assert d.tail_decay_fit(f2, "right", (2.0, 8.0)) == pytest.approx(-2.0, abs=1e-6)


def test_tail_fit_validation():
    g = d.make_grid(GK.TRUNCATED_LINE, 256, 10.0)
    f = d.Field(g, np.exp(-np.abs(g.nodes)))
    with pytest.raises(ValueError):
        d.tail_decay_fit(f, "up", (2.0, 5.0))
    with pytest.raises(ValueError):
        d.tail_decay_fit(f, "right", (5.0, 2.0))
    with pytest.raises(ValueError):
        d.tail_decay_fit(d.Field.zeros(g), "right", (2.0, 5.0))


# -- vanishing rectangles -----------------------------------------------------


def test_vanishing_rectangles_zero_trajectory_covers_domain():
    g = d.make_grid(GK.PERIODIC, 128)
    p = d.PhysParams(0.1, -0.2)
    cfg = d.SimConfig(g, p, dt=1e-3, t_end=0.1, snapshot_stride=10)
    traj = run(cfg, d.Field.zeros(g))
    rects = d.vanishing_rectangle(traj, 1e-8)
    assert len(rects) == 1
    r = rects[0]
    assert r.t_lo == 0.0 and r.t_hi == traj.times[-1]
    assert r.node_span == (0, g.n - 1)


def test_vanishing_rectangles_empty_for_nontrivial_run():
    g = d.make_grid(GK.PERIODIC, 256)
    p = d.PhysParams(0.1, -0.2)
    cfg = d.SimConfig(g, p, dt=5e-4, t_end=0.3, snapshot_stride=20)
    traj = run(cfg, d.make_profile(g, "cosine", amplitude=0.05))
    assert d.vanishing_rectangle(traj, 1e-8) == []


@pytest.fixture(scope="module")
def bump_line_run():
    g = d.make_grid(GK.TRUNCATED_LINE, 2048, 20.0)
    p = d.PhysParams(0.0, 0.0)
    u0 = d.make_profile(g, "bump", space="m", amplitude=1.0, width=1.0)
    cfg = d.SimConfig(g, p, dt=1e-3, t_end=0.1, snapshot_stride=20)
    return run(cfg, u0), p


def test_vanishing_rectangles_only_outside_light_cone(bump_line_run):
    traj, p = bump_line_run
    rects = d.vanishing_rectangle(traj, 1e-8)
    assert rects  # the far field is quiet at this tolerance
    paths = d.evolve_characteristics(traj, [-1.0, 1.0])
    cone_lo = np.min(paths.q[:, 0]) - 0.5
    cone_hi = np.max(paths.q[:, 1]) + 0.5
    for r in rects:
        assert r.x_hi < cone_lo or r.x_lo > cone_hi


def test_probe_quiet_on_detected_rectangles():
    # where a whole space-time rectangle stays below 1e-12, the nonlocal term
    # F must be below 1e-8 on its x-interval; needs a domain wide enough for
    # the exponential tails to drop under 1e-12 inside it
    g = d.make_grid(GK.TRUNCATED_LINE, 3072, 30.0)
    p = d.PhysParams(0.0, 0.0)
    u0 = d.make_profile(g, "bump", space="m", amplitude=1.0, width=1.0)
    cfg = d.SimConfig(g, p, dt=1e-3, t_end=0.1, snapshot_stride=20)
    traj = run(cfg, u0)
    rects = d.vanishing_rectangle(traj, 1e-12)
    assert rects
    for r in rects:
        for k in range(r.time_span[0], r.time_span[1] + 1):
            u = traj.snapshots[k]
            ux = d.derivative(u, 1)
            F = d.dx_invert_lambda2(d.Field(traj.grid, u.values**2 + 0.5 * ux.values**2))
            sel = slice(r.node_span[0], r.node_span[1] + 1)
            assert np.max(np.abs(F.values[sel])) < 1e-8


def _line_trajectory(rows, half_width=5.0) -> d.Trajectory:
    """A stored run on the truncated line with the given snapshot values, 0.1 apart."""
    rows = np.asarray(rows, dtype=float)
    g = d.make_grid(GK.TRUNCATED_LINE, rows.shape[1], half_width)
    cfg = d.SimConfig(g, d.PhysParams(0.0, 0.0), dt=0.1, t_end=0.1 * max(1, len(rows) - 1))
    snaps = [d.Field(g, row) for row in rows]
    return d.Trajectory(cfg, 0.1 * np.arange(len(rows)), snaps, d.Termination.COMPLETED)


# |v| < 0.5 is quiet; 0.5 itself is not, so the strict comparison is tested too
_LEVELS = [0.0, -0.25, 0.5, 1.0, -2.0]
_Q, _L = 0.0, 1.0
_N = 16
_snapshot = st.one_of(
    st.just([_Q] * _N),
    st.just([_L] * _N),
    st.lists(st.sampled_from(_LEVELS), min_size=_N, max_size=_N),
)


@given(st.lists(_snapshot, min_size=1, max_size=6))
@example([[_Q] * _N])  # one snapshot: no rectangle can span two times
@example([[_Q] * _N] * 3)  # all quiet, runs touching both ends
@example([[_L] * _N, [_Q] * _N, [_L] * _N])  # no-quiet snapshots around an all-quiet one
@example(  # the run started at k = 1 ends inside the one grown from k = 0: nested
    [[_Q] * 10 + [_L] * 6, [_Q] * 13 + [_L] * 3, [_Q] * 10 + [_L] * 6]
)
@example(  # quiet runs at both domain ends, merging and splitting again
    [[_Q] * 4 + [_L] * 8 + [_Q] * 4, [_Q] * 7 + [_L] * 2 + [_Q] * 7, [_Q] * 3 + [_L] * 10 + [_Q] * 3]
)
@settings(max_examples=200, deadline=None)
def test_vanishing_rectangles_match_stacked_masks(rows):
    traj = _line_trajectory(rows)
    assert d.vanishing_rectangle(traj, 0.5) == vanishing_rectangle_stacked(traj, 0.5)


def test_vanishing_rectangles_hold_no_trajectory_sized_array():
    # 301 x 2048 doubles are 4.9 MB; the stacked values, magnitudes and masks peaked at 10.5 MB
    x = d.make_grid(GK.TRUNCATED_LINE, 2048, 20.0).nodes
    traj = _line_trajectory([np.exp(-np.abs(x - 0.01 * k)) for k in range(301)], 20.0)
    tracemalloc.start()
    try:
        rects = d.vanishing_rectangle(traj, 1e-6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rects and rects == vanishing_rectangle_stacked(traj, 1e-6)
    assert peak < 1_000_000


# -- non-finite inputs --------------------------------------------------------


def _zero_run(kind: GK) -> d.Trajectory:
    g = d.make_grid(kind, 32, 5.0)
    cfg = d.SimConfig(g, d.PhysParams(0.0, 0.0), dt=1e-2, t_end=0.05, snapshot_stride=1)
    return run(cfg, d.Field.zeros(g))


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "call",
    [
        lambda: d.evolve_characteristics(_zero_run(GK.TRUNCATED_LINE), [0.0, _NAN]),
        lambda: d.evolve_characteristics(_zero_run(GK.PERIODIC), [_NAN]),
        lambda: d.evolve_characteristics(_zero_run(GK.PERIODIC), [0.5, _INF]),
        lambda: d.evolve_characteristics(_zero_run(GK.PERIODIC), [-_INF]),
        lambda: d.support_interval(d.Field.zeros(d.make_grid(GK.PERIODIC, 32)), _NAN),
        lambda: d.vanishing_rectangle(_zero_run(GK.TRUNCATED_LINE), _NAN),
        lambda: d.to_conservative_time(_NAN, 0.5),
        lambda: d.to_conservative_time([0.0, _INF], 0.5),
        lambda: d.to_conservative_time(1.0, _NAN),
        lambda: d.map_solution(_zero_run(GK.PERIODIC), _NAN, times=[0.0]),
    ],
    ids=[
        "line_seed_nan",
        "circle_seed_nan",
        "circle_seed_inf",
        "circle_seed_minus_inf",
        "support_threshold_nan",
        "rectangle_tol_nan",
        "clock_t_nan",
        "clock_t_inf",
        "clock_lam_nan",
        "map_lam_nan",
    ],
)
def test_analyses_reject_a_non_finite_input(call):
    # a plain ValueError, not the NonFiniteFieldError of a NaN that reached a Field
    with pytest.raises(ValueError, match="finite|positive") as err:
        call()
    assert type(err.value) is ValueError


def test_an_infinite_threshold_keeps_its_meaning():
    traj = _zero_run(GK.TRUNCATED_LINE)
    assert d.support_interval(traj.snapshots[0], _INF).interval is None
    (rect,) = d.vanishing_rectangle(traj, _INF)
    assert rect.node_span == (0, traj.grid.n - 1)

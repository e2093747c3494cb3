import math
import warnings

import numpy as np
import pytest

import dghlab as d
import dghlab.characteristics as ch
from dghlab import GridKind as GK

from conftest import (
    PerSnapshotInterpolant,
    evolve_characteristics_reference,
    run,
    subsample,
    transport_residual_reference,
)


@pytest.fixture(scope="module")
def cosine_run():
    g = d.make_grid(GK.PERIODIC, 256)
    p = d.PhysParams(0.1, -0.2)
    cfg = d.SimConfig(g, p, dt=5e-4, t_end=0.5, snapshot_stride=10)
    u0 = d.Field.from_function(g, lambda x: 0.05 * np.cos(2 * np.pi * x))
    return run(cfg, u0), p


def test_zero_solution_drifts_at_minus_gamma():
    g = d.make_grid(GK.TRUNCATED_LINE, 256, 20.0)
    p = d.PhysParams(0.0, 1.0)
    cfg = d.SimConfig(g, p, dt=1e-2, t_end=1.0, snapshot_stride=10)
    traj = run(cfg, d.Field.zeros(g))
    paths = d.evolve_characteristics(traj, [0.0])
    # dq/dt = -gamma exactly: q(t, 0) = -t, stretch stays 1
    assert np.max(np.abs(paths.q[:, 0] + traj.times)) < 1e-14
    assert np.max(np.abs(paths.qx - 1.0)) == 0.0


def test_constant_state_rigid_transport():
    g = d.make_grid(GK.PERIODIC, 256)
    p = d.PhysParams(0.0, 0.3)
    cfg = d.SimConfig(g, p, dt=1e-3, t_end=1.0, snapshot_stride=20)
    traj = run(cfg, d.Field.from_function(g, lambda x: 0.5 * np.ones_like(x)))
    paths = d.evolve_characteristics(traj, [0.2])
    exact = 0.2 + (0.5 - 0.3) * traj.times  # unwrapped
    assert np.max(np.abs(paths.q[:, 0] - exact)) < 1e-12
    assert np.max(np.abs(paths.qx - 1.0)) < 1e-12


def test_seeds_must_lie_inside_line_grid():
    g = d.make_grid(GK.TRUNCATED_LINE, 64, 5.0)
    p = d.PhysParams(0.0, 0.0)
    cfg = d.SimConfig(g, p, dt=1e-2, t_end=0.1, snapshot_stride=2)
    traj = run(cfg, d.Field.zeros(g))
    with pytest.raises(ValueError):
        d.evolve_characteristics(traj, [7.0])


def test_path_exit_is_flagged_and_truncated():
    g = d.make_grid(GK.TRUNCATED_LINE, 64, 5.0)
    p = d.PhysParams(0.0, -2.0)  # zero solution drifts right at speed 2
    cfg = d.SimConfig(g, p, dt=1e-2, t_end=1.0, snapshot_stride=5)
    traj = run(cfg, d.Field.zeros(g))
    paths = d.evolve_characteristics(traj, [4.5, 0.0])
    assert paths.exited[0] and not paths.exited[1]
    k_exit = paths.exit_index[0]
    assert np.all(np.isnan(paths.q[k_exit:, 0]))
    assert np.all(np.isfinite(paths.q[:, 1]))
    # residual handles truncated paths
    tr = d.transport_residual(traj, paths, p)
    assert np.all(np.isfinite(tr.max_abs))


def test_monotonicity_of_flow_map(cosine_run):
    traj, p = cosine_run
    seeds = np.linspace(0.0, 1.0, 32, endpoint=False)
    paths = d.evolve_characteristics(traj, seeds)
    assert np.all(np.diff(paths.q, axis=1) > 0)  # order preserved at every time
    assert np.all(paths.qx > 0)


def test_stretch_formula_against_seed_differencing(cosine_run):
    # two independent computations of the flow-map stretch: the exponential
    # path integral vs centered differencing of q across adjacent seeds
    traj, p = cosine_run
    n_seeds = 128
    seeds = np.linspace(0.0, 1.0, n_seeds, endpoint=False)
    paths = d.evolve_characteristics(traj, seeds)
    q_end = paths.q[-1]
    dq = (np.roll(q_end, -1) - np.roll(q_end, 1)) % 1.0  # periodic wrap
    qx_fd = dq / (2.0 / n_seeds)
    rel = np.abs(paths.qx[-1] - qx_fd) / paths.qx[-1]
    assert np.max(rel) < 1e-3


def test_transport_residual_zero_and_constant_runs():
    g = d.make_grid(GK.PERIODIC, 128)
    p = d.PhysParams(0.2, 0.1)
    cfg = d.SimConfig(g, p, dt=1e-3, t_end=0.2, snapshot_stride=20)
    zero = run(cfg, d.Field.zeros(g))
    tr0 = d.transport_residual(zero, d.evolve_characteristics(zero, [0.1, 0.6]), p)
    assert tr0.worst == 0.0
    const = run(cfg, d.Field.from_function(g, lambda x: 0.3 * np.ones_like(x)))
    trc = d.transport_residual(const, d.evolve_characteristics(const, [0.1, 0.6]), p)
    assert trc.worst < 1e-12


def test_transport_residual_small_and_shrinking(cosine_run):
    traj, p = cosine_run
    seeds = np.linspace(0.0, 1.0, 32, endpoint=False)
    fine = d.transport_residual(traj, d.evolve_characteristics(traj, seeds), p)
    coarse_traj = subsample(traj, 2)
    coarse = d.transport_residual(
        coarse_traj, d.evolve_characteristics(coarse_traj, seeds), p
    )
    assert fine.worst < 1e-3
    assert fine.worst < coarse.worst


def test_transport_residual_rejects_foreign_paths(cosine_run):
    traj, p = cosine_run
    other = subsample(traj, 2)
    paths = d.evolve_characteristics(other, [0.1])
    with pytest.raises(ValueError):
        d.transport_residual(traj, paths, p)


def test_momentum_sign_preserved_along_paths():
    # nonnegative initial momentum combination stays nonnegative on paths
    g = d.make_grid(GK.TRUNCATED_LINE, 2048, 20.0)
    p = d.PhysParams(0.0, 0.0)
    u0 = d.make_profile(g, "bump", space="m", amplitude=1.0, width=1.0)
    cfg = d.SimConfig(g, p, dt=1e-3, t_end=0.3, snapshot_stride=30)
    traj = run(cfg, u0)
    seeds = np.linspace(-0.9, 0.9, 13)
    paths = d.evolve_characteristics(traj, seeds)
    from scipy.interpolate import CubicSpline

    for k in range(len(traj.times)):
        m = d.apply_lambda2(traj.snapshots[k])
        spline = CubicSpline(g.nodes, m.values)
        vals = spline(paths.q[k]) + p.omega + 0.5 * p.gamma
        assert np.all(vals > -1e-6)


def _line_case(t_end):
    # bump drifting right at about 2: the seeds at 19.0 and 19.5 leave mid-run
    g = d.make_grid(GK.TRUNCATED_LINE, 256, 20.0)
    p = d.PhysParams(0.0, -2.0)
    u0 = d.make_profile(g, "bump", space="m", amplitude=0.5, width=1.0)
    cfg = d.SimConfig(g, p, dt=1e-2, t_end=t_end, snapshot_stride=5)
    return run(cfg, u0), p, [-1.0, 0.0, 19.0, 19.5]


def _circle_case(t_end):
    g = d.make_grid(GK.PERIODIC, 128)
    p = d.PhysParams(0.1, -0.2)
    u0 = d.Field.from_function(g, lambda x: 0.05 * np.cos(2 * np.pi * x))
    cfg = d.SimConfig(g, p, dt=1e-3, t_end=t_end, snapshot_stride=5)
    # np.mod(-1e-20, 1.0) is exactly 1.0: the periodic spline must map it to 0.0
    return run(cfg, u0), p, [-1e-20, 0.3, 0.7]


# n_t = 21 is not a multiple of the block size 8; n_t = 5 is less than one block
STREAM_CASES = {
    "line_21": (_line_case, 1.0),
    "line_5": (_line_case, 0.2),
    "circle_21": (_circle_case, 0.1),
    "circle_5": (_circle_case, 0.02),
}


@pytest.mark.filterwarnings("ignore::dghlab.BoundaryDecayWarning")
@pytest.mark.parametrize("case", sorted(STREAM_CASES))
def test_block_streamed_splines_match_per_snapshot_splines_bitwise(case):
    make, t_end = STREAM_CASES[case]
    traj, p, seeds = make(t_end)
    assert len(traj.times) == (21 if case.endswith("21") else 5)
    columns = (ch._values, ch._slope, ch._momentum)
    itp = ch._SnapshotInterpolant(traj, columns)
    refs = [
        PerSnapshotInterpolant(traj.grid, [d.Field(traj.grid, col(f)) for f in traj.snapshots])
        for col in columns
    ]
    q = np.array(seeds)
    for k in range(len(traj.times) - 1):
        for theta in (0.0, 0.5, 1.0):
            want = [ref.blend(k, theta, q) for ref in refs]
            np.testing.assert_array_equal(itp.blend(k, theta, q), want)
    paths = d.evolve_characteristics(traj, seeds)
    q, qx, exit_index = evolve_characteristics_reference(traj, seeds)
    np.testing.assert_array_equal(paths.q, q)
    np.testing.assert_array_equal(paths.qx, qx)
    np.testing.assert_array_equal(paths.exit_index, exit_index)
    np.testing.assert_array_equal(
        d.transport_residual(traj, paths, p).max_abs, transport_residual_reference(traj, paths, p)
    )
    if case == "line_21":
        assert paths.exited[2] and 0 < paths.exit_index[2] < len(traj.times) - 1
    if case.startswith("circle"):
        assert np.mod(seeds[0], 1.0) == 1.0


@pytest.mark.filterwarnings("ignore::dghlab.BoundaryDecayWarning")
@pytest.mark.parametrize("case", ["line_21", "circle_21"])
def test_one_spline_solve_per_block_and_at_most_two_blocks_held(case, monkeypatch):
    make, t_end = STREAM_CASES[case]
    traj, p, seeds = make(t_end)
    solves = []
    held = []
    cubic_spline = ch.CubicSpline

    def counting_spline(*args, **kw):
        solves.append(args[1].shape)
        return cubic_spline(*args, **kw)

    class Spy(ch._SnapshotInterpolant):
        def _build(self, b):
            out = super()._build(b)
            held.append(len(self._blocks) + 1)  # the blocks kept and the new one
            return out

    monkeypatch.setattr(ch, "_SnapshotInterpolant", Spy)
    monkeypatch.setattr(ch, "CubicSpline", counting_spline)
    n_blocks = math.ceil(len(traj.times) / ch._BLOCK)
    paths = d.evolve_characteristics(traj, seeds)
    assert len(solves) == n_blocks
    assert [s[0] for s in solves] == [8, 8, 5]  # u and u_x of 8 + 8 + 5 snapshots
    assert all(s[-1] == 2 for s in solves)
    solves.clear()
    d.transport_residual(traj, paths, p)
    assert len(solves) == n_blocks
    assert max(held) <= 2


def test_worst_skips_the_times_after_every_seed_has_left():
    g = d.make_grid(GK.TRUNCATED_LINE, 256, 5.0)
    p = d.PhysParams(0.0, -2.0)  # the zero solution drifts right at speed 2
    cfg = d.SimConfig(g, p, dt=1e-3, t_end=0.05, snapshot_stride=1)
    traj = run(cfg, d.Field.zeros(g))
    paths = d.evolve_characteristics(traj, [g.nodes[-1] - 1e-4])
    k_exit = paths.exit_index[0]
    assert 0 < k_exit < len(traj.times)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        tr = d.transport_residual(traj, paths, p)
        worst = tr.worst
    assert np.all(np.isnan(tr.max_abs[k_exit:]))
    assert np.all(np.isfinite(tr.max_abs[:k_exit]))
    assert worst == np.max(tr.max_abs[:k_exit])

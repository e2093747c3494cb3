import warnings
from types import SimpleNamespace

import numpy as np
import pytest

import dghlab as d
import dghlab.characteristics as ch
from dghlab import GridKind as GK

from conftest import (
    LocalCubicInterpolant,
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
    u0 = d.make_profile(g, "cosine", amplitude=0.05)
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
    traj = run(cfg, d.Field(g, np.full(g.n, 0.5)))
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
    assert (paths.exit_index < len(paths.times)).tolist() == [True, False]
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
    const = run(cfg, d.Field(g, np.full(g.n, 0.3)))
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
    u0 = d.make_profile(g, "cosine", amplitude=0.05)
    cfg = d.SimConfig(g, p, dt=1e-3, t_end=t_end, snapshot_stride=5)
    # np.mod(-1e-20, 1.0) is exactly 1.0: the sampler must read node 0 there
    return run(cfg, u0), p, [-1e-20, 0.3, 0.7]


# a line run where seeds leave mid-run and a circle run with a seed at -1e-20,
# each long (n_t = 21) and short (n_t = 5)
STREAM_CASES = {
    "line_21": (_line_case, 1.0),
    "line_5": (_line_case, 0.2),
    "circle_21": (_circle_case, 0.1),
    "circle_5": (_circle_case, 0.02),
}


@pytest.mark.filterwarnings("ignore::dghlab.BoundaryDecayWarning")
@pytest.mark.parametrize("case", sorted(STREAM_CASES))
def test_local_cubic_sampler_matches_the_lagrange_oracle(case):
    make, t_end = STREAM_CASES[case]
    traj, p, seeds = make(t_end)
    assert len(traj.times) == (21 if case.endswith("21") else 5)
    columns = (ch._values, ch._slope, ch._momentum)
    itp = ch._SnapshotInterpolant(traj, columns)
    refs = [
        LocalCubicInterpolant(traj.grid, [d.Field(traj.grid, col(f)) for f in traj.snapshots])
        for col in columns
    ]
    q = np.array(seeds)
    for k in range(len(traj.times) - 1):
        for theta in (0.0, 0.5, 1.0):
            want = [ref.blend(k, theta, q) for ref in refs]
            np.testing.assert_allclose(itp.blend(k, theta, q), want, rtol=0, atol=1e-13)
    paths = d.evolve_characteristics(traj, seeds)
    q, qx, exit_index = evolve_characteristics_reference(traj, seeds)
    np.testing.assert_array_equal(paths.exit_index, exit_index)
    np.testing.assert_allclose(paths.q, q, rtol=0, atol=1e-13)
    np.testing.assert_allclose(paths.qx, qx, rtol=0, atol=1e-13)
    np.testing.assert_allclose(
        d.transport_residual(traj, paths, p).max_abs,
        transport_residual_reference(traj, paths, p),
        rtol=0,
        atol=1e-13,
    )
    if case == "line_21":
        assert 0 < paths.exit_index[2] < len(paths.times) - 1
    if case.startswith("circle"):
        assert np.mod(seeds[0], 1.0) == 1.0


@pytest.mark.filterwarnings("ignore::dghlab.BoundaryDecayWarning")
@pytest.mark.parametrize("case", ["line_21", "circle_21"])
def test_snapshot_columns_evaluated_once_and_two_held(case, monkeypatch):
    make, t_end = STREAM_CASES[case]
    traj, p, seeds = make(t_end)
    evaluated = []
    held = []

    def counted(col):
        def wrapped(f):
            k = next(i for i, s in enumerate(traj.snapshots) if s is f)
            evaluated.append((col.__name__, k))
            return col(f)

        return wrapped

    class Spy(ch._SnapshotInterpolant):
        def _at(self, k):
            out = super()._at(k)
            held.append(sum(j >= 0 for j in self._loaded))
            return out

    monkeypatch.setattr(ch, "_SnapshotInterpolant", Spy)
    for name in ("_values", "_slope", "_momentum"):
        monkeypatch.setattr(ch, name, counted(getattr(ch, name)))
    every = list(range(len(traj.times)))
    paths = d.evolve_characteristics(traj, seeds)
    assert evaluated == [(name, k) for k in every for name in ("_values", "_slope")]
    evaluated.clear()
    d.transport_residual(traj, paths, p)
    assert evaluated == [("_momentum", k) for k in every]
    assert max(held) == 2


def _with_extra_seeds(case, count=40):
    """A STREAM_CASES run with ``count`` more seeds spread over its domain."""
    make, t_end = STREAM_CASES[case]
    traj, p, seeds = make(t_end)
    g = traj.grid
    lo, hi = (g.nodes[0], g.nodes[-1]) if not g.is_periodic else (-0.5, 1.5)
    extra = np.random.default_rng(17).uniform(lo, hi, count)
    return traj, p, np.concatenate([seeds, extra, [lo, hi]])


@pytest.mark.filterwarnings("ignore::dghlab.BoundaryDecayWarning")
@pytest.mark.parametrize("case", ["line_21", "circle_21"])
def test_each_seed_moves_as_if_it_were_alone(case):
    # whole rows before the first exit, masked rows after it: neither may let
    # one seed's arithmetic depend on the others
    traj, p, seeds = _with_extra_seeds(case)
    paths = d.evolve_characteristics(traj, seeds)
    if case == "line_21":
        assert 0 < np.min(paths.exit_index) < len(traj.times) - 1
        assert not np.all(paths.exit_index < len(paths.times))
    for j in range(seeds.size):
        alone = d.evolve_characteristics(traj, seeds[j : j + 1])
        np.testing.assert_array_equal(paths.q[:, j : j + 1], alone.q)
        np.testing.assert_array_equal(paths.qx[:, j : j + 1], alone.qx)
        assert paths.exit_index[j] == alone.exit_index[0]


@pytest.mark.filterwarnings("ignore::dghlab.BoundaryDecayWarning")
@pytest.mark.parametrize("case", ["line_21", "circle_21"])
def test_blend_in_time_equals_the_blend_of_two_samples(case):
    # theta > 0 gathers snapshots k and k + 1 in one take; the result must be
    # the linear blend of the two theta = 0 samples, bit for bit
    traj, p, seeds = _with_extra_seeds(case)
    g, h = traj.grid, traj.grid.spacing
    if g.is_periodic:
        ends = [-1e-20, 0.0, 1.0, 1.0 - 0.3 * h, 0.3 * h]
    else:
        x = g.nodes
        ends = [x[0], x[0] + 0.3 * h, x[1] + 0.5 * h, x[-1], x[-1] - 0.3 * h, x[-2] - 0.5 * h]
    q = np.concatenate([seeds, ends])
    columns = (ch._values, ch._slope, ch._momentum)
    itp = ch._SnapshotInterpolant(traj, columns)
    for k in range(len(traj.times) - 1):
        for theta in (0.25, 0.5, 1.0):
            want = (1.0 - theta) * itp.blend(k, 0.0, q) + theta * itp.blend(k + 1, 0.0, q)
            got = itp.blend(k, theta, q)
            assert got.tobytes() == want.tobytes(), (k, theta)


def _snapshot_sampler(grid, f):
    """The sampler over one snapshot holding the node values of f."""
    traj = SimpleNamespace(grid=grid, snapshots=(d.Field(grid, f(grid.nodes)),))
    return lambda q: ch._SnapshotInterpolant(traj, (ch._values,)).blend(0, 0.0, np.asarray(q))[0]


def test_sampler_reproduces_a_cubic_on_the_line_up_to_both_ends():
    g = d.make_grid(GK.TRUNCATED_LINE, 64, 5.0)
    cubic = np.polynomial.Polynomial([1.0, 0.5, -0.3, 0.02])
    x, h = g.nodes, g.spacing
    q = np.concatenate([
        np.random.default_rng(7).uniform(x[0], x[-1], 200),
        [x[0], x[-1], x[0] + 1e-9, x[-1] - 1e-9, x[0] + 0.3 * h, x[-1] - 0.3 * h, x[1], x[-2]],
    ])
    err = np.abs(_snapshot_sampler(g, cubic)(q) - cubic(q))
    assert np.max(err) <= 1e-14 * np.max(np.abs(cubic(x)))


def _circle_field(x):
    return np.sin(2 * np.pi * x) + 0.5 * np.cos(4 * np.pi * x)


def test_sampler_wraps_the_circle_at_both_ends():
    g = d.make_grid(GK.PERIODIC, 128)
    q = np.array([-1e-20, 0.0, 1.0, 0.999999])
    err = np.abs(_snapshot_sampler(g, _circle_field)(q) - _circle_field(q))
    # the first three read node 0 (np.mod(-1e-20, 1.0) is 1.0); 1e-6 before it
    # the cubic's own error is about 5e-10, a wrong node would be off by 0.05
    assert np.max(err[:3]) <= 1e-15 and err[3] < 1e-9


def test_sampler_is_fourth_order_on_the_circle():
    q = np.random.default_rng(11).uniform(0.0, 1.0, 2000)
    samplers = [
        _snapshot_sampler(d.make_grid(GK.PERIODIC, n), _circle_field) for n in (64, 128, 256)
    ]
    errs = [np.max(np.abs(sample(q) - _circle_field(q))) for sample in samplers]
    assert errs[0] / errs[1] >= 14 and errs[1] / errs[2] >= 14


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

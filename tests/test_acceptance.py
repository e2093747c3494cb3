"""Acceptance suite: every criterion at its stated tolerance, one line each.

Reference settings: periodic n = 512, dt = 1e-3, t_end = 1; truncated line
L = 20.  Run with ``pytest tests/test_acceptance.py -v -s`` to see the
per-criterion pass/fail lines as they are produced.
"""

import math
import warnings

import numpy as np
import pytest

import dghlab as d
from dghlab import GridKind as GK
from dghlab import diagnostics
from dghlab.experiments import execute
from dghlab.scenario import parse_scenario

from conftest import (
    band_limited,
    dx_invert_lambda2_direct,
    h2_drifts,
    run,
    subsample,
)

N_REF = 512
DT_REF = 1e-3


def _criterion(num: int, desc: str, passed: bool, detail: str = "") -> None:
    line = f"[criterion {num:2d}] {'PASS' if passed else 'FAIL'}: {desc}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert passed, line


# -- shared reference runs ----------------------------------------------------


@pytest.fixture(scope="module")
def ref_grid():
    return d.make_grid(GK.PERIODIC, N_REF)


@pytest.fixture(scope="module")
def ref_params():
    # gamma = -2 omega: the regime of the advective form and the probes
    return d.PhysParams(omega=0.1, gamma=-0.2)


@pytest.fixture(scope="module")
def ref_u0(ref_grid):
    return d.make_profile(ref_grid, "cosine", amplitude=0.05)


@pytest.fixture(scope="module")
def ref_run_(ref_grid, ref_params, ref_u0):
    cfg = d.SimConfig(ref_grid, ref_params, dt=DT_REF, t_end=1.0, snapshot_stride=10)
    return run(cfg, ref_u0)


@pytest.fixture(scope="module")
def ref_run_half(ref_grid, ref_params, ref_u0):
    cfg = d.SimConfig(ref_grid, ref_params, dt=DT_REF / 2, t_end=1.0, snapshot_stride=20)
    return run(cfg, ref_u0)


@pytest.fixture(scope="module")
def energetic_pair(ref_grid):
    p = d.PhysParams(omega=0.2, gamma=0.05)
    u0 = d.Field(
        ref_grid,
        0.15 * np.cos(2 * np.pi * ref_grid.nodes)
        + 0.08 * np.sin(4 * np.pi * ref_grid.nodes),
    )
    coarse = run(d.SimConfig(ref_grid, p, dt=DT_REF, t_end=1.0, snapshot_stride=10), u0)
    fine = run(d.SimConfig(ref_grid, p, dt=DT_REF / 2, t_end=1.0, snapshot_stride=20), u0)
    return coarse, fine, p


@pytest.fixture(scope="module")
def zero_run(ref_grid, ref_params):
    cfg = d.SimConfig(ref_grid, ref_params, dt=DT_REF, t_end=1.0, snapshot_stride=10)
    return run(cfg, d.Field.zeros(ref_grid))


@pytest.fixture(scope="module")
def support_run():
    # wake of the steep compact momentum bump sits below 1e-6 * max at this
    # resolution (it scales like h^6); amplitude 0.5 adds margin
    g = d.make_grid(GK.TRUNCATED_LINE, 4096, 20.0)
    p = d.PhysParams(0.0, 0.0)
    u0 = d.make_profile(g, "bump", space="m", amplitude=0.5, center=0.0, width=1.0)
    cfg = d.SimConfig(g, p, dt=DT_REF, t_end=0.5, snapshot_stride=10)
    return run(cfg, u0), p


@pytest.fixture(scope="module")
def tail_run():
    g = d.make_grid(GK.TRUNCATED_LINE, 2048, 20.0)
    p = d.PhysParams(0.0, 0.0)  # gamma = -2 omega and omega + gamma/2 = 0
    u0 = d.make_profile(g, "bump", space="m", amplitude=1.0, center=0.0, width=1.0)
    cfg = d.SimConfig(g, p, dt=DT_REF, t_end=0.1, snapshot_stride=10)
    return run(cfg, u0), p


# -- criteria -----------------------------------------------------------------


def test_criterion_01_kernel_exactness(ref_grid):
    # Unit-amplitude modes: the inversion error in the operator sense (vs the
    # input amplitude) must be < 1e-10 for every k <= n/3.  Relative to the
    # tiny output the same tolerance is only representable while the
    # conditioning floor eps * (1 + 4 pi^2 k^2) stays below it, i.e. k <= ~64
    # in float64, so the output-relative form is asserted on that range.
    worst_abs = 0.0
    worst_rel = 0.0
    for k in (1, 2, 5, 17, 50, 64, 85, N_REF // 3):
        f = d.Field(ref_grid, np.cos(2 * np.pi * k * ref_grid.nodes))
        inv = d.invert_lambda2(f)
        exact = f.values / (1 + 4 * np.pi**2 * k**2)
        err = np.max(np.abs(inv.values - exact))
        worst_abs = max(worst_abs, err)
        if k <= 64:
            worst_rel = max(worst_rel, err * (1 + 4 * np.pi**2 * k**2))
    eig_ok = worst_abs < 1e-10 and worst_rel < 1e-10

    g = d.make_grid(GK.TRUNCATED_LINE, 2048, 20.0)
    worst_round = 0.0
    for fn in (
        lambda x: np.exp(-(x**2)),
        lambda x: np.exp(-((x - 3) ** 2) / 2) + 0.5 * np.exp(-((x + 4) ** 2)),
    ):
        f = d.Field(g, fn(g.nodes))
        with warnings.catch_warnings():
            # the inverse has exponential tails; the soft decay warning is expected
            warnings.simplefilter("ignore", d.BoundaryDecayWarning)
            back = d.apply_lambda2(d.invert_lambda2(f))
        rel = np.max(np.abs(back.values - f.values)[8:-8]) / f.max_abs()
        worst_round = max(worst_round, rel)
    round_ok = worst_round < 1e-6
    _criterion(
        1,
        "kernel inversion exact on Fourier modes and invertible on the line",
        eig_ok and round_ok,
        f"mode error {worst_abs:.2e} (rel {worst_rel:.2e}), "
        f"line roundtrip rel err {worst_round:.2e}",
    )


def test_criterion_02_form_equivalence(ref_grid):
    rng = np.random.default_rng(101)
    fields = [band_limited(ref_grid, 24, 0.4, rng) for _ in range(20)]
    pairs = [tuple(rng.uniform(-1.0, 1.0, size=2)) for _ in range(10)]
    worst = 0.0
    for u in fields:
        m = d.apply_lambda2(u)
        ux = d.derivative(u, 1)
        mx = d.derivative(m, 1)
        uxxx = ux - mx  # m = u - u_xx, so u_xxx = u_x - m_x
        for omega, gamma in pairs:
            p = d.PhysParams(omega, gamma)
            du = d.rhs_nonlocal(u, p)
            res = (
                d.apply_lambda2(du).values
                + 2 * omega * ux.values
                + u.values * mx.values
                + 2 * ux.values * m.values
                + gamma * uxxx.values
            )
            worst = max(worst, float(np.max(np.abs(res))))
    _criterion(
        2,
        "nonlocal right-hand side satisfies the local momentum balance",
        worst < 1e-6,
        f"max residual {worst:.2e} over 20 fields x 10 parameter pairs",
    )


def test_criterion_03_conservation(ref_run_, ref_run_half, energetic_pair):
    e_ref = d.drift_series(ref_run_, d.energy_h1).drift
    m_ref = d.drift_series(ref_run_, d.mass).drift
    coarse, fine, _ = energetic_pair
    e_coarse = d.drift_series(coarse, d.energy_h1).drift
    e_fine = d.drift_series(fine, d.energy_h1).drift
    m_coarse = d.drift_series(coarse, d.mass).drift
    ratio = e_coarse / e_fine
    # mass is a linear invariant and is conserved to roundoff independent of
    # dt, so the 8x shrink applies to the energy drift
    ok = e_ref < 1e-6 and m_ref < 1e-8 and m_coarse < 1e-8 and ratio >= 8.0
    _criterion(
        3,
        "conservative runs hold energy and mass, drift is 4th order in dt",
        ok,
        f"energy drift {e_ref:.2e}, mass drift {m_ref:.2e}, halving ratio {ratio:.1f}",
    )


def test_criterion_04_transport_identity(ref_run_, ref_params):
    seeds = np.linspace(0.0, 1.0, 32, endpoint=False)
    fine = d.transport_residual(
        ref_run_, d.evolve_characteristics(ref_run_, seeds), ref_params
    )
    coarse_traj = subsample(ref_run_, 2)
    coarse = d.transport_residual(
        coarse_traj, d.evolve_characteristics(coarse_traj, seeds), ref_params
    )
    ok = fine.worst < 1e-3 and fine.worst < coarse.worst
    _criterion(
        4,
        "momentum transport identity holds along characteristics",
        ok,
        f"max residual {fine.worst:.2e} (coarser snapshots: {coarse.worst:.2e})",
    )


def test_criterion_05_support_propagation(support_run):
    traj, p = support_run
    h = traj.grid.spacing
    paths = d.evolve_characteristics(traj, [-1.0, 1.0])
    k = len(traj.times) - 1
    assert traj.times[k] == pytest.approx(0.5)
    m = d.apply_lambda2(traj.snapshots[k])
    mt = d.Field(traj.grid, m.values + p.omega + 0.5 * p.gamma)
    rep = d.support_interval(mt, 1e-6 * mt.max_abs())
    lo, hi = rep.interval
    ok = paths.q[k, 0] - 3 * h <= lo and hi <= paths.q[k, 1] + 3 * h
    _criterion(
        5,
        "momentum support at t=0.5 contained in the characteristic cone",
        ok,
        f"support [{lo:.4f}, {hi:.4f}] vs cone [{paths.q[k,0]-3*h:.4f}, {paths.q[k,1]+3*h:.4f}]",
    )


def test_criterion_06_tail_formation(tail_run):
    traj, p = tail_run
    u_end = traj.snapshots[-1]
    m = d.apply_lambda2(u_end)
    mt = d.Field(traj.grid, m.values + p.omega + 0.5 * p.gamma)
    lo, hi = d.support_interval(mt, 1e-6 * mt.max_abs()).interval
    rate_right = d.tail_decay_fit(u_end, "right", (hi + 3.0, hi + 5.0))
    rate_left = d.tail_decay_fit(u_end, "left", (lo - 5.0, lo - 3.0))
    ok = abs(rate_right + 1.0) <= 0.05 and abs(rate_left - 1.0) <= 0.05
    _criterion(
        6,
        "exponential tails form instantly with rates -1 (right) and +1 (left)",
        ok,
        f"fitted rates {rate_right:.4f} / {rate_left:.4f}",
    )


def test_criterion_07_continuation_identity(ref_run_, ref_params, monkeypatch):
    worst = 0.0
    for snap in ref_run_.snapshots:
        rhs = d.rhs_nonlocal(snap, ref_params)
        worst = max(worst, d.continuation_probe(snap, rhs, ref_params).max_residual)
        # the same probe with F from the circulant-convolution oracle
        with monkeypatch.context() as mp:
            mp.setattr(diagnostics, "dx_invert_lambda2", dx_invert_lambda2_direct)
            worst = max(worst, d.continuation_probe(snap, rhs, ref_params).max_residual)
    _criterion(
        7,
        "nonlocal continuation identity F = -(u_t + (u + 2 omega) u_x)",
        worst < 1e-6,
        f"max residual {worst:.2e} over snapshots, both kernel paths",
    )


def test_criterion_08_no_vanishing_rectangles(ref_run_, energetic_pair, zero_run):
    coarse, _, _ = energetic_pair
    nontrivial_ok = (
        d.vanishing_rectangle(ref_run_, 1e-8) == []
        and d.vanishing_rectangle(coarse, 1e-8) == []
    )
    rects = d.vanishing_rectangle(zero_run, 1e-8)
    zero_ok = (
        len(rects) == 1
        and rects[0].node_span == (0, zero_run.grid.n - 1)
        and rects[0].t_lo == 0.0
        and rects[0].t_hi == zero_run.times[-1]
    )
    _criterion(
        8,
        "no vanishing rectangle on nontrivial runs; full domain on the zero run",
        nontrivial_ok and zero_ok,
        f"zero-run rectangles: {len(rects)}",
    )


def test_criterion_09_dissipative_equivalence(ref_grid):
    u0 = d.make_profile(ref_grid, "cosine", amplitude=0.05)
    worst = {}
    for lam in (0.1, 0.5, 1.0):
        direct = run(
            d.SimConfig(ref_grid, d.PhysParams(0.0, 0.0, lam), dt=DT_REF, t_end=1.0, snapshot_stride=10),
            u0,
        )
        tau_max = float(d.to_conservative_time(1.0, lam))
        n_steps = int(math.ceil(tau_max / DT_REF))
        cons = run(
            d.SimConfig(ref_grid, d.PhysParams(0.0, 0.0), dt=tau_max / n_steps, t_end=tau_max, snapshot_stride=5),
            u0,
        )
        mapped = d.map_solution(cons, lam, times=direct.times)
        worst[lam] = d.equivalence_report(direct, mapped).worst
    ok = all(v < 1e-5 for v in worst.values())
    _criterion(
        9,
        "damped runs match the exponential rescaling of undamped runs",
        ok,
        "max errors " + ", ".join(f"lambda={k:g}: {v:.2e}" for k, v in worst.items()),
    )


def test_criterion_10_sign_kernel_positivity():
    rng = np.random.default_rng(77)
    n = 10_000
    a = rng.uniform(-50, 50, size=n)
    b = a + rng.uniform(1e-6, 50, size=n)
    off = rng.uniform(1e-9, 50, size=n)
    left = rng.integers(0, 2, size=n).astype(bool)
    y = np.where(left, a - off, b + off)
    vals = np.array([d.sign_kernel_S(ai, bi, yi) for ai, bi, yi in zip(a, b, y)])
    _criterion(
        10,
        "comparison kernel strictly positive outside the interval",
        bool(np.all(vals > 0.0)),
        f"min over {n} random triples: {vals.min():.2e}",
    )


def test_criterion_11_manufactured_convergence():
    g = d.make_grid(GK.PERIODIC, 128)
    p = d.PhysParams(0.0, 0.0)
    u0 = d.Field(g, np.sin(2 * np.pi * g.nodes))
    forcing = d.manufactured_forcing(u0, p)  # makes exp(-t) u0 exact
    errs = []
    for dt in (1.6e-3, 8e-4):
        cfg = d.SimConfig(g, p, dt=dt, t_end=1.0, snapshot_stride=int(round(0.2 / dt)))
        traj = d.simulate(cfg, u0, forcing=forcing)
        errs.append(np.max(np.abs(traj.snapshots[-1].values - math.exp(-1.0) * u0.values)))
    order = math.log2(errs[0] / errs[1])
    ok = errs[-1] < 1e-6 and 3.8 <= order <= 4.2
    _criterion(
        11,
        "forced exact solution reproduced at 4th temporal order",
        ok,
        f"max error {errs[-1]:.2e}, observed order {order:.2f}",
    )


def test_criterion_12_h2_discrimination(energetic_pair):
    coarse, _, p = energetic_pair
    conserved = d.discriminate_h2(h2_drifts(coarse, p))
    exactly_one = conserved is not None

    # the same decision is recorded in run metadata by the audit scenario
    scn = parse_scenario(
        {
            "name": "acceptance-audit",
            "kind": "InvariantAudit",
            "grid": {"kind": "periodic", "n": 256},
            "params": {"omega": 0.2, "gamma": 0.05},
            "initial": {"family": "cosine", "amplitude": 0.15},
            "solver": {"dt": 1.0e-3, "t_end": 0.5, "snapshot_stride": 25},
            "options": {"discriminate_h2": True},
        }
    )
    result = execute(scn)
    recorded = result.metadata.get("h2_conserved_variant")
    ok = exactly_one and recorded == conserved.value
    _criterion(
        12,
        "exactly one cubic-functional variant is conserved and recorded",
        ok,
        f"conserved variant: {recorded}",
    )

"""The experiment kinds: one table entry per kind, and the runners behind them.

``KINDS`` is the single description of each kind: what it checks, its
options (type, default, allowed range), the grid and parameters it needs, and
its runner.  ``parse_scenario`` validates configs against it, ``execute``
dispatches through it and the CLI prints ``list``/``describe`` from it.

Each runner simulates what its scenario describes, evaluates the scenario's
assertions as Check records, and returns the tables and snapshots to persist.
Runners read every option from ``scn.options``, which parsing has validated
and filled with defaults, and start from ``scn.u0``.  They never raise on a
numerically failed run (a trajectory that hit the NaN guard is reported, with
whatever prefix was computed) or on a measurement that finds nothing to
measure (that is a failed check); they raise only on programming errors.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

import numpy as np

from .characteristics import evolve_characteristics, transport_residual
from .diagnostics import (
    continuation_probe,
    continuation_regime,
    support_interval,
    tail_decay_fit,
    vanishing_rectangle,
)
from .dissipative import equivalence_report, map_solution, to_conservative_time
from .grid import Field, GridKind
from .helmholtz import apply_lambda2
from .invariants import (
    FunctionalSeries,
    H2Variant,
    discriminate_h2,
    drift_series,
    energy_h1,
    hamiltonian_h2,
    mass,
)
from .solver import (
    ManufacturedSolution,
    PhysParams,
    Termination,
    Trajectory,
    manufactured_forcing,
    rhs_nonlocal,
    simulate,
)

if TYPE_CHECKING:
    from .scenario import Scenario

__all__ = ["KINDS", "Check", "ExperimentKind", "ExperimentResult", "Kind", "Option", "execute"]


class ExperimentKind(enum.Enum):
    FREE_RUN = "FreeRun"
    SUPPORT_PROPAGATION = "SupportPropagation"
    TAIL_FORMATION = "TailFormation"
    CONTINUATION_PROBE = "ContinuationProbe"
    DISSIPATIVE_EQUIVALENCE = "DissipativeEquivalence"
    INVARIANT_AUDIT = "InvariantAudit"
    MANUFACTURED_CONVERGENCE = "ManufacturedConvergence"


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    value: float | None = None
    threshold: float | None = None
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        parts = [f"{status} {self.name}"]
        if self.value is not None:
            parts.append(f"value={self.value:.6g}")
        if self.threshold is not None:
            parts.append(f"threshold={self.threshold:.6g}")
        if self.detail:
            parts.append(self.detail)
        return "  ".join(parts)


@dataclass
class ExperimentResult:
    checks: list[Check] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)
    series: dict[str, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)
    snapshots: list[tuple[str, Field]] = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def numerical_failure(self) -> bool:
        return self.metadata.get("termination") == Termination.NON_FINITE.value


def _run(scn: Scenario, **overrides) -> Trajectory:
    return simulate(scn.sim_config(**overrides), scn.u0)


def _record_run(result: ExperimentResult, traj: Trajectory) -> None:
    result.metadata["termination"] = traj.termination.value
    if traj.guard_time is not None:
        result.metadata["guard_time"] = traj.guard_time
    for label, snap in (("initial", traj.snapshots[0]), ("final", traj.snapshots[-1])):
        result.snapshots.append((f"{label}_t{traj.times[0 if label == 'initial' else -1]:g}", snap))


def _standard_series(result: ExperimentResult, traj: Trajectory) -> list[FunctionalSeries]:
    """Energy and mass along traj, recorded as tables and returned."""
    out = []
    for name, fn in (("energy_h1", energy_h1), ("mass", mass)):
        s = drift_series(traj, fn, name)
        result.series[name] = (s.times, s.values)
        out.append(s)
    return out


def _check_completed(result: ExperimentResult, traj: Trajectory) -> None:
    result.checks.append(
        Check(
            "run_completed",
            traj.termination is Termination.COMPLETED,
            detail=f"termination={traj.termination.value}",
        )
    )


# ---------------------------------------------------------------------------


def _run_free(scn: Scenario) -> ExperimentResult:
    result = ExperimentResult()
    traj = _run(scn)
    _record_run(result, traj)
    _standard_series(result, traj)
    result.checks.append(
        Check(
            "finite_trajectory",
            traj.termination is not Termination.NON_FINITE,
            detail=f"termination={traj.termination.value}",
        )
    )
    return result


def _run_invariant_audit(scn: Scenario) -> ExperimentResult:
    opts = scn.options
    result = ExperimentResult()
    traj = _run(scn)
    _record_run(result, traj)
    e, m = _standard_series(result, traj)
    _check_completed(result, traj)

    if scn.params.lam == 0.0:
        e_tol = opts["energy_tol"]
        m_tol = opts["mass_tol"]
        result.checks.append(Check("energy_drift", e.drift < e_tol, e.drift, e_tol))
        result.checks.append(Check("mass_drift", m.drift < m_tol, m.drift, m_tol))
    else:
        diffs = np.diff(e.values)  # empty when the first step went non-finite
        result.checks.append(
            Check(
                "energy_strictly_decreasing",
                bool(np.all(diffs < 1e-10)),
                float(np.max(diffs)) if diffs.size else None,
                1e-10,
            )
        )
    h2 = _h2_series(traj, scn.params)
    for variant, s in h2.items():
        result.series[f"h2_{variant.value}"] = (s.times, s.values)

    if opts["discriminate_h2"]:
        fine = _run(scn, dt=scn.solver["dt"] / 2.0, snapshot_stride=scn.solver["snapshot_stride"] * 2)
        h2_coarse = {variant: s.drift for variant, s in h2.items()}
        h2_fine = {variant: s.drift for variant, s in _h2_series(fine, scn.params).items()}
        conserved = discriminate_h2(h2_coarse, h2_fine)
        name = conserved.value if conserved else None
        result.metadata["h2_conserved_variant"] = name
        result.metadata["h2_drifts_coarse"] = {k.value: v for k, v in h2_coarse.items()}
        result.metadata["h2_drifts_fine"] = {k.value: v for k, v in h2_fine.items()}
        result.checks.append(
            Check("h2_discriminated", conserved is not None, detail=f"conserved={name}")
        )
    return result


def _h2_series(traj: Trajectory, p: PhysParams) -> dict[H2Variant, FunctionalSeries]:
    """Both cubic variants along traj."""
    return {
        v: drift_series(traj, lambda u, v=v: hamiltonian_h2(u, p, v), v.value) for v in H2Variant
    }


def _momentum_shifted(traj: Trajectory, k: int, c: float) -> Field:
    m = apply_lambda2(traj.snapshots[k])
    return Field(traj.grid, m.values + c)


def _run_support(scn: Scenario) -> ExperimentResult:
    thr_rel = scn.options["support_threshold_rel"]
    margin = scn.options["margin_spacings"]
    result = ExperimentResult()
    traj = _run(scn)
    _record_run(result, traj)
    _check_completed(result, traj)

    c = scn.params.omega + 0.5 * scn.params.gamma
    m0 = _momentum_shifted(traj, 0, c)
    if m0.max_abs() == 0.0:
        result.checks.append(
            Check("support_in_characteristic_cone", False, detail="initial momentum is zero")
        )
        return result
    # Seed the cone at the outermost reach of the initial support: the level
    # crossing detected during the run (at thr_rel) migrates slightly as
    # amplitudes rescale along the flow, so the seeds come from a much finer
    # threshold on the clean initial data.
    seed_rel = max(1e-12, 1e-6 * thr_rel)
    paths = evolve_characteristics(traj, support_interval(m0, seed_rel * m0.max_abs()).interval)
    h = scn.grid.spacing

    lo_edges, hi_edges = [], []
    contained_all = True
    worst_excess = -math.inf
    for k in range(len(traj.times)):
        mk = _momentum_shifted(traj, k, c)
        rep = support_interval(mk, thr_rel * mk.max_abs())
        lo, hi = rep.interval
        lo_edges.append(lo)
        hi_edges.append(hi)
        excess = max(paths.q[k, 0] - margin * h - lo, hi - (paths.q[k, 1] + margin * h))
        worst_excess = max(worst_excess, excess)
        if excess > 0:
            contained_all = False
    result.series["support_lo"] = (traj.times, np.asarray(lo_edges))
    result.series["support_hi"] = (traj.times, np.asarray(hi_edges))
    result.series["char_lo"] = (traj.times, paths.q[:, 0])
    result.series["char_hi"] = (traj.times, paths.q[:, 1])
    result.metadata["support_threshold_rel"] = thr_rel
    result.checks.append(
        Check(
            "support_in_characteristic_cone",
            contained_all,
            worst_excess,
            0.0,
            detail=f"margin={margin} spacings",
        )
    )
    # Transport identity along the tracked edges, for the record.
    tr = transport_residual(traj, paths, scn.params)
    result.series["transport_residual"] = (tr.times, tr.max_abs)
    return result


def _run_tails(scn: Scenario) -> ExperimentResult:
    offset = scn.options["window_offset"]
    width = scn.options["window_width"]
    rate_tol = scn.options["rate_tol"]
    result = ExperimentResult()
    traj = _run(scn)
    _record_run(result, traj)
    _check_completed(result, traj)

    c = scn.params.omega + 0.5 * scn.params.gamma
    u_end = traj.snapshots[-1]
    m_end = _momentum_shifted(traj, len(traj.times) - 1, c)
    expected = {"right": -1.0, "left": 1.0}
    if m_end.max_abs() == 0.0:
        for side, rate in expected.items():
            result.checks.append(Check(f"{side}_tail_rate", False, None, rate, "momentum is zero"))
        return result
    lo, hi = support_interval(m_end, 1e-6 * m_end.max_abs()).interval
    result.metadata["momentum_support"] = [lo, hi]
    windows = {
        "right": (hi + offset, hi + offset + width),
        "left": (lo - offset - width, lo - offset),
    }
    for side, rate in expected.items():
        try:
            fit = tail_decay_fit(u_end, side, windows[side])
        except ValueError as exc:  # no tail above the noise floor in the window
            result.checks.append(Check(f"{side}_tail_rate", False, None, rate, str(exc)))
            continue
        result.metadata[f"rate_{side}"] = fit
        result.checks.append(Check(f"{side}_tail_rate", abs(fit - rate) <= rate_tol, fit, rate))
    return result


def _run_probe(scn: Scenario) -> ExperimentResult:
    tol = scn.options["residual_tol"]
    result = ExperimentResult()
    traj = _run(scn)
    _record_run(result, traj)
    _check_completed(result, traj)

    residuals = []
    for snap in traj.snapshots:
        probe = continuation_probe(snap, rhs_nonlocal(snap, scn.params), scn.params)
        residuals.append(probe.max_residual)
    residuals = np.asarray(residuals)
    result.series["probe_residual"] = (traj.times, residuals)
    worst = float(np.max(residuals))
    result.metadata["max_probe_residual"] = worst
    result.checks.append(Check("continuation_identity", worst < tol, worst, tol))

    rects = vanishing_rectangle(traj, 1e-8)
    result.metadata["vanishing_rectangles"] = len(rects)
    return result


def _run_dissipative_equivalence(scn: Scenario) -> ExperimentResult:
    tol = scn.options["error_tol"]
    result = ExperimentResult()
    t_end, dt = scn.solver["t_end"], scn.solver["dt"]
    # tau_max falls as lambda grows, so the smallest lambda's horizon covers all.
    tau_max = to_conservative_time(t_end, min(scn.options["lambdas"]))
    n_steps = max(1, int(math.ceil(tau_max / dt)))
    conservative = _run(
        scn,
        lam=0.0,
        dt=tau_max / n_steps,
        t_end=tau_max,
        snapshot_stride=max(1, scn.solver["snapshot_stride"] // 2),
    )
    stop = conservative.termination
    worst_by_lambda = {}
    for lam in scn.options["lambdas"]:
        direct = _run(scn, lam=lam)
        if not result.snapshots:
            _record_run(result, direct)
        name = f"equivalence_lambda_{lam:g}"
        if to_conservative_time(t_end, lam) > conservative.times[-1] + 1e-12:
            detail = f"undamped run: termination={stop.value}"
            result.checks.append(Check(name, False, None, tol, detail))
            continue
        rep = equivalence_report(direct, map_solution(conservative, lam, times=direct.times))
        worst_by_lambda[lam] = rep.worst
        result.series[f"equivalence_err_lambda_{lam:g}"] = (rep.times, rep.max_abs)
        result.checks.append(Check(name, rep.worst < tol, rep.worst, tol))
    if stop is Termination.NON_FINITE:
        result.metadata["termination"] = stop.value
    result.metadata["max_error_by_lambda"] = {f"{k:g}": v for k, v in worst_by_lambda.items()}
    return result


def _run_manufactured(scn: Scenario) -> ExperimentResult:
    opts = scn.options
    err_tol = opts["error_tol"]
    expected_order = opts["order"]
    order_tol = opts["order_tol"]
    t_end = scn.solver["t_end"]

    profile = scn.u0
    exact = ManufacturedSolution(
        u=lambda t, x, v=profile.values: math.exp(-t) * v,
        u_t=lambda t, x, v=profile.values: -math.exp(-t) * v,
    )
    forcing = manufactured_forcing(exact, scn.params, scn.grid)

    result = ExperimentResult()
    errors = []
    for dt in sorted(opts["dts"], reverse=True):
        cfg = scn.sim_config(dt=dt, snapshot_stride=max(1, int(round(t_end / dt / 10))))
        traj = simulate(cfg, profile, forcing=forcing)
        err = float(
            np.max(np.abs(traj.snapshots[-1].values - exact.u(t_end, scn.grid.nodes)))
        )
        errors.append((dt, err))
        if not result.snapshots:
            _record_run(result, traj)
    result.series["error_vs_dt"] = (
        np.array([d for d, _ in errors]),
        np.array([e for _, e in errors]),
    )
    result.metadata["errors"] = {f"{d:g}": e for d, e in errors}
    finest = errors[-1][1]
    result.checks.append(Check("exact_solution_reproduced", finest < err_tol, finest, err_tol))
    orders = [
        math.log2(errors[i][1] / errors[i + 1][1])
        / math.log2(errors[i][0] / errors[i + 1][0])
        for i in range(len(errors) - 1)
    ]
    observed = float(np.mean(orders)) if orders else float("nan")
    result.metadata["observed_order"] = observed
    result.checks.append(
        Check(
            "temporal_order",
            abs(observed - expected_order) <= order_tol,
            observed,
            expected_order,
        )
    )
    return result


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Option:
    """One setting of an experiment kind.

    ``type`` is float, bool or list (a nonempty list of numbers).  ``low`` and
    ``high`` are exclusive bounds on a float or on every entry of a list.  A
    callable ``default`` is evaluated on the scenario's solver section.
    """

    type: type
    default: Any
    low: float | None = None
    high: float | None = None
    help: str = ""


@dataclass(frozen=True)
class Kind:
    """Everything dghlab knows about one experiment kind."""

    description: str
    runner: Callable[[Scenario], ExperimentResult]
    options: dict[str, Option] = field(default_factory=dict)
    grid: GridKind | None = None  # the grid kind the experiment needs, if any
    params: tuple[Callable[[PhysParams], bool], str] | None = None  # (holds, why)


def _tolerance(default: float, help: str) -> Option:
    return Option(float, default, low=0.0, help=help)


KINDS: dict[ExperimentKind, Kind] = {
    ExperimentKind.FREE_RUN: Kind(
        "Integrate the equation from the configured initial data and record\n"
        "field snapshots plus energy and mass time series.  Checks only that\n"
        "the run stays finite.",
        _run_free,
    ),
    ExperimentKind.SUPPORT_PROPAGATION: Kind(
        "Start from initial data whose momentum combination m + omega + gamma/2\n"
        "is a compact bump, track the characteristic paths q(t, .) of the two\n"
        "support edges (dq/dt = u(t, q) - gamma), and check that the detected\n"
        "support of m(t) + omega + gamma/2 stays inside the transported cone\n"
        "[q(t, a) - 3h, q(t, b) + 3h].  The momentum support moves with the\n"
        "flow; it never spreads ahead of it.",
        _run_support,
        {
            "support_threshold_rel": Option(
                float, 1e-6, low=0.0, high=1.0, help="support level relative to max |m|"
            ),
            "margin_spacings": Option(float, 3.0, help="slack of the cone, in grid spacings"),
        },
        grid=GridKind.TRUNCATED_LINE,
    ),
    ExperimentKind.TAIL_FORMATION: Kind(
        "Evolve compactly supported initial data briefly on the truncated line\n"
        "(with gamma = -2 omega) and fit the decay rate of ln|u| in windows\n"
        "outside the momentum support.  The velocity field instantly develops\n"
        "pure exponential tails: rate -1 on the right, +1 on the left, because\n"
        "outside the momentum support u is an exponentially weighted moment of\n"
        "the momentum.",
        _run_tails,
        {
            "window_offset": Option(float, 3.0, help="gap between support and fit window"),
            "window_width": Option(float, 2.0, low=0.0, help="width of each fit window"),
            "rate_tol": _tolerance(0.05, "allowed deviation of each rate from -1 / +1"),
        },
        grid=GridKind.TRUNCATED_LINE,
    ),
    ExperimentKind.CONTINUATION_PROBE: Kind(
        "For gamma = -2 omega the equation is equivalent to the pointwise\n"
        "identity F = -(u_t + (u + 2 omega) u_x) where F is the spatial\n"
        "derivative of the smoothed quadratic density u^2 + u_x^2/2.  This\n"
        "experiment evaluates the residual of that identity on every snapshot\n"
        "(with u_t from the semidiscrete right-hand side) and also counts\n"
        "space-time rectangles on which the solution vanishes; a nontrivial\n"
        "run must admit none.",
        _run_probe,
        {"residual_tol": _tolerance(1e-6, "bound on the max identity residual")},
        params=(continuation_regime, "ContinuationProbe requires gamma = -2 omega"),
    ),
    ExperimentKind.DISSIPATIVE_EQUIVALENCE: Kind(
        "Simulate the weakly damped equation (damping lambda * (u - u_xx))\n"
        "directly for each lambda, then rebuild the same solution through the\n"
        "exponential clock change u(t, x) = exp(-lambda t) v(tau, x) with\n"
        "tau = (1 - exp(-lambda t))/lambda from one undamped run, taken to the\n"
        "horizon of the smallest lambda, and report the per-time difference.\n"
        "Requires omega = gamma = 0, where the change of variables is exact.",
        _run_dissipative_equivalence,
        {
            "lambdas": Option(list, [0.1, 0.5, 1.0], low=0.0, help="damping rates to compare"),
            "error_tol": _tolerance(1e-5, "bound on the max direct-vs-mapped difference"),
        },
        params=(
            lambda p: p.omega == 0.0 and p.gamma == 0.0,
            "DissipativeEquivalence requires omega = gamma = 0 (the exponential "
            "rescaling is exact only for the drift-free member of the family)",
        ),
    ),
    ExperimentKind.INVARIANT_AUDIT: Kind(
        "Track the conserved functionals along a run: the quadratic energy\n"
        "(half the squared H^1 norm), the mass, and both printed variants of\n"
        "the cubic functional.  For conservative runs the energy and mass\n"
        "drifts must stay below tolerance; for damped runs the energy must\n"
        "decrease strictly.  Optionally rerun at half the time step to decide\n"
        "empirically which cubic variant is the conserved one.",
        _run_invariant_audit,
        {
            "energy_tol": _tolerance(1e-6, "bound on the relative energy drift"),
            "mass_tol": _tolerance(1e-8, "bound on the relative mass drift"),
            "discriminate_h2": Option(bool, False, help="rerun at dt/2 to find the cubic invariant"),
        },
    ),
    ExperimentKind.MANUFACTURED_CONVERGENCE: Kind(
        "Force the equation so that u*(t, x) = exp(-t) * (initial profile) is\n"
        "an exact solution, then measure the max-norm error at the final time\n"
        "for a ladder of time steps.  The error must match the exact solution\n"
        "to tolerance and shrink at the integrator's fourth order.",
        _run_manufactured,
        {
            "dts": Option(
                list,
                lambda solver: [2.0 * solver["dt"], solver["dt"]],
                low=0.0,
                help="time-step ladder, default [2 dt, dt] from the solver section",
            ),
            "error_tol": _tolerance(1e-6, "bound on the error at the finest dt"),
            "order": Option(float, 4.0, low=0.0, help="expected temporal order"),
            "order_tol": _tolerance(0.2, "allowed deviation of the observed order"),
        },
        grid=GridKind.PERIODIC,
    ),
}


def execute(scn: Scenario) -> ExperimentResult:
    return KINDS[scn.kind].runner(scn)

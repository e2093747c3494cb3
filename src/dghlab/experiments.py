"""The experiment kinds: one table entry per kind, and the runners behind them.

``KINDS`` is the single description of each kind, keyed by the name a
config gives as ``kind``: what it checks, its options (type, default, allowed
range), the grid and parameters it needs, the runs it makes and its runner.
``parse_scenario`` validates configs against it, ``execute`` dispatches
through it and the CLI prints ``list``/``describe`` from it.

Each runner simulates what its scenario describes, evaluates the scenario's
assertions as Check records, and returns the tables and snapshots to persist.
Runners read every option from ``scn.options``, which parsing has validated
and filled with defaults, and start their runs with one call of ``_run``,
which steps the ``SimConfig`` entries that parsing planned and checked in
``scn.runs`` as one batch from ``scn.u0``, ManufacturedConvergence's forced
ladder included; the worst termination of any run decides a numerical
failure.
Runners never raise on a numerically failed run (a trajectory that hit the
NaN guard is reported, with whatever prefix was computed) or on a
measurement that finds nothing to measure (that is a failed check); they
raise only on programming errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
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
    H2_GAP,
    FunctionalSeries,
    H2Variant,
    discriminate_h2,
    drift_series,
    energy_h1,
    hamiltonian_h2,
    mass,
)
from .solver import (
    PhysParams,
    SimConfig,
    Termination,
    Trajectory,
    _simulate_rows,
    manufactured_forcing,
    rhs_nonlocal,
)

if TYPE_CHECKING:
    from .scenario import Scenario
    from .solver import ForcingFn

__all__ = ["KINDS", "Check", "ExperimentResult", "Kind", "Option", "execute"]


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


@dataclass(eq=False)
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


def _run(
    scn: Scenario, result: ExperimentResult, *wheres: str, forcing: ForcingFn | None = None
) -> list[Trajectory]:
    """Step the runs planned under ``wheres`` (every planned run when none is
    named) as one batch from ``scn.u0``, and return their trajectories in order.
    A forcing, when given, drives every run of the batch.

    Folded in that order, result keeps the worst termination of the kind's runs
    (completed < blowup_guard < non_finite) and the first guard time.
    """
    trajs = _simulate_rows([scn.runs[where] for where in wheres or scn.runs], scn.u0, forcing)
    for traj in trajs:
        before = Termination(result.metadata.get("termination", "completed"))
        worst = max(before, traj.termination, key=list(Termination).index)
        result.metadata["termination"] = worst.value
        if traj.guard_time is not None:
            result.metadata.setdefault("guard_time", traj.guard_time)
    return trajs


def _record_ends(result: ExperimentResult, traj: Trajectory) -> None:
    """traj's initial and final snapshots, as the run's snapshot artifacts."""
    result.snapshots.append((f"initial_t{traj.times[0]:g}", traj.snapshots[0]))
    result.snapshots.append((f"final_t{traj.times[-1]:g}", traj.snapshots[-1]))


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
    (traj,) = _run(scn, result)
    _record_ends(result, traj)
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
    (traj,) = _run(scn, result)
    _record_ends(result, traj)
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
        drifts = {variant: s.drift for variant, s in h2.items()}
        conserved = discriminate_h2(drifts)
        name = conserved.value if conserved else None
        low, high = sorted(drifts.values())
        gap = high / low if 0 < low <= high < math.inf else None  # None when not finite
        result.metadata["h2_conserved_variant"] = name
        result.metadata["h2_drifts"] = {k.value: v for k, v in drifts.items()}
        result.checks.append(
            Check("h2_discriminated", conserved is not None, gap, H2_GAP, f"conserved={name}")
        )
    return result


def _h2_series(traj: Trajectory, p: PhysParams) -> dict[H2Variant, FunctionalSeries]:
    """Both cubic variants along traj."""
    return {
        v: drift_series(traj, lambda u, v=v: hamiltonian_h2(u, p, v), v.value) for v in H2Variant
    }


def _run_support(scn: Scenario) -> ExperimentResult:
    thr_rel = scn.options["support_threshold_rel"]
    margin = scn.options["margin_spacings"]
    result = ExperimentResult()
    (traj,) = _run(scn, result)
    _record_ends(result, traj)
    _check_completed(result, traj)

    m0 = apply_lambda2(traj.snapshots[0])
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
    worst_excess = -math.inf
    for k in range(len(traj.times)):
        mk = apply_lambda2(traj.snapshots[k])
        rep = support_interval(mk, thr_rel * mk.max_abs())
        lo, hi = rep.interval
        lo_edges.append(lo)
        hi_edges.append(hi)
        excess = max(paths.q[k, 0] - margin * h - lo, hi - (paths.q[k, 1] + margin * h))
        worst_excess = max(worst_excess, excess)
    result.series["support_lo"] = (traj.times, np.asarray(lo_edges))
    result.series["support_hi"] = (traj.times, np.asarray(hi_edges))
    result.series["char_lo"] = (traj.times, paths.q[:, 0])
    result.series["char_hi"] = (traj.times, paths.q[:, 1])
    result.metadata["support_threshold_rel"] = thr_rel
    result.checks.append(
        Check(
            "support_in_characteristic_cone",
            bool(worst_excess <= 0),
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
    (traj,) = _run(scn, result)
    _record_ends(result, traj)
    _check_completed(result, traj)

    u_end = traj.snapshots[-1]
    m_end = apply_lambda2(u_end)
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
    (traj,) = _run(scn, result)
    _record_ends(result, traj)
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


def _undamped_run(base: SimConfig, lambdas: list[float]) -> SimConfig:
    """The one undamped run of DissipativeEquivalence, to the largest horizon."""
    # tau_max falls as lambda grows, so the smallest lambda's horizon covers all.
    tau_max = to_conservative_time(base.t_end, min(lambdas))
    n_steps = max(1, int(math.ceil(tau_max / base.dt)))
    return replace(
        base,
        params=replace(base.params, lam=0.0),
        dt=tau_max / n_steps,
        t_end=tau_max,
        snapshot_stride=max(1, base.snapshot_stride // 2),
    )


def _run_dissipative_equivalence(scn: Scenario) -> ExperimentResult:
    tol = scn.options["error_tol"]
    lambdas = scn.options["lambdas"]
    result = ExperimentResult()
    wheres = [f"options.lambdas[{i}]" for i in range(len(lambdas))]
    conservative, *directs = _run(scn, result, "options.lambdas", *wheres)
    worst_by_lambda = {}
    for lam, direct in zip(lambdas, directs):
        if not result.snapshots:
            _record_ends(result, direct)
        name = f"equivalence_lambda_{lam:g}"
        if to_conservative_time(scn.solver["t_end"], lam) > conservative.times[-1] + 1e-12:
            detail = f"undamped run: termination={conservative.termination.value}"
        elif direct.termination is not Termination.COMPLETED:
            detail = f"direct run: termination={direct.termination.value}"
        else:
            rep = equivalence_report(direct, map_solution(conservative, lam, times=direct.times))
            worst_by_lambda[lam] = rep.worst
            result.series[f"equivalence_err_lambda_{lam:g}"] = (rep.times, rep.max_abs)
            result.checks.append(Check(name, rep.worst < tol, rep.worst, tol))
            continue
        result.checks.append(Check(name, False, None, tol, detail))
    result.metadata["max_error_by_lambda"] = {f"{k:g}": v for k, v in worst_by_lambda.items()}
    return result


def _ladder_run(base: SimConfig, dt: float) -> SimConfig:
    """One ManufacturedConvergence run of the time-step ladder, about 10 snapshots."""
    return replace(base, dt=dt, snapshot_stride=max(1, int(round(base.t_end / dt / 10))))


def _run_manufactured(scn: Scenario) -> ExperimentResult:
    opts = scn.options
    err_tol = opts["error_tol"]
    expected_order = opts["order"]
    order_tol = opts["order_tol"]
    t_end = scn.solver["t_end"]

    exact_end = math.exp(-t_end) * scn.u0.values  # the forced solution is exp(-t) u0

    result = ExperimentResult()
    errors = []
    rungs = _run(scn, result, forcing=manufactured_forcing(scn.u0, scn.params))
    for traj in sorted(rungs, key=lambda traj: traj.config.dt, reverse=True):
        err = float(np.max(np.abs(traj.snapshots[-1].values - exact_end)))
        errors.append((traj.config.dt, err))
        if not result.snapshots:
            _record_ends(result, traj)
    result.series["error_vs_dt"] = (
        np.array([d for d, _ in errors]),
        np.array([e for _, e in errors]),
    )
    result.metadata["errors"] = {f"{d:g}": e for d, e in errors}
    finest = errors[-1][1]
    result.checks.append(Check("exact_solution_reproduced", finest < err_tol, finest, err_tol))
    if len(errors) < 2 or any(e == 0.0 for _, e in errors):
        result.metadata["observed_order"] = None
        why = "it needs two time steps" if len(errors) < 2 else "an error is exactly 0"
        result.checks.append(Check("temporal_order", False, None, expected_order, f"order undefined: {why}"))
        return result
    orders = [
        math.log2(errors[i][1] / errors[i + 1][1])
        / math.log2(errors[i][0] / errors[i + 1][0])
        for i in range(len(errors) - 1)
    ]
    result.metadata["observed_order"] = float(np.mean(orders))
    # Every consecutive pair must show the order, so a mean cannot hide a bad pair.
    worst = max(orders, key=lambda q: abs(q - expected_order))
    result.checks.append(
        Check("temporal_order", abs(worst - expected_order) <= order_tol, worst, expected_order)
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
    # Every run the runner makes, {config key it comes from: SimConfig}, from
    # the configured run and the options.  Parsing calls this once, checks each
    # run and keeps the plan as ``Scenario.runs``; runners start runs by key.
    runs: Callable[[SimConfig, dict], dict[str, SimConfig]] = lambda base, opts: {"solver.dt": base}


def _tolerance(default: float, help: str) -> Option:
    return Option(float, default, low=0.0, help=help)


KINDS: dict[str, Kind] = {
    "FreeRun": Kind(
        "Integrate the equation from the configured initial data and record\n"
        "field snapshots plus energy and mass time series.  Checks only that\n"
        "the run stays finite.",
        _run_free,
    ),
    "SupportPropagation": Kind(
        "Start from initial data whose momentum m = u - u_xx is a compact bump,\n"
        "track the characteristic paths q(t, .) of the two support edges\n"
        "(dq/dt = u(t, q) - gamma), and check that the detected support of m(t)\n"
        "stays inside the transported cone [q(t, a) - 3h, q(t, b) + 3h]: it never\n"
        "spreads ahead of the flow.  Requires gamma = -2 omega, since line data\n"
        "decay and m + omega + gamma/2 is compact only when omega + gamma/2 = 0.",
        _run_support,
        {
            "support_threshold_rel": Option(
                float, 1e-6, low=0.0, high=1.0, help="support level relative to max |m|"
            ),
            "margin_spacings": Option(float, 3.0, help="slack of the cone, in grid spacings"),
        },
        grid=GridKind.TRUNCATED_LINE,
        params=(continuation_regime, "SupportPropagation requires gamma = -2 omega"),
    ),
    "TailFormation": Kind(
        "Evolve compactly supported momentum data briefly on the truncated line\n"
        "and fit the decay rate of ln|u| in windows outside the momentum\n"
        "support.  The velocity field instantly develops pure exponential tails:\n"
        "rate -1 on the right, +1 on the left, because outside the momentum\n"
        "support u is an exponentially weighted moment of the momentum.  Like\n"
        "SupportPropagation it requires gamma = -2 omega.",
        _run_tails,
        {
            "window_offset": Option(float, 3.0, help="gap between support and fit window"),
            "window_width": Option(float, 2.0, low=0.0, help="width of each fit window"),
            "rate_tol": _tolerance(0.05, "allowed deviation of each rate from -1 / +1"),
        },
        grid=GridKind.TRUNCATED_LINE,
        params=(continuation_regime, "TailFormation requires gamma = -2 omega"),
    ),
    "ContinuationProbe": Kind(
        "For gamma = -2 omega the equation is equivalent to the pointwise\n"
        "identity F = -(u_t + (u + 2 omega) u_x) where F is the spatial\n"
        "derivative of the smoothed quadratic density u^2 + u_x^2/2.  This\n"
        "experiment evaluates the residual of that identity on every snapshot\n"
        "(with u_t from the semidiscrete right-hand side).  It records, unchecked,\n"
        "the count of space-time rectangles where |u| < 1e-8: a nontrivial run's\n"
        "far tails on a truncated line fall below that level.",
        _run_probe,
        {"residual_tol": _tolerance(1e-6, "bound on the max identity residual")},
        params=(continuation_regime, "ContinuationProbe requires gamma = -2 omega"),
    ),
    "DissipativeEquivalence": Kind(
        "Simulate the weakly damped equation (damping lambda * (u - u_xx))\n"
        "for each lambda, and one undamped run to the horizon of the smallest\n"
        "lambda, all stepped together as one batch.  Rebuild each damped\n"
        "solution from the undamped run through the exponential clock change\n"
        "u(t, x) = exp(-lambda t) v(tau, x) with tau = (1 - exp(-lambda t))/lambda\n"
        "and report the per-time difference.  Requires omega = gamma = 0,\n"
        "where the change of variables is exact.",
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
        runs=lambda base, opts: {
            "solver.dt": base,  # only checked, first, so the solver section's errors name it
            "options.lambdas": _undamped_run(base, opts["lambdas"]),
            **{
                f"options.lambdas[{i}]": replace(base, params=replace(base.params, lam=lam))
                for i, lam in enumerate(opts["lambdas"])
            },
        },
    ),
    "InvariantAudit": Kind(
        "Track the conserved functionals along a run: the quadratic energy\n"
        "(half the squared H^1 norm), the mass, and both printed variants of\n"
        "the cubic functional.  For conservative runs the energy and mass\n"
        "drifts must stay below tolerance; for damped runs the energy must\n"
        "decrease strictly.  Optionally decide which cubic variant is the\n"
        f"conserved one: the variant whose drift is at least {H2_GAP:g} times\n"
        "below the other's on the same run.",
        _run_invariant_audit,
        {
            "energy_tol": _tolerance(1e-6, "bound on the relative energy drift"),
            "mass_tol": _tolerance(1e-8, "bound on the relative mass drift"),
            "discriminate_h2": Option(bool, False, help="find the cubic invariant by drift gap"),
        },
    ),
    "ManufacturedConvergence": Kind(
        "Force the equation so that u*(t, x) = exp(-t) * (initial profile) is\n"
        "an exact solution, then measure the max-norm error at the final time\n"
        "for a ladder of time steps.  The error must match the exact solution\n"
        "to tolerance and shrink at the integrator's fourth order between\n"
        "every two consecutive time steps.",
        _run_manufactured,
        {
            "dts": Option(
                list,
                lambda solver: [2.0 * solver["dt"], solver["dt"]],
                low=0.0,
                help="time-step ladder; default [2 dt, dt] from the solver section, "
                "so t_end must be an even number of dt steps",
            ),
            "error_tol": _tolerance(1e-6, "bound on the error at the finest dt"),
            "order": Option(float, 4.0, low=0.0, help="expected temporal order"),
            "order_tol": _tolerance(0.2, "allowed deviation of each pair's order"),
        },
        grid=GridKind.PERIODIC,
        runs=lambda base, opts: {
            f"options.dts[{i}]": _ladder_run(base, dt) for i, dt in enumerate(opts["dts"])
        },
    ),
}


def execute(scn: Scenario) -> ExperimentResult:
    return KINDS[scn.kind].runner(scn)

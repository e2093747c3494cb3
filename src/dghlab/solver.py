"""Semidiscrete right-hand sides for the DGH equation and explicit time stepping.

The equation is stepped in its nonlocal form, which eliminates third
derivatives: with the momentum ``m = u - u_xx`` and the Helmholtz inverse
written as a Green's-function convolution,

    u_t = -(u - gamma) u_x
          - d/dx Lambda^{-2} ( u^2 + u_x^2 / 2 + (2 omega + gamma) u ).

For ``gamma = -2 omega`` this reduces to the advective form
``u_t + (u + 2 omega) u_x = -d/dx Lambda^{-2}(u^2 + u_x^2/2)``.

The weakly dissipative variant adds a damping ``lambda * (u - u_xx)`` to the
momentum balance, i.e. simply ``-lambda * u`` after inverting the Helmholtz
operator; the one right-hand side applies it whenever ``lambda > 0``.

Quadratic products on periodic grids are dealiased with the 2/3 rule.  On
the circle the whole right-hand side is one Fourier-space expression ending
in a single ``irfft`` (five FFTs per evaluation); on the line it is stepped
term by term with the P/Q recurrence.  Time integration is the classical
four-stage Runge-Kutta scheme with a gradient guard that converts wave
breaking into a measurable event.

``simulate`` steps plain value arrays through one array right-hand side,
which ``rhs_nonlocal`` wraps for Fields, with the same arithmetic.  Each
step's result is checked once for NaN/Inf and, on the line, for boundary
decay; only recorded snapshots are built as validated Fields.  The
gradient guard's u_x is reused as the next step's first-stage u_x, which
saves that stage's u_x transform on the circle.
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass
from typing import Callable, Optional, TypeVar

import numpy as np

from .grid import (
    Field,
    Grid,
    _check_boundary_decay,
    _derivative_spectral,
    _derivative_values,
    _spectral_factors,
)
from .helmholtz import _dx_invert_values

__all__ = [
    "CflWarning",
    "ManufacturedSolution",
    "PhysParams",
    "SimConfig",
    "Termination",
    "Trajectory",
    "manufactured_forcing",
    "rhs_nonlocal",
    "simulate",
    "step_rk4",
]


class CflWarning(UserWarning):
    """Time step exceeds the advisory CFL bound (run continues)."""


@dataclass(frozen=True)
class PhysParams:
    """Model constants: linear dispersion omega, third-order dispersion gamma,
    and the non-negative weak-dissipation rate lam (0 = conservative)."""

    omega: float
    gamma: float
    lam: float = 0.0

    def __post_init__(self):
        if self.lam < 0:
            raise ValueError(f"dissipation rate must be non-negative, got {self.lam}")


@dataclass(frozen=True)
class SimConfig:
    grid: Grid
    params: PhysParams
    dt: float
    t_end: float
    snapshot_stride: int = 1
    blowup_guard: float = 1e3

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.t_end <= 0:
            raise ValueError("t_end must be positive")
        if self.snapshot_stride < 1:
            raise ValueError("snapshot_stride must be >= 1")
        if self.blowup_guard <= 0:
            raise ValueError("blowup_guard must be positive")


class Termination(enum.Enum):
    COMPLETED = "completed"
    BLOWUP_GUARD = "blowup_guard"
    NON_FINITE = "non_finite"


@dataclass(frozen=True)
class Trajectory:
    """Snapshots (t, u) of one run, with strictly increasing times from t = 0."""

    config: SimConfig
    times: np.ndarray
    snapshots: tuple[Field, ...]
    termination: Termination
    guard_time: Optional[float] = None

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        if t.size != len(self.snapshots):
            raise ValueError("times and snapshots disagree in length")
        if t.size == 0 or t[0] != 0.0 or np.any(np.diff(t) <= 0):
            raise ValueError("snapshot times must increase strictly from t = 0")
        object.__setattr__(self, "times", t)

    @property
    def grid(self) -> Grid:
        return self.config.grid

    def values_matrix(self) -> np.ndarray:
        """Snapshot values stacked into an array of shape (n_snapshots, n)."""
        return np.stack([s.values for s in self.snapshots])


def _rhs(grid: Grid, u: np.ndarray, p: PhysParams, ux: np.ndarray | None = None) -> np.ndarray:
    """The right-hand side on plain node values; ``ux``, when given, is u's d/dx."""
    if grid.is_periodic:
        du = _rhs_periodic(grid, u, p, ux)
    else:
        if ux is None:
            ux = _derivative_values(grid, u, 1)
        advect = u * ux
        quad = u**2 + 0.5 * ux**2
        nonlocal_term = _dx_invert_values(grid, quad + (2.0 * p.omega + p.gamma) * u)
        du = -advect + p.gamma * ux - nonlocal_term
    if p.lam > 0:
        du = du - p.lam * u
    return du


def _rhs_periodic(grid: Grid, u: np.ndarray, p: PhysParams, ux: np.ndarray | None) -> np.ndarray:
    """The undamped right-hand side on the circle as one Fourier-space expression.

    With K the 2/3 keep-mask, D = ik and G = ik / (1 + 4 pi^2 k^2),

        du^ = gamma D u^ - K (u ux)^ - G (K (u^2 + ux^2/2)^ + (2 omega + gamma) u^),

    so one ``irfft`` ends the evaluation: five FFTs, four when ``ux`` is given.
    """
    sf = _spectral_factors(grid)
    u_hat = np.fft.rfft(u)
    if ux is None:
        ux = _derivative_spectral(grid, u_hat, 1)
    coef = np.fft.rfft(u * ux)
    coef += sf.dx_helmholtz * np.fft.rfft(u**2 + 0.5 * ux**2)
    coef *= sf.keep
    coef += ((2.0 * p.omega + p.gamma) * sf.dx_helmholtz - p.gamma * sf.dx) * u_hat
    return -np.fft.irfft(coef, n=grid.n)


def rhs_nonlocal(u: Field, p: PhysParams) -> Field:
    """Time derivative of u in the nonlocal form, damped by lam * u when lam > 0."""
    _check_boundary_decay(u.grid, u.values, "rhs_nonlocal")
    return Field(u.grid, _rhs(u.grid, u.values, p))


State = TypeVar("State", Field, np.ndarray)


def step_rk4(u: State, t: float, dt: float, rhs: Callable[[float, State], State]) -> State:
    """One classical Runge-Kutta step; parameters are bound into ``rhs(t, u)``.

    Only ``+`` and scalar ``*`` touch the state, so it may be a Field or the
    plain value array that ``simulate`` steps.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    k1 = rhs(t, u)
    k2 = rhs(t + 0.5 * dt, u + (0.5 * dt) * k1)
    k3 = rhs(t + 0.5 * dt, u + (0.5 * dt) * k2)
    k4 = rhs(t + dt, u + dt * k3)
    return u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def cfl_bound(grid: Grid, params: PhysParams, u0: Field) -> float:
    """Advisory time-step bound 0.5 h / (max|u0| + |gamma| + 2|omega| + 1)."""
    speed = u0.max_abs() + abs(params.gamma) + 2.0 * abs(params.omega) + 1.0
    return 0.5 * grid.spacing / speed


ForcingFn = Callable[[float], np.ndarray]

# Caps on the size of one run, so that a slip in dt, t_end or snapshot_stride
# is rejected at parse time instead of running for days or exhausting memory.
# The largest shipped config, test or benchmark run takes 4,000 steps and
# stores 618,496 values; the caps sit 2,500x and 434x above that.  2^28
# stored values are 2 GiB of float64.
MAX_STEPS = 10**7
MAX_SNAPSHOT_VALUES = 2**28


def check_run(config: SimConfig, u0: Field) -> int:
    """Check that config can run from u0 and return its number of steps.

    ValueError when u0 lives on another grid, when dt exceeds twice the
    advisory CFL bound, when t_end is not a whole, finite number of dt
    steps, or when the run exceeds MAX_STEPS steps or would store more than
    MAX_SNAPSHOT_VALUES snapshot values; CflWarning when dt exceeds the
    bound itself.
    """
    if u0.grid != config.grid:
        raise ValueError("initial data lives on a different grid than the config")
    dt, t_end = config.dt, config.t_end
    bound = cfl_bound(config.grid, config.params, u0)
    if dt > 2.0 * bound:
        raise ValueError(f"dt = {dt:g} exceeds twice the advisory CFL bound {bound:g}")
    ratio = t_end / dt
    if not np.isfinite(ratio):
        raise ValueError(f"t_end / dt = {t_end:g} / {dt:g} is not a finite number of steps")
    n_steps = int(round(ratio))
    if n_steps > MAX_STEPS:
        raise ValueError(f"t_end / dt = {n_steps:.3g} steps exceeds the cap of {MAX_STEPS:.0e}")
    stored = (n_steps // config.snapshot_stride + 2) * config.grid.n
    if stored > MAX_SNAPSHOT_VALUES:
        raise ValueError(
            f"the run would store {stored:.3g} snapshot values, "
            f"more than the cap of {MAX_SNAPSHOT_VALUES:.3g}"
        )
    if abs(n_steps * dt - t_end) > 1e-9 * max(1.0, abs(t_end)):
        raise ValueError(f"t_end = {t_end:g} is not an integer number of dt = {dt:g} steps")
    if dt > bound:
        warnings.warn(
            f"dt = {dt:g} exceeds the advisory CFL bound {bound:g}; "
            "the run proceeds but accuracy should be checked by refinement",
            CflWarning,
            stacklevel=3,
        )
    return n_steps


def simulate(config: SimConfig, u0: Field, forcing: ForcingFn | None = None) -> Trajectory:
    """Integrate from u0 to t_end, or stop early on a gradient guard / NaN.

    ``forcing(t)`` values, when given, are added to du/dt.  On a truncated
    line each step's state is checked for boundary decay, with at most one
    BoundaryDecayWarning per run.
    """
    n_steps = check_run(config, u0)
    grid, p, dt = config.grid, config.params, config.dt

    def rhs_t(t: float, v: np.ndarray) -> np.ndarray:
        # Stage 1 starts from the state u whose u_x the gradient guard just took.
        du = _rhs(grid, v, p, ux if v is u else None)
        return du if forcing is None else du + forcing(t)

    times = [0.0]
    snaps = [u0]
    termination = Termination.COMPLETED
    guard_time = None
    u, ux = u0.values, None
    warned = False
    for step in range(1, n_steps + 1):
        u = step_rk4(u, (step - 1) * dt, dt, rhs_t)
        if not np.all(np.isfinite(u)):
            # NaN/Inf in any stage reaches u: keep the finite prefix.
            termination = Termination.NON_FINITE
            break
        if not warned:
            warned = _check_boundary_decay(grid, u, "simulate")
        t_now = step * dt
        record = step % config.snapshot_stride == 0 or step == n_steps
        ux = _derivative_values(grid, u, 1)
        if np.max(np.abs(ux)) > config.blowup_guard:
            termination = Termination.BLOWUP_GUARD
            guard_time = t_now
            record = True
        if record:
            times.append(t_now)
            snaps.append(Field(grid, u))
        if termination is Termination.BLOWUP_GUARD:
            break
    return Trajectory(config, np.asarray(times), tuple(snaps), termination, guard_time)


@dataclass(frozen=True)
class ManufacturedSolution:
    """Closed-form space-time field u(t, x) with its exact time derivative."""

    u: Callable[[float, np.ndarray], np.ndarray]
    u_t: Callable[[float, np.ndarray], np.ndarray]

    def field(self, grid: Grid, t: float) -> Field:
        return Field(grid, self.u(t, grid.nodes))


def manufactured_forcing(
    exact: ManufacturedSolution, p: PhysParams, grid: Grid
) -> ForcingFn:
    """Source term making ``exact`` an exact solution of the forced system.

    The residual is evaluated with the same right-hand side that the solver
    steps, damping included, plus the analytic time derivative of the exact
    field.  The values at the last two times asked for are kept and returned
    read-only, so a repeated stage time costs no second evaluation.
    """

    # RK4 asks for each half-step time twice and ends a step at the time the
    # next one starts with, so the last two times cover every repeat.
    memo: dict[float, np.ndarray] = {}

    def forcing(t: float) -> np.ndarray:
        values = memo.get(t)
        if values is None:
            u_star = exact.field(grid, t)
            values = exact.u_t(t, grid.nodes) - rhs_nonlocal(u_star, p).values
            values.setflags(write=False)
            if len(memo) == 2:
                del memo[next(iter(memo))]
            memo[t] = values
        return values

    return forcing

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
the circle the state is the ``rfft`` coefficients of u and the right-hand
side is one Fourier-space expression: one ``irfft`` of ``[1, ik] u^``
decodes u and u_x, and one ``rfft`` takes both products (and a forcing, when
given) together.  On the line the state is u itself, stepped term by term
with the P/Q recurrence, row by row.  Time integration is the classical
four-stage Runge-Kutta scheme with a gradient guard that converts wave
breaking into a measurable event.

``simulate`` steps that state as a plain array through the one right-hand
side, which ``_kernel`` binds once per run and ``rhs_nonlocal`` wraps for
Fields.  The array has a leading row axis: ``_simulate_rows`` steps several
runs that share the grid, omega, gamma and u0 as one (rows, m) state, each
row with its own lam, dt, step count, stride and guard, and ``simulate`` is
its one-row call.  After each step one decode gives the u and u_x that each
row's NaN/Inf check, gradient guard, snapshot Field and the next step's
first stage all use: 8 batched FFT calls per step on the circle for the
whole batch, with or without forcing, and one max|.| reduction over the
decode for every row's checks.  Both kernels allocate their work arrays
once per batch composition, when ``_kernel`` binds them, and only each
stage's du is a new array, as ``step_rk4`` holds k1..k4.  On the circle
the decode result lives in one of them and is valid until the next decode;
on the line the source of the nonlocal term and its P/Q sweeps do.
``step_rk4`` accumulates each stage input and the final combination in
place, in arrays it made itself.  A row that ends, goes non-finite or trips
its guard leaves the batch, and its trajectory is bitwise the one its own
``simulate`` gives.  On the line each row's state is also checked for
boundary decay.
Snapshots are bitwise equal to stepping Fields with ``step_rk4`` and
``rhs_nonlocal`` on the line, and within 1e-13 of max|u| on the circle,
where the two states round differently.
``manufactured_forcing`` gives the forcing that makes exp(-t) u0 exact as
a quadratic in exp(-t): it evaluates the right-hand side twice when built,
and its evaluations make no FFT.
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, TypeVar

import numpy as np

from .grid import Field, Grid, _check_boundary_decay, _derivative_line, _spectral_factors, _warn
from .helmholtz import _dx_invert_line

__all__ = [
    "CflWarning",
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
        if not all(map(math.isfinite, (self.omega, self.gamma, self.lam))):
            raise ValueError(f"model constants must be finite, got {self}")
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
        for name in ("dt", "t_end", "blowup_guard"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)}")
        try:  # numpy integers pass; NaN or 2.5 would silently change which steps are kept
            object.__setattr__(self, "snapshot_stride", operator.index(self.snapshot_stride))
        except TypeError:
            raise TypeError(
                f"snapshot_stride must be an integer, got {self.snapshot_stride!r}"
            ) from None
        if self.snapshot_stride < 1:
            raise ValueError("snapshot_stride must be >= 1")


class Termination(enum.Enum):
    COMPLETED = "completed"
    BLOWUP_GUARD = "blowup_guard"
    NON_FINITE = "non_finite"


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Snapshots (t, u) of one run, with strictly increasing times from t = 0.

    An immutable record, compared and hashed by identity: ``times`` is a
    read-only float copy of the array given and ``snapshots`` a tuple.
    """

    config: SimConfig
    times: np.ndarray
    snapshots: tuple[Field, ...]
    termination: Termination
    guard_time: Optional[float] = None

    def __post_init__(self):
        t = np.array(self.times, dtype=float)
        t.setflags(write=False)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "snapshots", tuple(self.snapshots))
        if t.size != len(self.snapshots):
            raise ValueError("times and snapshots disagree in length")
        if t.size == 0 or t[0] != 0.0 or np.any(np.diff(t) <= 0):
            raise ValueError("snapshot times must increase strictly from t = 0")

    @property
    def grid(self) -> Grid:
        return self.config.grid


@dataclass(frozen=True, eq=False)
class MaxNormSeries:
    """The max-norm of a quantity at each snapshot time of a run, NaN where it has none."""

    times: np.ndarray
    max_abs: np.ndarray

    @property
    def worst(self) -> float:
        """The largest entry that is not NaN."""
        return float(np.fmax.reduce(self.max_abs))


def _kernel(grid: Grid, params: Sequence[PhysParams]) -> tuple[Callable, Callable]:
    """The one right-hand side as ``(decode, rhs)`` for a (rows, m) state.

    Row i is stepped with ``params[i]``: the rows share the omega and gamma
    of ``params[0]``, and each has its own lam.  The state v holds one row
    per run: u's ``rfft`` coefficients on the circle, u itself on the line.
    ``decode(v)`` gives the pair (u, u_x), each with a leading row axis;
    ``rhs(v, rows)`` is a fresh du/dt, with ``rows`` optionally followed by an
    (r, n) forcing f.  On the circle, with K the 2/3 keep-mask, D = ik and
    G = ik / (1 + 4 pi^2 k^2),

        dv = (gamma D - (2 omega + gamma) G - lam) v - K ((u u_x)^ + G (u^2 + u_x^2/2)^) + f^,

    where lam is a column of the symbol, one ``irfft`` of the (2, r, m)
    ``[1, D] v`` decodes every row, and one ``rfft`` of the (2 or 3, r, n)
    products and f takes them all.  The circle's kernel owns its work
    arrays, allocated once when it is built: ``decode`` returns its own
    (2, r, n) buffer, valid until the next ``decode`` of this kernel, and
    ``rhs`` writes the products, their spectra and the nonlinear term into
    the others.  On the line the 1-D stencil and P/Q kernel is applied row
    by row: ``decode`` returns v itself and new u_x rows, and ``rhs`` forms
    each row's du in place in the new du array, with the source
    u^2 + u_x^2/2 + (2 omega + gamma) u, one scratch row and the (2, n) P/Q
    sweeps of ``helmholtz._dx_invert_line`` in the kernel's own buffers,
    allocated once when it is built.
    """
    p = params[0]
    if grid.is_periodic:
        sf = _spectral_factors(grid)
        lam = np.array([[q.lam] for q in params])
        symbol = p.gamma * sf.dx - (2.0 * p.omega + p.gamma) * sf.dx_helmholtz - lam
        decode_rows = np.stack([np.ones_like(sf.dx), sf.dx])[:, None]
        # One row per run, so that each product meets operands of its own shape:
        # numpy's same-shape loop is about 1 us faster than a broadcast one.
        keep, dx_helmholtz = (a[None].repeat(len(params), 0) for a in (sf.keep, sf.dx_helmholtz))
        r, m = keep.shape
        coded = np.empty((2, r, m), dtype=complex)
        decoded = np.empty((2, r, grid.n))
        prods = np.empty((3, r, grid.n))  # u u_x, u^2 + u_x^2/2 and the forcing
        spectra = np.empty((3, r, m), dtype=complex)
        u2 = np.empty((r, grid.n))
        nonlinear = np.empty((r, m), dtype=complex)

        def decode(v):
            """(u, u_x) of v in the kernel's buffer, overwritten by the next decode."""
            np.multiply(decode_rows, v, out=coded)
            return np.fft.irfft(coded, n=grid.n, out=decoded)

        def rhs(v, rows, *f):
            u, ux = rows
            np.multiply(u, ux, out=prods[0])
            np.square(ux, out=prods[1])
            prods[1] *= 0.5
            np.square(u, out=u2)
            prods[1] += u2
            terms = len(f) + 2
            if f:
                prods[2] = f[0]
            # Both transforms state n: perfbench's FFT counter takes len(a), the
            # term count, otherwise.
            np.fft.rfft(prods[:terms], n=grid.n, out=spectra[:terms])
            np.multiply(dx_helmholtz, spectra[1], out=nonlinear)
            np.add(spectra[0], nonlinear, out=nonlinear)
            np.multiply(keep, nonlinear, out=nonlinear)
            du = symbol * v
            du -= nonlinear
            if f:
                du += spectra[2]
            return du

        return decode, rhs

    c = 2.0 * p.omega + p.gamma
    source, scratch = np.empty((2, grid.n))  # u^2 + u_x^2/2 + c u, and one scratch row
    pq = np.empty((2, grid.n))  # the P/Q sweeps of the source

    def decode(v):
        return v, [_derivative_line(grid, u, 1) for u in v]

    def rhs(v, rows, *f):
        # du = -u u_x + gamma u_x - d/dx Lambda^{-2}(u^2 + u_x^2/2 + c u) - lam u, each
        # sum and product rounded as in the Field form, so the two agree bitwise
        du = np.empty(v.shape)
        for row, u, ux, q in zip(du, *rows, params):
            # gamma u_x - u u_x: IEEE defines a - b as a + (-b), and + commutes
            np.multiply(p.gamma, ux, out=row)
            np.multiply(u, ux, out=scratch)
            row -= scratch
            np.square(ux, out=source)
            np.multiply(source, 0.5, out=source)
            np.square(u, out=scratch)
            np.add(scratch, source, out=source)
            # A finite u^2 + u_x^2/2 is >= +0, so adding 0 u = +-0 keeps every bit
            # (a non-finite one makes the step non-finite either way).
            if c:
                np.multiply(c, u, out=scratch)
                np.add(source, scratch, out=source)
            row -= _dx_invert_line(grid, source, pq)
            if q.lam > 0:
                np.multiply(q.lam, u, out=scratch)
                row -= scratch
        if f:
            du += f[0]
        return du

    return decode, rhs


def rhs_nonlocal(u: Field, p: PhysParams) -> Field:
    """Time derivative of u in the nonlocal form, damped by lam * u when lam > 0."""
    grid = u.grid
    _check_boundary_decay(grid, u.values, "rhs_nonlocal")
    decode, rhs = _kernel(grid, [p])
    v = (np.fft.rfft(u.values, n=grid.n) if grid.is_periodic else u.values)[None]
    du = rhs(v, decode(v))[0]
    return Field(grid, np.fft.irfft(du, n=grid.n) if grid.is_periodic else du)


State = TypeVar("State", Field, np.ndarray)


def step_rk4(u: State, t: float | np.ndarray, dt: float | np.ndarray, rhs: Callable) -> State:
    """One classical Runge-Kutta step; parameters are bound into ``rhs(t, u)``.

    Only ``+`` and ``*`` by dt touch the state, so it may be a Field or the
    plain (rows, m) array that ``simulate`` steps, with dt a scalar or an
    (r, 1) column of per-row steps (t then a column too).  Each stage input
    and the final combination accumulate in place into arrays made here, and
    neither u nor any stage value is written to; a Field has no in-place
    operators, so the same lines rebind it.  The sums are those of
    ``u + (dt / 6) (k1 + 2 k2 + 2 k3 + k4)``, bit for bit.
    """
    if not (np.all(dt > 0) if isinstance(dt, np.ndarray) else dt > 0):
        raise ValueError("dt must be positive")
    k1 = rhs(t, u)
    stage = (0.5 * dt) * k1
    stage += u
    k2 = rhs(t + 0.5 * dt, stage)
    stage = (0.5 * dt) * k2
    stage += u
    k3 = rhs(t + 0.5 * dt, stage)
    stage = dt * k3
    stage += u
    k4 = rhs(t + dt, stage)
    total = 2.0 * k2
    total += k1
    total += 2.0 * k3
    total += k4
    total *= dt / 6.0
    total += u
    return total


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
    advisory CFL bound, when t_end is not a whole, finite, positive number
    of dt steps, or when the run exceeds MAX_STEPS steps or would store more
    than MAX_SNAPSHOT_VALUES snapshot values; CflWarning when dt exceeds the
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
    if n_steps < 1:
        raise ValueError(f"t_end = {t_end:g} is shorter than one step of dt = {dt:g}")
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
        _warn(
            f"dt = {dt:g} exceeds the advisory CFL bound {bound:g}; "
            "the run proceeds but accuracy should be checked by refinement",
            CflWarning,
        )
    return n_steps


def simulate(config: SimConfig, u0: Field, forcing: ForcingFn | None = None) -> Trajectory:
    """Integrate from u0 to t_end, or stop early on a gradient guard / NaN.

    ``forcing(t)`` values, when given, are added to du/dt at each stage.  On a
    truncated line each step's state is checked for boundary decay, with at
    most one BoundaryDecayWarning per run.
    """
    return _simulate_rows([config], u0, forcing)[0]


def _simulate_rows(
    configs: Sequence[SimConfig], u0: Field, forcing: ForcingFn | None = None
) -> list[Trajectory]:
    """``simulate`` of each config from u0, stepped together as one (rows, m) state.

    The configs share the grid, omega and gamma.  Each row keeps its own lam
    (a column of the linear symbol), dt (a column of the RK4 combination),
    step count, snapshot stride and blowup guard, and its Trajectory is
    bitwise the one its own ``simulate`` gives.  A row that ends, goes
    non-finite or trips its guard leaves the batch, and the others go on.
    A forcing is evaluated for each row at each stage, and the rows' values
    reach the kernel stacked as (rows, n).
    """
    n_steps = [check_run(config, u0) for config in configs]
    grid, p = configs[0].grid, configs[0].params
    if any((c.params.omega, c.params.gamma) != (p.omega, p.gamma) for c in configs):
        raise ValueError("batched runs must share omega and gamma")
    live = list(range(len(configs)))
    times = [[0.0] for _ in configs]
    snaps = [[u0] for _ in configs]
    ends = [Termination.COMPLETED for _ in configs]
    guard_times: list[Optional[float]] = [None for _ in configs]
    warned = [False for _ in configs]

    def rhs_t(t, v: np.ndarray) -> np.ndarray:
        # Stage 1 starts from the state whose rows the step's checks just decoded.
        stage_rows = rows if v is state else decode(v)
        if forcing is None:
            return rhs(v, stage_rows)
        return rhs(v, stage_rows, np.stack([forcing(s) for s in np.ravel(t).tolist()]))

    v0 = np.fft.rfft(u0.values, n=grid.n) if grid.is_periodic else u0.values
    state = np.broadcast_to(v0, (len(live), v0.size))
    # A run stepped alone keeps dt and t as floats, a batch keeps them as
    # (rows, 1) columns: as (1, 1) columns a single-row periodic run at n = 256
    # steps 5-10% slower.
    t = 0.0 if len(configs) == 1 else np.zeros((len(configs), 1))
    step = 0
    while live:
        decode, rhs = _kernel(grid, [configs[i].params for i in live])
        dt = configs[0].dt if len(configs) == 1 else np.array([[configs[i].dt] for i in live])
        rows = decode(state)
        stay = range(len(live))
        while len(stay) == len(live):
            step += 1
            state = step_rk4(state, t, dt, rhs_t)
            t = t + dt
            rows = decode(state)
            # max|u| and max|u_x| of every row at once; NaN survives the max,
            # so "not peak < inf" is the non-finite test.
            peaks = np.max(np.abs(rows), axis=-1).tolist()
            stay = []
            for j, (i, u, peak, peak_x) in enumerate(zip(live, rows[0], *peaks)):
                config = configs[i]
                if not peak < math.inf:
                    # NaN/Inf in any stage reaches u: keep the finite prefix.
                    ends[i] = Termination.NON_FINITE
                    continue
                if not warned[i]:
                    warned[i] = _check_boundary_decay(grid, u, "simulate")
                t_now = step * config.dt
                record = step % config.snapshot_stride == 0 or step == n_steps[i]
                if peak_x > config.blowup_guard:
                    ends[i] = Termination.BLOWUP_GUARD
                    guard_times[i] = t_now
                    record = True
                if record:
                    times[i].append(t_now)
                    snaps[i].append(Field(grid, u))
                if ends[i] is Termination.COMPLETED and step < n_steps[i]:
                    stay.append(j)
        live = [live[j] for j in stay]
        if live:  # a batch loses some rows
            state, t = state[stay], t[stay]
    return [
        Trajectory(config, times[i], snaps[i], ends[i], guard_times[i])
        for i, config in enumerate(configs)
    ]


def manufactured_forcing(u0: Field, p: PhysParams) -> ForcingFn:
    """Source term that, added to du/dt, makes ``exp(-t) u0`` an exact solution.

    The right-hand side R that the solver steps, damping included, is linear
    plus quadratic in u, so along u = s u0 with s = exp(-t) it is exactly
    s R1 + s^2 R2, with R1 = (R(u0) - R(-u0)) / 2 and R2 = (R(u0) + R(-u0)) / 2.
    Both fields are built here from two ``rhs_nonlocal`` calls, and each
    evaluation of the forcing is f(t) = -s (u0 + R1) - s^2 R2.
    """
    plus, minus = (rhs_nonlocal(v, p).values for v in (u0, -u0))
    linear = u0.values + 0.5 * (plus - minus)
    quadratic = 0.5 * (plus + minus)

    def forcing(t: float) -> np.ndarray:
        s = math.exp(-t)
        return -s * linear - (s * s) * quadratic

    return forcing

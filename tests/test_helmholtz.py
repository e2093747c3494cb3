import importlib.machinery
import importlib.util
import math
import os
import re
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import lapack
from scipy.signal import lfilter

import dghlab as d
from dghlab import GridKind as GK
from conftest import (
    band_limited,
    dx_invert_lambda2_direct,
    dx_invert_lambda2_reference,
    green_kernel,
    invert_lambda2_direct,
    invert_lambda2_reference,
    panel_integrals_reference,
)


# -- kernel values -----------------------------------------------------------


def test_real_kernel_point_values():
    assert green_kernel(GK.TRUNCATED_LINE, 0.0) == 0.5
    assert green_kernel(GK.TRUNCATED_LINE, math.log(2)) == pytest.approx(0.25, rel=1e-15)


def test_periodic_kernel_peak_value():
    expected = math.cosh(0.5) / (2 * math.sinh(0.5))
    assert expected == pytest.approx(1.0819767, abs=1e-7)
    assert green_kernel(GK.PERIODIC, 0.0) == pytest.approx(expected, rel=1e-15)


def test_kernel_symmetry_and_periodicity():
    x = np.linspace(-3, 3, 101)
    real = green_kernel(GK.TRUNCATED_LINE, x)
    assert np.array_equal(real, green_kernel(GK.TRUNCATED_LINE, -x))
    per = green_kernel(GK.PERIODIC, x)
    per_shift = green_kernel(GK.PERIODIC, x + 1.0)
    assert np.max(np.abs(per - per_shift)) < 1e-14


def test_kernel_mass_is_one():
    g = d.make_grid(GK.PERIODIC, 512)
    gk = d.Field(g, green_kernel(GK.PERIODIC, g.nodes))
    assert abs(d.integrate(gk) - 1.0) < 1e-6
    gl = d.make_grid(GK.TRUNCATED_LINE, 16384, 20.0)
    gkl = d.Field(gl, green_kernel(GK.TRUNCATED_LINE, gl.nodes))
    assert abs(d.integrate(gkl) - 1.0) < 1e-6


# -- apply_lambda2 -----------------------------------------------------------


def test_apply_lambda2_constant():
    g = d.make_grid(GK.PERIODIC, 64)
    u = d.Field(g, np.ones(g.n))
    assert np.max(np.abs(d.apply_lambda2(u).values - 1.0)) < 1e-13


def test_apply_lambda2_eigenfunction():
    g = d.make_grid(GK.PERIODIC, 256)
    u = d.Field(g, np.cos(2 * np.pi * g.nodes))
    out = d.apply_lambda2(u)
    exact = (1 + 4 * np.pi**2) * np.cos(2 * np.pi * g.nodes)
    assert np.max(np.abs(out.values - exact)) / (1 + 4 * np.pi**2) < 1e-11


def test_apply_lambda2_linearity_on_two_modes():
    g = d.make_grid(GK.PERIODIC, 256)
    x = g.nodes
    u = d.Field(g, np.sin(2 * np.pi * x) + np.cos(4 * np.pi * x))
    exact = (1 + 4 * np.pi**2) * np.sin(2 * np.pi * x) + (1 + 16 * np.pi**2) * np.cos(
        4 * np.pi * x
    )
    assert np.max(np.abs(d.apply_lambda2(u).values - exact)) / (1 + 16 * np.pi**2) < 1e-11


# -- invert_lambda2 ----------------------------------------------------------


def test_invert_constant_both_methods():
    g = d.make_grid(GK.PERIODIC, 512)
    one = d.Field(g, np.ones(g.n))
    assert np.max(np.abs(d.invert_lambda2(one).values - 1.0)) < 1e-13
    assert np.max(np.abs(invert_lambda2_direct(one).values - 1.0)) < 1e-6


def test_invert_eigenfunction():
    g = d.make_grid(GK.PERIODIC, 256)
    f = d.Field(g, np.cos(2 * np.pi * g.nodes))
    inv = d.invert_lambda2(f)
    exact = np.cos(2 * np.pi * g.nodes) / (1 + 4 * np.pi**2)
    assert np.max(np.abs(inv.values - exact)) * (1 + 4 * np.pi**2) < 1e-12


def test_invert_line_exponential_closed_form():
    # (e^{-|x|}/2) * e^{-|x|} = (1 + |x|) e^{-|x|} / 2
    g = d.make_grid(GK.TRUNCATED_LINE, 2048, 20.0)
    f = d.Field(g, np.exp(-np.abs(g.nodes)))
    inv = d.invert_lambda2(f)
    x = g.nodes
    exact = 0.5 * (1 + np.abs(x)) * np.exp(-np.abs(x))
    interior = np.abs(x) < 18.0
    rel = np.max(np.abs(inv.values - exact)[interior]) / np.max(exact)
    assert rel < 1e-4


def test_invert_line_matches_adaptive_quadrature():
    g = d.make_grid(GK.TRUNCATED_LINE, 2048, 20.0)
    f = d.Field(g, np.exp(-(g.nodes**2)))
    inv = d.invert_lambda2(f)
    for i in (300, 1024, 1500):
        xi = g.nodes[i]
        fn = lambda y: 0.5 * math.exp(-abs(xi - y)) * math.exp(-(y**2))
        # split at the kernel corner, where the integrand is not smooth
        left, _ = quad(fn, -20, xi, limit=200)
        right, _ = quad(fn, xi, 20, limit=200)
        assert inv.values[i] == pytest.approx(left + right, abs=5e-9)


def test_roundtrip_periodic():
    g = d.make_grid(GK.PERIODIC, 256)
    rng = np.random.default_rng(5)
    f = band_limited(g, 40, 1.0, rng)
    back = d.apply_lambda2(d.invert_lambda2(f))
    assert np.max(np.abs(back.values - f.values)) < 1e-12


@pytest.mark.parametrize(
    "profile",
    [
        lambda x: np.exp(-(x**2)),
        lambda x: np.exp(-((x - 3) ** 2) / 2) + 0.5 * np.exp(-((x + 4) ** 2)),
    ],
    ids=["gaussian", "two_bumps"],
)
def test_roundtrip_line_interior(profile):
    g = d.make_grid(GK.TRUNCATED_LINE, 2048, 20.0)
    f = d.Field(g, profile(g.nodes))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", d.BoundaryDecayWarning)
        back = d.apply_lambda2(d.invert_lambda2(f))
    interior = slice(8, -8)
    rel = np.max(np.abs(back.values - f.values)[interior]) / f.max_abs()
    assert rel < 1e-6


# -- dx_invert_lambda2 -------------------------------------------------------


def test_dx_invert_constant_is_zero():
    g = d.make_grid(GK.PERIODIC, 128)
    one = d.Field(g, np.ones(g.n))
    assert d.dx_invert_lambda2(one).max_abs() < 1e-13


def test_dx_invert_eigenfunction():
    g = d.make_grid(GK.PERIODIC, 256)
    f = d.Field(g, np.cos(2 * np.pi * g.nodes))
    out = d.dx_invert_lambda2(f)
    exact = -2 * np.pi * np.sin(2 * np.pi * g.nodes) / (1 + 4 * np.pi**2)
    assert np.max(np.abs(out.values - exact)) < 1e-12


def test_dx_invert_line_matches_adaptive_quadrature():
    g = d.make_grid(GK.TRUNCATED_LINE, 2048, 20.0)
    f = d.Field(g, np.exp(-(g.nodes**2)))
    out = d.dx_invert_lambda2(f)
    for i in (300, 1024, 1500):
        xi = g.nodes[i]
        fn = lambda y: -np.sign(xi - y) * 0.5 * math.exp(-abs(xi - y)) * math.exp(-(y**2))
        left, _ = quad(fn, -20, xi, limit=200)
        right, _ = quad(fn, xi, 20, limit=200)
        assert out.values[i] == pytest.approx(left + right, abs=5e-9)


def test_dx_invert_narrow_bump_approaches_kernel_derivative():
    # unit-mass bump at the origin: d/dx (g * f) -> -sgn(x) e^{-|x|} / 2
    g = d.make_grid(GK.TRUNCATED_LINE, 8192, 20.0)
    x = g.nodes
    away = np.abs(x) > 0.5
    exact = -np.sign(x) * 0.5 * np.exp(-np.abs(x))
    errs = []
    for sigma in (0.1, 0.05):
        f = d.Field(g, np.exp(-(x**2) / (2 * sigma**2)) / (sigma * math.sqrt(2 * math.pi)))
        out = d.dx_invert_lambda2(f)
        errs.append(np.max(np.abs(out.values - exact)[away]))
    assert errs[0] < 5e-3
    assert errs[1] < errs[0] / 2  # sharpens as the bump narrows


def test_dx_invert_of_even_field_is_odd():
    gl = d.make_grid(GK.TRUNCATED_LINE, 1024, 15.0)
    f = d.Field(gl, np.exp(-(gl.nodes**2)))
    out = d.dx_invert_lambda2(f).values
    assert np.max(np.abs(out + out[::-1])) < 1e-10

    gp = d.make_grid(GK.PERIODIC, 256)
    f2 = d.Field(gp, np.cos(2 * np.pi * gp.nodes))
    v = d.dx_invert_lambda2(f2).values
    mirrored = -v[(-np.arange(gp.n)) % gp.n]
    assert np.max(np.abs(v - mirrored)) < 1e-10


# -- positivity and method agreement ----------------------------------------


@pytest.mark.parametrize(
    "make",
    [
        lambda: d.make_profile(d.make_grid(GK.PERIODIC, 512), "gaussian", center=0.5, width=0.1),
        lambda: d.make_profile(d.make_grid(GK.PERIODIC, 512), "bump", amplitude=1.0, center=0.5, width=0.2),
        lambda: d.make_profile(d.make_grid(GK.TRUNCATED_LINE, 2048, 20.0), "gaussian"),
        lambda: d.make_profile(d.make_grid(GK.TRUNCATED_LINE, 2048, 20.0), "bump", amplitude=1.0, width=1.0),
    ],
    ids=["periodic_gaussian", "periodic_bump", "line_gaussian", "line_bump"],
)
def test_invert_preserves_nonnegativity(make):
    f = make()
    assert np.min(f.values) >= 0.0
    inv = d.invert_lambda2(f)
    assert np.min(inv.values) >= -1e-12


def test_spectral_direct_agreement_band_limited():
    g = d.make_grid(GK.PERIODIC, 4096)
    f = d.Field(g, np.cos(2 * np.pi * 5 * g.nodes) + 0.3 * np.sin(2 * np.pi * 11 * g.nodes))
    a = d.invert_lambda2(f)
    b = invert_lambda2_direct(f)
    assert np.max(np.abs(a.values - b.values)) < 1e-8


def test_spectral_direct_agreement_dx():
    g = d.make_grid(GK.PERIODIC, 16384)
    f = d.Field(g, np.cos(2 * np.pi * 3 * g.nodes))
    a = d.dx_invert_lambda2(f)
    b = dx_invert_lambda2_direct(f)
    assert np.max(np.abs(a.values - b.values)) < 1e-8


# -- reference paths ---------------------------------------------------------


def test_fast_convolution_matches_slow_reference_periodic():
    g = d.make_grid(GK.PERIODIC, 128)
    rng = np.random.default_rng(3)
    f = d.Field(g, rng.normal(size=g.n))
    assert np.max(np.abs(invert_lambda2_direct(f).values - invert_lambda2_reference(f).values)) < 1e-13
    assert np.max(np.abs(dx_invert_lambda2_direct(f).values - dx_invert_lambda2_reference(f).values)) < 1e-13


def test_line_recursion_agrees_with_sampled_kernel_reference():
    # the O(n) product-integration path and the O(n^2) sampled-kernel rule
    # approximate the same integral; they agree to the reference's accuracy
    g = d.make_grid(GK.TRUNCATED_LINE, 1024, 15.0)
    f = d.Field(g, np.exp(-(g.nodes**2)) * (1 + 0.3 * np.sin(g.nodes)))
    fast = d.invert_lambda2(f)
    slow = invert_lambda2_reference(f)
    assert np.max(np.abs(fast.values - slow.values)) < 1e-4


@pytest.mark.parametrize("n", [16, 17, 256, 4096])
def test_line_panel_integrals_are_bitwise_equal_to_sliding_window_oracle(n, monkeypatch):
    # The equality spans two BLAS kernels: np.correlate dots each window with
    # ddot, the oracle's matrix-vector product runs dgemv.  It holds with
    # OpenBLAS 0.3.31 (DYNAMIC_ARCH) on x86-64; a BLAS or CPU that sums the
    # two differently calls for a few-ulp bound (np.testing.assert_array_max_ulp),
    # not for dropping the test.
    g = d.make_grid(GK.TRUNCATED_LINE, n, 20.0)
    rng = np.random.default_rng(n)
    fields = [
        d.Field(g, rng.normal(size=n)),
        d.make_profile(g, "bump", space="m", amplitude=0.5, center=0.3, width=1.0),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", d.BoundaryDecayWarning)
        got = [op(f).values for f in fields for op in (d.invert_lambda2, d.dx_invert_lambda2)]
        monkeypatch.setattr(d.helmholtz, "_panel_integrals", panel_integrals_reference)
        want = [op(f).values for f in fields for op in (d.invert_lambda2, d.dx_invert_lambda2)]
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


def _one_sided_panel_integrals(grid, vals):
    """(A, B) with the first and last panels integrating the cubic through the
    four end nodes by its own one-sided Lagrange weights."""
    h = grid.spacing
    nu_a, nu_b = d.helmholtz._exp_panel_moments(h)
    lagrange = d.helmholtz._lagrange_coeffs
    interior, first, last = lagrange([-1, 0, 1, 2]), lagrange([0, 1, 2, 3]), lagrange([-2, -1, 0, 1])
    out = np.empty((2, grid.n - 1))
    for row, nu in zip(out, (nu_a, nu_b)):
        row[1:-1] = np.lib.stride_tricks.sliding_window_view(vals, 4) @ (h * (interior @ nu))
        row[0] = h * (vals[:4] @ (first @ nu))
        row[-1] = h * (vals[-4:] @ (last @ nu))
    return out


@pytest.mark.parametrize("half_width", [0.5, 5.0, 20.0])
@pytest.mark.parametrize("n", [16, 17, 256, 4096])
def test_line_end_panels_integrate_the_one_sided_cubic(n, half_width):
    # The ghost value extrapolates the cubic through the four end nodes, so the
    # end panels integrate that cubic: only their rounding may differ.
    g = d.make_grid(GK.TRUNCATED_LINE, n, half_width)
    rng = np.random.default_rng(n)
    for scale in 10.0 ** np.arange(-5, 6):
        vals = scale * rng.normal(size=n)
        got = np.empty((2, n - 1))
        d.helmholtz._panel_integrals(g, vals, *got)
        want = _one_sided_panel_integrals(g, vals)
        assert np.array_equal(got[:, 1:-1], want[:, 1:-1])
        for end, nodes in ((0, vals[:4]), (-1, vals[-4:])):
            bound = 4e-15 * g.spacing * np.max(np.abs(nodes))
            assert np.all(np.abs(got[:, end] - want[:, end]) <= bound)


def _sweeps_by_recurrence(grid, vals):
    """P and Q by the sequential recurrences of the module docs, run by ``lfilter``."""
    A, B = np.empty((2, grid.n - 1))
    d.helmholtz._panel_integrals(grid, vals, A, B)
    decay = math.exp(-grid.spacing)
    P = np.concatenate(([0.0], lfilter([1.0], [1.0, -decay], A)))
    Q = np.concatenate((lfilter([1.0], [1.0, -decay], B[::-1])[::-1], [0.0]))
    return P, Q


@pytest.mark.parametrize("n", [16, 17, 256, 4096, 16384])
def test_line_sweeps_are_bitwise_equal_to_the_recurrence(n):
    g = d.make_grid(GK.TRUNCATED_LINE, n, 20.0)
    rng = np.random.default_rng(n)
    for _ in range(3):
        vals = rng.normal(size=n) * np.exp(-np.abs(g.nodes) * rng.uniform(0.2, 2.0))
        got = d.helmholtz._line_exponential_parts(g, vals, np.empty((2, n)))
        want = _sweeps_by_recurrence(g, vals)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))


def test_line_sweeps_match_the_recurrence_on_zeros_subnormals_and_nan():
    g = d.make_grid(GK.TRUNCATED_LINE, 64, 5.0)
    tiny = np.zeros(g.n)
    tiny[20] = 1e-310
    tiny[40:44] = [1.0, -2.0, 0.0, 3.0]
    nan = np.exp(-g.nodes**2)
    nan[30] = np.nan
    for vals in (tiny, nan):
        got = d.helmholtz._line_exponential_parts(g, vals, np.empty((2, g.n)))
        want = _sweeps_by_recurrence(g, vals)
        assert all(np.array_equal(a, b, equal_nan=True) for a, b in zip(got, want))
    P, Q = d.helmholtz._line_exponential_parts(g, nan, np.empty((2, g.n)))
    assert np.isnan(P[-1]) and np.isnan(Q[0]) and not np.isnan(P[0]) and not np.isnan(Q[-1])


def test_line_sweeps_take_the_array_a_copying_dtbtrs_returns(monkeypatch):
    # The sweeps solve in the caller's storage when the wrapper works in place;
    # a dtbtrs that leaves b as it is and returns a new array must give the same
    # P and Q, and the operators built on them the same values.
    g = d.make_grid(GK.TRUNCATED_LINE, 256, 20.0)
    vals = np.random.default_rng(5).normal(size=g.n) * np.exp(-np.abs(g.nodes))
    f = d.Field(g, vals)
    pq = np.full((2, g.n), np.nan)
    assert d.helmholtz._line_exponential_parts(g, vals, pq) is pq
    want = [pq.tobytes(), d.invert_lambda2(f).values.tobytes(), d.dx_invert_lambda2(f).values.tobytes()]
    dtbtrs = d.helmholtz._dtbtrs()
    copied = []

    def copying(band, b, **kw):
        copied.append(b)
        return dtbtrs(band, b.copy(), **kw)

    monkeypatch.setattr(d.helmholtz, "_dtbtrs", lambda: copying)
    pq = np.full((2, g.n), np.nan)
    assert d.helmholtz._line_exponential_parts(g, vals, pq) is pq
    got = [pq.tobytes(), d.invert_lambda2(f).values.tobytes(), d.dx_invert_lambda2(f).values.tobytes()]
    assert len(copied) == 6 and got == want


def test_line_sweep_bands_are_cached_read_only():
    g = d.make_grid(GK.TRUNCATED_LINE, 256, 20.0)
    bands = d.helmholtz._sweep_bands(g.n, g.spacing)
    assert d.helmholtz._sweep_bands(g.n, g.spacing) is bands
    for band in bands:
        assert band.shape == (2, g.n - 1) and band.flags.f_contiguous
        assert not band.flags.writeable


# -- the dtbtrs loader ----------------------------------------------------------


@pytest.mark.parametrize("n", [16, 4096])
def test_loaded_dtbtrs_is_bitwise_equal_to_scipy_lapack(n):
    dtbtrs = d.helmholtz._dtbtrs()
    assert d.helmholtz._dtbtrs() is dtbtrs
    g = d.make_grid(GK.TRUNCATED_LINE, n, 20.0)
    rhs = np.random.default_rng(n).normal(size=n - 1)
    with_nan = rhs.copy()
    with_nan[n // 3] = np.nan
    for band, uplo in zip(d.helmholtz._sweep_bands(g.n, g.spacing), "UL"):
        for b in (rhs, with_nan):
            got, info = dtbtrs(band, b.copy(), uplo=uplo, trans="T", diag="U", overwrite_b=1)
            want, want_info = lapack.dtbtrs(band, b, uplo=uplo, trans="T", diag="U")
            assert info == want_info == 0
            assert got.tobytes() == want.tobytes()


_SWEEP_THEN_IMPORT_SCIPY = textwrap.dedent(
    """
    import numpy as np

    import dghlab as d
    from dghlab import helmholtz

    g = d.make_grid(d.GridKind.TRUNCATED_LINE, 256, 20.0)
    vals = np.exp(-g.nodes**2)
    P, Q = helmholtz._line_exponential_parts(g, vals, np.empty((2, g.n)))

    from scipy.linalg import lapack

    A, B = np.empty((2, g.n - 1))
    helmholtz._panel_integrals(g, vals, A, B)
    upper, lower = helmholtz._sweep_bands(g.n, g.spacing)
    p, info_p = lapack.dtbtrs(upper, A, uplo="U", trans="T", diag="U")
    q, info_q = lapack.dtbtrs(lower, B, uplo="L", trans="T", diag="U")
    assert info_p == info_q == 0
    assert p.tobytes() == P[1:].tobytes() and q.tobytes() == Q[:-1].tobytes()
    """
)


def test_scipy_lapack_imports_after_a_line_sweep():
    # a fresh interpreter, so that the sweep loads the extension before scipy is imported
    src = str(Path(d.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", _SWEEP_THEN_IMPORT_SCIPY], capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr


@pytest.fixture
def uncached_dtbtrs():
    """``helmholtz._dtbtrs`` with its cache cleared before and after the test."""
    d.helmholtz._dtbtrs.cache_clear()
    yield d.helmholtz._dtbtrs
    d.helmholtz._dtbtrs.cache_clear()


def test_dtbtrs_without_scipy_is_an_import_error(monkeypatch, uncached_dtbtrs):
    monkeypatch.setattr(importlib.util, "find_spec", lambda name: None)
    with pytest.raises(ImportError, match=r"scipy.*sys\.path"):
        uncached_dtbtrs()


def test_dtbtrs_without_the_flapack_extension_is_an_import_error(monkeypatch, tmp_path, uncached_dtbtrs):
    linalg = tmp_path / "linalg"
    linalg.mkdir()
    (linalg / "_flapack.py").write_text("")  # a file, but no extension module
    spec = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
    spec.submodule_search_locations = [str(tmp_path)]
    monkeypatch.setattr(importlib.util, "find_spec", lambda name: spec)
    with pytest.raises(ImportError, match=f"scipy.*{re.escape(str(linalg))}"):
        uncached_dtbtrs()

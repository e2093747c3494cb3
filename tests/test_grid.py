import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

import dghlab as d
from dghlab import GridKind as GK

from conftest import band_limited


# -- construction -----------------------------------------------------------


def test_periodic_grid_spacing():
    g = d.make_grid(GK.PERIODIC, 256)
    assert g.spacing == 1.0 / 256
    assert g.length == 1.0
    assert g.nodes[0] == 0.0 and g.nodes[-1] < 1.0


def test_line_grid_spacing():
    g = d.make_grid(GK.TRUNCATED_LINE, 512, 20.0)
    assert g.spacing == 40.0 / 512 == 0.078125
    # cell-centered nodes are symmetric about the origin
    assert np.max(np.abs(g.nodes + g.nodes[::-1])) == 0.0


def test_make_grid_rejects_bad_input():
    with pytest.raises(ValueError):
        d.make_grid(GK.PERIODIC, 8)
    with pytest.raises(ValueError):
        d.make_grid(GK.TRUNCATED_LINE, 64, -1.0)
    with pytest.raises(ValueError):
        d.make_grid(GK.TRUNCATED_LINE, 64, None)


def test_grid_node_count_must_be_an_integer():
    assert d.make_grid(GK.PERIODIC, np.int64(32)) == d.make_grid(GK.PERIODIC, 32)
    assert type(d.make_grid(GK.PERIODIC, np.int32(32)).n) is int
    for n in (32.0, 32.5, "32"):
        with pytest.raises(TypeError, match="must be an integer"):
            d.make_grid(GK.PERIODIC, n)


def test_field_validation():
    g = d.make_grid(GK.PERIODIC, 16)
    with pytest.raises(d.NonFiniteFieldError):
        d.Field(g, np.full(16, np.nan))
    with pytest.raises(ValueError):
        d.Field(g, np.zeros(15))
    f = d.Field(g, np.zeros(16))
    with pytest.raises(ValueError):
        f.values[0] = 1.0  # read-only storage


def test_field_arithmetic_requires_same_grid():
    a = d.Field.zeros(d.make_grid(GK.PERIODIC, 16))
    b = d.Field.zeros(d.make_grid(GK.PERIODIC, 32))
    with pytest.raises(ValueError):
        a + b


# -- differentiation --------------------------------------------------------


def test_derivative_sin_periodic():
    g = d.make_grid(GK.PERIODIC, 256)
    f = d.Field(g, np.sin(2 * np.pi * g.nodes))
    df = d.derivative(f, 1)
    exact = 2 * np.pi * np.cos(2 * np.pi * g.nodes)
    assert np.max(np.abs(df.values - exact)) / (2 * np.pi) < 1e-10


def test_derivative_constant_is_zero():
    g = d.make_grid(GK.PERIODIC, 64)
    f = d.Field(g, np.ones(g.n))
    assert d.derivative(f, 1).max_abs() < 1e-14


def test_second_derivative_cos():
    g = d.make_grid(GK.PERIODIC, 256)
    f = d.Field(g, np.cos(2 * np.pi * g.nodes))
    d2 = d.derivative(f, 2)
    exact = -4 * np.pi**2 * np.cos(2 * np.pi * g.nodes)
    assert np.max(np.abs(d2.values - exact)) / (4 * np.pi**2) < 1e-10


def test_derivative_order_validated():
    g = d.make_grid(GK.PERIODIC, 64)
    f = d.Field.zeros(g)
    for bad in (0, 4, -1):
        with pytest.raises(ValueError):
            d.derivative(f, bad)


def test_repeated_first_derivative_matches_second():
    g = d.make_grid(GK.PERIODIC, 128)
    f = d.Field(g, np.exp(-100 * (g.nodes - 0.5) ** 2))
    twice = d.derivative(d.derivative(f, 1), 1)
    once = d.derivative(f, 2)
    scale = once.max_abs()
    assert np.max(np.abs(twice.values - once.values)) / scale < 1e-8


@pytest.mark.parametrize(
    "order,exact",
    [
        (1, lambda x: -2 * x * np.exp(-(x**2))),
        (2, lambda x: (4 * x**2 - 2) * np.exp(-(x**2))),
        # no exact values: the line stencils cover orders 1 and 2, so 0 and 3 are rejected
        (3, lambda x: None),
    ],
)
def test_line_derivative_gaussian(order, exact):
    g = d.make_grid(GK.TRUNCATED_LINE, 2048, 20.0)
    f = d.Field(g, np.exp(-(g.nodes**2)))
    if exact(g.nodes) is None:
        for bad in (0, 3):
            with pytest.raises(ValueError, match="order must be 1 or 2"):
                d.derivative(f, bad)
        return
    df = d.derivative(f, order)
    err = np.max(np.abs(df.values - exact(g.nodes)))
    assert err < 1e-8


def test_line_derivative_boundary_closures_order():
    # one-sided closures keep 6th-order accuracy: halving h gains ~2^6
    errs = []
    for n in (64, 128):
        g = d.make_grid(GK.TRUNCATED_LINE, n, 2.0)
        f = d.Field(g, np.sin(g.nodes))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", d.BoundaryDecayWarning)
            df = d.derivative(f, 1)
        errs.append(np.max(np.abs(df.values - np.cos(g.nodes))))
    assert errs[0] / errs[1] > 30.0


# -- quadrature -------------------------------------------------------------


def test_integrate_periodic_trivials():
    g = d.make_grid(GK.PERIODIC, 128)
    sin = d.Field(g, np.sin(2 * np.pi * g.nodes))
    one = d.Field(g, np.ones(g.n))
    assert abs(d.integrate(sin)) < 1e-15
    assert d.integrate(one) == pytest.approx(1.0, abs=1e-15)


def test_integrate_gaussian_vs_quadrature_oracle():
    # independent oracle: adaptive quadrature of exp(-x^2) over the domain
    oracle, _ = quad(lambda x: math.exp(-(x**2)), -20, 20)
    assert oracle == pytest.approx(math.sqrt(math.pi), rel=1e-12)
    g = d.make_grid(GK.TRUNCATED_LINE, 2048, 20.0)
    f = d.Field(g, np.exp(-(g.nodes**2)))
    assert d.integrate(f) == pytest.approx(oracle, rel=1e-6)
    assert d.integrate(f) == pytest.approx(1.7724538509055159, rel=1e-10)


def test_divergence_theorem_periodic():
    g = d.make_grid(GK.PERIODIC, 256)
    rng = np.random.default_rng(11)
    f = band_limited(g, 30, 1.0, rng)
    assert abs(d.integrate(d.derivative(f, 1))) < 1e-13


# -- weighted integrals -----------------------------------------------------


def test_weighted_integral_zero():
    g = d.make_grid(GK.TRUNCATED_LINE, 256, 10.0)
    assert d.weighted_integral(d.Field.zeros(g), "+") == 0.0


def test_weighted_integral_gaussian_both_signs():
    # complete the square: int e^{+-x} e^{-x^2} dx = e^{1/4} sqrt(pi)
    oracle = math.exp(0.25) * math.sqrt(math.pi)
    check, _ = quad(lambda x: math.exp(x) * math.exp(-(x**2)), -20, 20)
    assert check == pytest.approx(oracle, rel=1e-12)
    g = d.make_grid(GK.TRUNCATED_LINE, 2048, 20.0)
    f = d.Field(g, np.exp(-(g.nodes**2)))
    plus = d.weighted_integral(f, "+")
    minus = d.weighted_integral(f, "-")
    assert plus == pytest.approx(oracle, rel=1e-10)
    assert minus == pytest.approx(plus, rel=1e-12)  # even integrand


def test_weighted_integral_rejects_periodic():
    g = d.make_grid(GK.PERIODIC, 64)
    with pytest.raises(ValueError):
        d.weighted_integral(d.Field.zeros(g), "+")


def test_weighted_integral_rejects_bad_sign():
    g = d.make_grid(GK.TRUNCATED_LINE, 64, 5.0)
    for sign in ("both", "plus", 1):
        with pytest.raises(ValueError):
            d.weighted_integral(d.Field.zeros(g), sign)


@pytest.mark.parametrize("sign", ["+", "-"])
@pytest.mark.parametrize(
    "profile",
    [
        lambda x: np.exp(-(x**2)),
        lambda x: np.where(np.abs(x) < 2.0, np.exp(1 - 1 / np.maximum(1e-12, 1 - (x / 2.0) ** 2)), 0.0),
    ],
    ids=["gaussian", "bump"],
)
def test_weighted_integration_by_parts(sign, profile):
    # for decayed f: int e^{+-x} f'(x) dx = -(+-) int e^{+-x} f(x) dx
    g = d.make_grid(GK.TRUNCATED_LINE, 2048, 20.0)
    f = d.Field(g, profile(g.nodes))
    df = d.derivative(f, 1)
    s = 1.0 if sign == "+" else -1.0
    lhs = d.weighted_integral(df, sign)
    rhs = -s * d.weighted_integral(f, sign)
    assert lhs == pytest.approx(rhs, rel=1e-6, abs=1e-12)


# -- boundary-decay warning -------------------------------------------------


def test_boundary_warning_fires_for_undecayed_field():
    g = d.make_grid(GK.TRUNCATED_LINE, 256, 10.0)
    f = d.Field(g, np.ones(g.n))
    with pytest.warns(d.BoundaryDecayWarning):
        d.derivative(f, 1)
    with pytest.warns(d.BoundaryDecayWarning):
        d.weighted_integral(f, "+")


def test_boundary_warning_silent_for_decayed_field():
    g = d.make_grid(GK.TRUNCATED_LINE, 2048, 20.0)
    f = d.Field(g, np.exp(-(g.nodes**2)))
    with warnings.catch_warnings():
        warnings.simplefilter("error", d.BoundaryDecayWarning)
        d.derivative(f, 1)
        d.weighted_integral(f, "+")

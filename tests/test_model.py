"""Potential geometry, parameter validation, and the dimensionless reduction."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from doublewell import WellParameters, eta, from_eta, potential


def test_potential_vanishes_at_minima():
    p = WellParameters(mass=1.3, angular_frequency=0.7, half_separation=2.5, hbar=1.1)
    v0 = p.barrier_height
    assert abs(potential(p, p.half_separation)) <= 1e-15 * v0
    assert abs(potential(p, -p.half_separation)) <= 1e-15 * v0


def test_barrier_height_at_origin():
    p = WellParameters(mass=2.0, angular_frequency=1.5, half_separation=3.0, hbar=1.0)
    assert potential(p, 0.0) == pytest.approx(2.0 * 1.5**2 * 3.0**2 / 8.0, rel=1e-15)
    assert p.barrier_height == pytest.approx(potential(p, 0.0), rel=1e-15)


def test_potential_direct_value_and_expanded_polynomial():
    # V(1) for a=2 is (1/32) * 1^2 * 3^2 = 9/32; also check against the
    # independently expanded quartic (x^4 - 2 a^2 x^2 + a^4) on a grid
    p = WellParameters(mass=1.0, angular_frequency=1.0, half_separation=2.0, hbar=1.0)
    assert potential(p, 1.0) == pytest.approx(9.0 / 32.0, rel=1e-15)
    a = p.half_separation
    pref = p.mass * p.angular_frequency**2 / (8.0 * a * a)
    x = np.linspace(-5.0, 5.0, 41)
    expanded = pref * (x**4 - 2.0 * a * a * x * x + a**4)
    assert np.allclose(potential(p, x), expanded, rtol=1e-13, atol=1e-13)


@given(u=st.floats(min_value=-3.0, max_value=3.0))
def test_potential_symmetry(u: float):
    p = WellParameters(mass=1.0, angular_frequency=2.0, half_separation=1.7, hbar=1.0)
    x = u * p.half_separation
    assert abs(potential(p, x) - potential(p, -x)) <= 1e-12 * p.barrier_height


def test_potential_symmetry_dense_grid():
    p = WellParameters(half_separation=4.0)
    rng = np.random.default_rng(7)
    x = rng.uniform(-3.0 * p.half_separation, 3.0 * p.half_separation, size=1000)
    assert np.all(np.abs(potential(p, x) - potential(p, -x)) <= 1e-12 * p.barrier_height)


def test_quartic_growth():
    # V/x^4 approaches the quartic coefficient like (1 - (a/x)^2)^2, i.e.
    # to 2e-4 at x = 100 a and to 1e-6 only around x = 1500 a
    p = WellParameters(mass=1.2, angular_frequency=0.9, half_separation=2.0, hbar=1.0)
    limit = p.mass * p.angular_frequency**2 / (8.0 * p.half_separation**2)
    x = 100.0 * p.half_separation
    assert potential(p, x) / x**4 == pytest.approx(limit, rel=2.1e-4)
    x = 3000.0 * p.half_separation
    assert potential(p, x) / x**4 == pytest.approx(limit, rel=1e-6)


def test_eta_direct_value():
    assert eta(WellParameters(1.0, 1.0, 10.0, 1.0)) == pytest.approx(0.1, rel=1e-15)


def test_eta_power_laws():
    # eta = sqrt(hbar/(m w a^2)) scales as 1/a and as 1/sqrt(m w)
    base = eta(WellParameters(1.0, 1.0, 10.0, 1.0))
    assert eta(WellParameters(1.0, 1.0, 20.0, 1.0)) == pytest.approx(base / 2.0, rel=1e-14)
    heavier = eta(WellParameters(2.0, 1.0, 10.0, 1.0))
    assert heavier == pytest.approx(base / math.sqrt(2.0), rel=1e-14)
    assert heavier == pytest.approx(0.0707107, abs=1e-7)


def test_eta_depends_only_on_combination():
    # equal m*w*a^2/hbar must give equal eta
    assert eta(WellParameters(2.0, 0.5, 10.0, 1.0)) == pytest.approx(0.1, rel=1e-15)
    assert eta(WellParameters(0.25, 4.0, 10.0, 1.0)) == pytest.approx(0.1, rel=1e-15)


def test_from_eta_examples():
    p = from_eta(0.1)
    assert (p.mass, p.angular_frequency, p.hbar) == (1.0, 1.0, 1.0)
    assert p.half_separation == pytest.approx(10.0, rel=1e-15)
    assert from_eta(0.122513).half_separation == pytest.approx(8.16240, abs=1e-4)
    assert from_eta(1.0).half_separation == 1.0
    assert from_eta(np.int64(1)).half_separation == 1.0
    assert from_eta(np.float32(0.1)).half_separation == 1.0 / float(np.float32(0.1))


@given(value=st.floats(min_value=1e-3, max_value=10.0))
def test_from_eta_round_trip(value: float):
    assert eta(from_eta(value)) == pytest.approx(value, rel=1e-14)


@pytest.mark.parametrize(
    "bad",
    [
        0.0, -0.1, math.nan, math.inf, None, "x", True,
        pytest.param("0.1", id="numeric-string"),
        pytest.param(10**400, id="int-beyond-float64"),
    ],
)
def test_from_eta_rejects_nonpositive(bad):
    with pytest.raises(ValueError):
        from_eta(bad)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"mass": 0.0},
        {"mass": -1.0},
        {"angular_frequency": 0.0},
        {"half_separation": -2.0},
        {"hbar": 0.0},
        {"mass": math.nan},
        {"angular_frequency": math.inf},
        {"half_separation": np.array([10.0])},
    ],
)
def test_parameter_validation(kwargs):
    with pytest.raises(ValueError, match=next(iter(kwargs))):
        WellParameters(**kwargs)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"half_separation": 1e-200},  # m w a^2 underflows to 0
        {"half_separation": 1e200},  # a^2 overflows
        {"mass": 1e-160, "angular_frequency": 1e-160},  # hbar / (m w a^2) overflows to inf
        {"hbar": 1e-300, "mass": 1e300, "half_separation": 1e10},  # eta underflows to 0
    ],
)
def test_parameters_whose_eta_leaves_float64_rejected(kwargs):
    # every field is finite and positive, but the eta they imply is not
    with pytest.raises(ValueError, match="eta"):
        WellParameters(**kwargs)


def test_potential_scalar_and_array_agree():
    p = WellParameters(half_separation=3.0)
    xs = [-2.0, 0.0, 1.5, 3.0, 7.0]
    arr = potential(p, np.array(xs))
    for x, v in zip(xs, arr):
        scalar = potential(p, x)
        assert isinstance(scalar, float)
        assert scalar == pytest.approx(v, rel=1e-15, abs=1e-300)

"""Node-doubling Gauss-Legendre integrator."""

from __future__ import annotations

import math

import numpy as np
import pytest

from doublewell import QuadratureError, integrate


def test_polynomial_is_exact():
    value, estimate = integrate(lambda x: x**5, 0.0, 1.0, tol=1e-12)
    assert value == pytest.approx(1.0 / 6.0, rel=1e-14)
    assert estimate <= 1e-12


def test_sine_lobe():
    value, _ = integrate(np.sin, 0.0, math.pi, tol=1e-12)
    assert value == pytest.approx(2.0, rel=1e-13)


def test_exponential_with_offset_interval():
    value, _ = integrate(np.exp, -1.0, 3.0, tol=1e-12)
    assert value == pytest.approx(math.exp(3.0) - math.exp(-1.0), rel=1e-13)


def test_estimate_meets_tolerance():
    for tol in (1e-6, 1e-8, 1e-10, 1e-13):
        value, estimate = integrate(lambda x: np.sqrt(2.0 + np.sin(3.0 * x)), 0.0, 2.0, tol=tol)
        assert estimate <= tol
        assert math.isfinite(value)


def test_tightening_tol_moves_result_less_than_estimate():
    f = lambda x: 1.0 / (1.0 + x * x)  # noqa: E731
    coarse, est = integrate(f, 0.0, 4.0, tol=1e-6)
    fine, _ = integrate(f, 0.0, 4.0, tol=1e-12)
    assert abs(coarse - fine) <= max(est * abs(coarse), 1e-15)


def test_budget_exhaustion_raises_with_estimate():
    # ~16k oscillations cannot converge within a 4096-node budget
    with pytest.raises(QuadratureError) as excinfo:
        integrate(lambda x: np.sin(1e5 * x), 0.0, 1.0, tol=1e-10)
    assert math.isfinite(excinfo.value.estimate)
    assert excinfo.value.estimate > 1e-10


def test_parameter_validation():
    with pytest.raises(ValueError):
        integrate(np.sin, 0.0, 1.0, tol=0.0)
    with pytest.raises(ValueError):
        integrate(np.sin, 0.0, 1.0, tol=2.0)
    with pytest.raises(ValueError):
        integrate(np.sin, 0.0, 1.0, start=64, budget=64)


def test_deterministic():
    f = lambda x: np.exp(-x * x) * np.cos(5 * x)  # noqa: E731
    first = integrate(f, -2.0, 2.0, tol=1e-11)
    second = integrate(f, -2.0, 2.0, tol=1e-11)
    assert first == second


def _row_integrand(ks):
    """sin(k x) for each k, as one (rows, n) integrand and as 1-D ones."""
    column = np.asarray(ks, dtype=float)[:, None]
    return (lambda x: np.sin(column * x)), [(lambda x, k=k: np.sin(k * x)) for k in ks]


def test_batched_rows_match_one_dimensional_calls_bit_for_bit():
    cs = np.array([0.5, 1.0, 2.0, 3.0, 5.0])
    values, estimates = integrate(lambda x: np.exp(-cs[:, None] * x * x) * np.cos(5.0 * x), -2.0, 2.0, tol=1e-11)
    assert values.shape == estimates.shape == cs.shape
    for c, value, estimate in zip(cs, values, estimates):
        assert (value, estimate) == integrate(lambda x: np.exp(-c * x * x) * np.cos(5.0 * x), -2.0, 2.0, tol=1e-11)


def test_batched_rows_keep_their_own_first_converged_rule():
    ks = [1.0, 10.0, 40.0, 100.0]
    batched, singles = _row_integrand(ks)
    values, estimates = integrate(batched, 0.0, 1.0, tol=1e-12)
    largest = []
    for f, value, estimate in zip(singles, values, estimates):
        sizes = []
        assert (value, estimate) == integrate(lambda x: sizes.append(x.size) or f(x), 0.0, 1.0, tol=1e-12)
        assert estimate <= 1e-12
        largest.append(max(sizes))
    # the rows converge at different node counts, yet the batch, which runs
    # until its slowest row converges, returns each row's own first result
    assert len(set(largest)) > 1


def test_one_stalled_row_raises_with_its_estimate():
    batched, singles = _row_integrand([1.0, 2.0, 1e3])
    with pytest.raises(QuadratureError) as single:
        integrate(singles[-1], 0.0, 1.0, tol=1e-10, budget=256)
    with pytest.raises(QuadratureError) as excinfo:
        integrate(batched, 0.0, 1.0, tol=1e-10, budget=256)
    assert excinfo.value.estimate == single.value.estimate > 1e-10

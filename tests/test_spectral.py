"""Finite-difference eigensolver and its resolution guard."""

from __future__ import annotations

import math

import mpmath
import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal as lapack_eigh_tridiagonal

from doublewell import (
    GridSpec,
    ResolutionError,
    SpectrumResult,
    WellParameters,
    exact_splitting,
    from_eta,
    ln_splitting_instanton,
    perturbed_level,
    splitting_wkb_exact,
)
from doublewell import solve_spectrum
from doublewell import spectral
from doublewell.spectral import _matrix, default_grid, eigh_tridiagonal


def _lapack(diag, off, k):
    return lapack_eigh_tridiagonal(diag, np.full(len(diag) - 1, off), select="i", select_range=(0, k - 1), eigvals_only=True)


@pytest.mark.parametrize("eta_value", [*np.linspace(0.05, 0.6, 20).tolist(), 0.14, 0.157])
def test_port_is_bit_identical_to_lapack_on_default_grids(eta_value):
    # every number the spectral route reports comes from these two solves
    p = from_eta(eta_value)
    grid = default_grid(p)
    for n in (grid.points, 2 * grid.points - 1):
        diag, off, _ = _matrix(p, grid.half_width, n, None)
        assert np.array_equal(eigh_tridiagonal(diag, off, 2), _lapack(diag, off, 2))


@pytest.mark.parametrize("n", [201, 301, 4001, 8001])
def test_port_is_bit_identical_to_lapack_across_sizes_and_levels(n):
    p = from_eta(0.2)
    diag, off, _ = _matrix(p, default_grid(p).half_width, n, None)
    for k in (2, 3, 4, 6):
        assert np.array_equal(eigh_tridiagonal(diag, off, k), _lapack(diag, off, k)), k


@pytest.mark.parametrize("eta_value", [0.05, 0.1])
def test_port_is_bit_identical_to_lapack_when_k_splits_a_doublet(eta_value):
    # an odd k cuts a doublet degenerate to float64, so the located interval
    # holds one eigenvalue too many and the surplus is dropped as dstebz does
    # (at eta = 0.1 on the coarse grid, by its fallback for non-monotone counts)
    p = from_eta(eta_value)
    grid = default_grid(p)
    for n in (grid.points, 2 * grid.points - 1):
        diag, off, _ = _matrix(p, grid.half_width, n, None)
        for k in (1, 3, 5):
            assert np.array_equal(eigh_tridiagonal(diag, off, k), _lapack(diag, off, k)), (n, k)


@pytest.mark.parametrize(
    "params, half_width, potential_fn",
    [
        ((1.0, 1.0, 1.0, 1.0), 10.0, lambda x: 0.5 * x * x),
        ((2.0, 3.0, 1.0, 1.5), 5.0, lambda x: 9.0 * x * x),
    ],
)
def test_port_is_bit_identical_to_lapack_on_oracle_potentials(params, half_width, potential_fn):
    p = WellParameters(*params)
    for n in (2001, 4001):
        diag, off, _ = _matrix(p, half_width, n, potential_fn)
        assert np.array_equal(eigh_tridiagonal(diag, off, 3), _lapack(diag, off, 3))


def _sturm_bisection(diag, off, k, digits=40):
    """The k lowest eigenvalues of the float64 matrix as stored, by Sturm-count
    bisection in `digits`-digit arithmetic, to 1e-28 of the Gershgorin width."""
    with mpmath.workdps(digits):
        d = [mpmath.mpf(x) for x in diag.tolist()]
        e2 = mpmath.mpf(off) ** 2
        tiny = mpmath.mpf(10) ** (-2 * digits)

        def count(c):
            t, m = d[0] - c, 0
            for dj in d[1:]:
                m += t < 0
                t = dj - c - e2 / (t or tiny)
            return m + (t < 0)

        radius = 2 * abs(mpmath.mpf(off))
        low, high = min(d) - radius, max(d) + radius
        values = []
        for i in range(k):
            lo, hi = low, high
            while hi - lo > (high - low) * mpmath.mpf(10) ** -28:
                mid = (lo + hi) / 2
                lo, hi = (lo, mid) if count(mid) > i else (mid, hi)
            values.append((lo + hi) / 2)
        return values


def test_port_is_within_its_stopping_tolerance_of_exact_eigenvalues():
    # dstebz stops bisecting at ULP * ||T||; the exact eigenvalues of the same
    # float64 matrix bound the port's whole error, counting error included
    p = from_eta(0.2)
    diag, off, norm = _matrix(p, default_grid(p).half_width, 201, None)
    exact = _sturm_bisection(diag, off, 4)
    for value, reference in zip(eigh_tridiagonal(diag, off, 4), exact):
        assert abs(mpmath.mpf(float(value)) - reference) <= spectral._ULP * norm


def test_harmonic_oscillator_oracle_natural_units():
    p = WellParameters(1.0, 1.0, 1.0, 1.0)
    result = solve_spectrum(p, GridSpec(10.0, 2001), k=3, potential_fn=lambda x: 0.5 * x * x)
    for n, value in enumerate(result.eigenvalues):
        assert value == pytest.approx(n + 0.5, rel=1e-6)


def test_harmonic_oscillator_oracle_physical_units():
    # hbar*omega = 4.5: levels at 2.25, 6.75, 11.25.
    p = WellParameters(mass=2.0, angular_frequency=3.0, half_separation=1.0, hbar=1.5)
    result = solve_spectrum(p, GridSpec(5.0, 2001), k=3, potential_fn=lambda x: 9.0 * x * x)
    for n, value in enumerate(result.eigenvalues):
        assert value == pytest.approx(4.5 * (n + 0.5), rel=1e-6)


def test_grid_refinement_is_second_order():
    # With three grids at h, h/2, h/4 and error ~ c h^2, the difference
    # ratio (E_h - E_{h/4}) / (E_{h/2} - E_{h/4}) tends to (16-1)/(4-1) = 5.
    p = from_eta(0.25)
    half_width = default_grid(p).half_width
    energies = {}
    for n in (501, 1001, 2001):
        diag, off, _ = _matrix(p, half_width, n, None)
        energies[n] = eigh_tridiagonal(diag, off, 2)[0]
    ratio = (energies[501] - energies[2001]) / (energies[1001] - energies[2001])
    assert ratio == pytest.approx(5.0, rel=0.05)


def test_exact_splitting_regression_value():
    splitting, estimate = exact_splitting(from_eta(0.2))
    assert splitting == pytest.approx(6.117438798858288e-07, rel=1e-6)
    assert 0.0 < estimate < splitting / 10.0


def test_splitting_grows_with_eta():
    d_020, _ = exact_splitting(from_eta(0.20))
    d_025, _ = exact_splitting(from_eta(0.25))
    assert 0.0 < d_020 < d_025


def test_splitting_agrees_with_quadrature_route():
    p = from_eta(0.2)
    splitting, _ = exact_splitting(p)
    assert 0.75 < splitting / splitting_wkb_exact(p) < 1.05


def test_splitting_agrees_with_instanton_scale():
    p = from_eta(0.15)
    splitting, _ = exact_splitting(p)
    assert abs(math.log(splitting) - ln_splitting_instanton(0.15)) < 1.0


def test_doublet_midpoint_matches_perturbation_theory():
    # The well-bottom Taylor coefficients describe the actual levels; the
    # standard coefficient set is a different expansion and sits a few
    # percent off at this eta.
    p = from_eta(0.15)
    result = solve_spectrum(p, default_grid(p), k=2)
    midpoint = 0.5 * (result.eigenvalues[0] + result.eigenvalues[1])
    taylor = perturbed_level(p, mode="taylor").energy
    standard = perturbed_level(p, mode="standard").energy
    assert abs(midpoint - taylor) / midpoint < 5e-3
    assert abs(midpoint - standard) / midpoint < 5e-2
    assert abs(midpoint - taylor) < abs(midpoint - standard)


def test_ground_state_sits_below_barrier():
    p = from_eta(0.2)
    result = solve_spectrum(p, default_grid(p), k=4)
    assert result.eigenvalues[0] < p.barrier_height
    values = result.eigenvalues
    assert all(b > a for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("eta_value", [0.05, 0.14])
def test_unresolvable_splitting_is_refused(eta_value):
    with pytest.raises(ResolutionError, match="below numerical resolution"):
        exact_splitting(from_eta(eta_value))


def test_exact_splitting_domain_guard():
    with pytest.raises(ValueError, match="validity boundary"):
        exact_splitting(from_eta(0.65))


@pytest.mark.parametrize("eta_value", [0.65, 0.7])
def test_every_eigensolver_entry_point_refuses_beyond_validity_boundary(eta_value):
    # beyond the boundary 1 + eps < 0: the one guard names that, before any
    # turning point takes the square root of a negative number
    p = from_eta(eta_value)
    grid = GridSpec(20.0, 401)
    calls = [
        lambda: solve_spectrum(p),
        lambda: solve_spectrum(p, grid),
        lambda: exact_splitting(p),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="validity boundary"):
            call()


def test_default_grid_is_the_grid_none_means():
    p = from_eta(0.2)
    assert solve_spectrum(p) == solve_spectrum(p, default_grid(p))


def test_exact_splitting_boxes_the_well_once(monkeypatch):
    # the default grid clears the box margin by construction, so the validity
    # guard and the turning points run once, not again as a box check
    calls = []
    original = spectral._outer_turning_point
    monkeypatch.setattr(spectral, "_outer_turning_point", lambda p: calls.append(p) or original(p))
    exact_splitting(from_eta(0.2))
    assert len(calls) == 1


def test_grid_spec_validation():
    for bad_points in (200, 301.5, math.inf, math.nan, None, "301"):
        with pytest.raises(ValueError, match="^points "):
            GridSpec(10.0, bad_points)
    for bad_width in (0.0, -2.0, math.inf, math.nan, None, "10"):
        with pytest.raises(ValueError, match="^half_width "):
            GridSpec(bad_width, 301)
    with pytest.raises(ValueError, match="got None"):
        GridSpec(None, 301)
    g = GridSpec(10.0, 301.0)
    assert g.points == 301 and isinstance(g.points, int)
    assert g.spacing == pytest.approx(20.0 / 300.0)


def test_box_must_enclose_outer_turning_point():
    # At eta = 0.2 the outer turning point plus decay margin is ~10.9.
    with pytest.raises(ValueError, match="half_width"):
        solve_spectrum(from_eta(0.2), GridSpec(7.0, 301))


def test_level_count_validation():
    p = from_eta(0.2)
    for bad_k in (1, 0, 2.5, math.inf, None):
        with pytest.raises(ValueError, match="^k "):
            solve_spectrum(p, GridSpec(12.0, 301), k=bad_k)


def test_level_count_must_be_below_matrix_size():
    # no caller needs every eigenvalue, so the port refuses k == n rather than keep a path for it
    p = from_eta(0.2)
    diag, off, _ = _matrix(p, 12.0, 301, None)
    with pytest.raises(ValueError, match="^k "):
        eigh_tridiagonal(diag, off, len(diag))
    with pytest.raises(ValueError, match="^k "):
        solve_spectrum(p, GridSpec(12.0, 301), k=301)


def test_splitting_insensitive_to_box_size():
    # Growing the box at (almost) fixed spacing must not move the
    # splitting by more than the combined error bars.
    p = from_eta(0.2)
    g0 = default_grid(p)
    first = solve_spectrum(p, g0, k=2)
    n1 = int(round((g0.points - 1) * 1.2)) + 1
    if n1 % 2 == 0:
        n1 += 1
    g1 = GridSpec(g0.half_width * (n1 - 1) / (g0.points - 1), n1)
    second = solve_spectrum(p, g1, k=2)
    assert abs(first.splitting - second.splitting) < (
        first.splitting_estimate + second.splitting_estimate
    )


def test_result_rejects_inversion_beyond_error_bars():
    with pytest.raises(ValueError, match="out of order"):
        SpectrumResult(
            eigenvalues=(1.0, 0.5),
            eigenvalue_estimates=(1e-12, 1e-12),
            splitting=-0.5,
            splitting_estimate=1e-12,
        )
    # A doublet inverted by less than its error bars is the guard's
    # problem, not the constructor's.
    SpectrumResult(
        eigenvalues=(1.0, 1.0 - 1e-15),
        eigenvalue_estimates=(1e-12, 1e-12),
        splitting=-1e-15,
        splitting_estimate=1e-12,
    )


def test_exact_splitting_deterministic():
    p = from_eta(0.18)
    assert exact_splitting(p) == exact_splitting(p)

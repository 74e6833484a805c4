"""Finite-difference eigensolver and its resolution guard."""

from __future__ import annotations

import ast
import math
import re
import time
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal as lapack_eigh_tridiagonal

from doublewell import (
    SQRT_E_OVER_PI,
    GridSpec,
    PerturbedLevel,
    ResolutionError,
    SpectrumResult,
    WellParameters,
    eta,
    exact_splitting,
    from_eta,
    ln_splitting_instanton,
    ln_splitting_wkb_exact,
    perturbed_level,
    potential,
    splitting_report,
    turning_points,
    validity_boundary,
)
from doublewell import solve_spectrum
from doublewell import spectral
from doublewell.spectral import _matrix, default_grid, eigh_tridiagonal


def _assert_near_lapack(diag, off, k, note=None):
    # each eigenvalue within 2 ULP * ||T|| of LAPACK's dstebz, which itself stops
    # within about ULP * ||T|| of one; ||T|| is the Gershgorin bound
    reference = lapack_eigh_tridiagonal(
        diag, np.full(len(diag) - 1, off), select="i", select_range=(0, k - 1), eigvals_only=True
    )
    norm = float(np.max(np.abs(diag))) + 2.0 * abs(off)
    values = eigh_tridiagonal(diag, off, k)
    assert values.shape == (k,), note
    assert np.all(np.abs(values - reference) <= 2.0 * spectral._ULP * norm), note


@pytest.mark.parametrize("eta_value", [*np.linspace(0.05, 0.6, 20).tolist(), 0.14, 0.157])
def test_port_is_bit_identical_to_lapack_on_default_grids(eta_value):
    # every number the spectral route reports comes from these two solves
    p = from_eta(eta_value)
    grid = default_grid(p)
    for n in (grid.points, 2 * grid.points - 1):
        diag, off, _ = _matrix(p, grid.half_width, n)
        _assert_near_lapack(diag, off, 2, n)


@pytest.mark.parametrize("n", [201, 301, 4001, 8001])
def test_port_is_bit_identical_to_lapack_across_sizes_and_levels(n):
    p = from_eta(0.2)
    diag, off, _ = _matrix(p, default_grid(p).half_width, n)
    for k in (2, 3, 4, 6):
        _assert_near_lapack(diag, off, k, k)


@pytest.mark.parametrize("eta_value", [0.05, 0.1])
def test_port_is_bit_identical_to_lapack_when_k_splits_a_doublet(eta_value):
    # an odd k cuts a doublet degenerate to float64: the k-th value is still
    # the lower member's
    p = from_eta(eta_value)
    grid = default_grid(p)
    for n in (grid.points, 2 * grid.points - 1):
        diag, off, _ = _matrix(p, grid.half_width, n)
        for k in (1, 3, 5):
            _assert_near_lapack(diag, off, k, (n, k))


@pytest.mark.parametrize(
    "params, half_width, potential_fn",
    [
        ((1.0, 1.0, 1.0, 1.0), 10.0, lambda x: 0.5 * x * x),
        ((2.0, 3.0, 1.0, 1.5), 5.0, lambda x: 9.0 * x * x),
    ],
)
def test_port_is_bit_identical_to_lapack_on_oracle_potentials(params, half_width, potential_fn, monkeypatch):
    # natural-units matrices of two oscillators; the well only names eta in a refusal
    monkeypatch.setattr(spectral, "potential", lambda p, x: potential_fn(x))
    p = WellParameters(*params)
    for n in (2001, 4001):
        diag, off, _ = _matrix(p, half_width, n)
        _assert_near_lapack(diag, off, 3, n)


@pytest.mark.parametrize(
    "diag, off",
    [
        # the off-diagonal's square overflows
        (np.zeros(5), 1e155),
        # the off-diagonal's square is subnormal
        (np.zeros(5), 1e-160),
        # the padded Gershgorin interval overflows at its top
        (np.array([0.0, 1.0, 1.7976931348623157e308]), 1.0),
        # a NaN or an infinity on the diagonal or off it; np.min and np.max
        # return the NaN in the middle, which min and max would skip
        (np.array([1.0, 2.0, math.nan, 4.0, 5.0]), 1.0),
        (np.array([math.inf, 0.0, 3.0, 4.0, 5.0]), 1.0),
        (np.array([1.0, 2.0, 3.0, 4.0, -math.inf]), 1.0),
        (np.zeros(5), math.nan),
        (np.zeros(5), math.inf),
        # the padded Gershgorin interval overflows at its bottom
        (np.array([-1.7976931348623157e308, 0.0, 1.0]), 1.0),
    ],
)
def test_port_refuses_matrices_outside_the_float64_range(diag, off):
    # no double well reaches this guard: the solver's matrices are in natural units
    with pytest.raises(ValueError, match=r"^matrix outside the float64 range"):
        eigh_tridiagonal(diag, off, 2)


def test_port_bisects_near_the_top_of_the_float64_range():
    # lo + hi overflows here, so the midpoint halves each end first
    values = eigh_tridiagonal(np.array([1e308, 1e-300, 1.5e308]), 1.0, 2)
    assert values[1] == pytest.approx(1e308, rel=1e-15) and abs(values[0]) < 1e-15 * 1.5e308


@pytest.mark.parametrize(
    "diag, off",
    [
        # neighbouring diagonal products overflow
        (np.full(5, 1e160), 1.0),
        # 1e8 * 1e8 * ULP^2 is about 5e-16, far above off^2 = 1e-18
        (np.full(5, 1e8), 1e-9),
        # both, beside a small entry
        (np.array([1e200, -1e200, 3.0, 1e200]), 1e-3),
    ],
)
def test_eigensolver_answers_matrices_dstebz_would_split(diag, off):
    # dstebz splits these into blocks at a negligible off-diagonal; a Sturm
    # count never splits the matrix, so bisection answers them whole
    _assert_near_lapack(diag, off, 2)


def test_port_is_bit_identical_to_lapack_on_random_matrices():
    # held to LAPACK beyond this program's matrices: seeded random,
    # nonnegative, double-well-shaped, constant and plateau diagonals at
    # scales 1e+-120.  Plateaus between walls 1e3-1e6 high hold clusters of
    # eigenvalues degenerate in float64, whose bisection paths share most
    # halves; there k runs up to n - 1, so some k splits a cluster.
    rng = np.random.default_rng(28)
    for case in range(250):
        n = int(rng.integers(3, 200))
        x = np.linspace(-1.0, 1.0, n)
        scale = 10.0 ** rng.uniform(-120.0, 120.0)
        period = int(rng.integers(2, 40))
        walls = np.arange(n) % period < rng.integers(1, min(period, 8))
        diag = scale * [
            rng.standard_normal(n),
            rng.uniform(0.0, 1.0, n),
            rng.uniform(1.0, 1e4) * (x * x - 0.5) ** 2,
            np.full(n, rng.standard_normal()),
            np.where(walls, 10.0 ** rng.uniform(3.0, 6.0), 0.0),
        ][case % 5]
        off = scale * rng.choice([-1.0, 1.0]) * rng.uniform(0.01, 1.0)
        k = int(rng.integers(1, n if case % 5 == 4 else min(9, n - 1) + 1))
        _assert_near_lapack(diag, off, k, (case, n, k))


def test_eigensolver_returns_the_k_lowest_when_k_splits_a_cluster():
    # plateaus between walls 1e3-1e8 high, jittered by 1e-13 or 1e-10 so a
    # cluster's eigenvalues differ by a few ulps; when k splits a cluster, the
    # values are still the k lowest, each bisected on its own
    rng = np.random.default_rng(13)
    for case in range(200):
        n = int(rng.integers(3, 60))
        period = int(rng.integers(2, 12))
        walls = np.arange(n) % period < rng.integers(1, period)
        diag = np.where(walls, 10.0 ** rng.uniform(3.0, 8.0), 0.0) + rng.choice([1e-13, 1e-10]) * rng.standard_normal(n)
        off = rng.choice([-1.0, 1.0]) * rng.uniform(0.01, 1.0)
        k = int(rng.integers(1, n))
        _assert_near_lapack(diag, off, k, (case, n, k))


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
    # the bisection stops at ULP * ||T|| / 16; the exact eigenvalues of the same
    # float64 matrix bound its whole error, counting error included
    p = from_eta(0.2)
    diag, off, norm = _matrix(p, default_grid(p).half_width, 201)
    exact = _sturm_bisection(diag, off, 4)
    for value, reference in zip(eigh_tridiagonal(diag, off, 4), exact):
        assert abs(mpmath.mpf(float(value)) - reference) <= spectral._ULP * norm


def test_splitting_is_within_one_floor_of_the_exact_one():
    # E1 - E0 on the default coarse and fine matrices at eta = 0.2, against the
    # exact difference of the same float64 matrices, within one noise floor
    # 0.25 * ULP * ||H||: it reads 0.21 and 0.68 floors (dstebz's stop at
    # ULP * ||T|| read 2.20 and 1.14)
    p = from_eta(0.2)
    grid = default_grid(p)
    for n in (grid.points, 2 * grid.points - 1):
        diag, off, norm = _matrix(p, grid.half_width, n)
        low, high = _sturm_bisection(diag, off, 2)
        values = eigh_tridiagonal(diag, off, 2)
        assert abs(mpmath.mpf(float(values[1] - values[0])) - (high - low)) <= 0.25 * spectral._ULP * norm, n


def _oscillator_levels(p, grid, monkeypatch):
    # the harmonic oscillator in natural units, solved through the double well's path
    monkeypatch.setattr(spectral, "potential", lambda _, x: 0.5 * x * x)
    return solve_spectrum(p, grid, k=3).eigenvalues


def test_harmonic_oscillator_oracle_natural_units(monkeypatch):
    levels = _oscillator_levels(WellParameters(1.0, 1.0, 1.0, 1.0), GridSpec(10.0, 2001), monkeypatch)
    for n, value in enumerate(levels):
        assert value == pytest.approx(n + 0.5, rel=1e-6)


def test_harmonic_oscillator_oracle_physical_units(monkeypatch):
    # hbar*omega = 4.5: levels at 2.25, 6.75, 11.25.
    p = WellParameters(mass=2.0, angular_frequency=3.0, half_separation=1.0, hbar=1.5)
    for n, value in enumerate(_oscillator_levels(p, GridSpec(5.0, 2001), monkeypatch)):
        assert value == pytest.approx(4.5 * (n + 0.5), rel=1e-6)


def test_answer_over_hbar_omega_depends_on_eta_alone():
    # the eigensolver's counterpart of acceptance criterion 8: seeded physical
    # wells with hbar, m and omega over 1e+-3 give the splitting over hbar*omega
    # of the natural well of their eta (a/l and 1/eta may differ by an ulp)
    rng = np.random.default_rng(7)
    for _ in range(12):
        hbar, mass, omega = 10.0 ** rng.uniform(-3.0, 3.0, 3)
        a = math.sqrt(hbar / (mass * omega)) / rng.uniform(0.15, 0.3)
        p = WellParameters(mass=mass, angular_frequency=omega, half_separation=a, hbar=hbar)
        hw = hbar * omega
        value, estimate = exact_splitting(p)
        reference, reference_estimate = exact_splitting(from_eta(eta(p)))
        assert abs(value / hw - reference) <= 1e-6 * (estimate / hw + reference_estimate), p


def test_grid_refinement_is_second_order():
    # With three grids at h, h/2, h/4 and error ~ c h^2, the difference
    # ratio (E_h - E_{h/4}) / (E_{h/2} - E_{h/4}) tends to (16-1)/(4-1) = 5.
    p = from_eta(0.25)
    half_width = default_grid(p).half_width
    energies = {}
    for n in (501, 1001, 2001):
        diag, off, _ = _matrix(p, half_width, n)
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
    # hbar w = 1
    assert 0.75 < splitting / math.exp(ln_splitting_wkb_exact(p)[0]) < 1.05


def test_splitting_agrees_with_instanton_scale():
    p = from_eta(0.15)
    splitting, _ = exact_splitting(p)
    assert abs(math.log(splitting) - ln_splitting_instanton(0.15)) < 1.0


def _series_shift(eta):
    """The double-well series of the physical level shift,
    -eta^2/2 - (9/16)eta^4 - (89/64)eta^6 - (5013/1024)eta^8
    (Zinn-Justin & Jentschura, Ann. Phys. 313, 197, 2004)."""
    e2 = eta * eta
    return -e2 / 2 - 9 / 16 * e2**2 - 89 / 64 * e2**3 - 5013 / 1024 * e2**4


@pytest.mark.parametrize("eta", [0.02, 0.05, 0.1, 0.1225, 0.15, 0.2, 0.3])
def test_level_shift_is_negative_and_follows_the_series(eta):
    # The physical shift of the well level is the doublet midpoint's,
    # E0 + E1 - 1 in natural units.  It is negative, while the paper's eps is
    # positive below sqrt(25/189) ~ 0.364.  Through eta = 0.2 it follows the
    # double-well series (_series_shift) within the solver's own estimate,
    # about 5.5e-5.  The gap measured 0.5-1.3e-8 up to
    # eta = 0.1225, 1.3e-7 at 0.15 and 2.8e-6 at 0.2; no tighter bound is
    # pinned until the true error is measured.  At 0.3 the cut series is
    # 2.4e-4 off, so only the sign is checked there.
    p = from_eta(eta)
    result = solve_spectrum(p, k=2)
    shift = result.eigenvalues[0] + result.eigenvalues[1] - 1.0
    assert shift < 0.0 < perturbed_level(p).epsilon
    if eta <= 0.2:
        assert abs(shift - _series_shift(eta)) <= sum(result.eigenvalue_estimates)


def _instanton_series_ratio(eta):
    """The one-instanton series of the ground doublet, dE / dE_inst =
    1 - (71/12)g - (6299/288)g^2 - (2691107/10368)g^3 - (2125346615/497664)g^4
    - (509978166739/5971968)g^5 with g = eta^2/4, from the perturbative levels
    by the Dunne-Unsal relation (Zinn-Justin & Jentschura, Ann. Phys. 313,
    197, 2004; Dunne & Unsal, Phys. Rev. D 89, 105009, 2014)."""
    g = eta * eta / 4
    coefficients = (1, -71 / 12, -6299 / 288, -2691107 / 10368, -2125346615 / 497664, -509978166739 / 5971968)
    return sum(c * g**j for j, c in enumerate(coefficients))


def test_exact_splitting_holds_the_instanton_series_at_the_resolution_edge():
    # From the edge eta = 0.15 to 0.2, exact_splitting holds the series within
    # its own estimate, where its error bar is almost all noise floor.  The
    # first omitted term, c6 g^6 with c6 of order -2e6 from the growth of
    # c3...c5, is about 1e-3 of the estimate at 0.2 and less below it.  The
    # worst reads 0.83 estimates; dstebz's stop put 8 of these 101 outside
    # (all in [0.15, 0.157], worst 1.99).
    for i in range(101):
        eta_value = 0.15 + 0.0005 * i
        splitting, estimate = exact_splitting(from_eta(eta_value))
        series = math.exp(ln_splitting_instanton(eta_value)) * _instanton_series_ratio(eta_value)
        assert abs(splitting - series) <= estimate, eta_value


@pytest.mark.parametrize("eta", [0.16, 0.18, 0.2])
def test_wkb_route_at_the_exact_shift_has_the_naive_prefactor_defect(eta):
    # Fed the physical shift E0 + E1 - 1 instead of the paper's eps, the WKB
    # route falls short of the exact splitting by the factor sqrt(e/pi) of the
    # naive WKB prefactor (Garg, Am. J. Phys. 68, 430, 2000): the ratios read
    # 0.92807, 0.92446 and 0.92366, within 1% plus the solver's relative estimate
    p = from_eta(eta)
    result = solve_spectrum(p, k=2)
    level = PerturbedLevel(0.5, result.eigenvalues[0] + result.eigenvalues[1] - 1.0)
    ratio = math.exp(turning_points(p, level).ln_de_wkb) / result.splitting
    bound = 0.01 + result.splitting_estimate / result.splitting
    assert abs(ratio - SQRT_E_OVER_PI) <= bound * SQRT_E_OVER_PI


@pytest.mark.parametrize("eta", [0.16, 0.2, 0.25, 0.3, 0.35])
def test_wkb_route_with_furry_factor_at_the_series_shift_tracks_exact(eta):
    # The paper's program with both defects mended: the WKB route fed the
    # physical shift (_series_shift) and multiplied by Furry's connection
    # factor sqrt(pi/e) for the ground doublet (W. H. Furry, Phys. Rev. 71,
    # 360, 1947; Garg, Am. J. Phys. 68, 430, 2000).  Over exact it reads
    # 0.99772, 0.99299, 0.99158, 0.99318 and 1.00395, within 1% plus the
    # solver's relative estimate (7.8e-3 at 0.16 down to 3.7e-5 at 0.3); the
    # paper's three routes read 1.04-1.28 here, so it is also the closest
    p = from_eta(eta)
    exact, estimate = exact_splitting(p)
    ln_furry = turning_points(p, PerturbedLevel(0.5, _series_shift(eta))).ln_de_wkb - math.log(SQRT_E_OVER_PI)
    miss = abs(math.exp(ln_furry) / exact - 1.0)
    assert miss <= 0.01 + estimate / exact
    report = splitting_report(p)
    ln_routes = [report.ln_de_wkb, report.ln_de_asym, report.ln_de_instanton]
    assert all(abs(ln_furry - math.log(exact)) < abs(ln - math.log(exact)) for ln in ln_routes)


def test_ground_state_sits_below_barrier():
    p = from_eta(0.2)
    result = solve_spectrum(p, default_grid(p), k=4)
    assert result.eigenvalues[0] < potential(p, 0.0)
    values = result.eigenvalues
    assert all(b > a for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("eta_value", [0.05, 0.14])
def test_unresolvable_splitting_is_refused(eta_value):
    with pytest.raises(ResolutionError, match="below numerical resolution"):
        exact_splitting(from_eta(eta_value))


def test_box_is_the_report_gamma_wherever_eps_is_nonnegative():
    # the closed-form box equals the WKB kernel's gamma bit for bit where the
    # paper's eps >= 0, and is the unshifted level's a sqrt(1 + 2 eta) above that
    rng = np.random.default_rng(22)
    for eta_value in rng.uniform(0.0, math.sqrt(25.0 / 189.0), 2000).tolist():
        p = from_eta(eta_value)
        assert spectral._outer_turning_point(p) == splitting_report(p).gamma, eta_value
    for eta_value in (0.37, 0.5, 0.6, validity_boundary(), 0.65, 1.0, 1e6):
        p = from_eta(eta_value)
        assert spectral._outer_turning_point(p) == p.half_separation * math.sqrt(1.0 + 2.0 * eta(p))


def test_spectral_imports_only_model_and_perturbation():
    # the oracle must not run the routes it checks: no semiclassics in its imports
    tree = ast.parse(Path(spectral.__file__).read_text())
    local = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            local.add(node.module)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [node.module] if isinstance(node, ast.ImportFrom) else [a.name for a in node.names]
            assert not any(name.split(".")[0] == "doublewell" for name in names), names
    assert local == {"model", "perturbation"}


def test_exact_splitting_domain_guard():
    # eta0 is no edge of the eigensolver; float64 is: too small an eta needs a
    # grid beyond the point budget, too large a one a V that swamps the off-diagonal
    with pytest.raises(ValueError, match=r"^eta=1e-06 needs a grid of "):
        exact_splitting(from_eta(1e-6))
    with pytest.raises(ValueError, match=r"^eta=1e\+100: V reaches .* below its float64 rounding$"):
        exact_splitting(from_eta(1e100))


@pytest.mark.parametrize("eta_value, expected", [(0.65, 0.33785), (0.8, 0.47793)])
def test_exact_splitting_resolves_beyond_validity_boundary(eta_value, expected):
    # eta0 bounds the paper's level, not the Hamiltonian: the doublet is there,
    # and a 4x-refined grid on the same box agrees within the estimate
    p = from_eta(eta_value)
    splitting, estimate = exact_splitting(p)
    assert splitting == pytest.approx(expected, abs=1e-5)
    grid = default_grid(p)
    refined = solve_spectrum(p, GridSpec(grid.half_width, 4 * (grid.points - 1) + 1), k=2)
    assert abs(splitting - refined.splitting) <= estimate


def test_splitting_grows_through_validity_boundary():
    values = [exact_splitting(from_eta(e))[0] for e in (0.55, 0.6, validity_boundary(), 0.65, 0.7)]
    assert all(a < b for a, b in zip(values, values[1:])), values


@pytest.mark.parametrize("eta_value", [1e-6, 1e-100])
def test_default_grid_refuses_beyond_its_point_budget(eta_value):
    # refused before anything is allocated, naming eta, the points needed and the budget
    start = time.perf_counter()
    message = rf"^eta={re.escape(repr(eta_value))} needs a grid of \S+ points, beyond the budget of {spectral._MAX_POINTS};"
    with pytest.raises(ValueError, match=message):
        exact_splitting(from_eta(eta_value))
    assert time.perf_counter() - start < 1.0
    assert default_grid(from_eta(0.003)).points < spectral._MAX_POINTS


def test_default_grid_is_the_grid_none_means():
    p = from_eta(0.2)
    assert solve_spectrum(p) == solve_spectrum(p, default_grid(p))


def test_exact_splitting_boxes_the_well_once(monkeypatch):
    # the default grid clears the box margin by construction, so the box is
    # computed once, not again as a margin check
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
    diag, off, _ = _matrix(p, 12.0, 301)
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

"""Turning points, barrier integrals, and the three splitting routes."""

from __future__ import annotations

import math
import re
import warnings
from dataclasses import fields

import mpmath
import numpy as np
import pytest
from scipy.special import ellipe, ellipk

import doublewell
import doublewell.semiclassics as semiclassics

from doublewell import (
    SQRT_E_OVER_PI,
    PerturbedLevel,
    WellParameters,
    delta_factor,
    epsilon_closed_form,
    eta,
    from_eta,
    ln_splitting_asymptotic,
    ln_splitting_instanton,
    ln_splitting_wkb_exact,
    perturbed_level,
    potential,
    ratio_wkb_instanton,
    splitting_asymptotic,
    splitting_report,
    splitting_table,
    turning_points,
)

# Frozen quadrature results (natural units; the closed forms reproduce
# these to well below the comparison tolerance).
GOLDEN = {
    0.08: dict(S=99.711295140364442, T=6.3140697007243212,
               alpha=11.451258867610365, gamma=13.467318602712828),
    0.10: dict(S=62.415700556844882, T=6.3320812109543354,
               alpha=8.9362229337592076, gamma=10.961018186197666),
    0.12: dict(S=42.207618679505401, T=6.3547224866124825,
               alpha=7.2533798354178218, gamma=9.2885612369216286),
    0.15: dict(S=25.733573650010889, T=6.3982139811392900,
               alpha=5.5603958240395297, gamma=7.6138615149536744),
}


def _natural_setup(eta_value):
    p = from_eta(eta_value)
    level = perturbed_level(p)
    return p, level, turning_points(p, level)


@pytest.mark.parametrize("eta_value", sorted(GOLDEN))
def test_frozen_action_period_turning_points(eta_value):
    _, _, tp = _natural_setup(eta_value)
    ref = GOLDEN[eta_value]
    assert tp.alpha == pytest.approx(ref["alpha"], rel=1e-12)
    assert tp.gamma == pytest.approx(ref["gamma"], rel=1e-12)
    assert tp.action == pytest.approx(ref["S"], rel=1e-12)
    # omega = 1, so T = omega T
    assert tp.omega_t == pytest.approx(ref["T"], rel=1e-12)


@pytest.mark.parametrize("eta_value", sorted(GOLDEN))
def test_quadrature_matches_elliptic_closed_forms(eta_value):
    # Both integrals reduce to complete elliptic integrals with
    # parameter m = alpha^2/gamma^2 (or its complement).  scipy.special's
    # K and E check both the AGM closed form of the route and the
    # quadrature reference it is validated against.
    p, _, tp = _natural_setup(eta_value)
    al, ga = tp.alpha, tp.gamma
    m = (al / ga) ** 2

    period_closed = 4.0 * p.half_separation / (p.angular_frequency * ga) * ellipk(1.0 - m)
    assert tp.omega_t / p.angular_frequency == pytest.approx(period_closed, rel=1e-12)

    integral_closed = al * al * ga * ((1.0 + m) * ellipe(m) - (1.0 - m) * ellipk(m)) / (3.0 * m)
    action_closed = (
        p.mass * p.angular_frequency / (p.hbar * p.half_separation) * integral_closed
    )
    assert tp.action == pytest.approx(action_closed, rel=1e-12)

    action_ref, _, period_ref, _ = semiclassics._quadrature_integrals(np.array([al]), np.array([ga]))
    assert 8.0 * p.half_separation / p.angular_frequency * period_ref[0] == pytest.approx(period_closed, rel=1e-12)
    assert action_ref[0] == pytest.approx(integral_closed, rel=1e-12)


def test_closed_form_matches_mpmath_oracle():
    # 40-digit mpmath from the same float inputs, from deep tunneling up to
    # the validity boundary 0.6037523990662577: the closed-form integrals at
    # the route's own turning points are good to 1e-15 (about 4.5 ulp), S and
    # omega T end to end to 4e-15, and the returned estimate bounds the
    # ln dE error
    etas = np.concatenate([
        np.geomspace(0.001, 0.01, 20, endpoint=False),
        np.linspace(0.01, 0.6, 200, endpoint=False),
        np.linspace(0.6, 0.6037523990662, 30),
    ])
    table = splitting_table(etas)
    # the route's own turning points, for a = 1
    turning = semiclassics._turning_points(etas, table[:, 1])
    integrals = semiclassics._elliptic_integrals(*turning)

    def exact_integrals(al, ga):
        m = (al / ga) ** 2
        bracket = (al**2 + ga**2) * mpmath.ellipe(m) - (ga**2 - al**2) * mpmath.ellipk(m)
        return ga / 3 * bracket, mpmath.ellipk(1 - m) / (2 * ga)

    with mpmath.workdps(40):
        for row, eta_value, al, ga, action_integral, period_integral in zip(table, etas, *turning, *integrals):
            closed = exact_integrals(mpmath.mpf(al), mpmath.mpf(ga))
            assert abs(action_integral - closed[0]) <= 1e-15 * closed[0]
            assert abs(period_integral - closed[1]) <= 1e-15 * closed[1]

            eta_mp = mpmath.mpf(eta_value)
            eps = eta_mp**2 / 16 * (25 - 189 * eta_mp**2)
            root = 2 * eta_mp * mpmath.sqrt(1 + eps)
            action, period = exact_integrals(mpmath.sqrt(1 - root), mpmath.sqrt(1 + root))
            exact_action, exact_omega_t = action / eta_mp**2, 8 * period
            assert abs(row[4] - exact_action) <= 4e-15 * exact_action
            assert abs(row[5] - exact_omega_t) <= 4e-15 * exact_omega_t
            exact_ln_de = mpmath.log(2) - mpmath.log(exact_omega_t) - exact_action
            # a well at exactly this eta: with m = w = a = 1, eta = sqrt(hbar),
            # and sqrt(x * x) == x in binary floating point
            p = WellParameters(hbar=eta_value * eta_value)
            assert eta(p) == eta_value
            ln_value, estimate = ln_splitting_wkb_exact(p)
            assert ln_value == row[6]
            assert abs(ln_value - exact_ln_de) <= estimate


def test_turning_points_for_unshifted_level():
    # With epsilon forced to zero at eta = 0.1, the radicands are 1 -+ 0.2.
    p = from_eta(0.1)
    level = PerturbedLevel(unperturbed=0.5, epsilon=0.0)
    tp = turning_points(p, level)
    assert tp.alpha == pytest.approx(10.0 * math.sqrt(0.8), rel=1e-15)
    assert tp.gamma == pytest.approx(10.0 * math.sqrt(1.2), rel=1e-15)


def test_turning_points_solve_potential_equals_energy():
    p, level, tp = _natural_setup(0.12)
    for x in (tp.alpha, tp.gamma, -tp.alpha, -tp.gamma):
        assert potential(p, x) - level.energy == pytest.approx(0.0, abs=1e-12 * level.energy)
    # Independent root finding on the quartic V(x) - E.
    a = p.half_separation
    c = p.mass * p.angular_frequency**2 / (8.0 * a * a)
    coeffs = [c, 0.0, -2.0 * c * a * a, 0.0, c * a**4 - level.energy]
    roots = np.sort([r.real for r in np.roots(coeffs) if r.real > 0])
    assert roots[0] == pytest.approx(tp.alpha, rel=1e-10)
    assert roots[1] == pytest.approx(tp.gamma, rel=1e-10)


def test_turning_points_ordering():
    p, _, tp = _natural_setup(0.1)
    assert 0.0 < tp.alpha < p.half_separation < tp.gamma


def test_above_barrier_level_rejected():
    p = from_eta(0.1)
    high = PerturbedLevel(unperturbed=0.5, epsilon=30.0)
    with pytest.raises(ValueError, match="barrier"):
        turning_points(p, high)


@pytest.mark.parametrize("epsilon", [-2.0, -1.0])
def test_level_at_or_below_well_bottom_rejected(epsilon):
    # 1 + epsilon <= 0 is refused by name, before any square root
    p = from_eta(0.1)
    low = PerturbedLevel(unperturbed=0.5, epsilon=epsilon)
    with pytest.raises(ValueError, match="well bottom"):
        turning_points(p, low)


@pytest.mark.parametrize(
    "level, message",
    [
        pytest.param(
            PerturbedLevel(unperturbed=17.0, epsilon=0.01),
            "level.unperturbed=17.0 is not hbar*w/2 = 0.5 of the well",
            id="level0-unperturbed",
        ),
        pytest.param(PerturbedLevel(0.5, None), "level.epsilon must be a real number, got None", id="level1-epsilon"),
        # a bool, a string, a complex, an array or a NaN is not a finite real epsilon
        pytest.param(PerturbedLevel(0.5, True), "level.epsilon must be a real number, got True", id="level2-epsilon"),
        pytest.param(PerturbedLevel(0.5, "0.1"), "level.epsilon must be a real number, got '0.1'", id="level3-epsilon"),
        pytest.param(
            PerturbedLevel(0.5, 0.1 + 0.0j), "level.epsilon must be a real number, got (0.1+0j)", id="level4-epsilon"
        ),
        pytest.param(
            PerturbedLevel(0.5, np.array([0.3, 0.1])),
            "level.epsilon must be a scalar, got an array of shape (2,)",
            id="level5-epsilon",
        ),
        pytest.param(
            PerturbedLevel(0.5, np.array([0.3])),
            "level.epsilon must be a scalar, got an array of shape (1,)",
            id="level6-epsilon",
        ),
        pytest.param(PerturbedLevel(0.5, math.nan), "level.epsilon must be finite, got nan", id="level7-epsilon"),
        # unperturbed is read as epsilon is, before it is compared with hbar w / 2
        pytest.param(
            PerturbedLevel(np.array([0.5]), 0.01),
            "level.unperturbed must be a scalar, got an array of shape (1,)",
            id="level8-unperturbed",
        ),
        pytest.param(
            PerturbedLevel(True, 0.01), "level.unperturbed must be a real number, got True", id="level9-unperturbed"
        ),
        pytest.param(
            PerturbedLevel(np.array([0.5, 0.5]), 0.01),
            "level.unperturbed must be a scalar, got an array of shape (2,)",
            id="level10-unperturbed",
        ),
        pytest.param(
            PerturbedLevel(None, 0.01), "level.unperturbed must be a real number, got None", id="level11-unperturbed"
        ),
    ],
)
def test_level_of_another_well_or_without_shift_rejected(level, message):
    # a level is read whole: finite real scalars, hbar w / 2 of this well (0.5 in
    # natural units) and epsilon
    p = from_eta(0.1)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        turning_points(p, level)
    # True is refused also where it equals hbar w / 2 = 1.0; a numpy float is read as a float
    unit_half_hw = WellParameters(angular_frequency=2.0, half_separation=10.0)
    with pytest.raises(ValueError, match=r"^level\.unperturbed must be a real number, got True$"):
        turning_points(unit_half_hw, PerturbedLevel(True, 0.01))
    assert turning_points(p, PerturbedLevel(np.float64(0.5), 0.01)) == turning_points(p, PerturbedLevel(0.5, 0.01))
    # perturbed_level's levels of a physical well pass
    q = WellParameters(mass=2.0, angular_frequency=0.5, half_separation=10.0, hbar=3.0)
    assert turning_points(q, perturbed_level(q)) == splitting_report(q)


def test_level_option_is_gone():
    # a hand-made level has one reader, turning_points
    p = from_eta(0.1)
    with pytest.raises(TypeError):
        ln_splitting_wkb_exact(p, perturbed_level(p))


@pytest.mark.parametrize(
    "bad",
    [
        np.array([10.0, -10.0]), np.array([0.1, math.nan]), 0.0, None, "0.1", True, 0.1 + 0.0j,
        np.array([[0.1, 0.2]]),
    ],
)
def test_splitting_table_validates_eta(bad):
    # the array entry point checks eta like every other one, instead of
    # returning rows with a negative eta and NaN columns
    with pytest.raises(ValueError, match="^eta "):
        splitting_table(bad)


def test_splitting_table_of_no_eta_has_no_rows():
    assert splitting_table(np.array([])).shape == (0, 12)


def test_splitting_table_eta_column_is_the_grid():
    # the kernel works in eta alone, so it never rounds eta through a = 1/eta
    for grid in (np.linspace(0.021, 0.149, 10000), np.geomspace(0.001, 0.6, 10000)):
        assert np.array_equal(splitting_table(grid)[:, 0], grid)


def test_splitting_table_finite_down_to_the_instanton_floor():
    # S <= 2/(3 eta^2), so the WKB route is finite wherever the instanton
    # exponent is: at the smallest eta its guard accepts and the 200 floats above
    floor = [6.089709706418965e-155]
    for _ in range(200):
        floor.append(float(np.nextafter(floor[-1], 1.0)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isfinite(splitting_table(np.array(floor))).all()


@pytest.mark.parametrize("tiny", [6.089709706418964e-155, 1e-200, 1e-310])
def test_splitting_table_refuses_eta_beyond_float64_range(tiny):
    # below eta ~ 6.09e-155 the instanton exponent 2/(3 eta^2), which bounds
    # S, overflows: the eta given is refused by that one guard, without a
    # RuntimeWarning (the suite turns those into errors), also where 1/eta overflows
    with pytest.raises(ValueError, match=f"^eta={tiny!r} is beyond the instanton formula's float64 range"):
        splitting_table(np.array([0.1, tiny]))


def test_action_small_eta_limit():
    # S -> 2/(3 eta^2) as eta -> 0.
    _, _, tp = _natural_setup(0.02)
    assert tp.action * 1.5 * 0.02**2 == pytest.approx(1.0, rel=0.01)


def test_action_decreases_with_eta():
    values = [_natural_setup(e)[2].action for e in (0.08, 0.10, 0.12)]
    assert values[0] > values[1] > values[2]


def test_period_harmonic_limit():
    # Deep wells oscillate at the harmonic frequency: omega T -> 2 pi.
    _, _, tp = _natural_setup(0.01)
    assert tp.omega_t == pytest.approx(2.0 * math.pi, rel=0.01)


def test_delta_factor_frozen_values():
    assert delta_factor(0.1) == pytest.approx(1.0546715025443665, rel=1e-12)
    assert delta_factor(0.122513) == pytest.approx(1.0750497232542564, rel=1e-12)


def test_delta_factor_small_eta_limit():
    excess = delta_factor(1e-5) - 1.0
    assert 0.0 < excess < 1e-7


def test_delta_factor_undefined_when_shift_reaches_minus_one():
    with pytest.raises(ValueError, match="1 \\+ epsilon"):
        delta_factor(0.7)


def test_instanton_frozen_values():
    assert ln_splitting_instanton(0.1) == pytest.approx(-63.55015215547742, abs=1e-10)
    # hbar w = 1
    assert math.exp(ln_splitting_instanton(0.1)) == pytest.approx(2.51489347893833e-28, rel=1e-12)


def test_instanton_input_validation():
    for bad in (0.0, -0.2, math.inf, math.nan, True):
        with pytest.raises(ValueError):
            ln_splitting_instanton(bad)
    assert ln_splitting_instanton(np.float32(0.1)) == ln_splitting_instanton(float(np.float32(0.1)))
    assert ln_splitting_instanton(np.int64(1)) == ln_splitting_instanton(1.0)


def test_instanton_defined_for_any_positive_eta():
    # The instanton formula has no anharmonicity input, so it stays
    # finite and positive even far beyond the perturbative regime.
    assert math.exp(ln_splitting_instanton(5.0)) > 0.0
    assert math.isfinite(ln_splitting_instanton(0.7))


@pytest.mark.parametrize("route", [ln_splitting_instanton, ln_splitting_asymptotic])
@pytest.mark.parametrize("tiny", [1e-200, np.array([1e-200]), np.array([0.1, 1e-156, 1e-300])])
def test_instanton_refuses_eta_whose_exponent_overflows(route, tiny):
    # below eta ~ 6.09e-155, 2/(3 eta^2) is not finite in float64: the eta is
    # refused by name, not met by a ZeroDivisionError or a -inf after a warning
    smallest = float(np.min(tiny))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^eta={re.escape(repr(smallest))} is beyond the instanton formula's"):
            route(tiny)


def test_instanton_finite_down_to_its_float64_limit():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for route in (ln_splitting_instanton, ln_splitting_asymptotic):
            assert math.isfinite(route(1e-150))
            assert math.isfinite(route(6.1e-155))
            assert np.isfinite(route(np.array([1e-150, 0.1]))).all()
        with pytest.raises(ValueError, match="instanton formula's float64 range"):
            ln_splitting_instanton(6.08e-155)


def test_correction_dependent_routes_guard_their_domain():
    for bad_eta in (0.604, 0.61, 1.0):
        with pytest.raises(ValueError, match="validity boundary"):
            ln_splitting_asymptotic(bad_eta)
        with pytest.raises(ValueError, match="validity boundary"):
            ratio_wkb_instanton(bad_eta)
    with pytest.raises(ValueError, match="validity boundary"):
        splitting_report(from_eta(0.61))
    with pytest.raises(ValueError, match="validity boundary"):
        turning_points(from_eta(0.61), perturbed_level(from_eta(0.61)))
    # the paper's eps overflows to -inf from eta ~ 6.25e76; the boundary is still named first
    for bad_eta in (6.26e76, 1e100):
        for route in (splitting_report, ln_splitting_wkb_exact):
            with pytest.raises(ValueError, match="validity boundary"):
                route(from_eta(bad_eta))


def test_instanton_exponent_log_slope():
    # d ln(dE) / d(1/eta^2) -> -2/3; central difference deep in the
    # small-eta regime (u = 1/eta^2 = 1e7).
    u = 1.0e7
    f = lambda uu: ln_splitting_instanton(1.0 / math.sqrt(uu))  # noqa: E731
    slope = 0.5 * (f(u + 1.0) - f(u - 1.0))
    assert slope == pytest.approx(-2.0 / 3.0, abs=1e-6)


def test_ratio_frozen_values_and_limit():
    assert ratio_wkb_instanton(0.121) == pytest.approx(0.9987032700718724, rel=1e-12)
    assert ratio_wkb_instanton(0.13) == pytest.approx(1.0064452708605982, rel=1e-12)
    assert abs(ratio_wkb_instanton(1e-4) - SQRT_E_OVER_PI) < 1e-6


def test_ratio_strictly_increasing_through_crossing():
    grid = np.linspace(0.10, 0.15, 11)
    values = [ratio_wkb_instanton(e) for e in grid]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_log_ratio_identity_between_routes():
    # ln(dE_asym) - ln(dE_inst) must equal ln(sqrt(e/pi) delta(eta)).
    for eta_value in np.linspace(0.01, 0.3, 30):
        gap = ln_splitting_asymptotic(eta_value) - ln_splitting_instanton(eta_value)
        assert gap == pytest.approx(math.log(ratio_wkb_instanton(eta_value)), abs=1e-12)
    # and in energy units, through from_eta's round trip (hbar w = 1): the
    # ratio times the instanton splitting is the asymptotic splitting
    compared = 0
    for eta_value in np.linspace(0.02, 0.3, 20).tolist():
        asymptotic = splitting_asymptotic(from_eta(eta_value))
        if asymptotic != 0.0:  # the eta = 0.02 splitting underflows
            product = ratio_wkb_instanton(eta_value) * math.exp(ln_splitting_instanton(eta_value))
            assert abs(product - asymptotic) <= 1e-12 * asymptotic, eta_value
            compared += 1
    assert compared == 19


def test_quadrature_route_agrees_with_asymptotic_route():
    # Frozen relative excesses r - 1 of the quadrature splitting over the
    # corrected asymptotic one.  The excess shrinks monotonically towards
    # small eta (the asymptotic series becomes exact) and never exceeds
    # 2e-3 anywhere in the deep-tunneling window.
    frozen = {
        0.02: 2.828787e-04,
        0.04: 7.197327e-04,
        0.06: 1.080665e-03,
        0.08: 1.241059e-03,
        0.10: 1.106019e-03,
        0.12: 5.901164e-04,
    }
    excess = {}
    for eta_value, ref in frozen.items():
        ln_wkb, _ = ln_splitting_wkb_exact(from_eta(eta_value))
        excess[eta_value] = math.exp(ln_wkb - ln_splitting_asymptotic(eta_value)) - 1.0
        assert excess[eta_value] == pytest.approx(ref, rel=1e-6)
        assert abs(excess[eta_value]) < 2e-3
    assert excess[0.08] > excess[0.06] > excess[0.04] > excess[0.02] > 0.0


def test_splitting_energy_units():
    # hbar*omega = 4.5 here; a is chosen so eta = 0.15.
    hbar, mass, omega = 1.5, 2.0, 3.0
    a = math.sqrt(hbar / (mass * omega)) / 0.15
    p = WellParameters(mass=mass, angular_frequency=omega, half_separation=a, hbar=hbar)
    assert eta(p) == pytest.approx(0.15, rel=1e-14)
    hw = p.hbar * p.angular_frequency
    assert hw == 4.5
    ln_natural, _ = ln_splitting_wkb_exact(from_eta(0.15))
    assert hw * math.exp(ln_splitting_wkb_exact(p)[0]) == pytest.approx(4.5 * math.exp(ln_natural), rel=1e-10)
    assert splitting_asymptotic(p) / (hw * math.exp(ln_splitting_instanton(eta(p)))) == pytest.approx(
        ratio_wkb_instanton(0.15), rel=1e-12
    )


def test_report_internal_consistency():
    report = splitting_report(from_eta(0.13))
    assert report.ratio_uncorrected == SQRT_E_OVER_PI
    assert report.ratio_corrected == pytest.approx(SQRT_E_OVER_PI * report.delta, rel=1e-14)
    assert report.ln_de_asym - report.ln_de_instanton == pytest.approx(
        math.log(report.ratio_corrected), abs=1e-12
    )
    assert report.ln_de_wkb == pytest.approx(
        math.log(2.0) - math.log(report.omega_t) - report.action, abs=1e-12
    )
    assert report.eta == pytest.approx(0.13, rel=1e-14)


def test_report_scale_invariance():
    # Three parameter sets sharing eta = 0.1 must agree on every
    # dimensionless field.
    systems = [
        WellParameters(1.0, 1.0, 10.0, 1.0),
        WellParameters(2.0, 0.5, 10.0, 1.0),
        WellParameters(4.0, 0.5, math.sqrt(50.0), 1.0),
    ]
    reports = [splitting_report(p) for p in systems]
    base = reports[0]
    dimensionless = (
        "eta", "epsilon", "action", "omega_t",
        "ln_de_wkb", "ln_de_asym", "ln_de_instanton",
        "delta", "ratio_corrected", "ratio_uncorrected",
    )
    for other, p in zip(reports[1:], systems[1:]):
        for field in dimensionless:
            assert getattr(other, field) == pytest.approx(
                getattr(base, field), rel=1e-10
            ), field
        assert other.alpha / p.half_separation == pytest.approx(base.alpha / 10.0, rel=1e-10)
        assert other.gamma / p.half_separation == pytest.approx(base.gamma / 10.0, rel=1e-10)


@pytest.mark.parametrize(
    "p",
    [
        from_eta(0.02), from_eta(0.1), from_eta(0.5),
        WellParameters(2.0, 0.5, 10.0, 1.0),
        WellParameters(4.0, 0.5, math.sqrt(50.0), 1.0),
        WellParameters(1.5, 3.0, 7.0, 0.2),
    ],
)
def test_report_is_the_table_row_at_its_eta(p):
    # the route sees a well only through eta(p): every dimensionless field is the
    # one-row table's, bit for bit, and the turning points are a times those for a = 1
    report = splitting_report(p)
    names = [field.name for field in fields(semiclassics.SplittingReport)]
    for name, value in zip(names, splitting_table([eta(p)])[0].tolist()):
        if name not in ("alpha", "gamma"):
            assert getattr(report, name) == value, name
    alpha, gamma = semiclassics._turning_points(eta(p), report.epsilon)
    assert report.alpha == p.half_separation * alpha
    assert report.gamma == p.half_separation * gamma


def test_turning_points_are_the_report_row():
    # one report type: turning_points reads the kernel's row at the level given,
    # and at the standard level that is splitting_report's row, field for field
    assert not hasattr(doublewell, "TurningPoints")
    for eta_value in (0.503730339310609, 0.45649731202682975, *np.linspace(0.01, 0.6, 200).tolist()):
        p = from_eta(eta_value)
        assert turning_points(p, perturbed_level(p)) == splitting_report(p), eta_value


def test_scalar_eta_functions_are_the_table_columns():
    # a float eta is squared as an array is, so every scalar function of eta
    # returns its splitting_table column bit for bit (libm pow for eta ** 2 did not)
    rng = np.random.default_rng(20)
    known = [0.014737386804587416, 0.45649731202682975, 0.503730339310609]
    etas = np.array([*known, *rng.uniform(0.005, 0.6, 5000)])
    table = splitting_table(etas)
    names = [field.name for field in fields(semiclassics.SplittingReport)]
    routes = {
        "epsilon": epsilon_closed_form, "delta": delta_factor, "ratio_corrected": ratio_wkb_instanton,
        "ln_de_asym": ln_splitting_asymptotic, "ln_de_instanton": ln_splitting_instanton,
    }
    for name, route in routes.items():
        column = table[:, names.index(name)].tolist()
        missed = [e for e, value in zip(etas.tolist(), column) if route(e) != value]
        assert not missed, (name, missed[:3])


def test_report_deterministic():
    first = splitting_report(from_eta(0.11))
    second = splitting_report(from_eta(0.11))
    assert first == second


def test_wkb_exact_error_estimate_is_small():
    _, estimate = ln_splitting_wkb_exact(from_eta(0.1))
    assert 0.0 <= estimate < 1e-6

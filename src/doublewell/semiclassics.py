"""Turning points, barrier/period integrals, and the tunneling splitting
computed three ways.

The three routes to the ground-doublet splitting are: the WKB formula with
the action and period integrals in closed form ("wkb-exact"), the small-eta
asymptotic formula carrying the anharmonicity correction factor delta(eta)
("asymptotic"), and the instanton formula ("instanton").  Exponentially
small magnitudes are handled in log space throughout: every splitting has
an ln(dE / hbar w) form, and ratios are differences of logs.

Every per-point answer is a row of the one kernel, _wkb_route, at the paper's
shift (turning_points alone reads a hand-made level), and the validity boundary
is guarded once, first, in delta, the factor that needs 1 + eps > 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import WellParameters, eta as eta_of, finite_scalar, plain, positive_real
from .perturbation import PerturbedLevel, epsilon_closed_form, validity_boundary

__all__ = [
    "SQRT_E_OVER_PI",
    "SplittingReport",
    "turning_points",
    "delta_factor",
    "ln_delta_factor",
    "ln_splitting_wkb_exact",
    "ln_splitting_asymptotic",
    "ln_splitting_instanton",
    "splitting_asymptotic",
    "ratio_wkb_instanton",
    "splitting_report",
    "splitting_table",
]

#: Ratio of the uncorrected asymptotic splitting to the instanton one,
#: sqrt(e/pi) = 0.930191367...
SQRT_E_OVER_PI = math.sqrt(math.e / math.pi)

_ETA_BOUNDARY = validity_boundary()
#: relative rounding bound of the closed-form S and w T (held to an mpmath
#: oracle in the tests); _wkb_estimate carries it to dE
_ROUNDING = 8.0 * float(np.finfo(float).eps)


@dataclass(frozen=True)
class SplittingReport:
    """Everything the three splitting routes produce at one eta.

    Energies are carried as natural logs of their hbar*w-scaled values
    (they span hundreds of decades); ratio_corrected is the asymptotic /
    instanton ratio sqrt(e/pi) * delta(eta) and ratio_uncorrected the
    constant sqrt(e/pi).
    """

    eta: float
    epsilon: float
    alpha: float
    gamma: float
    action: float
    omega_t: float
    ln_de_wkb: float
    ln_de_asym: float
    ln_de_instanton: float
    delta: float
    ratio_corrected: float
    ratio_uncorrected: float


def _turning_points(eta_value, epsilon):
    """Inner and outer turning points in units of the half-separation a,
    elementwise over broadcastable inputs."""
    if not np.all(1.0 + epsilon > 0.0):
        raise ValueError("energy at or below the well bottom (1 + epsilon <= 0); no level in the well")
    root = 2.0 * eta_value * np.sqrt(1.0 + epsilon)
    if not np.all(root < 1.0):
        raise ValueError("energy at or above barrier; no tunneling regime")
    return np.sqrt(1.0 - root), np.sqrt(1.0 + root)


def turning_points(p: WellParameters, level: PerturbedLevel) -> SplittingReport:
    """The report at the well p with the WKB route taken at `level`, read for
    its turning points alpha = a sqrt(1 - 2 eta sqrt(1+eps)) and
    gamma = a sqrt(1 + 2 eta sqrt(1+eps)) of V(x) = E.

    These solve V(x) = E exactly: with E = (hbar w / 2)(1 + eps),
    V - E factors as (m w^2 / (8 a^2)) (x^2 - alpha^2)(x^2 - gamma^2).
    Both are real exactly when the level is below the barrier.  `level` must
    hold finite real scalars: hbar w / 2 of p, as perturbed_level's does, and epsilon.
    """
    half_hw = 0.5 * p.hbar * p.angular_frequency
    if finite_scalar(level.unperturbed, "level.unperturbed") != half_hw:
        raise ValueError(f"level.unperturbed={level.unperturbed!r} is not hbar*w/2 = {half_hw!r} of the well")
    row = _wkb_route(eta_of(p), p.half_separation, finite_scalar(level.epsilon, "level.epsilon"))
    return SplittingReport(*row[0].tolist())


def _agm(k: np.ndarray, k_complement: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """K(m) and 1 - E(m)/K(m) = sum_n 2^(n-1) c_n^2, elementwise, from the modulus
    k = sqrt(m) < 1 and its complement sqrt(1 - m), by the arithmetic-geometric
    mean (Abramowitz & Stegun 17.6.1-17.6.4)."""
    a, b, c = np.ones_like(k), k_complement, k
    weight, total = 0.5, 0.5 * k * k
    for _ in range(16):  # every float64 m < 1 stops within 8 steps
        a, b, c = 0.5 * (a + b), np.sqrt(a * b), 0.5 * (a - b)
        weight *= 2.0
        total = total + weight * c * c
        # quadratic convergence: once c <= 1e-9 a, a is exact to rounding
        if np.all(c <= 1e-9 * a):
            break
    return 0.5 * math.pi / a, total


def _elliptic_integrals(alpha, gamma):
    """The action integral int_0^alpha sqrt((alpha^2-x^2)(gamma^2-x^2)) dx and
    the period integral (1/2) int_alpha^gamma dx / sqrt((x^2-alpha^2)(gamma^2-x^2)),
    elementwise in closed form with m = (alpha/gamma)^2:
    (gamma/3) [(alpha^2+gamma^2) E(m) - (gamma^2-alpha^2) K(m)] and
    K(1-m) / (2 gamma)."""
    # gamma - alpha is exact once alpha >= gamma/2, so sqrt(1 - m) keeps its digits as m -> 1
    k, k_complement = alpha / gamma, np.sqrt((gamma - alpha) * (gamma + alpha)) / gamma
    # K and its complement in one pass: m and 1 - m stacked
    (big_k, big_k_complement), (deficit, deficit_complement) = _agm(
        np.stack([k, k_complement]), np.stack([k_complement, k])
    )
    alpha2, gamma2 = alpha * alpha, gamma * gamma
    # the bracket in a form that does not cancel: for m < 1/2 with E = K (1 - deficit),
    # for m >= 1/2 with Legendre's relation E = pi / (2 K(1-m)) + K deficit(1-m)
    e = 0.5 * math.pi / big_k_complement + big_k * deficit_complement
    bracket = np.where(
        k * k < 0.5,
        big_k * (2.0 * alpha2 - (alpha2 + gamma2) * deficit),
        (alpha2 + gamma2) * e - (gamma - alpha) * (gamma + alpha) * big_k,
    )
    return gamma / 3.0 * bracket, 0.5 * big_k_complement / gamma


def _quadrature_integrals(alpha, gamma):
    """The two integrals of _elliptic_integrals by the 16- and 32-node
    Gauss-Legendre rules, as (action, its estimate, period, its estimate):
    the 32-node values and their relative change from 16 nodes.  This is the
    independent reference that validate and the tests hold the closed form to.

    x = alpha sin^2(theta) absorbs the sqrt-type endpoint zero of the action
    integrand, and x = alpha cos^2(theta) + gamma sin^2(theta) the
    inverse-sqrt singularities of the period integrand, which leaves
    int_0^{pi/2} dtheta / sqrt((gamma+x)(x+alpha)); both are smooth on [0, pi/2],
    so the rules converge geometrically and the change bounds the error.
    """
    al, ga = np.asarray(alpha)[..., None], np.asarray(gamma)[..., None]
    ga2 = ga * ga

    def action_integrand(theta: np.ndarray) -> np.ndarray:
        s = np.sin(theta)
        c = np.cos(theta)
        x = al * s * s
        return 2.0 * al * s * c * c * np.sqrt(al * (al + x) * (ga2 - x * x))

    def period_integrand(theta: np.ndarray) -> np.ndarray:
        s = np.sin(theta)
        x = al + (ga - al) * s * s
        return 1.0 / np.sqrt((ga + x) * (x + al))

    half = mid = 0.25 * math.pi  # [0, pi/2] as mid + half * [-1, 1]
    rules = [np.polynomial.legendre.leggauss(n) for n in (16, 32)]
    results = []
    for f in (action_integrand, period_integrand):
        coarse, fine = (half * (f(mid + half * x) * w).sum(axis=-1) for x, w in rules)
        results += [fine, np.abs(fine - coarse) / np.maximum(np.abs(fine), np.finfo(float).tiny)]
    return tuple(results)


def _wkb_route(eta_value, half_separation, epsilon) -> np.ndarray:
    """The SplittingReport columns over an eta array at the level shift `epsilon`
    (a scalar, or an array like eta), with alpha and gamma in units of
    `half_separation`: guards the validity boundary (through delta) and the
    float64 range, then takes S = (action integral) / eta^2 and w T = 8 (period
    integral) in closed form (see _elliptic_integrals) at the turning points for a = 1."""
    et = np.atleast_1d(eta_value)
    # delta's validity guard goes first, so a level beyond it is not called below the well bottom
    ln_delta = ln_delta_factor(et)
    delta = np.exp(ln_delta)
    # S <= 2/(3 eta^2), so the instanton formula's float64 guard is the route's
    ln_instanton = ln_splitting_instanton(et)
    alpha, gamma = _turning_points(et, epsilon)
    action, period = _elliptic_integrals(alpha, gamma)
    action = action / (et * et)
    omega_t = 8.0 * period
    return np.column_stack([
        et,
        np.broadcast_to(epsilon, et.shape),
        half_separation * alpha,
        half_separation * gamma,
        action,
        omega_t,
        # dE = (2 hbar / T) e^{-S}
        math.log(2.0) - np.log(omega_t) - action,
        # dE_asym = dE_instanton sqrt(e/pi) delta, as in ln_splitting_asymptotic
        ln_instanton + math.log(SQRT_E_OVER_PI) + ln_delta,
        ln_instanton,
        delta,
        SQRT_E_OVER_PI * delta,
        np.full(et.shape, SQRT_E_OVER_PI),
    ])


def ln_delta_factor(eta_value):
    """ln of the anharmonicity correction factor delta(eta), elementwise.

    delta = (1+eps)^{-1/2} exp[eps/2 - eps ln(eta sqrt(1+eps)/4)], written
    with log1p so the small-eta limit delta -> 1 is reached smoothly.  Defined
    below validity_boundary(), where 1 + eps > 0; the refusal of any other eta
    (the largest given is named) is the one validity guard of every route.
    """
    eta_value = positive_real(eta_value, "eta")
    worst = float(np.max(eta_value, initial=0.0))
    if worst >= _ETA_BOUNDARY:
        raise ValueError(
            f"eta={worst!r} is at or beyond the validity boundary "
            f"{_ETA_BOUNDARY:.6f}, where 1 + epsilon <= 0; no below-barrier doublet"
        )
    eps = epsilon_closed_form(eta_value)
    half_ln1p = 0.5 * np.log1p(eps)
    return plain(-half_ln1p + 0.5 * eps - eps * (np.log(eta_value / 4.0) + half_ln1p))


def delta_factor(eta_value):
    """Anharmonicity correction factor delta(eta); delta -> 1 as eta -> 0."""
    return plain(np.exp(ln_delta_factor(eta_value)))


def ln_splitting_instanton(eta_value):
    """ln(dE_instanton / hbar w) = ln(4 / (sqrt(pi) eta)) - 2/(3 eta^2), for
    every eta > 0 where 2/(3 eta^2) is finite in float64 (eta >~ 6.1e-155)."""
    eta_value = positive_real(eta_value, "eta")
    with np.errstate(divide="ignore", over="ignore"):
        exponent = 2.0 / (3.0 * np.square(eta_value))
    if not np.isfinite(exponent).all():
        # the exponent falls with eta, so the smallest eta given overflows
        raise ValueError(
            f"eta={float(np.min(eta_value))!r} is beyond the instanton formula's "
            f"float64 range: its exponent 2/(3 eta^2) overflows"
        )
    return plain(np.log(4.0 / (math.sqrt(math.pi) * eta_value)) - exponent)


def ln_splitting_asymptotic(eta_value):
    """ln(dE_asymptotic / hbar w): the instanton log plus ln(sqrt(e/pi)) plus
    ln(delta), so the three-way ratio identities hold to machine precision."""
    return ln_splitting_instanton(eta_value) + math.log(SQRT_E_OVER_PI) + ln_delta_factor(eta_value)


def ln_splitting_wkb_exact(p: WellParameters) -> tuple[float, float]:
    """ln(dE / hbar w) from the WKB route dE = (2 hbar / T) e^{-S} at the paper's
    level, and the relative error estimate of dE, _wkb_estimate, since dE depends
    on S through e^{-S}.  turning_points(p, level).ln_de_wkb takes another level."""
    report = splitting_report(p)
    return report.ln_de_wkb, _wkb_estimate(report.action)


def _wkb_estimate(action: float) -> float:
    """Relative error bound of dE = (2 hbar / T) e^{-S} at the action S: the
    closed form's rounding bound, with the action's share amplified by S."""
    return _ROUNDING * (1.0 + action)


def splitting_asymptotic(p: WellParameters) -> float:
    """Tunneling splitting (energy units) from the corrected asymptotic
    formula hbar w (4 sqrt(e) / (pi eta)) e^{-2/(3 eta^2)} delta(eta)."""
    return p.hbar * p.angular_frequency * math.exp(ln_splitting_asymptotic(eta_of(p)))


def ratio_wkb_instanton(eta_value):
    """Corrected-to-instanton splitting ratio sqrt(e/pi) * delta(eta)."""
    return SQRT_E_OVER_PI * delta_factor(eta_value)


def splitting_table(eta_value) -> np.ndarray:
    """All three routes over an eta array in natural units (m = w = hbar = 1,
    a = 1/eta), as a float array of shape (rows, 12) whose columns are the
    SplittingReport fields in order.  Row i depends only on eta[i]."""
    eta_value = positive_real(eta_value, "eta")
    if np.ndim(eta_value) > 1:
        raise ValueError(f"eta must be a scalar or a 1-D array, got an array of shape {eta_value.shape}")
    # 1/eta overflows only below the float64 floor that the route refuses
    with np.errstate(over="ignore"):
        half_separation = 1.0 / eta_value
    return _wkb_route(eta_value, half_separation, epsilon_closed_form(eta_value))


def splitting_report(p: WellParameters) -> SplittingReport:
    """All three routes at the eta of p and the paper's shift there: the row
    splitting_table makes, with alpha and gamma in p's units (see SplittingReport)."""
    eta_value = eta_of(p)
    row = _wkb_route(eta_value, p.half_separation, epsilon_closed_form(eta_value))
    return SplittingReport(*row[0].tolist())

"""Turning points, barrier/period integrals, and the tunneling splitting
computed three ways.

The three routes to the ground-doublet splitting are: direct quadrature of
the action and period integrals ("wkb-exact"), the small-eta asymptotic
formula carrying the anharmonicity correction factor delta(eta)
("asymptotic"), and the instanton formula ("instanton").  Exponentially
small magnitudes are handled in log space throughout: every splitting has
an ln(dE / hbar w) form, and ratios are differences of logs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import WellParameters, eta as eta_of, positive_real
from .perturbation import (
    PerturbedLevel,
    epsilon_closed_form,
    perturbed_level,
    validity_boundary,
)
from .quadrature import integrate

__all__ = [
    "SQRT_E_OVER_PI",
    "TurningPoints",
    "SplittingReport",
    "turning_points",
    "action_S",
    "period_T",
    "delta_factor",
    "ln_delta_factor",
    "ln_splitting_wkb_exact",
    "ln_splitting_asymptotic",
    "ln_splitting_instanton",
    "splitting_wkb_exact",
    "splitting_asymptotic",
    "splitting_instanton",
    "ratio_wkb_instanton",
    "splitting_report",
]

#: Ratio of the uncorrected asymptotic splitting to the instanton one,
#: sqrt(e/pi) = 0.930191367...
SQRT_E_OVER_PI = math.sqrt(math.e / math.pi)

_TOL_RANGE = (1e-13, 1e-6)
_ETA_BOUNDARY = validity_boundary()


@dataclass(frozen=True)
class TurningPoints:
    """Inner (+-alpha) and outer (+-gamma) classical turning points at the
    doublet energy; 0 < alpha < a < gamma in the tunneling regime."""

    alpha: float
    gamma: float


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


def _check_tol(tol: float) -> None:
    lo, hi = _TOL_RANGE
    if not (lo <= tol <= hi):
        raise ValueError(f"tol must lie in [{lo:g}, {hi:g}], got {tol!r}")


def _check_validity(eta_value: float) -> None:
    """The one guard for every route that needs a below-barrier doublet."""
    if eta_value >= _ETA_BOUNDARY:
        raise ValueError(
            f"eta={eta_value!r} is at or beyond the validity boundary "
            f"{_ETA_BOUNDARY:.6f}, where 1 + epsilon <= 0; no below-barrier doublet"
        )


def turning_points(p: WellParameters, level: PerturbedLevel) -> TurningPoints:
    """Turning points alpha = a sqrt(1 - 2 eta sqrt(1+eps)) and
    gamma = a sqrt(1 + 2 eta sqrt(1+eps)) of V(x) = E.

    These solve V(x) = E exactly: with E = (hbar w / 2)(1 + eps),
    V - E factors as (m w^2 / (8 a^2)) (x^2 - alpha^2)(x^2 - gamma^2).
    """
    if not level.below_barrier:
        raise ValueError("energy at or above barrier; no tunneling regime")
    a = p.half_separation
    root = 2.0 * eta_of(p) * math.sqrt(1.0 + level.epsilon)
    # below_barrier guarantees root < 1, so both radicands are positive
    return TurningPoints(alpha=a * math.sqrt(1.0 - root), gamma=a * math.sqrt(1.0 + root))


def _action_with_estimate(
    p: WellParameters, tp: TurningPoints, tol: float
) -> tuple[float, float]:
    """Barrier action: (m w / (hbar a)) * int_0^alpha sqrt((alpha^2-x^2)(gamma^2-x^2)) dx.

    Substituting x = alpha sin^2(theta) absorbs the sqrt-type endpoint zero;
    the theta-integrand is smooth on [0, pi/2].
    """
    al, ga = tp.alpha, tp.gamma
    ga2 = ga * ga

    def integrand(theta: np.ndarray) -> np.ndarray:
        s = np.sin(theta)
        c = np.cos(theta)
        x = al * s * s
        return 2.0 * al * s * c * c * np.sqrt(al * (al + x) * (ga2 - x * x))

    value, estimate = integrate(integrand, 0.0, 0.5 * math.pi, tol=tol)
    scale = p.mass * p.angular_frequency / (p.hbar * p.half_separation)
    return scale * value, estimate


def _period_with_estimate(
    p: WellParameters, tp: TurningPoints, tol: float
) -> tuple[float, float]:
    """Oscillation period at energy E in one well:
    (8 a / w) * int_0^{pi/2} dtheta / sqrt((gamma + x)(x + alpha)).

    The substitution x = alpha cos^2(theta) + gamma sin^2(theta) absorbs the
    inverse-sqrt singularities at both turning points exactly.
    """
    al, ga = tp.alpha, tp.gamma

    def integrand(theta: np.ndarray) -> np.ndarray:
        s = np.sin(theta)
        x = al + (ga - al) * s * s
        return 1.0 / np.sqrt((ga + x) * (x + al))

    value, estimate = integrate(integrand, 0.0, 0.5 * math.pi, tol=tol)
    return 8.0 * p.half_separation / p.angular_frequency * value, estimate


def action_S(
    p: WellParameters, level: PerturbedLevel, tp: TurningPoints, tol: float = 1e-10
) -> float:
    """Dimensionless barrier integral of sqrt(2m(V - E))/hbar between -alpha
    and +alpha, by quadrature with the endpoint zeros absorbed (estimated
    relative error <= tol)."""
    _check_tol(tol)
    if not level.below_barrier:
        raise ValueError("energy at or above barrier; no tunneling regime")
    return _action_with_estimate(p, tp, tol)[0]


def period_T(
    p: WellParameters, level: PerturbedLevel, tp: TurningPoints, tol: float = 1e-10
) -> float:
    """Classical period (time units) of oscillation at energy E in one well,
    int sqrt(2m)/sqrt(E - V) dx over [alpha, gamma]; the integrable
    inverse-sqrt endpoint singularities are absorbed by substitution."""
    _check_tol(tol)
    if not level.below_barrier:
        raise ValueError("energy at or above barrier; no tunneling regime")
    return _period_with_estimate(p, tp, tol)[0]


def ln_delta_factor(eta_value: float) -> float:
    """ln of the anharmonicity correction factor delta(eta).

    delta = (1+eps)^{-1/2} exp[eps/2 - eps ln(eta sqrt(1+eps)/4)], written
    with log1p so the small-eta limit delta -> 1 is reached smoothly.  Defined
    below validity_boundary(), where 1 + eps > 0.
    """
    eps = epsilon_closed_form(eta_value)
    _check_validity(eta_value)
    half_ln1p = 0.5 * math.log1p(eps)
    return -half_ln1p + 0.5 * eps - eps * (math.log(eta_value / 4.0) + half_ln1p)


def delta_factor(eta_value: float) -> float:
    """Anharmonicity correction factor delta(eta); delta -> 1 as eta -> 0."""
    return math.exp(ln_delta_factor(eta_value))


def ln_splitting_instanton(eta_value: float) -> float:
    """ln(dE_instanton / hbar w) = ln(4 / (sqrt(pi) eta)) - 2/(3 eta^2)."""
    eta_value = positive_real(eta_value, "eta")
    return math.log(4.0 / (math.sqrt(math.pi) * eta_value)) - 2.0 / (3.0 * eta_value**2)


def ln_splitting_asymptotic(eta_value: float) -> float:
    """ln(dE_asymptotic / hbar w): the instanton log plus ln(sqrt(e/pi)) plus
    ln(delta), so the three-way ratio identities hold to machine precision."""
    return ln_splitting_instanton(eta_value) + math.log(SQRT_E_OVER_PI) + ln_delta_factor(eta_value)


def _quadrature_route(p: WellParameters, level: PerturbedLevel | None, tol: float):
    """Guarded level, turning points, and the (value, estimate) pairs of the
    action and the period: everything the quadrature route computes."""
    _check_tol(tol)
    _check_validity(eta_of(p))
    if level is None:
        level = perturbed_level(p)
    tp = turning_points(p, level)
    return level, tp, _action_with_estimate(p, tp, tol), _period_with_estimate(p, tp, tol)


def ln_splitting_wkb_exact(
    p: WellParameters, level: PerturbedLevel | None = None, tol: float = 1e-10
) -> tuple[float, float]:
    """ln(dE / hbar w) from the quadrature route dE = (2 hbar / T) e^{-S}.

    Returns (log value, propagated relative error estimate); the estimate
    combines the achieved period estimate with the action estimate amplified
    by S, since dE depends on S through e^{-S}.
    """
    _, _, (action, action_est), (period, period_est) = _quadrature_route(p, level, tol)
    ln_value = math.log(2.0) - math.log(p.angular_frequency * period) - action
    return ln_value, period_est + action * action_est


def splitting_wkb_exact(
    p: WellParameters, level: PerturbedLevel | None = None, tol: float = 1e-10
) -> float:
    """Tunneling splitting (energy units) by direct quadrature,
    (2 hbar / T) e^{-S}; underflows to 0.0 below roughly eta = 0.03."""
    ln_value, _ = ln_splitting_wkb_exact(p, level, tol)
    return p.hbar * p.angular_frequency * math.exp(ln_value)


def splitting_asymptotic(p: WellParameters) -> float:
    """Tunneling splitting (energy units) from the corrected asymptotic
    formula hbar w (4 sqrt(e) / (pi eta)) e^{-2/(3 eta^2)} delta(eta)."""
    return p.hbar * p.angular_frequency * math.exp(ln_splitting_asymptotic(eta_of(p)))


def splitting_instanton(p: WellParameters) -> float:
    """Tunneling splitting (energy units) from the instanton formula
    hbar w (4 / (sqrt(pi) eta)) e^{-2/(3 eta^2)}; total for eta > 0."""
    return p.hbar * p.angular_frequency * math.exp(ln_splitting_instanton(eta_of(p)))


def ratio_wkb_instanton(eta_value: float) -> float:
    """Corrected-to-instanton splitting ratio sqrt(e/pi) * delta(eta)."""
    return SQRT_E_OVER_PI * delta_factor(eta_value)


def splitting_report(p: WellParameters, tol: float = 1e-10) -> SplittingReport:
    """All three routes at the eta of p, as one row of scaled, log-domain
    numbers (see SplittingReport)."""
    level, tp, (action, _), (period, _) = _quadrature_route(p, None, tol)
    et = eta_of(p)
    omega_t = p.angular_frequency * period
    delta = delta_factor(et)
    return SplittingReport(
        eta=et,
        epsilon=level.epsilon,
        alpha=tp.alpha,
        gamma=tp.gamma,
        action=action,
        omega_t=omega_t,
        ln_de_wkb=math.log(2.0) - math.log(omega_t) - action,
        ln_de_asym=ln_splitting_asymptotic(et),
        ln_de_instanton=ln_splitting_instanton(et),
        delta=delta,
        ratio_corrected=SQRT_E_OVER_PI * delta,
        ratio_uncorrected=SQRT_E_OVER_PI,
    )

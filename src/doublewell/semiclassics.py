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
from typing import NamedTuple

import numpy as np

from .model import WellParameters, eta as eta_of, positive_real
from .perturbation import PerturbedLevel, epsilon_closed_form, validity_boundary
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
    "splitting_table",
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


def _check_validity(eta_value) -> None:
    """The one guard for every route that needs a below-barrier doublet;
    eta_value may be an array, and the largest element is reported."""
    worst = float(np.max(eta_value))
    if worst >= _ETA_BOUNDARY:
        raise ValueError(
            f"eta={worst!r} is at or beyond the validity boundary "
            f"{_ETA_BOUNDARY:.6f}, where 1 + epsilon <= 0; no below-barrier doublet"
        )


def _plain(value):
    """A 0-d result as a Python float (so its repr stays plain), an array as is."""
    return float(value) if np.ndim(value) == 0 else value


def _turning_points(a, eta_value, epsilon):
    """Inner and outer turning points, elementwise over broadcastable inputs."""
    root = 2.0 * eta_value * np.sqrt(1.0 + epsilon)
    if not np.all(root < 1.0):
        raise ValueError("energy at or above barrier; no tunneling regime")
    return a * np.sqrt(1.0 - root), a * np.sqrt(1.0 + root)


def turning_points(p: WellParameters, level: PerturbedLevel) -> TurningPoints:
    """Turning points alpha = a sqrt(1 - 2 eta sqrt(1+eps)) and
    gamma = a sqrt(1 + 2 eta sqrt(1+eps)) of V(x) = E.

    These solve V(x) = E exactly: with E = (hbar w / 2)(1 + eps),
    V - E factors as (m w^2 / (8 a^2)) (x^2 - alpha^2)(x^2 - gamma^2).
    Both are real exactly when the level is below the barrier.
    """
    alpha, gamma = _turning_points(p.half_separation, eta_of(p), level.epsilon)
    return TurningPoints(alpha=float(alpha), gamma=float(gamma))


class _Route(NamedTuple):
    """Everything the quadrature route computes, one array element per row."""

    eta: np.ndarray
    epsilon: np.ndarray
    alpha: np.ndarray
    gamma: np.ndarray
    action: np.ndarray
    action_estimate: np.ndarray
    period: np.ndarray
    period_estimate: np.ndarray
    ln_splitting: np.ndarray


def _quadrature_route(mass, angular_frequency, half_separation, hbar, tol: float, epsilon=None) -> _Route:
    """The quadrature route over numpy-broadcastable well fields.

    Guards tol and the validity boundary, takes the level shift from the
    closed form (or `epsilon`, if given), and integrates the barrier action
    and the period for every row at once.  The action is
    (m w / (hbar a)) * int_0^alpha sqrt((alpha^2-x^2)(gamma^2-x^2)) dx, with
    x = alpha sin^2(theta) absorbing the sqrt-type endpoint zero; the period is
    (8 a / w) * int_0^{pi/2} dtheta / sqrt((gamma + x)(x + alpha)), with
    x = alpha cos^2(theta) + gamma sin^2(theta) absorbing the inverse-sqrt
    singularities at both turning points.  Both theta-integrands are smooth on
    [0, pi/2].
    """
    _check_tol(tol)
    # numpy arithmetic from the start, so one row and a block round alike
    mass, angular_frequency, half_separation, hbar = (
        np.asarray(v, dtype=np.float64) for v in (mass, angular_frequency, half_separation, hbar)
    )
    et = np.atleast_1d(np.sqrt(hbar / (mass * angular_frequency * half_separation**2)))
    _check_validity(et)
    eps = epsilon_closed_form(et) if epsilon is None else epsilon
    alpha, gamma = _turning_points(half_separation, et, eps)
    al, ga = alpha[:, None], gamma[:, None]
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

    action, action_est = integrate(action_integrand, 0.0, 0.5 * math.pi, tol=tol)
    period, period_est = integrate(period_integrand, 0.0, 0.5 * math.pi, tol=tol)
    action = mass * angular_frequency / (hbar * half_separation) * action
    period = 8.0 * half_separation / angular_frequency * period
    return _Route(
        eta=et,
        epsilon=np.broadcast_to(eps, et.shape),
        alpha=alpha,
        gamma=gamma,
        action=action,
        action_estimate=action_est,
        period=period,
        period_estimate=period_est,
        # dE = (2 hbar / T) e^{-S}
        ln_splitting=math.log(2.0) - np.log(angular_frequency * period) - action,
    )


def _one_row(p: WellParameters, tol: float, level: PerturbedLevel | None = None) -> _Route:
    """The quadrature route at the well p, optionally at a given level."""
    return _quadrature_route(
        p.mass, p.angular_frequency, p.half_separation, p.hbar, tol,
        epsilon=None if level is None else level.epsilon,
    )


def action_S(
    p: WellParameters, level: PerturbedLevel, tp: TurningPoints, tol: float = 1e-10
) -> float:
    """Dimensionless barrier integral of sqrt(2m(V - E))/hbar between -alpha
    and +alpha, by quadrature with the endpoint zeros absorbed (estimated
    relative error <= tol).  tp must be turning_points(p, level), which the
    route recomputes."""
    return float(_one_row(p, tol, level).action[0])


def period_T(
    p: WellParameters, level: PerturbedLevel, tp: TurningPoints, tol: float = 1e-10
) -> float:
    """Classical period (time units) of oscillation at energy E in one well,
    int sqrt(2m)/sqrt(E - V) dx over [alpha, gamma]; the integrable
    inverse-sqrt endpoint singularities are absorbed by substitution.
    tp must be turning_points(p, level), which the route recomputes."""
    return float(_one_row(p, tol, level).period[0])


def ln_delta_factor(eta_value):
    """ln of the anharmonicity correction factor delta(eta), elementwise.

    delta = (1+eps)^{-1/2} exp[eps/2 - eps ln(eta sqrt(1+eps)/4)], written
    with log1p so the small-eta limit delta -> 1 is reached smoothly.  Defined
    below validity_boundary(), where 1 + eps > 0.
    """
    eta_value = positive_real(eta_value, "eta")
    eps = epsilon_closed_form(eta_value)
    _check_validity(eta_value)
    half_ln1p = 0.5 * np.log1p(eps)
    return _plain(-half_ln1p + 0.5 * eps - eps * (np.log(eta_value / 4.0) + half_ln1p))


def delta_factor(eta_value):
    """Anharmonicity correction factor delta(eta); delta -> 1 as eta -> 0."""
    return _plain(np.exp(ln_delta_factor(eta_value)))


def ln_splitting_instanton(eta_value):
    """ln(dE_instanton / hbar w) = ln(4 / (sqrt(pi) eta)) - 2/(3 eta^2)."""
    eta_value = positive_real(eta_value, "eta")
    return _plain(np.log(4.0 / (math.sqrt(math.pi) * eta_value)) - 2.0 / (3.0 * eta_value**2))


def ln_splitting_asymptotic(eta_value):
    """ln(dE_asymptotic / hbar w): the instanton log plus ln(sqrt(e/pi)) plus
    ln(delta), so the three-way ratio identities hold to machine precision."""
    return ln_splitting_instanton(eta_value) + math.log(SQRT_E_OVER_PI) + ln_delta_factor(eta_value)


def ln_splitting_wkb_exact(
    p: WellParameters, level: PerturbedLevel | None = None, tol: float = 1e-10
) -> tuple[float, float]:
    """ln(dE / hbar w) from the quadrature route dE = (2 hbar / T) e^{-S}.

    Returns (log value, propagated relative error estimate); the estimate
    combines the achieved period estimate with the action estimate amplified
    by S, since dE depends on S through e^{-S}.
    """
    route = _one_row(p, tol, level)
    estimate = route.period_estimate + route.action * route.action_estimate
    return float(route.ln_splitting[0]), float(estimate[0])


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


def ratio_wkb_instanton(eta_value):
    """Corrected-to-instanton splitting ratio sqrt(e/pi) * delta(eta)."""
    return SQRT_E_OVER_PI * delta_factor(eta_value)


def splitting_table(mass, angular_frequency, half_separation, hbar, tol: float = 1e-10) -> np.ndarray:
    """All three routes over numpy-broadcastable well fields, as a float
    array of shape (rows, 12) whose columns are the SplittingReport fields
    in order.  Row i depends only on the fields of row i."""
    route = _quadrature_route(mass, angular_frequency, half_separation, hbar, tol)
    et = route.eta
    # looked up at call time, so a replaced delta_factor reaches the report
    delta = np.broadcast_to(delta_factor(et), et.shape)
    return np.column_stack([
        et,
        route.epsilon,
        route.alpha,
        route.gamma,
        route.action,
        angular_frequency * route.period,
        route.ln_splitting,
        ln_splitting_asymptotic(et),
        ln_splitting_instanton(et),
        delta,
        SQRT_E_OVER_PI * delta,
        np.full(et.shape, SQRT_E_OVER_PI),
    ])


def splitting_report(p: WellParameters, tol: float = 1e-10) -> SplittingReport:
    """All three routes at the eta of p, as one row of scaled, log-domain
    numbers (see SplittingReport)."""
    row = splitting_table(p.mass, p.angular_frequency, p.half_separation, p.hbar, tol)
    return SplittingReport(*row[0].tolist())

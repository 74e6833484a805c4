"""Anharmonic shift of the ground level in one well.

Near a minimum the well is a harmonic oscillator of frequency w plus cubic
and quartic corrections.  This module provides the paper's closed-form
fractional shift eps(eta) of the ground level and, independently, the
Rayleigh-Schrodinger recursion in H' = c3 y^3 + c4 y^4 over oscillator number
states, E_k = <0|H'|psi_(k-1)> with (H0 - E0) psi_k = -H' psi_(k-1) +
sum_(j=1..k) E_j psi_(k-j), whose order 2 is the paper's algebra and
re-derives eps.  There is one coefficient set, the paper's, so eps is not
the physical shift: it is positive below eta ~ 0.364, while E0 + E1 - 1 from
spectral.solve_spectrum (natural units) is negative at every eta measured,
0.02 to 0.3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .model import WellParameters, eta as eta_of, finite_scalar, from_eta, positive_real, whole_number

__all__ = [
    "AnharmonicExpansion",
    "PerturbedLevel",
    "epsilon_closed_form",
    "perturbed_level",
    "rs_engine",
    "epsilon_series_coefficients",
    "validity_boundary",
]

#: highest order rs_engine computes, a basis of 4 * 32 + 1 = 129 states
_MAX_ORDER = 32


@dataclass(frozen=True)
class AnharmonicExpansion:
    """One well expanded about its minimum: (m w^2 / 2) u^2 + c3 u^3 + c4 u^4, u = x - a.

    `params` fixes the harmonic term, the oscillator scale hbar/(2 m w) and
    the level spacing hbar*w; only the two anharmonic coefficients are free.
    The one named set is the paper's, `standard`.
    """

    params: WellParameters
    cubic: float
    quartic: float

    def __post_init__(self) -> None:
        if not isinstance(self.params, WellParameters):
            raise ValueError(f"params must be a WellParameters, got {self.params!r}")
        for name in ("cubic", "quartic"):
            object.__setattr__(self, name, finite_scalar(getattr(self, name), name))

    @classmethod
    def standard(cls, p: WellParameters) -> "AnharmonicExpansion":
        """The paper's set, which delta is built on: quartic 3*c2/a^2, 12x the
        potential's own Taylor coefficient c2/(4 a^2), with c2 = m w^2 / 2.

        Its second-order ground shift is exactly (eta^2/16)(25 - 189 eta^2),
        i.e. epsilon_closed_form.
        """
        c2 = 0.5 * p.mass * p.angular_frequency**2
        a = p.half_separation
        return cls(params=p, cubic=c2 / a, quartic=3.0 * c2 / (a * a))


@dataclass(frozen=True)
class PerturbedLevel:
    """Ground level of one well to second order in the anharmonicity: hbar*w/2
    and its fractional shift epsilon (turning_points reads one made by hand)."""

    unperturbed: float
    epsilon: float

    @property
    def energy(self) -> float:
        """unperturbed * (1 + epsilon)."""
        return self.unperturbed * (1.0 + self.epsilon)


def epsilon_closed_form(eta_value):
    """Fractional second-order shift of the well ground level,
    (eta^2/16)(25 - 189 eta^2), for the standard coefficient set;
    elementwise for an eta array.  -inf, without a warning, from
    eta ~ 6.25e76, where the routes' validity guard refuses."""
    # squared by multiplication, as numpy squares an array: float ** 2 goes
    # through libm pow, which can differ in the last bit
    et = positive_real(eta_value, "eta")
    with np.errstate(over="ignore"):
        e2 = et * et
        return (e2 / 16.0) * (25.0 - 189.0 * e2)


def rs_engine(expansion: AnharmonicExpansion, order: int = 2) -> float:
    """Rayleigh-Schrodinger ground shift for the expansion through `order` in
    H' = c3 y^3 + c4 y^4, as a fraction of the unperturbed level hbar*w/2.

    From psi_0 = |0>: E_k = <0|H'|psi_(k-1)>, and for n >= 1
    psi_k[n] = -(H' psi_(k-1) - sum_(j=1..k) E_j psi_(k-j))[n] / (n hbar w),
    with psi_k[0] = 0.  Order 2 is the paper's algebra.  psi_k reaches no
    state above 4k, and no y^4 path from psi_(k-1) to it climbs higher, so
    4*order + 1 states hold every amplitude: the sum is exact.
    """
    if whole_number(order, "order", 1) > _MAX_ORDER:
        raise ValueError(f"order must be at most {_MAX_ORDER}, got {order!r}")
    p = expansion.params
    lam = math.sqrt(p.hbar / (2.0 * p.mass * p.angular_frequency))
    hw = p.hbar * p.angular_frequency
    size = 4 * order + 1
    # the position matrix y[i, i+1] = lam sqrt(i+1); its powers are the exact ladder algebra
    off = lam * np.sqrt(np.arange(1.0, size))
    y = np.diag(off, 1) + np.diag(off, -1)
    y2 = y @ y
    h = expansion.cubic * (y2 @ y) + expansion.quartic * (y2 @ y2)
    gaps = hw * np.arange(1, size)
    psi = np.zeros((order + 1, size))
    psi[0, 0] = 1.0
    energies = np.zeros(order + 1)
    for k in range(1, order + 1):
        h_psi = h @ psi[k - 1]
        energies[k] = h_psi[0]
        psi[k, 1:] = (energies[1 : k + 1] @ psi[k - 1 :: -1, 1:] - h_psi[1:]) / gaps
    return float(energies.sum() / (0.5 * hw))


def perturbed_level(p: WellParameters) -> PerturbedLevel:
    """Ground level of one well with the paper's shift, epsilon_closed_form.

    Its eps is positive below eta ~ 0.364; the physical shift is negative.
    Below validity_boundary() the level lies under the barrier; routes that
    need that guard it.  From eta ~ 6.25e76 its eps is -inf.
    """
    eps = epsilon_closed_form(eta_of(p))
    return PerturbedLevel(unperturbed=0.5 * p.hbar * p.angular_frequency, epsilon=eps)


def epsilon_series_coefficients(mode: str = "standard") -> tuple[float, float]:
    """Coefficients (A, B) of the engine's shift eps = A eta^2 + B eta^4 for
    the paper's set, read by order from the engine at eta = 1, where each
    term equals its coefficient.  `mode` names the set; the paper's is the
    only one, and the argument stays for callers that name it.

    B is the quartic term's second-order part; A is the rest, first order plus
    the cubic second order.  No cross term enters: the cubic term reaches only
    odd states and the quartic only even ones.
    """
    if mode != "standard":
        raise ValueError(f'mode must be "standard", got {mode!r}')
    expansion = AnharmonicExpansion.standard(from_eta(1.0))
    quartic_only = replace(expansion, cubic=0.0)
    b = rs_engine(quartic_only, 2) - rs_engine(quartic_only, 1)
    return rs_engine(expansion, 2) - b, b


def validity_boundary() -> float:
    """Largest eta of the below-barrier picture, in closed form.

    The level loses meaning where 1 + eps(eta) vanishes.  With the standard
    shift that is 189 x^2 - 25 x - 16 = 0 in x = eta^2, so
    eta0 = sqrt((25 + sqrt(12721)) / 378) = 0.60375...  The other limit, the
    inner turning point reaching the origin (2 eta sqrt(1 + eps) = 1), never
    binds: that expression stays below 1 wherever 1 + eps > 0.
    """
    return math.sqrt((25.0 + math.sqrt(12721.0)) / 378.0)

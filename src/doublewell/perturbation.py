"""Anharmonic shift of the ground level in one well.

Near a minimum the well is a harmonic oscillator of frequency w plus cubic
and quartic corrections.  This module provides the paper's closed-form
fractional shift eps(eta) of the ground level and, independently, a finite
Rayleigh-Schrodinger engine over oscillator number states that re-derives
it from exact ladder-operator matrix elements.  There is one coefficient set,
the paper's, so eps is the paper's algebra, not the physical shift: it is
positive below eta ~ 0.364, while E0 + E1 - 1 from spectral.solve_spectrum
(natural units) is negative at every eta measured, 0.02 to 0.3.
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

#: oscillator states |0> .. |4> of the engine: all that y^3 and y^4 reach from |0>
_STATES = 5


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
    """Ground level of one well through second order in the anharmonicity:
    the unperturbed level hbar*w/2 and its fractional shift epsilon."""

    unperturbed: float
    epsilon: float

    @property
    def energy(self) -> float:
        """unperturbed * (1 + epsilon)."""
        return self.unperturbed * (1.0 + self.epsilon)


def epsilon_closed_form(eta_value):
    """Fractional second-order shift of the well ground level,
    (eta^2/16)(25 - 189 eta^2), for the standard coefficient set;
    elementwise for an eta array."""
    # squared by multiplication, as numpy squares an array: float ** 2 goes
    # through libm pow, which can differ in the last bit
    et = positive_real(eta_value, "eta")
    e2 = et * et
    return (e2 / 16.0) * (25.0 - 189.0 * e2)


def _transition_amplitudes(expansion: AnharmonicExpansion) -> tuple[np.ndarray, np.ndarray]:
    """Exact amplitudes <k| c3 y^3 |0> and <k| c4 y^4 |0> for k < _STATES.

    Built from the tridiagonal position matrix y[i, i+1] = lam sqrt(i+1)
    with lam = sqrt(hbar/(2 m w)); matrix powers of y evaluate the ladder
    algebra exactly, so entries forbidden by parity are exactly zero.
    y^3 and y^4 connect |0> only to |k>, k <= 4, through states k <= 4, so
    five states hold every nonzero amplitude and a larger basis adds only zeros.
    """
    p = expansion.params
    lam = math.sqrt(p.hbar / (2.0 * p.mass * p.angular_frequency))
    y = np.zeros((_STATES, _STATES))
    idx = np.arange(1, _STATES)
    off = lam * np.sqrt(idx)
    y[idx - 1, idx] = off
    y[idx, idx - 1] = off
    y2 = y @ y
    y3 = y2 @ y
    y4 = y2 @ y2
    return expansion.cubic * y3[:, 0], expansion.quartic * y4[:, 0]


def rs_engine(expansion: AnharmonicExpansion, order: int = 2) -> float:
    """Rayleigh-Schrodinger ground shift for the expansion, as a fraction of
    the unperturbed level hbar*w/2.

    order 1: <0|H'|0>.  order 2: adds sum_k |<k|H'|0>|^2 / (E0 - Ek) with
    E0 - Ek = -k hbar w.  The sum is finite (k <= 4) and exact.
    """
    if whole_number(order, "order", 1) > 2:
        raise ValueError(f"order must be 1 or 2, got {order!r}")
    amp_cubic, amp_quartic = _transition_amplitudes(expansion)
    p = expansion.params
    hw = p.hbar * p.angular_frequency
    shift = amp_cubic[0] + amp_quartic[0]
    if order == 2:
        k = np.arange(1, len(amp_cubic))
        amps = amp_cubic[1:] + amp_quartic[1:]
        shift -= np.sum(amps * amps / (k * hw))
    return float(shift / (0.5 * hw))


def perturbed_level(p: WellParameters) -> PerturbedLevel:
    """Ground level of one well with the paper's shift, epsilon_closed_form.

    Its eps is positive below eta ~ 0.364; the physical shift is negative.
    Below validity_boundary() the level lies under the barrier; routes that
    need that guard it.
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

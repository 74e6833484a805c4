"""Anharmonic shift of the ground level in one well.

Near a minimum the well is a harmonic oscillator of frequency w plus cubic
and quartic corrections.  This module provides the closed-form fractional
shift eps(eta) of the ground level and, independently, a finite
Rayleigh-Schrodinger engine over oscillator number states that re-derives
it from exact ladder-operator matrix elements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import WellParameters, eta as eta_of, from_eta, positive_real

__all__ = [
    "AnharmonicExpansion",
    "PerturbedLevel",
    "epsilon_closed_form",
    "perturbed_level",
    "rs_engine",
    "transition_amplitudes",
    "epsilon_series_coefficients",
    "validity_boundary",
]

#: Coefficient modes understood by perturbed_level / epsilon_series_coefficients.
#: "standard" is the convention the splitting correction factor is built on
#: (quartic coefficient 3*c2/a^2); "taylor" is the direct series expansion of
#: the potential about its minimum (quartic coefficient c2/(4 a^2)).  The two
#: differ by a factor 12 in the quartic term; see AnharmonicExpansion.
MODES = ("standard", "taylor")


@dataclass(frozen=True)
class AnharmonicExpansion:
    """One well expanded about its minimum: c2 u^2 + c3 u^3 + c4 u^4, u = x - a.

    `params` is carried along because the engine needs the oscillator scale
    hbar/(2 m w) and the level spacing hbar*w, which the bare coefficients
    do not determine.
    """

    params: WellParameters
    harmonic: float
    cubic: float
    quartic: float
    expansion_point: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.harmonic) and self.harmonic > 0.0):
            raise ValueError(f"harmonic coefficient must be positive, got {self.harmonic!r}")
        for name in ("cubic", "quartic", "expansion_point"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")

    @classmethod
    def standard(cls, p: WellParameters) -> "AnharmonicExpansion":
        """Coefficient set underlying the correction factor delta: quartic 3*c2/a^2.

        Its second-order ground shift is exactly (eta^2/16)(25 - 189 eta^2),
        i.e. epsilon_closed_form.
        """
        c2 = 0.5 * p.mass * p.angular_frequency**2
        a = p.half_separation
        return cls(params=p, harmonic=c2, cubic=c2 / a, quartic=3.0 * c2 / (a * a), expansion_point=a)

    @classmethod
    def taylor(cls, p: WellParameters) -> "AnharmonicExpansion":
        """Direct series of V about x = a: V = c2 u^2 (1 + u/(2a))^2 expanded,
        giving cubic c2/a and quartic c2/(4 a^2)."""
        c2 = 0.5 * p.mass * p.angular_frequency**2
        a = p.half_separation
        return cls(params=p, harmonic=c2, cubic=c2 / a, quartic=c2 / (4.0 * a * a), expansion_point=a)


@dataclass(frozen=True)
class PerturbedLevel:
    """Ground level of one well through second order in the anharmonicity.

    energy = unperturbed * (1 + epsilon) by construction; below_barrier
    records whether the level sits under the central barrier, which is the
    same condition as eta^2 (1 + epsilon) < 1/4 and as the inner turning
    point being real.
    """

    unperturbed: float
    epsilon: float
    energy: float
    below_barrier: bool


def epsilon_closed_form(eta_value):
    """Fractional second-order shift of the well ground level,
    (eta^2/16)(25 - 189 eta^2), for the standard coefficient set;
    elementwise for an eta array."""
    e2 = positive_real(eta_value, "eta") ** 2
    return (e2 / 16.0) * (25.0 - 189.0 * e2)


def transition_amplitudes(expansion: AnharmonicExpansion, truncation: int = 16) -> tuple[np.ndarray, np.ndarray]:
    """Exact amplitudes <k| c3 y^3 |0> and <k| c4 y^4 |0> for k < truncation.

    Built from the tridiagonal position matrix y[i, i+1] = lam sqrt(i+1)
    with lam = sqrt(hbar/(2 m w)); matrix powers of y evaluate the ladder
    algebra exactly, so entries forbidden by parity are exactly zero and
    the first columns are truncation-independent once truncation >= 5
    (y^3 and y^4 connect |0> only to |k>, k <= 4).
    """
    n = int(truncation)
    if n < 5:
        raise ValueError(f"truncation must be >= 5, got {truncation!r}")
    p = expansion.params
    lam = math.sqrt(p.hbar / (2.0 * p.mass * p.angular_frequency))
    y = np.zeros((n, n))
    off = lam * np.sqrt(np.arange(1, n))
    idx = np.arange(1, n)
    y[idx - 1, idx] = off
    y[idx, idx - 1] = off
    y2 = y @ y
    y3 = y2 @ y
    y4 = y2 @ y2
    return expansion.cubic * y3[:, 0], expansion.quartic * y4[:, 0]


def rs_engine(expansion: AnharmonicExpansion, order: int = 2, truncation: int = 16) -> float:
    """Rayleigh-Schrodinger ground shift for the expansion, as a fraction of
    the unperturbed level hbar*w/2.

    order 1: <0|H'|0>.  order 2: adds sum_k |<k|H'|0>|^2 / (E0 - Ek) with
    E0 - Ek = -k hbar w.  The sum is finite and exact; the result does not
    change with truncation beyond the minimum of 5 states.
    """
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order!r}")
    amp_cubic, amp_quartic = transition_amplitudes(expansion, truncation)
    p = expansion.params
    hw = p.hbar * p.angular_frequency
    shift = amp_cubic[0] + amp_quartic[0]
    if order == 2:
        k = np.arange(1, len(amp_cubic))
        amps = amp_cubic[1:] + amp_quartic[1:]
        shift -= float(np.sum(amps * amps / (k * hw)))
    return shift / (0.5 * hw)


def perturbed_level(p: WellParameters, mode: str = "standard") -> PerturbedLevel:
    """Ground level of one well with the second-order anharmonic shift.

    mode "standard" evaluates the closed form; mode "taylor" runs the
    engine on the direct-series coefficients.  The below-barrier flag is
    always set from the resulting energy; callers that need the tunneling
    picture must check it.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    et = eta_of(p)
    if mode == "standard":
        eps = epsilon_closed_form(et)
    else:
        eps = rs_engine(AnharmonicExpansion.taylor(p), order=2)
    e0 = 0.5 * p.hbar * p.angular_frequency
    return PerturbedLevel(
        unperturbed=e0,
        epsilon=eps,
        energy=e0 * (1.0 + eps),
        below_barrier=et * et * (1.0 + eps) < 0.25,
    )


def epsilon_series_coefficients(mode: str = "standard") -> tuple[float, float]:
    """Coefficients (A, B) of the engine's shift eps = A eta^2 + B eta^4.

    The second-order shift is an exact polynomial in eta^2 of degree 2 with
    no constant term, so two sample points determine it; eta in {0.1, 0.2}
    keeps the linear solve well conditioned (points much smaller than ~0.1
    lose ~3 digits on the eta^4 coefficient to cancellation).
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    build = AnharmonicExpansion.standard if mode == "standard" else AnharmonicExpansion.taylor
    samples = (0.1, 0.2)
    rows = []
    rhs = []
    for et in samples:
        e2 = et * et
        rows.append((e2, e2 * e2))
        rhs.append(rs_engine(build(from_eta(et)), order=2))
    coeff = np.linalg.solve(np.array(rows), np.array(rhs))
    return float(coeff[0]), float(coeff[1])


def validity_boundary() -> float:
    """Largest eta of the below-barrier picture, in closed form.

    The level loses meaning where 1 + eps(eta) vanishes.  With the standard
    shift that is 189 x^2 - 25 x - 16 = 0 in x = eta^2, so
    eta0 = sqrt((25 + sqrt(12721)) / 378) = 0.60375...  The other limit, the
    inner turning point reaching the origin (2 eta sqrt(1 + eps) = 1), never
    binds: that expression stays below 1 wherever 1 + eps > 0.
    """
    return math.sqrt((25.0 + math.sqrt(12721.0)) / 378.0)

"""Symmetric quartic double-well potential and its dimensionless reduction.

The well is V(x) = (m w^2 / (8 a^2)) (x - a)^2 (x + a)^2: two degenerate
minima at x = +-a separated by a barrier of height m w^2 a^2 / 8 at the
origin.  Every dimensionless result downstream depends on the parameters
only through eta = sqrt(hbar / (m w a^2)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "WellParameters",
    "potential",
    "eta",
    "from_eta",
]


def positive_real(value, name: str):
    """`value` as finite, strictly positive float64, else ValueError naming `name`.

    The one validator for eta and the physical parameters.  A scalar (numpy
    scalars included) comes back as a Python float, an array as a float64
    array whose every element passed.  Bools are flags and strings are text,
    not numbers; both are refused.
    """
    raw = np.asarray(value)
    if raw.dtype.kind in "bcSU":
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        array = raw.astype(np.float64)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{name} must be a real number, got {value!r}") from None
    good = np.isfinite(array) & (array > 0.0)
    if not good.all():
        raise ValueError(f"{name} must be finite and positive, got {float(array[~good].flat[0])!r}")
    return float(array) if array.ndim == 0 else array


def positive_scalar(value, name: str) -> float:
    """positive_real for a single number: an array is refused, naming `name`."""
    number = positive_real(value, name)
    if not isinstance(number, float):
        raise ValueError(f"{name} must be a scalar, got an array of shape {number.shape}")
    return number


@dataclass(frozen=True)
class WellParameters:
    """Physical inputs: mass, oscillation frequency about a minimum,
    half-separation of the minima, and hbar.

    All fields must be finite, strictly positive scalars (see positive_scalar), and
    so must the eta they imply in float64.  Validation happens once, here;
    downstream code assumes a valid instance.
    """

    mass: float = 1.0
    angular_frequency: float = 1.0
    half_separation: float = 1.0
    hbar: float = 1.0

    def __post_init__(self) -> None:
        for name in ("mass", "angular_frequency", "half_separation", "hbar"):
            object.__setattr__(self, name, positive_scalar(getattr(self, name), name))
        try:
            implied = eta(self)
        except (OverflowError, ZeroDivisionError):
            implied = math.nan
        if not 0.0 < implied < math.inf:
            raise ValueError(f"eta = sqrt(hbar / (m w a^2)) over- or underflows float64 for {self!r}")

    @property
    def barrier_height(self) -> float:
        """V(0) = m w^2 a^2 / 8."""
        m, w, a = self.mass, self.angular_frequency, self.half_separation
        return m * w * w * a * a / 8.0

    @property
    def oscillator_length(self) -> float:
        """sqrt(hbar / (m w)), the length scale of the per-well ground state."""
        return math.sqrt(self.hbar / (self.mass * self.angular_frequency))


def eta(p: WellParameters) -> float:
    """Dimensionless coupling sqrt(hbar / (m w a^2)).

    Small eta means widely separated wells (tall barrier in units of hbar*w).
    """
    return math.sqrt(p.hbar / (p.mass * p.angular_frequency * p.half_separation**2))


def from_eta(value: float) -> WellParameters:
    """Natural-units parameters (m = w = hbar = 1) with the requested eta.

    In natural units eta = 1/a, so only the half-separation is nontrivial.
    """
    value = positive_real(value, "eta")
    return WellParameters(mass=1.0, angular_frequency=1.0, half_separation=1.0 / value, hbar=1.0)


def potential(p: WellParameters, x):
    """V(x) = (m w^2 / (8 a^2)) (x - a)^2 (x + a)^2.

    Total function of real x; accepts scalars or numpy arrays and returns
    the matching kind.  Nonnegative everywhere, zero exactly at +-a.
    """
    a = p.half_separation
    prefactor = p.mass * p.angular_frequency**2 / (8.0 * a * a)
    xx = np.asarray(x, dtype=float)
    v = prefactor * (xx - a) ** 2 * (xx + a) ** 2
    if v.ndim == 0:
        return float(v)
    return v

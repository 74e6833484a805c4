"""Symmetric quartic double-well potential and its dimensionless reduction.

The well is V(x) = (m w^2 / (8 a^2)) (x - a)^2 (x + a)^2: two degenerate
minima at x = +-a separated by a barrier of height m w^2 a^2 / 8 at the
origin.  Every dimensionless result downstream depends on the parameters
only through eta = sqrt(hbar / (m w a^2)).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "WellParameters",
    "potential",
    "eta",
    "from_eta",
]


def plain(value):
    """A 0-d result as a Python float (so its repr stays plain), an array as
    is: the one rule for what a scalar input gives back."""
    return float(value) if np.ndim(value) == 0 else value


def finite_real(value, name: str):
    """`value` as finite float64, else ValueError naming `name`: the one
    conversion every number check goes through.  A scalar (numpy scalars
    included) comes back as a Python float, an array as float64.  Only integer
    and real dtypes count, so bools, strings, complex numbers and whatever
    numpy holds only as an object (None, a dict, an int beyond float64) are
    refused as given.
    """
    raw = np.asarray(value)
    if raw.dtype.kind not in "iuf":
        raise ValueError(f"{name} must be a real number, got {value!r}")
    array = raw.astype(np.float64)
    finite = np.isfinite(array)
    if not finite.all():
        raise ValueError(f"{name} must be finite, got {float(array[~finite].flat[0])!r}")
    return plain(array)


def finite_scalar(value, name: str) -> float:
    """finite_real for a single number: an array is refused, naming `name`."""
    number = finite_real(value, name)
    if not isinstance(number, float):
        raise ValueError(f"{name} must be a scalar, got an array of shape {number.shape}")
    return number


def _positive(number, name: str):
    """A finite_real result if its every element is > 0, else ValueError naming `name`."""
    # a float compares directly: np.all costs microseconds per call
    if not (number > 0.0 if isinstance(number, float) else (number > 0.0).all()):
        raise ValueError(f"{name} must be finite and positive, got {float(np.min(number))!r}")
    return number


def positive_real(value, name: str):
    """finite_real, strictly positive: the one validator for eta (arrays
    elementwise) and the physical parameters."""
    return _positive(finite_real(value, name), name)


def positive_scalar(value, name: str) -> float:
    """positive_real for a single number."""
    return _positive(finite_scalar(value, name), name)


def whole_number(value, name: str, minimum: int) -> int:
    """finite_scalar with a whole value >= minimum, as an int, else ValueError naming `name`."""
    number = finite_scalar(value, name)
    if not number.is_integer() or number < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(number)


@dataclass(frozen=True)
class WellParameters:
    """Physical inputs: mass, oscillation frequency about a minimum,
    half-separation of the minima, and hbar.

    All fields, and the eta, hbar w and oscillator length they imply, must be
    finite, strictly positive float64 scalars (see positive_scalar).  Validation
    happens once, here; downstream code assumes a valid instance.
    """

    mass: float = 1.0
    angular_frequency: float = 1.0
    half_separation: float = 1.0
    hbar: float = 1.0

    def __post_init__(self) -> None:
        for name in ("mass", "angular_frequency", "half_separation", "hbar"):
            object.__setattr__(self, name, positive_scalar(getattr(self, name), name))
        try:
            # once eta is computed, m w > 0, so the other two cannot raise
            implied = [eta(self), self.hbar * self.angular_frequency, self.oscillator_length]
        except (OverflowError, ZeroDivisionError):
            implied = [math.nan]
        names = ("eta = sqrt(hbar / (m w a^2))", "hbar w", "the oscillator length sqrt(hbar / (m w))")
        for quantity, value in zip(names, implied):
            if not 0.0 < value < math.inf:
                raise ValueError(f"{quantity} over- or underflows float64 for {self!r}")

    @property
    def oscillator_length(self) -> float:
        """sqrt(hbar / (m w)), the length scale of the per-well ground state."""
        return math.sqrt(self.hbar / (self.mass * self.angular_frequency))


def eta(p: WellParameters) -> float:
    """Dimensionless coupling sqrt(hbar / (m w a^2)).

    Small eta means widely separated wells (tall barrier in units of hbar*w).
    """
    return math.sqrt(p.hbar / (p.mass * p.angular_frequency * p.half_separation**2))


#: sqrt(max float64) and its reciprocal: the largest and smallest eta whose
#: natural-units well has a finite 1/a^2 and a^2 (both exact to the ulp)
_ETA_CEILING = math.sqrt(sys.float_info.max)
_ETA_FLOOR = 1.0 / _ETA_CEILING


def from_eta(value: float) -> WellParameters:
    """Natural-units parameters (m = w = hbar = 1) with the requested eta.

    In natural units eta = 1/a, so only the half-separation is nontrivial.
    """
    value = positive_scalar(value, "eta")
    if not _ETA_FLOOR <= value <= _ETA_CEILING:
        sign, bound, held = (">=", _ETA_FLOOR, "a^2") if value < _ETA_FLOOR else ("<=", _ETA_CEILING, "1/a^2")
        raise ValueError(
            f"eta must be {sign} {bound!r} for its natural-units well (a = 1/eta) "
            f"to hold {held} in float64, got {value!r}"
        )
    return WellParameters(half_separation=1.0 / value)


def potential(p: WellParameters, x):
    """V(x) = (m w^2 / (8 a^2)) (x - a)^2 (x + a)^2.

    Total function of real x; accepts scalars or numpy arrays and returns
    the matching kind.  Nonnegative everywhere, zero exactly at +-a.
    """
    a = p.half_separation
    prefactor = p.mass * p.angular_frequency**2 / (8.0 * a * a)
    xx = np.asarray(x, dtype=float)
    return plain(prefactor * (xx - a) ** 2 * (xx + a) ** 2)

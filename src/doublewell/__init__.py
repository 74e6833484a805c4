"""Tunneling energy splitting of a symmetric quartic double well.

The ground doublet of V(x) = (m w^2 / (8 a^2)) (x - a)^2 (x + a)^2 is split
by barrier tunneling.  This package computes that splitting three ways —
the WKB formula with the action/period integrals in closed form, the
small-eta asymptotic formula with its anharmonicity correction factor
delta(eta), and the instanton formula — and cross-checks them with an
independent perturbation-theory engine and a finite-difference eigensolver.
Everything dimensionless depends only on eta = sqrt(hbar / (m w a^2)).
"""

from . import model, perturbation, semiclassics, spectral
from .model import *  # noqa: F403
from .perturbation import *  # noqa: F403
from .semiclassics import *  # noqa: F403
from .spectral import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    *model.__all__,
    *perturbation.__all__,
    *semiclassics.__all__,
    *spectral.__all__,
    "__version__",
]

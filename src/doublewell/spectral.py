"""Finite-difference eigensolver for the double well.

An oracle with an independent failure profile from the semiclassical
formulas: central differences plus a symmetric tridiagonal eigensolver,
with Richardson extrapolation over a grid pair and an error estimate that
includes the arithmetic noise floor.  That floor is what bounds the
resolvable doublets: splittings below roughly 100 eps of the ground energy
cannot be certified in 64-bit arithmetic, no matter the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .model import WellParameters, eta as eta_of, positive_scalar, potential
from .perturbation import perturbed_level
from .semiclassics import _check_validity, turning_points

__all__ = [
    "GridSpec",
    "SpectrumResult",
    "ResolutionError",
    "solve_spectrum",
    "exact_splitting",
    "doublet_parities",
]

_EPS = float(np.finfo(float).eps)
# Fraction of the matrix-scale rounding bound eps * ||H|| that shows up as
# actual eigenvalue noise; calibrated against grid-to-grid scatter of
# degenerate doublets.  Deliberately on the safe side.
_NOISE_FRACTION = 0.25


class ResolutionError(RuntimeError):
    """The requested splitting is smaller than the solver can certify."""


def _whole(value, name: str, minimum: int) -> int:
    """`value` as an int if it is a number (see positive_scalar) with a whole
    value >= minimum, else ValueError naming `name`."""
    number = positive_scalar(value, name)
    if not number.is_integer() or number < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(number)


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid on [-half_width, +half_width] with `points` nodes.

    An odd point count keeps a node at the origin so parity is exact on the
    grid.  The solver additionally checks that the box encloses the outer
    turning point with room for the eigenfunctions to decay.
    """

    half_width: float
    points: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "half_width", positive_scalar(self.half_width, "half_width"))
        object.__setattr__(self, "points", _whole(self.points, "points", 201))

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_width / (self.points - 1)


@dataclass(frozen=True)
class SpectrumResult:
    """Richardson-extrapolated lowest eigenvalues from a grid pair.

    `splitting_estimate` is built from the coarse/fine difference of the
    splitting itself (level errors are strongly correlated and cancel in
    E1 - E0, so per-level estimates would be far too pessimistic) plus the
    arithmetic floor.
    """

    eigenvalues: tuple[float, ...]
    eigenvalue_estimates: tuple[float, ...]
    splitting: float
    splitting_estimate: float
    grid: GridSpec

    def __post_init__(self) -> None:
        # Strict ordering is only meaningful beyond the error bars: a
        # degenerate doublet can come back inverted by a few ulps, and it is
        # the resolution guard's job to refuse those, not the constructor's.
        triples = zip(self.eigenvalues, self.eigenvalues[1:], self.eigenvalue_estimates, self.eigenvalue_estimates[1:])
        if any(b < a - (ea + eb) for a, b, ea, eb in triples):
            raise ValueError("eigenvalues out of order beyond their error estimates")


def _solve_grid(
    p: WellParameters,
    half_width: float,
    n: int,
    k: int,
    potential_fn: Callable[[np.ndarray], np.ndarray] | None,
    vectors: bool = False,
):
    x = np.linspace(-half_width, half_width, n)
    h = x[1] - x[0]
    v = potential(p, x) if potential_fn is None else np.asarray(potential_fn(x), dtype=float)
    kinetic = p.hbar * p.hbar / (p.mass * h * h)
    diag = kinetic + v
    offdiag = np.full(n - 1, -0.5 * kinetic)
    if vectors:
        return eigh_tridiagonal(diag, offdiag, select="i", select_range=(0, k - 1))
    w = eigh_tridiagonal(diag, offdiag, select="i", select_range=(0, k - 1), eigvals_only=True)
    # eps * ||H|| bounds the backward error of the eigensolve; _NOISE_FRACTION
    # of it is the observed forward noise on closely spaced eigenvalues
    floor = _NOISE_FRACTION * _EPS * (2.0 * kinetic + float(np.max(v)))
    return w, floor


def _outer_turning_point(p: WellParameters) -> float:
    """Outer turning point gamma of the standard level, behind the one validity
    guard: at or beyond the boundary there is no below-barrier doublet to box."""
    _check_validity(eta_of(p))
    return turning_points(p, perturbed_level(p)).gamma


def _check_box(p: WellParameters, g: GridSpec, potential_fn) -> None:
    if potential_fn is not None:
        return
    margin = _outer_turning_point(p) + 5.0 * p.oscillator_length
    if g.half_width <= margin:
        raise ValueError(
            f"half_width {g.half_width!r} too small: need > outer turning point "
            f"+ 5 oscillator lengths = {margin:.6g} for the doublet to decay"
        )


def solve_spectrum(
    p: WellParameters,
    grid: GridSpec,
    k: int = 4,
    potential_fn: Callable[[np.ndarray], np.ndarray] | None = None,
) -> SpectrumResult:
    """Lowest k levels of -hbar^2/(2m) psi'' + V psi = E psi with Dirichlet walls.

    Solves on `grid` and on its once-refined companion (2N-1 points, same
    endpoints), Richardson-extrapolates the second-order scheme, and
    reports per-level and splitting error estimates.  `potential_fn`
    replaces the double well (for oracle self-tests against exactly
    solvable potentials); the validity guard and the turning-point margin
    check apply only to the double well itself.
    """
    k = _whole(k, "k", 2)
    _check_box(p, grid, potential_fn)
    coarse, _ = _solve_grid(p, grid.half_width, grid.points, k, potential_fn)
    fine, floor = _solve_grid(p, grid.half_width, 2 * grid.points - 1, k, potential_fn)
    extrapolated = fine + (fine - coarse) / 3.0
    level_estimates = np.abs(fine - coarse) / 3.0 + floor
    d_coarse = coarse[1] - coarse[0]
    d_fine = fine[1] - fine[0]
    return SpectrumResult(
        eigenvalues=tuple(float(e) for e in extrapolated),
        eigenvalue_estimates=tuple(float(e) for e in level_estimates),
        splitting=float(d_fine + (d_fine - d_coarse) / 3.0),
        splitting_estimate=float(abs(d_fine - d_coarse) / 3.0 + floor),
        grid=grid,
    )


def default_grid(p: WellParameters) -> GridSpec:
    """Grid used by exact_splitting: box ending 6 oscillator lengths past the
    outer turning point, spacing about 0.06 oscillator lengths (0.03 on the
    refined companion).

    Finer is not better here: the doublet error is discretization + noise,
    and the noise term grows as 1/h^2, so a moderately coarse grid minimizes
    the total.  The box clears _check_box's margin by one oscillator length.
    """
    s = p.oscillator_length
    half_width = _outer_turning_point(p) + 6.0 * s
    n = int(math.ceil(2.0 * half_width / (0.06 * s))) + 1
    if n % 2 == 0:
        n += 1
    return GridSpec(half_width=half_width, points=max(n, 201))


def exact_splitting(p: WellParameters) -> tuple[float, float]:
    """Ground-doublet splitting E1 - E0 with its error estimate.

    Refuses (ResolutionError) unless the splitting exceeds 10x the estimate;
    in 64-bit arithmetic that limits the double well to eta of roughly 0.15
    and above, where the splitting is ~1e-12 of the ground energy or larger.
    """
    result = solve_spectrum(p, default_grid(p), k=2)
    if not result.splitting > 10.0 * result.splitting_estimate:
        raise ResolutionError(
            "splitting below numerical resolution: "
            f"dE={result.splitting:.6e}, estimate={result.splitting_estimate:.6e} "
            f"(need dE > 10x estimate)"
        )
    return result.splitting, result.splitting_estimate


def doublet_parities(p: WellParameters, grid: GridSpec | None = None, k: int = 4) -> tuple[float, ...]:
    """Overlap of each of the lowest k eigenvectors with its mirror image:
    +1 for even states, -1 for odd ones (exact alternation for a symmetric
    well on a symmetric grid)."""
    k = _whole(k, "k", 2)
    if grid is None:
        grid = default_grid(p)
    else:
        _check_box(p, grid, None)
    _, vec = _solve_grid(p, grid.half_width, grid.points, k, None, vectors=True)
    return tuple(float(np.dot(vec[::-1, i], vec[:, i])) for i in range(vec.shape[1]))

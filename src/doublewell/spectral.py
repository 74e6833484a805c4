"""Finite-difference eigensolver for the double well.

An oracle for the semiclassical formulas: central differences plus a
symmetric tridiagonal eigensolver, with Richardson extrapolation over a grid
pair and an error estimate that includes the arithmetic noise floor.  That
floor is what bounds the resolvable doublets: splittings below roughly 100 eps
of the ground energy cannot be certified in 64-bit arithmetic, no matter the
grid.  The box is sized in closed form from the well itself, so no route
it checks enters it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .model import WellParameters, eta, positive_scalar, potential, whole_number
from .perturbation import epsilon_closed_form

__all__ = [
    "GridSpec",
    "SpectrumResult",
    "ResolutionError",
    "solve_spectrum",
    "exact_splitting",
]

# Fraction of the matrix-scale rounding bound _ULP * ||H|| taken as the noise
# on E1 - E0, calibrated against grid-to-grid scatter of degenerate doublets.
# Against the exact eigenvalues of the same float64 matrix (40-digit Sturm
# bisection), eigh_tridiagonal's E1 - E0 at eta = 0.2 is off by 0.21 floors on
# the default coarse grid and 0.68 on the fine one.
_NOISE_FRACTION = 0.25
# Most points default_grid may ask for on its coarse grid (the fine one has
# twice as many).  A solve costs about 9 us per coarse point: 0.29 s and a
# 32.0 MB peak RSS at 33,569 points (eta = 0.001), 0.96 s and 39.7 MB at
# 111,347 (eta = 0.0003); Python 3.11.7, numpy 2.4.6, 2-vCPU Xeon VM.  The
# budget keeps a solve under about 0.45 s and admits eta >= about 0.00067,
# far below the eta ~ 0.15 where doublets stop being resolvable in float64.
_MAX_POINTS = 50_001


class ResolutionError(RuntimeError):
    """The requested splitting is smaller than the solver can certify."""


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid on [-half_width, +half_width] with `points` nodes.

    The grid is symmetric, so parity is exact on it at any count, even counts
    included; default_grid makes the count odd, which puts a node at the
    origin.  The solver additionally checks that the box encloses the outer
    turning point with room for the eigenfunctions to decay.
    """

    half_width: float
    points: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "half_width", positive_scalar(self.half_width, "half_width"))
        object.__setattr__(self, "points", whole_number(self.points, "points", 201))


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

    def __post_init__(self) -> None:
        # Strict ordering is only meaningful beyond the error bars: a
        # degenerate doublet can come back inverted by a few ulps, and it is
        # the resolution guard's job to refuse those, not the constructor's.
        triples = zip(self.eigenvalues, self.eigenvalues[1:], self.eigenvalue_estimates, self.eigenvalue_estimates[1:])
        if any(b < a - (ea + eb) for a, b, ea, eb in triples):
            raise ValueError("eigenvalues out of order beyond their error estimates")


# the unit in the last place, and the smallest normal float (it scales pivmin)
_ULP = 2.0**-52
_TINY = 2.0**-1022


def eigh_tridiagonal(diag: np.ndarray, off: float, k: int) -> np.ndarray:
    """The k lowest eigenvalues, ascending, of the symmetric tridiagonal matrix
    with diagonal `diag` and every off-diagonal entry equal to `off`.

    Sturm-count bisection (Barth, Martin & Wilkinson, Numer. Math. 9, 386,
    1967) of each eigenvalue on its own, from the padded Gershgorin interval
    until its bracket is narrower than ULP * ||T|| / 16 or 2 ulps of its ends.
    LAPACK's dstebz stops at ULP * ||T||, which left E1 - E0 of a doublet up
    to 2.2 noise floors off.  Counts are cached for the call, as eigenvalues
    share their first halves.  Refuses only k outside 1..n-1, an off-diagonal
    squaring to no normal, finite float, or a non-finite padded Gershgorin interval.
    """
    diag = np.asarray(diag, dtype=float)
    d = diag.tolist()
    n = len(d)
    if not 1 <= k < n:
        raise ValueError(f"k must be at least 1 and below the matrix size {n}, got {k}")
    e = abs(float(off))
    e2 = e * e
    pivmin = max(1.0, e2) * _TINY
    # np.min and np.max return a NaN wherever it sits (min and max skip all but a first one)
    gl, gu = float(np.min(diag)) - 2.0 * e, float(np.max(diag)) + 2.0 * e
    tnorm = max(abs(gl), abs(gu))
    pad = 2.0 * n * _ULP * tnorm + pivmin
    bracket = (gl - pad, gu + pad)
    if not (_TINY <= e2 < math.inf and all(map(math.isfinite, bracket))):
        raise ValueError(
            f"matrix outside the float64 range: the off-diagonal {float(off)!r} must square to a normal float "
            f"(>= {_TINY!r}, finite) and the padded Gershgorin interval must be finite"
        )
    atol = max(_ULP * tnorm / 16.0, pivmin)

    @functools.cache
    def count(c: float) -> int:
        """Eigenvalues below c: the negative pivots of LDL^T of T - c."""
        # e2 / inf = 0, so the first pivot is d_0 - c
        t, m = math.inf, 0
        for dj in d:
            t = dj - e2 / t - c
            if t <= pivmin:
                m += 1
                t = min(t, -pivmin)
        return m

    def value(i: int) -> float:
        lo, hi = bracket
        # each end is halved first, so the midpoint stays finite; once lo and hi
        # are adjacent floats the width, one ulp, is below 2 ulps of the larger
        # end (normal values) or pivmin >= 2**-1022 (subnormal ones): the loop ends
        while hi - lo >= max(atol, 2.0 * _ULP * max(abs(lo), abs(hi))):
            c = 0.5 * lo + 0.5 * hi
            lo, hi = (lo, c) if count(c) > i else (c, hi)
        return 0.5 * lo + 0.5 * hi

    return np.array([value(i) for i in range(k)])


def _matrix(p: WellParameters, half_width: float, n: int) -> tuple[np.ndarray, float, float]:
    """Diagonal and constant off-diagonal of the central-difference Hamiltonian
    of a natural-units well (hbar = m = w = 1), and the bound 2/h^2 + max V on
    its norm.  Refuses a grid on which V overflows float64 or the off-diagonal
    is lost in the rounding of the diagonal: no eigensolve of that matrix
    resolves a level."""
    x = np.linspace(-half_width, half_width, n)
    h = x[1] - x[0]
    with np.errstate(over="ignore"):
        v = potential(p, x)
    kinetic = 1.0 / (h * h)
    v_max = float(np.max(v))
    norm = 2.0 * kinetic + v_max
    if not 0.5 * kinetic > _ULP * norm:
        raise ValueError(
            f"eta={eta(p)!r}: V reaches {v_max:.3g} on the box of half-width {half_width:.6g}, "
            f"and the off-diagonal {0.5 * kinetic:.3g} is below its float64 rounding"
        )
    return kinetic + v, float(-0.5 * kinetic), norm


def _outer_turning_point(p: WellParameters) -> float:
    """gamma = a sqrt(1 + 2 eta sqrt(1 + max(eps, 0))), the outer turning point of the
    higher of the paper's level (hbar w/2)(1 + eps) and hbar w/2; defined at every eta."""
    et = eta(p)
    return p.half_separation * math.sqrt(1.0 + 2.0 * et * math.sqrt(1.0 + max(epsilon_closed_form(et), 0.0)))


def solve_spectrum(p: WellParameters, grid: GridSpec | None = None, k: int = 4) -> SpectrumResult:
    """Lowest k levels of -hbar^2/(2m) psi'' + V psi = E psi with Dirichlet walls.

    Solves the well in natural units, so every result over hbar w depends on
    eta alone, on `grid` (default_grid(p) if None) and on its once-refined
    companion (2N-1 points, same endpoints), Richardson-extrapolates the
    second-order scheme, and reports per-level and splitting error estimates.
    A given grid must clear the outer turning point of _outer_turning_point by
    5 oscillator lengths, which default_grid does by construction.
    """
    k = whole_number(k, "k", 2)
    s = p.oscillator_length
    if grid is None:
        grid = default_grid(p)
    else:
        margin = _outer_turning_point(p) + 5.0 * s
        if grid.half_width <= margin:
            raise ValueError(
                f"half_width {grid.half_width!r} too small: need > outer turning point "
                f"+ 5 oscillator lengths = {margin:.6g} for the doublet to decay"
            )
    natural = WellParameters(half_separation=p.half_separation / s)
    levels = []
    for n in (grid.points, 2 * grid.points - 1):
        diag, off, norm = _matrix(natural, grid.half_width / s, n)
        levels.append(eigh_tridiagonal(diag, off, k))
    coarse, fine = levels
    # _ULP * ||H|| on the fine grid bounds the backward error of the eigensolve;
    # _NOISE_FRACTION of it is taken as the forward noise on close eigenvalues
    floor = _NOISE_FRACTION * _ULP * norm
    extrapolated = fine + (fine - coarse) / 3.0
    level_estimates = np.abs(fine - coarse) / 3.0 + floor
    d_coarse = coarse[1] - coarse[0]
    d_fine = fine[1] - fine[0]
    hw = p.hbar * p.angular_frequency
    return SpectrumResult(
        eigenvalues=tuple(float(e) * hw for e in extrapolated),
        eigenvalue_estimates=tuple(float(e) * hw for e in level_estimates),
        splitting=float(d_fine + (d_fine - d_coarse) / 3.0) * hw,
        splitting_estimate=float(abs(d_fine - d_coarse) / 3.0 + floor) * hw,
    )


def default_grid(p: WellParameters) -> GridSpec:
    """Grid used by exact_splitting: box ending 6 oscillator lengths past the
    outer turning point of _outer_turning_point, spacing about 0.06 oscillator
    lengths (0.03 on the refined companion).  A well that needs more than
    _MAX_POINTS points (eta below about 0.00067) is refused before anything
    is allocated.

    Finer is not better here: the doublet error is discretization + noise,
    and the noise term grows as 1/h^2, so a moderately coarse grid minimizes
    the total.  The box clears solve_spectrum's margin by one oscillator length.
    """
    s = p.oscillator_length
    half_width = _outer_turning_point(p) + 6.0 * s
    span = 2.0 * half_width / (0.06 * s)
    # compared as a float, before any int is made (eta = 1e-100 needs 3e101
    # points); n below is odd, within the odd budget and, as span >= 200, >= 201
    if not span <= _MAX_POINTS - 1:
        raise ValueError(
            f"eta={eta(p)!r} needs a grid of {span + 1.0:.4g} points, beyond the "
            f"budget of {_MAX_POINTS}; its doublet is far below float64 resolution"
        )
    n = int(math.ceil(span)) + 1
    if n % 2 == 0:
        n += 1
    return GridSpec(half_width=half_width, points=n)


def exact_splitting(p: WellParameters) -> tuple[float, float]:
    """Ground-doublet splitting E1 - E0 with its error estimate.

    Refuses (ResolutionError) unless the splitting exceeds 10x the estimate;
    in 64-bit arithmetic that limits the double well to eta of roughly 0.15
    and above, where the splitting is ~1e-12 of the ground energy or larger.
    """
    result = solve_spectrum(p, k=2)
    if not result.splitting > 10.0 * result.splitting_estimate:
        raise ResolutionError(
            "splitting below numerical resolution: "
            f"dE={result.splitting:.6e}, estimate={result.splitting_estimate:.6e} "
            f"(need dE > 10x estimate)"
        )
    return result.splitting, result.splitting_estimate

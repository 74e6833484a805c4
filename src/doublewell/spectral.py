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
# It is not a bound: against the exact eigenvalues of the same float64 matrix
# (40-digit Sturm bisection), E1 - E0 at eta = 0.2 is off by 2.2 floors on the
# default coarse grid and 1.14 on the fine one.  ROADMAP.md item 2 plans to
# derive the floor from dstebz's stopping rule instead.
_NOISE_FRACTION = 0.25
# Most points default_grid may ask for on its coarse grid (the fine one has
# twice as many).  A solve costs about 15 us per coarse point: 0.49 s and a
# 32.8 MB peak RSS at 33,569 points (eta = 0.001), 1.7 s and 43.2 MB at
# 111,347 (eta = 0.0003); Python 3.11.7, numpy 2.4.6, 2-vCPU Xeon VM.  The
# budget keeps a solve under about 0.75 s and admits eta >= about 0.00067,
# far below the eta ~ 0.15 where doublets stop being resolvable in float64.
_MAX_POINTS = 50_001


class ResolutionError(RuntimeError):
    """The requested splitting is smaller than the solver can certify."""


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


# dstebz's constants: the unit in the last place (LAPACK's DLAMCH('P')), its
# relative stopping tolerance RELFAC * ULP, the Gershgorin widening factor,
# and the smallest normal float (DLAMCH('S')) that scales the pivot floor
_ULP = 2.0**-52
_RTOLI = 2.0 * _ULP
_FUDGE = 2.1
_TINY = 2.0**-1022


def eigh_tridiagonal(diag: np.ndarray, off: float, k: int) -> np.ndarray:
    """The k lowest eigenvalues, ascending, of the symmetric tridiagonal matrix
    with diagonal `diag` and every off-diagonal entry equal to `off`; k must be
    below the matrix size.

    A port of LAPACK dstebz (RANGE='I', IL=1, IU=k, ABSTOL=0), the routine
    behind scipy.linalg.eigh_tridiagonal(select="i", eigvals_only=True):
    Sturm-count bisection (Barth, Martin & Wilkinson, Numer. Math. 9, 386,
    1967) with dstebz's constants and order of operations, so the values are
    bit-identical to scipy's.  Each is within about ULP * ||T|| of an
    eigenvalue of the matrix as stored.  dstebz's first count at each end of
    the refinement interval replaces pivots with |t| < pivmin where its loop
    tests t <= pivmin; the rules differ only at t == pivmin exactly, and the
    port uses the loop's rule throughout.

    dstebz steps that cannot change a value are skipped.  No eigenvalue lies
    below the widened Gershgorin end gl, so N(gl) = 0 ends dstebz's search for
    eigenvalue 1's lower end where it starts and zeroes its count at gl.  With
    off^2 normal (checked below), sqrt(off^2) == |off|, so dstebz's second
    Gershgorin pass only raises gl by FUDGE * pivmin, and its clamps to the
    searched interval keep that gl and the search's upper end.

    Job 2 follows each eigenvalue along its own halves of [gl, wu] instead of
    dlaebz's interval list.  After j steps it holds the list's interval that
    holds that eigenvalue after j sweeps, and a count depends only on its
    shift, so the values are the same floats.  Counts are cached for the call:
    a half shared by several eigenvalues is counted once, as the list counts
    each of its intervals, all of which hold an eigenvalue, once per sweep.
    """
    d = np.asarray(diag, dtype=float).tolist()
    n = len(d)
    if not 1 <= k < n:
        raise ValueError(f"k must be at least 1 and below the matrix size {n}, got {k}")
    e = abs(float(off))
    e2 = e * e
    if not (_TINY <= e2 < math.inf and all(math.isfinite(a * b) for a, b in zip(d, d[1:]))):
        raise ValueError(
            f"matrix outside the float64 range: the off-diagonal {float(off)!r} must square to a normal "
            f"float (>= {_TINY!r}, finite) and neighbouring diagonal products must be finite"
        )
    if any(abs(a * b) * _ULP**2 + _TINY > e2 for a, b in zip(d, d[1:])):
        raise ValueError("off-diagonal negligible against the diagonal: the matrix splits into blocks")
    pivmin = max(1.0, e2) * _TINY

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

    def converged(lo: float, hi: float, below: int, above: int, atol: float) -> bool:
        return below >= above or abs(hi - lo) < max(atol, pivmin, _RTOLI * max(abs(hi), abs(lo)))

    def iterations(width: float) -> int:
        return int((math.log(width + pivmin) - math.log(pivmin)) / math.log(2.0)) + 2

    # the Gershgorin interval, widened as dstebz widens it: dstebz takes
    # (d_j + e) + e on inner rows and d_j + e on the two end rows; rounding is
    # monotone, so the extremes of d give the same floats as its loop
    inner = d[1:-1]
    gu = max(max(d[0], d[-1]) + e, max(inner, default=-math.inf) + e + e)
    gl = min(min(d[0], d[-1]) - e, min(inner, default=math.inf) - e - e)
    tnorm = max(abs(gl), abs(gu))
    pad = _FUDGE * tnorm * _ULP * n
    gu = gu + pad + _FUDGE * pivmin
    # dlaebz job 3: from gu, shrink [wul, wu] about a point with N = k
    wul, wu, c = gl - pad - 2.0 * _FUDGE * pivmin, gu, gu
    below, above = -1, n + 1
    for _ in range(iterations(tnorm)):
        m = count(c)
        if m <= k:
            wul, below = c, m
        if m >= k:
            wu, above = c, m
        if converged(wul, wu, below, above, _ULP * tnorm):
            break
        c = 0.5 * (wul + wu)
    gl = gl - pad - _FUDGE * pivmin
    atol = _ULP * max(abs(gl), abs(gu))
    # dlaebz job 1 counts the ends: N(gl) = 0, and N(wu) is job 3's last count
    # at wu; job 2 bisects [gl, wu] once per eigenvalue
    top = above
    shared = functools.cache(count)

    def value(i: int) -> float:
        lo, hi, below, above = gl, wu, 0, top
        for _ in range(iterations(wu - gl)):
            c = 0.5 * (lo + hi)
            m = min(above, max(below, shared(c)))
            lo, hi, below, above = (lo, c, below, m) if i < m else (c, hi, m, above)
            if converged(lo, hi, below, above, atol):
                return 0.5 * (lo + hi)
        raise np.linalg.LinAlgError("eigh_tridiagonal: bisection did not converge")

    w = [value(i) for i in range(top)]
    if top > k:
        # [wul, wu] held eigenvalues beyond the k-th; dstebz drops the surplus
        # from the first values at or above wul, and what is left of it from the top
        start = next((i for i, x in enumerate(w) if x >= wul), len(w))
        w = (w[:start] + w[start + top - k:])[:k]
    return np.array(w)


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

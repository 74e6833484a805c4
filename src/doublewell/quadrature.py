"""Gauss-Legendre quadrature with node doubling and a nested error estimate.

Intended for integrands that are smooth after a suitable change of variable;
for such integrands the rule converges geometrically, so the difference of
two consecutive rules is a reliable (conservative) error estimate.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = ["QuadratureError", "integrate"]


class QuadratureError(RuntimeError):
    """Node budget exhausted before two consecutive rules agreed.

    `estimate` carries the last relative difference so callers can decide
    whether the partially converged value is still useful.
    """

    def __init__(self, message: str, estimate: float):
        super().__init__(message)
        self.estimate = estimate


_NODE_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    if n not in _NODE_CACHE:
        _NODE_CACHE[n] = np.polynomial.legendre.leggauss(n)
    return _NODE_CACHE[n]


def integrate(
    f: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    tol: float = 1e-10,
    start: int = 16,
    budget: int = 4096,
) -> tuple[float, float] | tuple[np.ndarray, np.ndarray]:
    """Integrate vectorized f over [lo, hi] to relative tolerance tol.

    Doubles the node count until two consecutive rules agree to tol in
    relative terms, then returns (value, achieved relative estimate).
    Raises QuadratureError with the last estimate if `budget` nodes are
    reached without convergence.

    f may also map the node vector to a (rows, n) array, one integrand per
    row; the result is then a pair of per-row arrays.  Each row keeps the
    first rule pair that meets tol, so its result does not depend on the
    other rows, and the error carries the worst unconverged row's estimate.
    """
    if not (0.0 < tol < 1.0):
        raise ValueError(f"tol must be in (0, 1), got {tol!r}")
    if budget < 2 * start:
        raise ValueError("budget must allow at least one doubling")
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    previous = None
    n = start
    while n <= budget:
        x, w = _nodes(n)
        # the same pairwise sum for 1-D and 2-D, so a row is bit-identical
        # to the 1-D call on that row (a matrix-vector product is not)
        current = half * (f(mid + half * x) * w).sum(axis=-1)
        if previous is None:
            value = current
            estimate = np.full(np.shape(current), np.inf)
            converged = np.zeros(np.shape(current), dtype=bool)
        else:
            change = np.abs(current - previous) / np.maximum(np.abs(current), np.finfo(float).tiny)
            value = np.where(converged, value, current)
            estimate = np.where(converged, estimate, change)
            converged = converged | (change <= tol)
            if converged.all():
                if value.ndim == 0:
                    return float(value), float(estimate)
                return value, estimate
        previous = current
        n *= 2
    worst = float(np.max(estimate[~converged]))
    raise QuadratureError(
        f"quadrature stalled at relative estimate {worst:.3e} with {budget} nodes (tol {tol:.1e})",
        estimate=worst,
    )

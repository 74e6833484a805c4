"""Command-line front end.

Subcommands: `table1` (print and verify the built-in reference table of
corrected-ratio values), `sweep` (emit the ratio curves as CSV), `splitting`
(one splitting by one method), `validate` (cross-module invariant suite).

Exit codes: 0 success, 1 validation mismatch, 2 usage, domain or allocation
error, 3 numerical failure (the eigensolver refuses a doublet below resolution).
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
import time
from pathlib import Path
from typing import Iterator, NamedTuple

import numpy as np

from . import semiclassics, spectral
from .model import WellParameters, eta as eta_of, from_eta, positive_scalar, potential, whole_number
from .perturbation import (
    AnharmonicExpansion,
    epsilon_closed_form,
    epsilon_series_coefficients,
    rs_engine,
    validity_boundary,
)
from .spectral import ResolutionError

__all__ = ["main", "run", "CSV_HEADER", "REFERENCE_RATIOS"]

CSV_HEADER = (
    "eta,epsilon,alpha,gamma,S,omegaT,ln_dE_wkb,ln_dE_asym,"
    "ln_dE_instanton,delta,ratio_corrected,ratio_uncorrected"
)
_COLUMNS = CSV_HEADER.split(",")
#: rows per `csv_rows` block of `sweep`, which bounds the writer's temporaries.
#: The kernel runs once over the whole grid, so its temporaries grow with
#: --steps, beside the table's 96 B/row.  A warm 10^4-row sweep ran about 5%
#: slower in 1024- and in 4096-row blocks (with glibc's malloc thresholds
#: raised, so that no block faults in fresh pages); at 4096 rows the writer's
#: temporaries outgrow a core's 2 MB L2.  Peak RSS (VmHWM) of a process that
#: loads only doublewell.cli and numpy, runs a 100-row warm-up sweep and then
#: one log-spaced sweep, against 1024-row kernel and writer blocks: 34.5 -> 36.6
#: MB at 10^4 rows, 43.8 -> 57.8 MB (about 140 B/row more) at 10^5 rows; medians
#: of 5, Python 3.11.7, numpy 2.4.6, 2-vCPU Xeon VM
_BLOCK_ROWS = 2048

#: Reference values of the corrected ratio sqrt(e/pi)*delta(eta), printed to
#: five decimal places; `table1` recomputes and verifies every row.
REFERENCE_RATIOS: tuple[tuple[float, float], ...] = (
    (0.1, 0.98104),
    (0.121, 0.99870),
    (0.122513, 1.00000),
    (0.123, 1.00042),
    (0.125, 1.00214),
    (0.127, 1.00386),
    (0.13, 1.00644),
    (0.15, 1.02349),
)


def _sweep_grid(args: argparse.Namespace) -> np.ndarray:
    """The ascending eta grid of a sweep request, after checking its options.

    The validity boundary is checked here, before the kernel runs, so that the
    refusal names the requested range rather than one eta of the grid.
    """
    eta_min, eta_max = (positive_scalar(getattr(args, name), name) for name in ("eta_min", "eta_max"))
    steps = whole_number(args.steps, "steps", 2)
    boundary = validity_boundary()
    if not eta_min < eta_max < boundary:
        raise ValueError(
            f"need 0 < eta_min < eta_max < {boundary:.6f} (validity boundary), "
            f"got eta_min={eta_min!r}, eta_max={eta_max!r}"
        )
    return (np.linspace if args.spacing == "linear" else np.geomspace)(eta_min, eta_max, steps)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="doublewell",
        description="Tunneling splitting of the symmetric quartic double well, three ways.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    t1 = sub.add_parser("table1", help="print and verify the corrected-ratio reference table")
    t1.set_defaults(func=cmd_table1)

    sw = sub.add_parser("sweep", help="write ratio curves over an eta grid as CSV")
    sw.add_argument("--eta-min", dest="eta_min", type=float, default=0.02)
    sw.add_argument("--eta-max", dest="eta_max", type=float, default=0.15)
    sw.add_argument("--steps", type=int, default=100)
    sw.add_argument("--spacing", choices=("linear", "log"), default="linear")
    sw.add_argument("--out", type=Path, required=True, help="output CSV path")
    sw.add_argument("--jobs", type=int, default=1, help="accepted for compatibility; evaluation is sequential")
    sw.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("splitting", help="one splitting at one parameter point")
    sp.add_argument("--eta", type=float, default=None, help="natural-units eta (excludes physical flags)")
    sp.add_argument(
        "--method",
        required=True,
        choices=("wkb-exact", "asymptotic", "instanton", "spectral"),
    )
    # each physical flag's dest is its WellParameters field: an unset flag takes that field's default
    sp.add_argument("--m", dest="mass", metavar="M", type=float, help="mass")
    sp.add_argument("--omega", dest="angular_frequency", metavar="OMEGA", type=float, help="angular frequency")
    sp.add_argument("--a", dest="half_separation", metavar="A", type=float, help="half-separation of the minima")
    sp.add_argument("--hbar", type=float)
    sp.set_defaults(func=cmd_splitting)

    va = sub.add_parser("validate", help="run the cross-module invariant suite")
    va.add_argument("--json", action="store_true", dest="as_json", help="machine-readable output")
    va.set_defaults(func=cmd_validate)
    return ap


#: `main`'s parser, built once per process: each build leaves some 200 objects
#: in reference cycles that only the cyclic garbage collector frees
_parser = functools.cache(build_parser)


def cmd_table1(args: argparse.Namespace) -> int:
    code = 0
    print(f"{'eta':>10}  {'ratio':>8}  {'reference':>9}  status")
    for et, reference in REFERENCE_RATIOS:
        ratio = semiclassics.ratio_wkb_instanton(et)
        ok = abs(ratio - reference) <= 1.0e-5
        print(f"{et:>10g}  {ratio:8.5f}  {reference:9.5f}  {'ok' if ok else 'MISMATCH'}")
        if not ok:
            print(f"mismatch at eta={et:g}: computed {ratio:.7f}, reference {reference:.5f}", file=sys.stderr)
            code = 1
    return code


def cmd_sweep(args: argparse.Namespace) -> int:
    grid = _sweep_grid(args)
    whole_number(args.jobs, "jobs", 1)
    # one kernel pass over the grid, checked whole before any file is opened
    table = semiclassics.splitting_table(grid)
    if not np.isfinite(table).all():
        raise ValueError(f"column {_COLUMNS[np.argwhere(~np.isfinite(table))[0][1]]} is not finite")
    from ._shortrepr import csv_rows

    # each float as repr writes it; ratio_uncorrected is sqrt(e/pi) on every
    # row, so it is rendered once
    line_end = repr(semiclassics.SQRT_E_OVER_PI) + "\n"
    with open(args.out, "wb") as fh:
        fh.write(CSV_HEADER.encode() + b"\n")
        for first in range(0, len(grid), _BLOCK_ROWS):
            fh.write(csv_rows(table[first : first + _BLOCK_ROWS, :-1], line_end))
    print(f"wrote {len(grid)} rows to {args.out}")
    return 0


def _well_from_args(args: argparse.Namespace) -> WellParameters:
    physical = {k: getattr(args, k) for k in ("mass", "angular_frequency", "half_separation", "hbar")}
    given = {k: v for k, v in physical.items() if v is not None}
    if args.eta is not None:
        if given:
            raise ValueError("give either --eta or physical parameters (--m/--omega/--a/--hbar), not both")
        return from_eta(args.eta)
    if "half_separation" not in given:
        raise ValueError("need --eta, or at least --a for physical parameters")
    return WellParameters(**given)


#: the SplittingReport field that holds each formula method's ln(dE / hbar w)
_LN_FIELDS = {"wkb-exact": "ln_de_wkb", "asymptotic": "ln_de_asym", "instanton": "ln_de_instanton"}


def cmd_splitting(args: argparse.Namespace) -> int:
    p = _well_from_args(args)
    # a well given by --eta is computed at that eta: eta(from_eta(x)) may be 1 ulp from x
    et = eta_of(p) if args.eta is None else args.eta
    hw = p.hbar * p.angular_frequency
    if args.method == "spectral":
        value, absolute = spectral.exact_splitting(p)
        ln_value, estimate = math.log(value / hw), absolute / value
    else:
        # every formula line is the sweep's row at et, under the sweep's guards
        row = semiclassics.SplittingReport(*semiclassics.splitting_table(et)[0].tolist())
        ln_value = getattr(row, _LN_FIELDS[args.method])
        estimate = semiclassics._wkb_estimate(row.action) if args.method == "wkb-exact" else 0.0
        value = hw * math.exp(ln_value)
    print(
        f"method={args.method} eta={et!r} dE={value!r} "
        f"ln_dE_over_hbar_omega={ln_value!r} rel_estimate={estimate!r}"
    )
    return 0


class _Check(NamedTuple):
    """One `validate` verdict: a pass exactly when value <= bound, so a NaN fails."""

    name: str
    value: float
    bound: float
    detail: str

    @property
    def status(self) -> str:
        return "pass" if self.value <= self.bound else "fail"


def _validation_checks() -> Iterator[_Check]:
    # samples are folded with np.max, which keeps a NaN that max() would drop, and a NaN fails
    # perturbation engine against the closed form
    etas = np.linspace(0.01, 0.2, 50).tolist()
    engine = [rs_engine(AnharmonicExpansion.standard(from_eta(e))) for e in etas]
    worst = float(np.max([abs(x - epsilon_closed_form(e)) for x, e in zip(engine, etas)]))
    yield _Check("engine-vs-closed-form", worst, 1e-12, f"max |engine - closed form| = {worst:.3e}")

    a2, a4 = epsilon_series_coefficients("standard")
    err = float(np.max([abs(a2 - 25.0 / 16.0), abs(a4 + 189.0 / 16.0)]))
    yield _Check("series-coefficients", err, 1e-12, f"(eta^2, eta^4) off by at most {err:.3e}")

    # turning points actually solve V(x) = E: alpha and gamma from one table,
    # V from the potential itself, at E = (1 + eps) / 2 in natural units
    residuals = []
    for et, eps, alpha, gamma in semiclassics.splitting_table(np.linspace(0.01, 0.3, 50))[:, :4].tolist():
        p, energy = from_eta(et), 0.5 * (1.0 + eps)
        residuals += [abs(potential(p, x) - energy) / energy for x in (alpha, gamma)]
    worst = float(np.max(residuals))
    yield _Check("turning-point-residuals", worst, 1e-10, f"max relative residual = {worst:.3e}")

    # the closed-form action and period integrals against their quadrature
    # reference, in units of the reference's estimate plus the rounding bound
    table = semiclassics.splitting_table(np.array([0.02, 0.08, 0.1, 0.12, 0.15, 0.3, 0.5]))
    alpha, gamma = table[:, 2], table[:, 3]
    s_ref, s_est, t_ref, t_est = semiclassics._quadrature_integrals(alpha, gamma)
    s_closed, t_closed = semiclassics._elliptic_integrals(alpha, gamma)
    s_miss, t_miss = (
        float(np.max(np.abs(closed - ref) / ((estimate + semiclassics._ROUNDING) * ref)))
        for closed, ref, estimate in ((s_closed, s_ref, s_est), (t_closed, t_ref, t_est))
    )
    detail = f"|closed form - quadrature| / bound: S {s_miss:.3e}, T {t_miss:.3e}"
    # and the reference itself must have converged: 16 -> 32-node change within 1e-10
    change, limit = float(np.max([s_est, t_est])), 1e-10
    if change > limit:
        detail += f"; reference 16->32-node change {change:.3e} > {limit:.0e}"
    yield _Check("quadrature-convergence", float(np.max([s_miss, t_miss, change / limit])), 1.0, detail)

    worst = float(np.max([abs(semiclassics.ratio_wkb_instanton(et) - ref) for et, ref in REFERENCE_RATIOS]))
    yield _Check("reference-table", worst, 1e-5, f"max |ratio - reference| = {worst:.3e}")

    # locate the ratio = 1 crossing by bisection, independent of the table; the
    # ratio rises through it, and a NaN sample moves the upper end
    lo, hi = 0.1, 0.15
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if semiclassics.ratio_wkb_instanton(mid) < 1.0 else (lo, mid)
    crossing = 0.5 * (lo + hi)
    yield _Check("crossing-location", abs(crossing - 0.122513), 5e-6, f"root at eta = {crossing:.7f}")

    # spectral oracle: 1/2 <= asymptotic/exact <= 2 at each eta; a doublet the
    # solver refuses fails, with the refusal's dE and estimate as its detail
    resolved: list[tuple[float, float]] = []
    for e in (0.16, 0.18, 0.2):
        p = from_eta(e)
        try:
            de, _ = spectral.exact_splitting(p)
        except ResolutionError as exc:
            yield _Check(f"spectral[eta={e:g}]", math.inf, 2.0, str(exc))
            continue
        ratio = semiclassics.splitting_asymptotic(p) / de
        resolved.append((1.0 / (e * e), math.log(de)))
        yield _Check(f"spectral[eta={e:g}]", max(ratio, 1.0 / ratio), 2.0, f"asymptotic/exact = {ratio:.4f}")
    # a NaN slope, from fewer than two resolved points, fails
    slope = float(np.polyfit(*np.array(resolved).T, 1)[0]) if len(resolved) > 1 else math.nan
    yield _Check("spectral-log-slope", abs(slope + 2.0 / 3.0), 0.15 * (2.0 / 3.0), f"slope = {slope:.4f} (target -2/3)")


def cmd_validate(args: argparse.Namespace) -> int:
    # each check with the wall time since the one before it, or since the start
    checks, seconds = [], []
    last = time.perf_counter()
    for check in _validation_checks():
        now = time.perf_counter()
        checks.append(check)
        seconds.append(now - last)
        last = now
    passed = all(c.status != "fail" for c in checks)
    if args.as_json:
        import json

        # a non-finite value is written as null, so that the output stays strict JSON
        finite = [c.value if math.isfinite(c.value) else None for c in checks]
        records = [
            dict(name=c.name, status=c.status, detail=c.detail, value=value, bound=c.bound, seconds=span)
            for c, value, span in zip(checks, finite, seconds)
        ]
        print(json.dumps({"checks": records, "passed": passed}, indent=2, allow_nan=False))
    else:
        for c in checks:
            print(f"{c.status.upper():7s} {c.name}: {c.detail}")
        print(f"{'all checks passed' if passed else 'FAILURES present'}")
    return 0 if passed else 1


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, MemoryError) as exc:
        # a bare MemoryError, as Python raises it, has no message of its own
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2
    except ResolutionError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


def run() -> None:
    sys.exit(main(sys.argv[1:]))

"""Command-line front end.

Subcommands: `table1` (print and verify the built-in reference table of
corrected-ratio values), `sweep` (emit the ratio curves as CSV), `splitting`
(one splitting by one method), `validate` (cross-module invariant suite).

Exit codes: 0 success, 1 validation mismatch, 2 usage or domain error,
3 numerical failure (quadrature or eigensolver).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import semiclassics, spectral
from .model import WellParameters, eta as eta_of, from_eta, potential
from .perturbation import (
    AnharmonicExpansion,
    epsilon_closed_form,
    epsilon_series_coefficients,
    perturbed_level,
    rs_engine,
    validity_boundary,
)
from .quadrature import QuadratureError
from .spectral import ResolutionError

__all__ = ["main", "run", "SweepSpec", "CSV_HEADER", "REFERENCE_RATIOS"]

CSV_HEADER = (
    "eta,epsilon,alpha,gamma,S,omegaT,ln_dE_wkb,ln_dE_asym,"
    "ln_dE_instanton,delta,ratio_corrected,ratio_uncorrected"
)
_COLUMNS = CSV_HEADER.split(",")
#: rows per array pass of `sweep`; bounds its working memory on large grids
_BLOCK_ROWS = 1024

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

_BUILTIN_DEFAULTS = {
    "tol": 1e-10,
    "spacing": "linear",
    "steps": 100,
    "jobs": 1,
    "eta_min": 0.02,
    "eta_max": 0.15,
}


@dataclass(frozen=True)
class SweepSpec:
    """Validated eta grid request for `sweep`."""

    eta_min: float
    eta_max: float
    steps: int
    spacing: str

    def __post_init__(self) -> None:
        if self.spacing not in ("linear", "log"):
            raise ValueError(f"spacing must be 'linear' or 'log', got {self.spacing!r}")
        object.__setattr__(self, "steps", _whole(self.steps, "steps", 2))
        boundary = validity_boundary()
        if not (0.0 < self.eta_min < self.eta_max < boundary):
            raise ValueError(
                f"need 0 < eta_min < eta_max < {boundary:.6f} (validity boundary), "
                f"got eta_min={self.eta_min!r}, eta_max={self.eta_max!r}"
            )

    def grid(self) -> np.ndarray:
        if self.spacing == "linear":
            return np.linspace(self.eta_min, self.eta_max, self.steps)
        return np.geomspace(self.eta_min, self.eta_max, self.steps)


def _whole(value, name: str, minimum: int) -> int:
    """`value` as an int if it is a whole number >= minimum, else ValueError."""
    whole = isinstance(value, (int, float)) and not isinstance(value, bool) and float(value).is_integer()
    if not whole or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="doublewell",
        description="Tunneling splitting of the symmetric quartic double well, three ways.",
    )
    ap.add_argument("--config", type=Path, default=None, help="JSON file with default option values")
    sub = ap.add_subparsers(dest="command", required=True)

    t1 = sub.add_parser("table1", help="print and verify the corrected-ratio reference table")
    t1.set_defaults(func=cmd_table1)

    sw = sub.add_parser("sweep", help="write ratio curves over an eta grid as CSV")
    sw.add_argument("--eta-min", dest="eta_min", type=float, default=None)
    sw.add_argument("--eta-max", dest="eta_max", type=float, default=None)
    sw.add_argument("--steps", type=int, default=None)
    sw.add_argument("--spacing", choices=("linear", "log"), default=None)
    sw.add_argument("--out", type=Path, required=True, help="output CSV path")
    sw.add_argument("--jobs", type=int, default=None, help="accepted for compatibility; evaluation is sequential")
    sw.add_argument("--tol", type=float, default=None, help="quadrature relative tolerance")
    sw.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("splitting", help="one splitting at one parameter point")
    sp.add_argument("--eta", type=float, default=None, help="natural-units eta (excludes physical flags)")
    sp.add_argument(
        "--method",
        required=True,
        choices=("wkb-exact", "asymptotic", "instanton", "spectral"),
    )
    sp.add_argument("--m", type=float, default=None, help="mass")
    sp.add_argument("--omega", type=float, default=None, help="angular frequency")
    sp.add_argument("--a", type=float, default=None, help="half-separation of the minima")
    sp.add_argument("--hbar", type=float, default=None)
    sp.add_argument("--tol", type=float, default=None, help="quadrature relative tolerance")
    sp.set_defaults(func=cmd_splitting)

    va = sub.add_parser("validate", help="run the cross-module invariant suite")
    va.add_argument("--json", action="store_true", dest="as_json", help="machine-readable output")
    va.set_defaults(func=cmd_validate)
    return ap


def _load_config(path: Path | None) -> dict:
    if path is None:
        return {}
    try:
        raw = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ValueError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ValueError(f"config file {path} must hold a JSON object")
    unknown = set(raw) - set(_BUILTIN_DEFAULTS)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    return raw


def _effective(args: argparse.Namespace, key: str):
    """Option precedence: command-line flag > config file > built-in default."""
    value = getattr(args, key, None)
    if value is not None:
        return value
    if key in args._config:
        return args._config[key]
    return _BUILTIN_DEFAULTS[key]


def cmd_table1(args: argparse.Namespace) -> int:
    mismatches = []
    print(f"{'eta':>10}  {'ratio':>8}  {'reference':>9}  status")
    for et, reference in REFERENCE_RATIOS:
        ratio = semiclassics.ratio_wkb_instanton(et)
        ok = abs(ratio - reference) <= 1.0e-5
        print(f"{et:>10g}  {ratio:8.5f}  {reference:9.5f}  {'ok' if ok else 'MISMATCH'}")
        if not ok:
            mismatches.append((et, ratio, reference))
    if mismatches:
        for et, ratio, reference in mismatches:
            print(f"mismatch at eta={et:g}: computed {ratio:.7f}, reference {reference:.5f}", file=sys.stderr)
        return 1
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    sweep = SweepSpec(
        eta_min=float(_effective(args, "eta_min")),
        eta_max=float(_effective(args, "eta_max")),
        steps=_effective(args, "steps"),
        spacing=str(_effective(args, "spacing")),
    )
    tol = float(_effective(args, "tol"))
    _whole(_effective(args, "jobs"), "jobs", 1)
    # grid order is ascending eta by construction; natural units, a = 1/eta
    grid = sweep.grid()
    blocks = []
    for first in range(0, len(grid), _BLOCK_ROWS):
        block = semiclassics.splitting_table(1.0, 1.0, 1.0 / grid[first : first + _BLOCK_ROWS], 1.0, tol)
        bad = np.argwhere(~np.isfinite(block))
        if len(bad):
            raise ValueError(f"column {_COLUMNS[bad[0][1]]} is not finite")
        blocks.append(block)
    with open(args.out, "w", newline="") as fh:
        fh.write(CSV_HEADER + "\n")
        for block in blocks:
            # repr gives the shortest decimal that round-trips, so files are
            # byte-stable and parsing loses nothing
            fh.write("".join(",".join(map(repr, row)) + "\n" for row in block.tolist()))
    print(f"wrote {len(grid)} rows to {args.out}")
    return 0


def _well_from_args(args: argparse.Namespace) -> WellParameters:
    physical = {k: getattr(args, k) for k in ("m", "omega", "a", "hbar")}
    given = {k: v for k, v in physical.items() if v is not None}
    if args.eta is not None:
        if given:
            raise ValueError("give either --eta or physical parameters (--m/--omega/--a/--hbar), not both")
        return from_eta(args.eta)
    if "a" not in given:
        raise ValueError("need --eta, or at least --a for physical parameters")
    return WellParameters(
        mass=given.get("m", 1.0),
        angular_frequency=given.get("omega", 1.0),
        half_separation=given["a"],
        hbar=given.get("hbar", 1.0),
    )


def cmd_splitting(args: argparse.Namespace) -> int:
    p = _well_from_args(args)
    tol = float(_effective(args, "tol"))
    semiclassics._check_tol(tol)
    et = eta_of(p)
    hw = p.hbar * p.angular_frequency
    if args.method == "wkb-exact":
        ln_value, estimate = semiclassics.ln_splitting_wkb_exact(p, tol=tol)
        value = hw * math.exp(ln_value)
    elif args.method == "asymptotic":
        ln_value = semiclassics.ln_splitting_asymptotic(et)
        value, estimate = hw * math.exp(ln_value), 0.0
    elif args.method == "instanton":
        ln_value = semiclassics.ln_splitting_instanton(et)
        value, estimate = hw * math.exp(ln_value), 0.0
    else:
        value, absolute = spectral.exact_splitting(p)
        ln_value, estimate = math.log(value / hw), absolute / value
    print(
        f"method={args.method} eta={et!r} dE={value!r} "
        f"ln_dE_over_hbar_omega={ln_value!r} rel_estimate={estimate!r}"
    )
    return 0


def _check(name: str, ok: bool, detail: str) -> dict:
    return {"name": name, "status": "pass" if ok else "fail", "detail": detail}


def _skip(name: str, detail: str) -> dict:
    return {"name": name, "status": "skipped", "detail": detail}


def _validation_checks() -> list[dict]:
    checks: list[dict] = []

    # perturbation engine against the closed form
    etas = np.linspace(0.01, 0.2, 50)
    worst = max(
        abs(rs_engine(AnharmonicExpansion.standard(from_eta(float(e)))) - epsilon_closed_form(float(e)))
        for e in etas
    )
    checks.append(_check("engine-vs-closed-form", worst <= 1e-12, f"max |engine - closed form| = {worst:.3e}"))

    a2, a4 = epsilon_series_coefficients("standard")
    err = max(abs(a2 - 25.0 / 16.0), abs(a4 + 189.0 / 16.0))
    checks.append(_check("series-coefficients", err <= 1e-12, f"(eta^2, eta^4) off by at most {err:.3e}"))

    # turning points actually solve V(x) = E
    worst = 0.0
    for e in np.linspace(0.01, 0.3, 50):
        p = from_eta(float(e))
        level = perturbed_level(p)
        tp = semiclassics.turning_points(p, level)
        worst = max(
            worst,
            abs(potential(p, tp.alpha) - level.energy) / level.energy,
            abs(potential(p, tp.gamma) - level.energy) / level.energy,
        )
    checks.append(_check("turning-point-residuals", worst <= 1e-10, f"max relative residual = {worst:.3e}"))

    # quadrature self-consistency: tightening tol moves the result by less
    # than the coarser run's own error estimate
    p = from_eta(0.1)
    coarse, fine = semiclassics._one_row(p, tol=1e-8), semiclassics._one_row(p, tol=1e-10)
    s_coarse, s_est, s_fine = float(coarse.action[0]), float(coarse.action_estimate[0]), float(fine.action[0])
    t_coarse, t_est, t_fine = float(coarse.period[0]), float(coarse.period_estimate[0]), float(fine.period[0])
    ok = abs(s_coarse - s_fine) <= max(s_est * abs(s_coarse), 1e-15) and abs(t_coarse - t_fine) <= max(
        t_est * abs(t_coarse), 1e-15
    )
    checks.append(
        _check(
            "quadrature-convergence",
            ok,
            f"|dS| = {abs(s_coarse - s_fine):.3e} vs {s_est * abs(s_coarse):.3e}, "
            f"|dT| = {abs(t_coarse - t_fine):.3e} vs {t_est * abs(t_coarse):.3e}",
        )
    )

    worst = max(abs(semiclassics.ratio_wkb_instanton(et) - ref) for et, ref in REFERENCE_RATIOS)
    checks.append(_check("reference-table", worst <= 1e-5, f"max |ratio - reference| = {worst:.3e}"))

    # locate the ratio = 1 crossing by bisection, independent of the table
    lo, hi = 0.1, 0.15
    flo = semiclassics.ratio_wkb_instanton(lo) - 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        fmid = semiclassics.ratio_wkb_instanton(mid) - 1.0
        if (flo < 0.0) == (fmid < 0.0):
            lo, flo = mid, fmid
        else:
            hi = mid
    crossing = 0.5 * (lo + hi)
    checks.append(
        _check("crossing-location", abs(crossing - 0.122513) <= 5e-6, f"root at eta = {crossing:.7f}")
    )

    worst = 0.0
    for e in np.linspace(0.02, 0.3, 20):
        p = from_eta(float(e))
        lhs = semiclassics.ratio_wkb_instanton(float(e)) * semiclassics.splitting_instanton(p)
        rhs = semiclassics.splitting_asymptotic(p)
        if rhs > 0.0:
            worst = max(worst, abs(lhs - rhs) / rhs)
    checks.append(_check("consistency-triangle", worst <= 1e-12, f"max relative defect = {worst:.3e}"))

    # spectral oracle: band agreement where the solver can certify the doublet
    resolved: list[tuple[float, float]] = []
    for e in (0.14, 0.16, 0.18, 0.2):
        p = from_eta(e)
        try:
            de, _ = spectral.exact_splitting(p)
        except ResolutionError:
            checks.append(_skip(f"spectral[eta={e:g}]", "below resolution"))
            continue
        ratio = semiclassics.splitting_asymptotic(p) / de
        resolved.append((e, de))
        checks.append(
            _check(f"spectral[eta={e:g}]", 0.5 <= ratio <= 2.0, f"asymptotic/exact = {ratio:.4f}")
        )
    if len(resolved) >= 2:
        x = np.array([1.0 / (e * e) for e, _ in resolved])
        y = np.array([math.log(de) for _, de in resolved])
        slope = float(np.polyfit(x, y, 1)[0])
        ok = abs(slope + 2.0 / 3.0) <= 0.15 * (2.0 / 3.0)
        checks.append(_check("spectral-log-slope", ok, f"slope = {slope:.4f} (target -2/3)"))
    else:
        checks.append(_skip("spectral-log-slope", "fewer than two resolvable points"))
    return checks


def cmd_validate(args: argparse.Namespace) -> int:
    checks = _validation_checks()
    passed = all(c["status"] != "fail" for c in checks)
    if args.as_json:
        print(json.dumps({"checks": checks, "passed": passed}, indent=2))
    else:
        for c in checks:
            print(f"{c['status'].upper():7s} {c['name']}: {c['detail']}")
        print(f"{'all checks passed' if passed else 'FAILURES present'}")
    return 0 if passed else 1


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args._config = _load_config(args.config)
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except QuadratureError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ResolutionError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except np.linalg.LinAlgError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


def run() -> None:
    sys.exit(main(sys.argv[1:]))

"""Output checks, against closed forms computed here rather than by the package.

The barrier action and the in-well period are complete elliptic integrals.
With r = 2 eta sqrt(1 + eps), eps = (eta^2/16)(25 - 189 eta^2), a = 1/eta and
m = (alpha/gamma)^2 = (1 - r)/(1 + r), in natural units:

    S       = (2 a gamma / 3) [E(m) - r K(m)]
    omega T = (4 a / gamma) K(1 - m),        1 - m = 2 r / (1 + r)

Each checker returns None when the output is right and a one-line reason
when it is not.
"""

from __future__ import annotations

import io
import json
import math
import subprocess

import numpy as np
from scipy.special import ellipe, ellipk

CSV_HEADER = (
    "eta,epsilon,alpha,gamma,S,omegaT,ln_dE_wkb,ln_dE_asym,"
    "ln_dE_instanton,delta,ratio_corrected,ratio_uncorrected"
)
REFUSAL_MESSAGE = "below numerical resolution"

ELLIPTIC_RTOL = 1e-9
CLOSED_FORM_RTOL = 1e-12


def action_period(eta):
    """(S, omega T) from the elliptic closed forms; scalar or array eta."""
    eta = np.asarray(eta, dtype=float)
    a = 1.0 / eta
    eps = eta * eta / 16.0 * (25.0 - 189.0 * eta * eta)
    r = 2.0 * eta * np.sqrt(1.0 + eps)
    gamma = a * np.sqrt(1.0 + r)
    action = 2.0 * a * gamma / 3.0 * (ellipe((1.0 - r) / (1.0 + r)) - r * ellipk((1.0 - r) / (1.0 + r)))
    period = 4.0 * a / gamma * ellipk(2.0 * r / (1.0 + r))
    return action, period


def ln_instanton(eta):
    eta = np.asarray(eta, dtype=float)
    return np.log(4.0 / (math.sqrt(math.pi) * eta)) - 2.0 / (3.0 * eta * eta)


def ln_asymptotic(eta: float) -> float:
    """ln of sqrt(e/pi) * delta(eta) * instanton, with
    delta = (1+eps)^(-1/2) exp[eps/2 - eps ln(eta sqrt(1+eps)/4)]."""
    eps = eta * eta / 16.0 * (25.0 - 189.0 * eta * eta)
    ln_delta = -0.5 * math.log(1.0 + eps) + 0.5 * eps - eps * math.log(eta * math.sqrt(1.0 + eps) / 4.0)
    return float(ln_instanton(eta)) + 0.5 * (1.0 - math.log(math.pi)) + ln_delta


def _worst(got, want) -> float:
    return float(np.max(np.abs(got - want) / np.abs(want)))


def check_sweep_csv(text: str, eta_min: float, eta_max: float, steps: int, spacing: str) -> str | None:
    """Header, row count, the eta grid, and S, omega T, ln_dE_wkb and
    ln_dE_instanton of every row against the closed forms."""
    if not text.endswith("\n"):
        return "CSV does not end with a newline"
    header, _, body = text.partition("\n")
    if header != CSV_HEADER:
        return f"CSV header is {header[:80]!r}"
    if (rows := body.count("\n")) != steps:
        return f"CSV has {rows} rows, expected {steps}"
    try:
        data = np.loadtxt(io.StringIO(body), delimiter=",", comments=None, ndmin=2)
    except ValueError as exc:
        return f"CSV does not parse: {exc}"
    if data.shape != (steps, 12) or not np.all(np.isfinite(data)):
        return f"CSV rows have shape {data.shape} or non-finite entries"
    grid = np.linspace(eta_min, eta_max, steps) if spacing == "linear" else np.geomspace(eta_min, eta_max, steps)
    eta = data[:, 0]
    if _worst(eta, grid) > 1e-14:
        return "eta column is not the requested grid"
    action, period = action_period(eta)
    if (worst := max(_worst(data[:, 4], action), _worst(data[:, 5], period))) > ELLIPTIC_RTOL:
        return f"S or omegaT off the elliptic closed form by {worst:.2e} relative"
    ln_wkb = math.log(2.0) - np.log(period) - action
    if (worst := float(np.max(np.abs(data[:, 6] - ln_wkb) / (action + 1.0)))) > ELLIPTIC_RTOL:
        return f"ln_dE_wkb off the closed form by {worst:.2e} relative to S"
    if (worst := _worst(data[:, 8], ln_instanton(eta))) > CLOSED_FORM_RTOL:
        return f"ln_dE_instanton off its closed form by {worst:.2e} relative"
    return None


def check_table1(proc: subprocess.CompletedProcess) -> str | None:
    """Eight rows marked ok, whose printed ratio and reference (five decimals
    each, so up to 0.5e-5 of rounding apiece) agree to 1e-5."""
    if proc.returncode != 0:
        return f"table1 exited {proc.returncode}"
    rows = proc.stdout.splitlines()[1:]
    if len(rows) != 8:
        return f"table1 printed {len(rows)} rows, expected 8"
    for row in rows:
        fields = row.split()
        try:
            eta, ratio, reference = (float(v) for v in fields[:3])
        except ValueError:
            return f"table1 row does not parse: {row!r}"
        if fields[3:] != ["ok"] or not (0.9 < ratio < 1.1 and abs(ratio - reference) <= 1.5e-5 and eta > 0):
            return f"table1 row not ok: {row!r}"
    return None


def check_splitting(
    proc: subprocess.CompletedProcess, method: str, eta: float, reference: tuple[float, float] | None = None
) -> str | None:
    """One `splitting` line.  wkb-exact, asymptotic and instanton are held to
    closed forms; spectral to the recorded reference (dE, estimate)."""
    if proc.returncode != 0:
        return f"splitting {method} at eta={eta!r} exited {proc.returncode}"
    try:
        fields = dict(field.split("=", 1) for field in proc.stdout.split())
        got_eta, de, ln_de, rel = (float(fields[k]) for k in ("eta", "dE", "ln_dE_over_hbar_omega", "rel_estimate"))
    except (ValueError, KeyError):
        return f"splitting output does not parse: {proc.stdout.strip()[:120]!r}"
    if fields["method"] != method or abs(got_eta - eta) > 1e-14 * eta:
        return f"splitting echoed method={fields['method']} eta={got_eta!r}"
    if method == "instanton":
        want, tol = float(ln_instanton(eta)), CLOSED_FORM_RTOL * abs(ln_de)
    elif method == "asymptotic":
        want, tol = ln_asymptotic(eta), CLOSED_FORM_RTOL * abs(ln_de)
    elif method == "wkb-exact":
        action, period = action_period(eta)
        want, tol = math.log(2.0) - math.log(period) - float(action), ELLIPTIC_RTOL * (float(action) + 1.0)
    else:
        ref_de, ref_est = reference
        if not (de > 10.0 * rel * de and abs(de - ref_de) <= rel * de + ref_est):
            return f"spectral dE={de!r} (rel estimate {rel:.2e}) disagrees with reference {ref_de!r}"
        return None
    if not abs(ln_de - want) <= tol:
        return f"{method} ln dE={ln_de!r} off the closed form {want!r}"
    return None


def check_refusal(proc: subprocess.CompletedProcess, eta: float) -> str | None:
    if proc.returncode != 3 or REFUSAL_MESSAGE not in proc.stderr:
        return f"spectral at eta={eta!r} was not refused (exit {proc.returncode}): {proc.stderr.strip()[:120]!r}"
    return None


def check_validate(proc: subprocess.CompletedProcess) -> str | None:
    if proc.returncode != 0:
        return f"validate exited {proc.returncode}"
    try:
        report = json.loads(proc.stdout)
    except json.JSONDecodeError as exc:
        return f"validate --json does not parse: {exc}"
    checks = report.get("checks", [])
    failed = [c.get("name") for c in checks if c.get("status") not in ("pass", "skipped")]
    if report.get("passed") is not True or not checks or failed:
        return f"validate did not pass: {failed or report.get('passed')}"
    return None


def check_oracle(splitting: float, estimate: float, reference: tuple[float, float]) -> str | None:
    """The eigensolver result resolves the doublet and agrees with the
    recorded one within the sum of the two error estimates."""
    ref_de, ref_est = reference
    if not splitting > 10.0 * estimate:
        return f"dE={splitting!r} is not above 10x its estimate {estimate!r}"
    if not abs(splitting - ref_de) <= estimate + ref_est:
        return f"dE={splitting!r} disagrees with reference {ref_de!r} beyond {estimate + ref_est:.2e}"
    return None

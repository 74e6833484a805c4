"""Per-layer spans, recorded from outside the package.

``Tracer.install`` swaps each traced function for a timing wrapper in every
doublewell module that bound the name, so a call is seen however its caller
looks the function up.  A name the package no longer defines is skipped and
reads 0 calls.  Spans nest: a span's self time is its duration minus the time
of the traced spans it caused.  Spans are folded into per-name totals as they
close instead of being kept, because a traced 10^4-row sweep opens ~10^5.

The import layer is measured apart, from ``python -X importtime``.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

# (span name, defining module, attribute)
TRACED = (
    ("model.from_eta", "doublewell.model", "from_eta"),
    ("perturbation.validity_boundary", "doublewell.perturbation", "validity_boundary"),
    ("perturbation.perturbed_level", "doublewell.perturbation", "perturbed_level"),
    ("perturbation.rs_engine", "doublewell.perturbation", "rs_engine"),
    ("quadrature.integrate", "doublewell.quadrature", "integrate"),
    ("semiclassics.splitting_report", "doublewell.semiclassics", "splitting_report"),
    ("semiclassics.turning_points", "doublewell.semiclassics", "turning_points"),
    ("semiclassics.ratio_wkb_instanton", "doublewell.semiclassics", "ratio_wkb_instanton"),
    ("spectral.exact_splitting", "doublewell.spectral", "exact_splitting"),
    ("spectral.solve_spectrum", "doublewell.spectral", "solve_spectrum"),
    # the eigensolver as spectral binds it
    ("spectral.eigensolve", "doublewell.spectral", "eigh_tridiagonal"),
    ("cli.main", "doublewell.cli", "main"),
)

IMPORTS = (
    ("import.doublewell_us", "doublewell"),
    ("import.perturbation_us", "doublewell.perturbation"),
    ("import.spectral_us", "doublewell.spectral"),
    ("import.model_us", "doublewell.model"),
    ("import.numpy_us", "numpy"),
    ("import.scipy_optimize_us", "scipy.optimize"),
    ("import.scipy_linalg_us", "scipy.linalg"),
)

COUNTERS = (
    "cli.csv_bytes",
    "quadrature.nodes_evaluated",
    "quadrature.nodes_accepted",
    "quadrature.failures",
    "spectral.grid_points",
    "spectral.refusals",
)


class Tracer:
    """Span totals per name, plus counters taken at the same boundaries."""

    def __init__(self) -> None:
        self.spans = {name: [0, 0.0, 0.0] for name, _, _ in TRACED}  # calls, total_s, self_s
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.min_margin: float | None = None
        self._open: list[list[float]] = []  # time covered by children, per open span

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "doublewell" and m is not None]
        hooks = {
            "quadrature.integrate": self._integrate_hooks,
            "spectral.eigensolve": self._eigensolve_hooks,
            "spectral.exact_splitting": self._exact_splitting_hooks,
        }
        for name, home, attr in TRACED:
            original = getattr(sys.modules.get(home), attr, None)
            if original is None:
                continue
            wrapper = self._wrap(name, original, hooks.get(name))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

    def _wrap(self, name, fn, hooks):
        record = self.spans[name]
        stack = self._open
        clock = time.perf_counter
        before, after = hooks() if hooks else (None, None)

        def traced(*args, **kwargs):
            state = None
            if before is not None:
                args, state = before(args)
            children = [0.0]
            stack.append(children)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if after is not None:
                    after(state, None, exc)
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                record[0] += 1
                record[1] += elapsed
                record[2] += elapsed - children[0]
                if stack:
                    stack[-1][0] += elapsed
            if after is not None:
                after(state, result, None)
            return result

        return traced

    def _integrate_hooks(self):
        counts = self.counts

        def before(args):
            f, rest = args[0], args[1:]
            last = [0]

            def counted(x):
                last[0] = x.size
                counts["quadrature.nodes_evaluated"] += x.size
                return f(x)

            return (counted, *rest), last

        def after(last, result, exc):
            if exc is None:
                counts["quadrature.nodes_accepted"] += last[0]
            elif type(exc).__name__ == "QuadratureError":
                counts["quadrature.failures"] += 1

        return before, after

    def _eigensolve_hooks(self):
        counts = self.counts

        def before(args):
            counts["spectral.grid_points"] += len(args[0])
            return args, None

        return before, None

    def _exact_splitting_hooks(self):
        def after(_, result, exc):
            if exc is not None:
                if type(exc).__name__ == "ResolutionError":
                    self.counts["spectral.refusals"] += 1
                return
            splitting, estimate = result
            margin = splitting / estimate
            if self.min_margin is None or margin < self.min_margin:
                self.min_margin = margin

        return None, after

    def snapshot(self) -> dict:
        return {"spans": self.spans, "counts": self.counts, "min_margin": self.min_margin}

    def merge(self, snap: dict) -> None:
        """Add the totals of another tracer, e.g. one that ran in a child process."""
        for name, (calls, total, own) in snap["spans"].items():
            record = self.spans[name]
            record[0] += calls
            record[1] += total
            record[2] += own
        for key, value in snap["counts"].items():
            self.counts[key] += value
        if snap["min_margin"] is not None and (self.min_margin is None or snap["min_margin"] < self.min_margin):
            self.min_margin = snap["min_margin"]

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Every per-layer metric except the import layer, as name -> (value, unit)."""
        s, c = self.spans, self.counts
        report_calls, _, report_self = s["semiclassics.splitting_report"]
        evaluated = c["quadrature.nodes_evaluated"]
        out: dict[str, tuple[float, str]] = {
            "cli.main.calls": (s["cli.main"][0], "count"),
            "cli.main.self_s": (s["cli.main"][2], "s"),
            "cli.csv_bytes": (c["cli.csv_bytes"], "bytes"),
        }
        for name in ("perturbation.validity_boundary", "perturbation.perturbed_level", "perturbation.rs_engine"):
            out[name + ".calls"] = (s[name][0], "count")
            out[name + ".total_s"] = (s[name][1], "s")
        out.update({
            "quadrature.integrate.calls": (s["quadrature.integrate"][0], "count"),
            "quadrature.integrate.total_s": (s["quadrature.integrate"][1], "s"),
            "quadrature.nodes_evaluated": (evaluated, "count"),
            "quadrature.failures": (c["quadrature.failures"], "count"),
            # 0 when no integrand was evaluated
            "quadrature.useful_node_ratio": (c["quadrature.nodes_accepted"] / evaluated if evaluated else 0.0, "ratio"),
            "semiclassics.splitting_report.calls": (report_calls, "count"),
            "semiclassics.splitting_report.self_s": (report_self, "s"),
            "semiclassics.splitting_report.per_call_us": (
                1e6 * s["semiclassics.splitting_report"][1] / report_calls if report_calls else 0.0, "us"),
        })
        for name in ("semiclassics.turning_points", "semiclassics.ratio_wkb_instanton"):
            out[name + ".calls"] = (s[name][0], "count")
            out[name + ".total_s"] = (s[name][1], "s")
        out.update({
            "spectral.exact_splitting.calls": (s["spectral.exact_splitting"][0], "count"),
            "spectral.exact_splitting.total_s": (s["spectral.exact_splitting"][1], "s"),
            "spectral.exact_splitting.self_s": (s["spectral.exact_splitting"][2], "s"),
            "spectral.solve_spectrum.calls": (s["spectral.solve_spectrum"][0], "count"),
            "spectral.solve_spectrum.total_s": (s["spectral.solve_spectrum"][1], "s"),
            "spectral.eigensolve.total_s": (s["spectral.eigensolve"][1], "s"),
            "spectral.grid_points": (c["spectral.grid_points"], "count"),
            "spectral.refusals": (c["spectral.refusals"], "count"),
            # 0 when no splitting was resolved
            "spectral.min_margin": (self.min_margin or 0.0, "ratio"),
            "model.from_eta.calls": (s["model.from_eta"][0], "count"),
            "model.from_eta.total_s": (s["model.from_eta"][1], "s"),
        })
        return out


def import_times(python: str, env: dict, cwd, runs: int = 3) -> dict[str, tuple[float, str]]:
    """Cumulative import time of each module in IMPORTS, median over `runs`
    cold ``python -X importtime -c "import doublewell"`` processes.

    A module the package no longer imports reads 0.  Each module's time is
    charged where it is first imported (numpy under doublewell.model, for
    instance), as importtime reports it.
    """
    readings: dict[str, list[float]] = {name: [] for name, _ in IMPORTS}
    for _ in range(runs):
        proc = subprocess.run(
            [python, "-X", "importtime", "-c", "import doublewell"],
            cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"import doublewell failed: {proc.stderr.strip()[-300:]}")
        cumulative: dict[str, int] = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                cumulative.setdefault(parts[2].strip(), int(parts[1]))
        for name, module in IMPORTS:
            readings[name].append(cumulative.get(module, 0))
    return {name: (float(statistics.median(values)), "us") for name, values in readings.items()}

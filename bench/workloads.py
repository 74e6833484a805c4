"""The three workloads.  Each draws its inputs from the seeded `rng` it is
given, times one operation per `execute` call and checks that operation's
output.  `recheck` runs the untimed checks that follow the timed loop and
returns one entry per operation it ran: None, or why it failed.

cli-cold    cold `python -m doublewell ...` processes, one at a time, in
            seeded rounds of the eight kinds below.  Import-bound: lazy
            imports and a closed-form validity boundary show here, while
            semiclassics and quadrature do almost no work.
sweep-grid  `doublewell.cli.main(["sweep", ...])` in this process over seeded
            10^4-row eta grids inside (0.02, 0.15).  splitting_report,
            quadrature and the CSV writer do the work; import does none.
            Every timed request is a fresh grid.  After the timed loop the
            first request is repeated untimed, and its CSV must come back
            byte-identical.
oracle      `exact_splitting(from_eta(eta))` in this process at seeded eta in
            [0.15, 0.5], taken from the recorded reference table.  spectral
            and perturbation do the work; semiclassics and quadrature none.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import subprocess
import sys
import time
from functools import partial
from pathlib import Path

import checks
import common
from child import warm_up
from spans import Tracer

BENCH = Path(__file__).resolve().parent
CHILD = BENCH / "child.py"


def load_reference() -> list[tuple[float, float, float]]:
    rows = json.loads((BENCH / "oracle_reference.json").read_text())["rows"]
    return [tuple(row) for row in rows]


class CliCold:
    name = "cli-cold"
    work_unit = "invocations"
    round_size = 8

    def __init__(self, rng, scratch: Path) -> None:
        self.rng = rng
        self.scratch = scratch
        self.reference = load_reference()
        self.env = common.child_env()
        self.tracer: Tracer | None = None

    def _round(self) -> list[tuple]:
        """One of each kind: (arguments, check, CSV path or None)."""
        rng = self.rng
        ops = [(["table1"], checks.check_table1, None)]
        for method in ("instanton", "asymptotic", "wkb-exact"):
            eta = rng.uniform(0.03, 0.5)
            ops.append((["splitting", "--eta", repr(eta), "--method", method],
                        partial(checks.check_splitting, method=method, eta=eta), None))
        eta, ref_de, ref_est = rng.choice(self.reference)
        ops.append((["splitting", "--eta", repr(eta), "--method", "spectral"],
                    partial(checks.check_splitting, method="spectral", eta=eta, reference=(ref_de, ref_est)), None))
        eta = rng.uniform(0.05, 0.14)
        ops.append((["splitting", "--eta", repr(eta), "--method", "spectral"],
                    partial(checks.check_refusal, eta=eta), None))
        ops.append((["validate", "--json"], checks.check_validate, None))
        lo, hi = rng.uniform(0.021, 0.05), rng.uniform(0.12, 0.149)
        steps, spacing = rng.randint(90, 110), rng.choice(("linear", "log"))
        path = self.scratch / "cli-sweep.csv"

        def check_sweep(proc):
            if proc.returncode != 0 or proc.stdout != f"wrote {steps} rows to {path}\n":
                return f"sweep exited {proc.returncode}: {(proc.stdout + proc.stderr).strip()[:120]!r}"
            return checks.check_sweep_csv(path.read_text(), lo, hi, steps, spacing)

        ops.append((["sweep", "--eta-min", repr(lo), "--eta-max", repr(hi), "--steps", str(steps),
                     "--spacing", spacing, "--out", str(path)], check_sweep, path))
        rng.shuffle(ops)
        return ops

    def ops(self):
        while True:
            yield from self._round()

    def _run(self, argv: list[str]) -> tuple[float, subprocess.CompletedProcess]:
        start = time.perf_counter()
        proc = subprocess.run(argv, cwd=common.ROOT, env=self.env, capture_output=True, text=True, timeout=150)
        return time.perf_counter() - start, proc

    def setup_once(self) -> float:
        """The untimed first invocation: a cold `table1`."""
        elapsed, proc = self._run([sys.executable, "-m", "doublewell", "table1"])
        if error := checks.check_table1(proc):
            raise RuntimeError(f"set-up invocation failed: {error}")
        return elapsed

    def peak_rss_mb(self) -> float:
        """The largest peak of the doublewell processes run so far."""
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    def prepare(self) -> None:
        pass

    def recheck(self) -> list[str | None]:
        return []

    def trace(self, tracer: Tracer) -> None:
        self.tracer = tracer

    def execute(self, op) -> tuple[float, int, str | None]:
        argv, check, csv_path = op
        if self.tracer is None:
            elapsed, proc = self._run([sys.executable, "-m", "doublewell", *argv])
        else:
            spans_path = self.scratch / "spans.json"
            elapsed, proc = self._run([sys.executable, str(CHILD), "cli", str(spans_path), *argv])
            self.tracer.merge(json.loads(spans_path.read_text()))
            spans_path.unlink()
            if csv_path is not None and csv_path.exists():
                self.tracer.counts["cli.csv_bytes"] += csv_path.stat().st_size
        return elapsed, 1, check(proc)


class _InProcess:
    """A workload timed inside this process after a warm-up."""

    round_size = 1

    def __init__(self, rng, scratch: Path) -> None:
        self.rng = rng
        self.scratch = scratch
        self.tracer: Tracer | None = None

    def _child(self, *args: str) -> float:
        proc = subprocess.run(
            [sys.executable, str(CHILD), *args],
            cwd=common.ROOT, env=common.child_env(), capture_output=True, text=True, timeout=150,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"child.py {args[0]} failed: {proc.stderr.strip()[-300:]}")
        return float(proc.stdout)

    def setup_once(self) -> float:
        """Import plus warm-up, timed in a fresh interpreter."""
        return self._child("setup", self.name, str(self.scratch))

    def peak_args(self) -> list[str]:
        """The doublewell command line the peak-memory child runs after its warm-up."""
        return []

    def peak_rss_mb(self) -> float:
        """Peak memory of a fresh interpreter that warms up and runs one
        full-size operation; the checks run in this process, not there."""
        return self._child("peak", self.name, str(self.scratch), *self.peak_args())

    def recheck(self) -> list[str | None]:
        return []

    def prepare(self) -> None:
        warm_up(self.name, str(self.scratch))
        import doublewell

        self.dw = doublewell
        self.cli = sys.modules["doublewell.cli"]

    def trace(self, tracer: Tracer) -> None:
        tracer.install()
        self.tracer = tracer


class SweepGrid(_InProcess):
    name = "sweep-grid"
    work_unit = "rows"
    steps = 10_000

    def __init__(self, rng, scratch: Path) -> None:
        super().__init__(rng, scratch)
        self.path = scratch / "grid.csv"
        self.first: tuple[tuple, bytes] | None = None

    def _request(self) -> tuple[float, float, str]:
        return self.rng.uniform(0.021, 0.05), self.rng.uniform(0.12, 0.149), self.rng.choice(("linear", "log"))

    def _argv(self, op) -> list[str]:
        lo, hi, spacing = op
        return ["sweep", "--eta-min", repr(lo), "--eta-max", repr(hi), "--steps", str(self.steps),
                "--spacing", spacing, "--out", str(self.path)]

    def peak_args(self) -> list[str]:
        return self._argv(self._request())

    def ops(self):
        while True:
            yield self._request()

    def _sweep(self, op) -> tuple[float, bytes | None, str | None]:
        """(seconds, CSV bytes, None) or (seconds, None, why the call failed)."""
        out = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out):
            rc = self.cli.main(self._argv(op))
        elapsed = time.perf_counter() - start
        if rc != 0 or out.getvalue() != f"wrote {self.steps} rows to {self.path}\n":
            return elapsed, None, f"sweep exited {rc}: {out.getvalue().strip()[:120]!r}"
        return elapsed, self.path.read_bytes(), None

    def execute(self, op) -> tuple[float, int, str | None]:
        elapsed, data, error = self._sweep(op)
        if error is not None:
            return elapsed, 0, error
        if self.tracer is not None:
            self.tracer.counts["cli.csv_bytes"] += len(data)
        if error := checks.check_sweep_csv(data.decode(), op[0], op[1], self.steps, op[2]):
            return elapsed, 0, error
        if self.first is None:
            self.first = (op, data)
        return elapsed, self.steps, None

    def recheck(self) -> list[str | None]:
        """Repeat the first correct timed request, untimed: two identical
        requests must give byte-identical CSVs."""
        if self.first is None:
            return []
        op, data = self.first
        _, again, error = self._sweep(op)
        if error is None and again != data:
            error = f"repeated sweep {op} gave a different CSV"
        return [error]


class Oracle(_InProcess):
    name = "oracle"
    work_unit = "solves"

    def __init__(self, rng, scratch: Path) -> None:
        super().__init__(rng, scratch)
        self.reference = load_reference()

    def ops(self):
        while True:
            yield self.rng.choice(self.reference)

    def execute(self, op) -> tuple[float, int, str | None]:
        eta, ref_de, ref_est = op
        dw = self.dw
        start = time.perf_counter()
        splitting, estimate = dw.exact_splitting(dw.from_eta(eta))
        elapsed = time.perf_counter() - start
        return elapsed, 1, checks.check_oracle(splitting, estimate, (ref_de, ref_est))


WORKLOADS = {w.name: w for w in (CliCold, SweepGrid, Oracle)}

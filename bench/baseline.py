"""Reproduce the ROADMAP baseline table.

    python3 bench/baseline.py

Cold rows are the median wall time of RUNS fresh processes; warm rows the
median of repeated in-process calls after one untimed call.  Timed with
time.perf_counter and subprocesses only, so the test suite is untouched.
Prints a markdown table and the machine record.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import tempfile
import time

import common
from spans import import_times

RUNS = 5

COLD = (
    ("`import doublewell` (process wall time)", ["-c", "import doublewell"]),
    ("`table1`", ["-m", "doublewell", "table1"]),
    ("`validate`", ["-m", "doublewell", "validate"]),
    ("`splitting --method spectral --eta 0.2`", ["-m", "doublewell", "splitting", "--method", "spectral", "--eta", "0.2"]),
    ("`sweep --steps 100`", ["-m", "doublewell", "sweep", "--steps", "100", "--out", "{tmp}/sweep.csv"]),
)


def cold(args: list[str]) -> float:
    times = []
    for _ in range(RUNS):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, *args], cwd=common.ROOT, env=common.child_env(),
                              capture_output=True, timeout=150)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"{args} exited {proc.returncode}: {proc.stderr.decode()[-300:]}")
    return statistics.median(times)


def warm(fn, repeats: int) -> float:
    fn()
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def main() -> None:
    common.require_source()
    rows = []
    imports = import_times(sys.executable, common.child_env(), common.ROOT, RUNS)
    rows.append(("`import doublewell` (-X importtime)",
                 f"{imports['import.doublewell_us'][0] / 1e6:.3f} s "
                 f"(scipy.optimize {imports['import.scipy_optimize_us'][0] / 1e6:.3f} s of it)"))
    common.SCRATCH.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=common.SCRATCH) as tmp:
        for label, args in COLD:
            rows.append((label, f"{cold([a.format(tmp=tmp) for a in args]):.3f} s"))

    import doublewell

    etas = [0.02 + 0.13 * i / 199 for i in range(200)]
    per_eta = warm(lambda: [doublewell.splitting_report(doublewell.from_eta(e)) for e in etas], RUNS) / len(etas)
    rows.append(("`splitting_report` (warm)", f"{1e6 * per_eta:.1f} µs per η"))
    p = doublewell.from_eta(0.2)
    rows.append(("`exact_splitting(η=0.2)` (warm)", f"{1e3 * warm(lambda: doublewell.exact_splitting(p), 20):.2f} ms"))
    rows.append(("`validity_boundary()` (warm)", f"{1e3 * warm(doublewell.validity_boundary, 20):.2f} ms"))

    print("| what | median time |\n|---|---|")
    for label, value in rows:
        print(f"| {label} | {value} |")
    print()
    print(json.dumps(common.machine_record()))


if __name__ == "__main__":
    main()

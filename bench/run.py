"""doublewell benchmark driver.

    python3 bench/run.py --workload {cli-cold,sweep-grid,oracle} --seed N --seconds S --trace {0,1}

One process, one closed-loop client, no extra threads.  Inputs come from the
seed; every operation's output is checked (checks.py).  The last line of
standard output is one JSON object with keys correct, attempted, failed and
metrics; the lines before it are the same numbers for people, with the
machine record.

--trace 0  measures the end-to-end metrics for S seconds, untraced.
--trace 1  runs the workload untraced for S/2 seconds and then traced for
           S/2 seconds (spans.py), and reports the per-layer metrics and the
           tracing overhead (traced minus untraced median latency).

Set-up time is the median of SETUP_RUNS set-ups: fresh interpreters that
import doublewell and warm up, or for cli-cold, untimed first invocations.
Peak memory is that of the doublewell processes, never of this one, whose
output checks would otherwise set it: the children's peak for cli-cold, and
for the warm workloads a fresh interpreter that warms up and runs one
full-size operation.
"""

from __future__ import annotations

import argparse
import json
import random
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import common

SETUP_RUNS = 5


def measure(workload, seconds: float) -> dict:
    """Closed loop: the next operation starts when the previous one is done.
    Runs at least one full round so every kind of operation is seen."""
    latencies: list[float] = []
    errors: list[str] = []
    work = 0
    ops = workload.ops()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(latencies) < workload.round_size:
        op = next(ops)
        start = time.perf_counter()
        try:
            elapsed, done, error = workload.execute(op)
        except Exception as exc:
            elapsed, done, error = time.perf_counter() - start, 0, f"{type(exc).__name__}: {exc}"
        latencies.append(elapsed)
        if error is None:
            work += done
        else:
            errors.append(error)
    return {"latencies": latencies, "work": work, "errors": errors, "attempted": len(latencies)}


def recheck(workload, phase: dict) -> None:
    """Run the workload's untimed checks and count them in `phase`."""
    results = workload.recheck()
    phase["attempted"] += len(results)
    phase["errors"] += [error for error in results if error is not None]


def end_to_end(workload, seconds: int) -> tuple[dict, list[str]]:
    setups = [workload.setup_once() for _ in range(SETUP_RUNS)]
    workload.prepare()
    phase = measure(workload, seconds)
    recheck(workload, phase)
    peak_rss_mb = workload.peak_rss_mb()
    lat = phase["latencies"]
    tail, pct, beyond = common.tail(lat)
    metrics = {
        "latency_p50_s": (statistics.median(lat), "s"),
        "latency_tail_s": (tail, "s"),
        "throughput_per_s": (phase["work"] / sum(lat), "1/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    notes = [
        f"latency_tail_s is p{pct:.2f}: {beyond} of {len(lat)} samples beyond it",
        f"throughput_per_s counts {workload.work_unit}/s",
        f"setup_s is the median of {SETUP_RUNS}: {', '.join(f'{s:.4f}' for s in setups)}",
        f"failed_ratio {len(phase['errors']) / phase['attempted']:.6g} ({len(phase['errors'])}/{phase['attempted']})",
    ]
    return {"metrics": metrics, "phases": [phase]}, notes


def per_layer(workload, seconds: int) -> tuple[dict, list[str]]:
    from spans import Tracer, import_times

    imports = import_times(sys.executable, common.child_env(), common.ROOT)
    workload.prepare()
    plain = measure(workload, seconds / 2)
    recheck(workload, plain)
    tracer = Tracer()
    workload.trace(tracer)
    traced = measure(workload, seconds / 2)
    metrics = {**imports, **tracer.metrics()}
    base, with_spans = statistics.median(plain["latencies"]), statistics.median(traced["latencies"])
    notes = [
        f"tracing overhead: traced p50 {with_spans:.6g} s - untraced p50 {base:.6g} s = "
        f"{with_spans - base:.6g} s ({100.0 * (with_spans - base) / base:+.1f}%), "
        f"{len(traced['latencies'])} traced and {len(plain['latencies'])} untraced operations",
    ]
    return {"metrics": metrics, "phases": [plain, traced]}, notes


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("cli-cold", "sweep-grid", "oracle"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    common.require_source()
    from workloads import WORKLOADS

    common.SCRATCH.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(dir=common.SCRATCH)
    try:
        workload = WORKLOADS[args.workload](random.Random(args.seed), Path(scratch))
        run = per_layer if args.trace else end_to_end
        result, notes = run(workload, args.seconds)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    errors = [e for phase in result["phases"] for e in phase["errors"]]
    attempted = sum(phase["attempted"] for phase in result["phases"])
    for error in errors[:5]:
        print(f"FAILED: {error}", file=sys.stderr)
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("# machine " + json.dumps(common.machine_record()))
    for name, (value, unit) in result["metrics"].items():
        print(f"{name:48s} {value:.6g} {unit}")
    for note in notes:
        print("# " + note)
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

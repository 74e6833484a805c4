"""Child processes started by run.py.

    python3 bench/child.py setup <workload> <scratch dir>
        import doublewell and do the workload's warm-up; print the seconds taken.
    python3 bench/child.py peak <workload> <scratch dir> [doublewell arguments...]
        the same warm-up, then the command line if one is given; print this
        process's peak resident memory in MB.  No output check runs here, so
        the figure is the program's alone.
    python3 bench/child.py cli <spans.json> <doublewell arguments...>
        run the command line with spans recorded, write their totals to
        spans.json and exit with the command's status.

Both expect PYTHONPATH to hold the checkout's src/ (common.child_env).
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time


def warm_up(workload: str, scratch: str) -> None:
    """The work a warm process does once before its timed loop."""
    import doublewell
    import doublewell.cli

    if workload == "oracle":
        doublewell.exact_splitting(doublewell.from_eta(0.3))
    elif workload == "sweep-grid":
        with contextlib.redirect_stdout(io.StringIO()):
            doublewell.cli.main(["sweep", "--steps", "100", "--out", f"{scratch}/warm-up.csv"])


def main(argv: list[str]) -> int:
    if argv[0] == "setup":
        start = time.perf_counter()
        warm_up(argv[1], argv[2])
        print(time.perf_counter() - start)
        return 0
    if argv[0] == "peak":
        warm_up(argv[1], argv[2])
        if argv[3:]:
            import doublewell.cli

            with contextlib.redirect_stdout(io.StringIO()):
                if (status := doublewell.cli.main(argv[3:])) != 0:
                    return status
        print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        return 0
    from spans import Tracer

    import doublewell.cli

    tracer = Tracer()
    tracer.install()
    try:
        return doublewell.cli.main(argv[2:])
    finally:
        with open(argv[1], "w") as fh:
            json.dump(tracer.snapshot(), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

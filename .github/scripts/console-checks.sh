#!/usr/bin/env bash
# Every subcommand and every splitting method through the installed
# `doublewell` entry point, so a stale import or a RuntimeWarning (run under
# PYTHONWARNINGS=error::RuntimeWarning) fails here.
# Usage: console-checks.sh OUTDIR   (writes sweep.csv, default.csv and never.err there)
set -euo pipefail
out="$1"

# run a command that must fail with the given exit code
expect_exit() {
  local want="$1" status=0
  shift
  "$@" || status=$?
  test "$status" -eq "$want"
}

doublewell table1
doublewell validate
doublewell validate --json
doublewell sweep --steps 10 --out "$out/sweep.csv"
# a refused sweep prints one error line, no traceback, and writes no file
expect_exit 2 doublewell sweep --eta-max 0.7 --out "$out/never.csv" 2> "$out/never.err"
test "$(head -c 7 "$out/never.err")" = "error: "
test "$(wc -l < "$out/never.err")" -eq 1
test ! -e "$out/never.csv"
# a formula line computes at the eta given and echoes it, though the
# well a = 1/0.122513 implies an eta 1 ulp below it
for method in wkb-exact asymptotic instanton; do
  doublewell splitting --eta 0.1 --method "$method"
  doublewell splitting --eta 0.2 --method "$method"
  doublewell splitting --eta 0.122513 --method "$method" | grep -F " eta=0.122513 "
done
# the eigensolver answers beyond the validity boundary, and refuses a well
# whose default grid would exceed its point budget
doublewell splitting --eta 0.2 --method spectral
doublewell splitting --eta 0.65 --method spectral
expect_exit 2 doublewell splitting --eta 1e-6 --method spectral
doublewell sweep --out "$out/default.csv"
# a formula line is the sweep's row at its eta, under the sweep's guards:
# instanton is refused beyond the validity boundary
expect_exit 2 doublewell splitting --eta 0.65 --method instanton

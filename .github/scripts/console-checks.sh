#!/usr/bin/env bash
# Every subcommand and every splitting method through the installed
# `doublewell` entry point, and two of them through `python -m doublewell`, so
# a stale import or a RuntimeWarning (run under
# PYTHONWARNINGS=error::RuntimeWarning) fails here.
# Usage: console-checks.sh OUTDIR   (writes sweep.csv, default.csv, never.err and units.err there)
set -euo pipefail
out="$1"

# run a command that must fail with the given exit code
expect_exit() {
  local want="$1" status=0
  shift
  "$@" || status=$?
  test "$status" -eq "$want"
}

doublewell validate
doublewell validate --json
# `python -m doublewell` runs __main__.py, not the console script's cli:run;
# both must print the same stdout
for args in "table1" "splitting --eta 0.2 --method spectral"; do
  via_entry="$(doublewell $args)"
  via_module="$(python -m doublewell $args)"
  test "$via_module" = "$via_entry"
done
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
# the eigensolver answers beyond the validity boundary, refuses a doublet
# below resolution, and refuses a well whose default grid would exceed its
# point budget
doublewell splitting --eta 0.2 --method spectral
doublewell splitting --eta 0.65 --method spectral
expect_exit 3 doublewell splitting --eta 0.14 --method spectral
expect_exit 2 doublewell splitting --eta 1e-6 --method spectral
# the eigensolver solves in natural units: a well at hbar = 2**200 and
# a = 5 * 2**100 (eta = 0.2), whose hbar w scales dE and its estimate exactly,
# prints the ln(dE / hbar w) and rel_estimate of --eta 0.2
physical="$(doublewell splitting --hbar 1.6069380442589903e+60 --a 6.338253001141147e+30 --method spectral)"
natural="$(doublewell splitting --eta 0.2 --method spectral)"
test "${physical#*ln_dE_over_hbar_omega=}" = "${natural#*ln_dE_over_hbar_omega=}"
# a well whose hbar w (eta = 0.2) or oscillator length (eta ~ 1e-65) leaves
# float64 is refused with one error line
expect_exit 2 doublewell splitting --hbar 1e-200 --omega 1e-200 --m 1e200 --a 5e-100 --method spectral 2> "$out/units.err"
test "$(head -c 7 "$out/units.err")" = "error: "
test "$(wc -l < "$out/units.err")" -eq 1
expect_exit 2 doublewell splitting --hbar 1e-310 --m 1e20 --a 1e-100 --method spectral 2> "$out/units.err"
test "$(head -c 7 "$out/units.err")" = "error: "
test "$(wc -l < "$out/units.err")" -eq 1
doublewell sweep --out "$out/default.csv"
# a formula line is the sweep's row at its eta, under the sweep's guards:
# instanton is refused beyond the validity boundary
expect_exit 2 doublewell splitting --eta 0.65 --method instanton

"""Command-line interface: subcommands, exit codes, CSV output, and the
checks on each flag."""

from __future__ import annotations

import gc
import json
import math
import re
import threading
import warnings

import numpy as np
import pytest

import doublewell.cli as cli
import doublewell.perturbation as perturbation
import doublewell.semiclassics as semiclassics
import doublewell.spectral as spectral
from doublewell import SQRT_E_OVER_PI, epsilon_closed_form, eta, from_eta
from doublewell.cli import CSV_HEADER, REFERENCE_RATIOS, main


def _parse_splitting_line(out: str) -> dict:
    line = out.strip().splitlines()[-1]
    return dict(token.split("=", 1) for token in line.split())


def _read_rows(path) -> list[dict]:
    header, *lines = path.read_text().splitlines()
    assert header == CSV_HEADER
    names = header.split(",")
    return [dict(zip(names, map(float, line.split(",")))) for line in lines]


def test_no_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2


def test_unknown_method_is_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        main(["splitting", "--eta", "0.1", "--method", "euler"])
    assert excinfo.value.code == 2


def test_table1_passes(capsys):
    assert main(["table1"]) == 0
    out = capsys.readouterr().out
    body = [line for line in out.splitlines() if line.strip().endswith("ok")]
    assert len(body) == len(REFERENCE_RATIOS)
    assert "MISMATCH" not in out


def test_splitting_instanton_output(capsys):
    assert main(["splitting", "--eta", "0.1", "--method", "instanton"]) == 0
    fields = _parse_splitting_line(capsys.readouterr().out)
    assert fields["method"] == "instanton"
    assert float(fields["eta"]) == pytest.approx(0.1, rel=1e-14)
    assert float(fields["ln_dE_over_hbar_omega"]) == pytest.approx(-63.55015215547742, abs=1e-10)
    assert float(fields["dE"]) == pytest.approx(2.51489347893833e-28, rel=1e-12)
    assert float(fields["rel_estimate"]) == 0.0


def test_splitting_method_ratio_matches_reference_table(capsys):
    assert main(["splitting", "--eta", "0.1", "--method", "asymptotic"]) == 0
    asym = float(_parse_splitting_line(capsys.readouterr().out)["dE"])
    assert main(["splitting", "--eta", "0.1", "--method", "instanton"]) == 0
    inst = float(_parse_splitting_line(capsys.readouterr().out)["dE"])
    assert asym / inst == pytest.approx(0.98104, abs=2e-5)


def test_splitting_wkb_exact_has_error_estimate(capsys):
    assert main(["splitting", "--eta", "0.1", "--method", "wkb-exact"]) == 0
    fields = _parse_splitting_line(capsys.readouterr().out)
    assert float(fields["dE"]) > 0.0
    assert 0.0 <= float(fields["rel_estimate"]) < 1e-6


def test_splitting_spectral_resolved(capsys):
    assert main(["splitting", "--eta", "0.2", "--method", "spectral"]) == 0
    fields = _parse_splitting_line(capsys.readouterr().out)
    assert float(fields["dE"]) == pytest.approx(6.117438798858288e-07, rel=1e-6)


@pytest.mark.parametrize("eta_value", ["0.05", "0.1"])
def test_splitting_spectral_unresolvable_is_numerical_failure(eta_value, capsys):
    assert main(["splitting", "--eta", eta_value, "--method", "spectral"]) == 3
    assert "below numerical resolution" in capsys.readouterr().err


@pytest.mark.parametrize(
    "eta_value, code, reason",
    [
        ("0.65", 0, ""),
        ("1", 0, ""),
        ("10", 0, ""),
        ("1e4", 0, ""),
        ("1e6", 3, "below numerical resolution"),
        ("1e100", 2, "below its float64 rounding"),
        ("1.3e154", 2, "below its float64 rounding"),
        ("1e-6", 2, "beyond the budget"),
    ],
)
def test_splitting_spectral_ends_cleanly_at_every_eta(eta_value, code, reason, capsys):
    # beyond eta0 the eigensolver answers until float64 cannot hold the well's
    # matrix (V swamps the off-diagonal at 1e100, overflows at 1.3e154);
    # far-apart wells are refused by the grid budget; never a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["splitting", "--eta", eta_value, "--method", "spectral"]) == code
    captured = capsys.readouterr()
    assert ("method=spectral" in captured.out) == (code == 0)
    assert reason in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize(
    "hbar, a, eta_value",
    [
        ("1e152", "5e76", "0.2"),
        ("1e151", "1.5811388300841898e75", "2"),
        ("2e151", "2.2360679774997895e76", "0.2"),
        ("1e-160", "5e-80", "0.2"),
        ("1e150", "5e75", "0.2"),
        ("1e-150", "5e-75", "0.2"),
        # hbar = 2**200, a = 5 * 2**100: hbar*w and the oscillator length are powers of two
        ("1.6069380442589903e+60", "6.338253001141147e+30", "0.2"),
    ],
)
def test_splitting_spectral_answers_at_every_energy_scale(hbar, a, eta_value, capsys):
    # the eigensolver solves every well in natural units, so at any hbar*omega,
    # however far from 1, a well prints the ln(dE/hbar w) and rel_estimate of its
    # eta; (est * hbar w) / (dE * hbar w) can round one ulp away from est / dE,
    # as it does at hbar = 1e152 and 1e-150, and is exact where hbar w is a power of two
    keys = ("ln_dE_over_hbar_omega", "rel_estimate")
    assert main(["splitting", "--hbar", hbar, "--a", a, "--method", "spectral"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    fields = _parse_splitting_line(captured.out)
    ln_value, estimate = (float(fields[key]) for key in keys)
    assert main(["splitting", "--eta", eta_value, "--method", "spectral"]) == 0
    reference = _parse_splitting_line(capsys.readouterr().out)
    ln_reference, reference_estimate = (float(reference[key]) for key in keys)
    if eta_value == "0.2":
        assert ln_value == ln_reference
        rounds = (hbar, a) in {("1e152", "5e76"), ("1e-150", "5e-75")}
        assert abs(estimate - reference_estimate) <= (math.ulp(reference_estimate) if rounds else 0.0)
    else:
        # a/l is 1 ulp off 0.5 = 1/eta, so this natural well is not from_eta(2) to the bit
        assert abs(ln_value - ln_reference) <= reference_estimate
        assert estimate == pytest.approx(reference_estimate, rel=1e-6)


@pytest.mark.parametrize("method", ["wkb-exact", "asymptotic", "instanton"])
def test_splitting_computes_at_the_eta_given(method, capsys):
    # the natural-units well a = 1/0.122513 implies an eta 1 ulp below 0.122513,
    # the paper's crossing; the formula routes take the eta as given
    assert eta(from_eta(0.122513)) != 0.122513
    route = {
        "wkb-exact": lambda e: semiclassics.splitting_table(e)[0, CSV_HEADER.split(",").index("ln_dE_wkb")],
        "asymptotic": semiclassics.ln_splitting_asymptotic,
        "instanton": semiclassics.ln_splitting_instanton,
    }[method]
    assert main(["splitting", "--eta", "0.122513", "--method", method]) == 0
    fields = _parse_splitting_line(capsys.readouterr().out)
    assert fields["eta"] == "0.122513"
    assert float(fields["ln_dE_over_hbar_omega"]) == route(0.122513)


def test_formula_lines_are_the_sweep_rows(capsys):
    # every formula method prints its column of the one-row table at the eta
    # given, and wkb-exact the rounding bound of that row's S
    rng = np.random.default_rng(20)
    etas = [*np.linspace(0.02, 0.15, 100).tolist(), *rng.uniform(0.01, 0.6037, 200).tolist()]
    columns = {"wkb-exact": "ln_dE_wkb", "asymptotic": "ln_dE_asym", "instanton": "ln_dE_instanton"}
    for et in etas:
        row = dict(zip(CSV_HEADER.split(","), semiclassics.splitting_table([et])[0].tolist()))
        for method, column in columns.items():
            assert main(["splitting", "--eta", repr(et), "--method", method]) == 0
            fields = _parse_splitting_line(capsys.readouterr().out)
            assert float(fields["ln_dE_over_hbar_omega"]) == row[column], (et, method)
            if method == "wkb-exact":
                assert float(fields["rel_estimate"]) == semiclassics._ROUNDING * (1.0 + row["S"])


def test_splitting_physical_parameters(capsys):
    # m = omega = hbar = 1, a = 10 is the same well as eta = 0.1.
    assert main(["splitting", "--a", "10", "--method", "instanton"]) == 0
    fields = _parse_splitting_line(capsys.readouterr().out)
    assert float(fields["eta"]) == pytest.approx(0.1, rel=1e-14)
    assert float(fields["dE"]) == pytest.approx(2.51489347893833e-28, rel=1e-12)


@pytest.mark.parametrize(
    "argv",
    [
        ["splitting", "--eta", "0.1", "--a", "10", "--method", "instanton"],
        ["splitting", "--m", "2.0", "--method", "instanton"],
        ["splitting", "--eta", "0.65", "--method", "asymptotic"],
        # wells whose eta over- or underflows float64
        ["splitting", "--a", "1e-200", "--method", "instanton"],
        ["splitting", "--a", "1e200", "--method", "wkb-exact"],
        ["splitting", "--eta", "1e-200", "--method", "instanton"],
        ["splitting", "--eta", "1e-200", "--method", "wkb-exact"],
        # a subnormal hbar implies eta ~ 1e-155, where 2/(3 eta^2) overflows float64
        ["splitting", "--a", "1", "--hbar", "1e-310", "--method", "wkb-exact"],
        ["splitting", "--a", "1", "--hbar", "1e-310", "--method", "instanton"],
        ["splitting", "--a", "1", "--hbar", "1e-310", "--method", "asymptotic"],
        # a formula line is the sweep's row, refused beyond the validity boundary
        ["splitting", "--eta", "0.65", "--method", "instanton"],
        # wells whose answer's unit leaves float64: hbar / (m w) underflows
        # to 0 (eta ~ 1e-65), hbar w underflows to 0 and overflows (eta = 0.2)
        ["splitting", "--hbar", "1e-310", "--m", "1e20", "--a", "1e-100", "--method", "spectral"],
        ["splitting", "--hbar", "1e-200", "--omega", "1e-200", "--m", "1e200", "--a", "5e-100", "--method", "spectral"],
        ["splitting", "--hbar", "1e-200", "--omega", "1e-200", "--m", "1e200", "--a", "5e-100", "--method", "wkb-exact"],
        ["splitting", "--hbar", "1e200", "--omega", "1e200", "--m", "1e-100", "--a", "5e50", "--method", "spectral"],
        ["splitting", "--hbar", "1e200", "--omega", "1e200", "--m", "1e-100", "--a", "5e50", "--method", "instanton"],
    ],
)
def test_splitting_usage_and_domain_errors(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_wkb_route_reaches_the_instanton_float64_floor(tmp_path, capsys):
    # the WKB kernel works in eta alone, so far-apart wells are refused only
    # where the instanton exponent 2/(3 eta^2) overflows; above that floor the
    # two routes agree to O(eta^2 ln eta)
    for well in (["--eta", "1e-120"], ["--a", "1e120"]):
        ln_values = []
        for method in ("wkb-exact", "instanton"):
            assert main(["splitting", *well, "--method", method]) == 0
            ln_values.append(float(_parse_splitting_line(capsys.readouterr().out)["ln_dE_over_hbar_omega"]))
        assert ln_values[0] == pytest.approx(ln_values[1], rel=1e-12)
    out = tmp_path / "never.csv"
    assert main(["sweep", "--eta-min", "1e-200", "--eta-max", "0.1", "--out", str(out)]) == 2
    assert "error: eta=1e-200 is beyond the instanton formula's float64 range" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["splitting", "--eta", "0.1", "--method", "wkb-exact", "--tol", "1e-5"],
        ["splitting", "--eta", "0.1", "--method", "instanton", "--tol", "5"],
    ],
)
def test_tol_option_is_gone(argv):
    # the closed-form route has nothing to converge, so --tol is not an option
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2


def test_sweep_writes_csv(tmp_path, capsys):
    out = tmp_path / "curve.csv"
    argv = [
        "sweep", "--eta-min", "0.01", "--eta-max", "0.15",
        "--steps", "40", "--out", str(out),
    ]
    assert main(argv) == 0
    assert "wrote 40 rows" in capsys.readouterr().out
    rows = _read_rows(out)
    assert len(rows) == 40

    etas = [r["eta"] for r in rows]
    assert etas[0] == pytest.approx(0.01) and etas[-1] == pytest.approx(0.15)
    assert all(b > a for a, b in zip(etas, etas[1:]))

    # deep-tunneling end of the curve is already close to the constant
    assert abs(rows[0]["ratio_corrected"] - SQRT_E_OVER_PI) < 1e-3

    # the uncorrected ratio column is one constant, sqrt(e/pi)
    constants = {r["ratio_uncorrected"] for r in rows}
    assert constants == {SQRT_E_OVER_PI}
    assert round(next(iter(constants)), 6) == 0.930191

    # columns round-trip: every row reproduces its own internal identities
    for r in rows:
        assert r["epsilon"] == pytest.approx(epsilon_closed_form(r["eta"]), rel=1e-12)
        assert r["ratio_corrected"] == pytest.approx(
            semiclassics.ratio_wkb_instanton(r["eta"]), rel=1e-12
        )
        assert r["ln_dE_asym"] - r["ln_dE_instanton"] == pytest.approx(
            math.log(r["ratio_corrected"]), abs=1e-9
        )
        assert r["ln_dE_wkb"] == pytest.approx(
            math.log(2.0) - math.log(r["omegaT"]) - r["S"], abs=1e-9
        )


def test_sweep_jobs_starts_no_thread(tmp_path, monkeypatch):
    # --jobs is a compatibility no-op: evaluation stays in the calling thread
    def refuse(self):
        raise AssertionError("sweep started a thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    out = tmp_path / "jobs.csv"
    assert main(["sweep", "--jobs", "4", "--steps", "5", "--out", str(out)]) == 0
    assert len(_read_rows(out)) == 5


def test_sweep_refuses_nonfinite_column(tmp_path, monkeypatch, capsys):
    # delta is NaN from a cut in eta on, however the kernel is called: over the
    # whole grid, or only in the last rows of one longer than two writer blocks.
    # Either way the sweep exits 2 naming the first bad column, with no file
    ln_delta = semiclassics.ln_delta_factor
    for steps, first_nan in ((5, 0), (2 * cli._BLOCK_ROWS + 3, 2 * cli._BLOCK_ROWS + 1)):
        cut = np.linspace(0.02, 0.15, steps)[first_nan]
        monkeypatch.setattr(
            semiclassics, "ln_delta_factor",
            lambda eta_value, cut=cut: np.where(eta_value >= cut, math.nan, ln_delta(eta_value)),
        )
        out = tmp_path / f"nan{steps}.csv"
        assert main(["sweep", "--steps", str(steps), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: column ln_dE_asym is not finite\n"
        assert not out.exists()


def test_failed_allocation_is_a_domain_error(tmp_path, monkeypatch, capsys):
    # a grid too large for memory (say --steps 100000000000, 745 GiB) fails in
    # numpy with a MemoryError subclass; it exits 2 with an error line, not 1
    # with a traceback.  The allocation is faked: a host that overcommits
    # memory would page rather than fail
    message = "Unable to allocate 745. GiB for an array with shape (100000000000,) and data type float64"
    for exc, err in ((MemoryError(message), f"error: {message}\n"), (MemoryError(), "error: MemoryError\n")):
        def fail(grid, exc=exc):
            raise exc

        monkeypatch.setattr(semiclassics, "splitting_table", fail)
        out = tmp_path / "never.csv"
        assert main(["sweep", "--out", str(out)]) == 2
        assert capsys.readouterr().err == err
        assert not out.exists()


def _assert_rows_equal_one_row_reports(tmp_path, steps, spacing, eta_min=0.021, eta_max=0.149):
    out = tmp_path / "rows.csv"
    argv = [
        "sweep", "--eta-min", repr(eta_min), "--eta-max", repr(eta_max),
        "--steps", str(steps), "--spacing", spacing, "--out", str(out),
    ]
    assert main(argv) == 0
    grid = (np.linspace if spacing == "linear" else np.geomspace)(eta_min, eta_max, steps)
    lines = out.read_text().splitlines()[1:]
    assert len(lines) == steps
    for i, line in enumerate(lines):
        row = semiclassics.splitting_table(grid[i : i + 1])[0]
        assert line == ",".join(map(repr, row.tolist()))


@pytest.mark.parametrize("spacing", ["linear", "log"])
def test_sweep_rows_equal_one_row_reports(tmp_path, spacing):
    # the batched sweep and the one-row report are the same code path: every
    # row's bytes are those of splitting_table at that eta alone, across a
    # block boundary too, whatever grid the row belongs to
    _assert_rows_equal_one_row_reports(tmp_path, 1100, spacing)


@pytest.mark.parametrize("steps", [1024, 1025, cli._BLOCK_ROWS, cli._BLOCK_ROWS + 1])
def test_sweep_block_edges_equal_one_row_reports(tmp_path, steps):
    # each _BLOCK_ROWS-row view of the one kernel table is formatted as one
    # array: a grid inside one partial block, a full last block and a one-row
    # last block hold the same bytes as the one-row tables
    _assert_rows_equal_one_row_reports(tmp_path, steps, "linear")


@pytest.mark.parametrize("steps", [1100, 2 * cli._BLOCK_ROWS + 1])
def test_sweep_rows_equal_one_row_reports_where_repr_decides(tmp_path, steps):
    # over [0.001, 0.6] the writer hands a third of the epsilon column to repr:
    # epsilon is below 1e-4 up to eta = 0.008 and crosses 0 near eta = 0.362, and
    # repr writes it in exponent notation there; the longer grid carries that
    # fallback across two block edges into a one-row last block
    _assert_rows_equal_one_row_reports(tmp_path, steps, "log", 0.001, 0.6)


def test_default_sweep_eta_column_is_the_grid(tmp_path):
    # the kernel takes eta as given, so the column parses back to the grid exactly
    out = tmp_path / "default.csv"
    assert main(["sweep", "--out", str(out)]) == 0
    etas = [row["eta"] for row in _read_rows(out)]
    assert etas == np.linspace(0.02, 0.15, 100).tolist()


def test_sweep_columns_match_closed_forms(tmp_path):
    # the columns that no other test holds to a formula, each from math alone:
    # eps = (eta^2/16)(25 - 189 eta^2), turning points (1/eta) sqrt(1 -+ 2 eta sqrt(1+eps)),
    # ln delta = -ln(1+eps)/2 + eps/2 - eps ln(eta sqrt(1+eps)/4), and the
    # asymptotic log = instanton log + ln sqrt(e/pi) + ln delta
    out = tmp_path / "log10k.csv"
    argv = ["sweep", "--steps", "10000", "--spacing", "log", "--eta-min", "0.021", "--eta-max", "0.149", "--out", str(out)]
    assert main(argv) == 0
    for r in _read_rows(out):
        e = r["eta"]
        eps = e * e / 16.0 * (25.0 - 189.0 * e * e)
        root = 2.0 * e * math.sqrt(1.0 + eps)
        ln_delta = -0.5 * math.log1p(eps) + 0.5 * eps - eps * math.log(e * math.sqrt(1.0 + eps) / 4.0)
        ln_instanton = math.log(4.0 / (math.sqrt(math.pi) * e)) - 2.0 / (3.0 * e * e)
        want = {
            "epsilon": eps,
            "alpha": math.sqrt(1.0 - root) / e,
            "gamma": math.sqrt(1.0 + root) / e,
            "delta": math.exp(ln_delta),
            "ratio_corrected": math.sqrt(math.e / math.pi) * math.exp(ln_delta),
            "ln_dE_asym": ln_instanton + 0.5 * (1.0 - math.log(math.pi)) + ln_delta,
        }
        for name, value in want.items():
            assert r[name] == pytest.approx(value, rel=1e-14), (e, name)


def test_sweep_leaves_no_cyclic_garbage(tmp_path):
    # main reuses one parser, so a warm sweep frees everything it made by
    # reference counting alone
    argv = ["sweep", "--steps", "100", "--out", str(tmp_path / "warm.csv")]
    assert main(argv) == 0
    gc.collect()
    assert main(argv) == 0
    assert gc.collect() == 0


def test_sweep_runs_no_garbage_collection(tmp_path):
    # the writer formats whole numpy blocks, so a 10^4-row sweep allocates no
    # per-row containers for the cyclic collector to count
    collections = []

    def count(phase, info):
        if phase == "start":
            collections.append(info["generation"])

    gc.collect()
    gc.callbacks.append(count)
    try:
        argv = ["sweep", "--steps", "10000", "--eta-min", "0.021", "--eta-max", "0.149", "--out", str(tmp_path / "gc.csv")]
        assert main(argv) == 0
    finally:
        gc.callbacks.remove(count)
    assert len(collections) <= 1, collections


def test_sweep_log_spacing(tmp_path):
    out = tmp_path / "log.csv"
    argv = [
        "sweep", "--eta-min", "0.01", "--eta-max", "0.16",
        "--steps", "5", "--spacing", "log", "--out", str(out),
    ]
    assert main(argv) == 0
    etas = [r["eta"] for r in _read_rows(out)]
    quotients = [b / a for a, b in zip(etas, etas[1:])]
    assert all(q == pytest.approx(quotients[0], rel=1e-12) for q in quotients)
    assert etas[0] == pytest.approx(0.01, rel=1e-12)
    assert etas[-1] == pytest.approx(0.16, rel=1e-12)


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--eta-min", "0.1", "--eta-max", "0.7", "--out", "never.csv"],
        ["sweep", "--eta-min", "0.2", "--eta-max", "0.1", "--out", "never.csv"],
        ["sweep", "--steps", "1", "--out", "never.csv"],
        ["sweep", "--jobs", "0", "--out", "never.csv"],
        ["sweep", "--eta-min", "0", "--out", "never.csv"],
        ["sweep", "--eta-min", "-0.1", "--out", "never.csv"],
        ["sweep", "--out", "/nonexistent-dir/out.csv"],
        # argparse converts these, so the model's checks must refuse them
        ["sweep", "--eta-min", "nan", "--out", "never.csv"],
        ["sweep", "--eta-max", "inf", "--out", "never.csv"],
        ["sweep", "--steps", "0", "--out", "never.csv"],
        ["sweep", "--jobs", "-1", "--out", "never.csv"],
    ],
)
def test_sweep_rejects_bad_requests(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    # the message names every option given but --out, by its key
    for flag in argv[1::2]:
        if flag != "--out":
            assert flag[2:].replace("-", "_") in err
    assert not any(tmp_path.iterdir())


def test_config_option_is_gone(tmp_path, monkeypatch):
    # sweep options are flags only: a --config file is an argparse usage error
    # for every subcommand, and nothing is written
    monkeypatch.chdir(tmp_path)
    (tmp_path / "f.json").write_text(json.dumps({"steps": 7}))
    for command in (["sweep", "--out", "x.csv"], ["table1"]):
        with pytest.raises(SystemExit) as excinfo:
            main(["--config", "f.json", *command])
        assert excinfo.value.code == 2
    assert [path.name for path in tmp_path.iterdir()] == ["f.json"]


def test_validate_passes(capsys):
    assert main(["validate"]) == 0
    out = capsys.readouterr().out
    assert "all checks passed" in out
    assert "FAIL " not in out


def test_validate_json_shape(capsys):
    assert main(["validate", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is True
    by_name = {c["name"]: c for c in payload["checks"]}
    assert list(by_name) == [
        "engine-vs-closed-form", "series-coefficients", "turning-point-residuals",
        "quadrature-convergence", "reference-table", "crossing-location",
        "spectral[eta=0.16]", "spectral[eta=0.18]", "spectral[eta=0.2]", "spectral-log-slope",
    ]
    assert {c["status"] for c in payload["checks"]} == {"pass"}


@pytest.mark.parametrize("refused", [(0.16, 0.18, 0.2), (0.18,)], ids=["every-well", "eta=0.18"])
def test_validate_fails_when_the_eigensolver_refuses(monkeypatch, capsys, refused):
    # a doublet validate needs but cannot resolve is a failure, never a pass;
    # the refusal is the real solver's, at a well it cannot resolve
    original = spectral.exact_splitting
    with pytest.raises(spectral.ResolutionError) as excinfo:
        original(from_eta(0.14))
    refused_etas = {eta(from_eta(e)) for e in refused}

    def refusing(p):
        if eta(p) in refused_etas:
            raise excinfo.value
        return original(p)

    monkeypatch.setattr(spectral, "exact_splitting", refusing)
    assert main(["validate", "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is False
    by_name = {c["name"]: c for c in payload["checks"]}
    for e in (0.16, 0.18, 0.2):
        check = by_name[f"spectral[eta={e:g}]"]
        if e in refused:
            # failed with a null value, and says by how much the doublet missed
            assert (check["status"], check["value"]) == ("fail", None)
            pattern = r"splitting below numerical resolution: dE=\S+, estimate=\S+ \(need dE > 10x estimate\)"
            assert re.fullmatch(pattern, check["detail"])
        else:
            assert check["status"] == "pass"
    # the slope is fitted over the resolved wells; with fewer than two it is NaN, which fails
    slope = by_name["spectral-log-slope"]
    fitted = 3 - len(refused) >= 2
    assert (slope["status"], slope["value"] is None) == (("pass", False) if fitted else ("fail", True))

    assert main(["validate"]) == 1
    out = capsys.readouterr().out
    for e in refused:
        assert f"FAIL    spectral[eta={e:g}]: " in out


def test_corrupted_correction_factor_is_caught(monkeypatch, capsys):
    # Flip the sign of the epsilon/2 term inside delta(eta): a plausible
    # transcription slip, large enough (~2%) that both gates must trip.
    def flipped(eta_value: float) -> float:
        eps = epsilon_closed_form(eta_value)
        half = 0.5 * math.log1p(eps)
        return math.exp(-half - 0.5 * eps - eps * (math.log(eta_value / 4.0) + half))

    monkeypatch.setattr(semiclassics, "delta_factor", flipped)

    assert main(["table1"]) == 1
    captured = capsys.readouterr()
    assert captured.out.count("MISMATCH") == len(REFERENCE_RATIOS)
    # one stderr line per reference row, in row order
    named = [re.match(r"mismatch at eta=(\S+): computed \S+, reference (\S+)$", line).groups()
             for line in captured.err.splitlines()]
    assert named == [(f"{et:g}", f"{reference:.5f}") for et, reference in REFERENCE_RATIOS]

    assert main(["validate", "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is False
    by_name = {c["name"]: c for c in payload["checks"]}
    assert by_name["reference-table"]["status"] == "fail"
    assert by_name["reference-table"]["value"] > by_name["reference-table"]["bound"]


def test_unconverged_quadrature_reference_fails_validate(monkeypatch, capsys):
    # a reference that agrees with the closed form but whose 16 -> 32-node
    # change is 2e-10 has not met the 1e-10 convergence guarantee
    def unconverged(alpha, gamma):
        action, period = semiclassics._elliptic_integrals(alpha, gamma)
        estimate = np.full(np.shape(action), 2e-10)
        return action, estimate, period, estimate

    monkeypatch.setattr(semiclassics, "_quadrature_integrals", unconverged)
    assert main(["validate", "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is False
    by_name = {c["name"]: c for c in payload["checks"]}
    assert by_name["quadrature-convergence"]["status"] == "fail"
    assert "2.000e-10 > 1e-10" in by_name["quadrature-convergence"]["detail"]
    # the 16 -> 32-node change in units of its 1e-10 limit
    assert by_name["quadrature-convergence"]["value"] == 2.0
    assert by_name["quadrature-convergence"]["bound"] == 1.0


def test_corrupted_engine_fails_validate(monkeypatch, capsys):
    # an engine 1e-9 off in relative terms misses both of its checks' 1e-12
    # bounds; validate calls it directly and through the series coefficients
    original = perturbation.rs_engine

    def corrupted(expansion, order=2):
        return (1.0 + 1e-9) * original(expansion, order)

    monkeypatch.setattr(perturbation, "rs_engine", corrupted)
    monkeypatch.setattr(cli, "rs_engine", corrupted)
    assert main(["validate", "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is False
    failed = {c["name"] for c in payload["checks"] if c["status"] == "fail"}
    assert failed == {"engine-vs-closed-form", "series-coefficients"}
    assert len(payload["checks"]) == 10


def _nan_period(original):
    def patched(alpha, gamma):
        action, period = original(alpha, gamma)
        period = np.array(period, dtype=float)
        period.flat[0] = math.nan
        return action, period

    return patched


def _nan_at(original, nan_eta):
    return lambda eta_value: math.nan if eta_value == nan_eta else original(eta_value)


#: check -> (semiclassics attribute, wrapper that makes one of its samples NaN)
_NAN_INJECTIONS = {
    # one NaN period among the seven closed-form integrals
    "quadrature-convergence": ("_elliptic_integrals", _nan_period),
    # a NaN correction factor at one reference-table row
    "reference-table": ("delta_factor", lambda f: _nan_at(f, 0.13)),
}


@pytest.mark.parametrize("check", list(_NAN_INJECTIONS))
def test_nan_sample_fails_validate(monkeypatch, capsys, check):
    attribute, wrap = _NAN_INJECTIONS[check]
    # np.max keeps a NaN sample that max() would drop, and NaN <= bound is false
    monkeypatch.setattr(semiclassics, attribute, wrap(getattr(semiclassics, attribute)))

    def refuse(constant):
        raise ValueError(f"not strict JSON: {constant}")

    assert main(["validate", "--json"]) == 1
    payload = json.loads(capsys.readouterr().out, parse_constant=refuse)
    assert payload["passed"] is False
    by_name = {c["name"]: c for c in payload["checks"]}
    assert by_name[check]["status"] == "fail"
    # a non-finite value is written as null
    assert by_name[check]["value"] is None

    assert main(["validate"]) == 1
    assert f"FAIL    {check}: " in capsys.readouterr().out


def test_validate_json_times_every_check(capsys):
    assert main(["validate", "--json"]) == 0
    seconds = [record["seconds"] for record in json.loads(capsys.readouterr().out)["checks"]]
    assert seconds and all(isinstance(s, float) and math.isfinite(s) and s >= 0.0 for s in seconds)


def test_validate_status_follows_value_and_bound(capsys):
    assert main(["validate", "--json"]) == 0
    records = json.loads(capsys.readouterr().out)["checks"]
    assert main(["validate"]) == 0
    lines = capsys.readouterr().out.splitlines()
    for record in records:
        assert list(record) == ["name", "status", "detail", "value", "bound", "seconds"]
        value, bound = record["value"], record["bound"]
        # a null value is a non-finite one, which fails
        assert record["status"] == ("pass" if value is not None and value <= bound else "fail")
    assert lines[:-1] == [f"{r['status'].upper():7s} {r['name']}: {r['detail']}" for r in records]
    assert lines[-1] == "all checks passed"

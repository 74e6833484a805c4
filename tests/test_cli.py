"""Command-line interface: subcommands, exit codes, CSV output, config."""

from __future__ import annotations

import json
import math
import threading
from dataclasses import astuple

import numpy as np
import pytest

import doublewell.semiclassics as semiclassics
from doublewell import SQRT_E_OVER_PI, epsilon_closed_form, from_eta
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


def test_splitting_spectral_unresolvable_is_numerical_failure(capsys):
    assert main(["splitting", "--eta", "0.05", "--method", "spectral"]) == 3
    assert "below numerical resolution" in capsys.readouterr().err


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
        ["splitting", "--eta", "0.1", "--method", "wkb-exact", "--tol", "1e-5"],
        ["splitting", "--eta", "0.1", "--method", "instanton", "--tol", "5"],
    ],
)
def test_splitting_usage_and_domain_errors(argv, capsys):
    assert main(argv) == 2
    assert "error:" in capsys.readouterr().err


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


def test_sweep_byte_determinism_across_runs_and_schedules(tmp_path):
    paths = [tmp_path / name for name in ("a.csv", "b.csv", "c.csv")]
    base = ["sweep", "--steps", "25", "--eta-min", "0.02", "--eta-max", "0.15"]
    assert main(base + ["--out", str(paths[0])]) == 0
    assert main(base + ["--out", str(paths[1])]) == 0
    assert main(base + ["--out", str(paths[2]), "--jobs", "4"]) == 0
    blobs = [path.read_bytes() for path in paths]
    assert blobs[0] == blobs[1] == blobs[2]


def test_sweep_jobs_starts_no_thread(tmp_path, monkeypatch):
    # --jobs is a compatibility no-op: evaluation stays in the calling thread
    def refuse(self):
        raise AssertionError("sweep started a thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    out = tmp_path / "jobs.csv"
    assert main(["sweep", "--jobs", "4", "--steps", "5", "--out", str(out)]) == 0
    assert len(_read_rows(out)) == 5


def test_sweep_refuses_nonfinite_column(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(semiclassics, "delta_factor", lambda eta_value: math.nan)
    out = tmp_path / "nan.csv"
    assert main(["sweep", "--steps", "5", "--out", str(out)]) == 2
    assert "column delta is not finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("spacing", ["linear", "log"])
def test_sweep_rows_equal_one_row_reports(tmp_path, spacing):
    # the batched sweep and the one-row report are the same code path: every
    # row's bytes are those of splitting_report at that eta, across a block
    # boundary too, whatever grid the row belongs to
    out = tmp_path / "rows.csv"
    steps = 1100
    argv = [
        "sweep", "--eta-min", "0.021", "--eta-max", "0.149",
        "--steps", str(steps), "--spacing", spacing, "--out", str(out),
    ]
    assert main(argv) == 0
    grid = (np.linspace if spacing == "linear" else np.geomspace)(0.021, 0.149, steps)
    lines = out.read_text().splitlines()[1:]
    assert len(lines) == steps
    for eta_value, line in zip(grid, lines):
        report = semiclassics.splitting_report(from_eta(float(eta_value)))
        assert line == ",".join(map(repr, astuple(report)))


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
        ["sweep", "--eta-min", "0.1", "--eta-max", "0.7", "--out", "ignored.csv"],
        ["sweep", "--eta-min", "0.2", "--eta-max", "0.1", "--out", "ignored.csv"],
        ["sweep", "--steps", "1", "--out", "ignored.csv"],
        ["sweep", "--jobs", "0", "--out", "ignored.csv"],
        ["sweep", "--out", "/nonexistent-dir/out.csv"],
    ],
)
def test_sweep_rejects_bad_requests(argv, capsys):
    assert main(argv) == 2
    assert "error:" in capsys.readouterr().err


def test_config_file_supplies_defaults(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"steps": 7, "eta_min": 0.05, "eta_max": 0.12}))
    out = tmp_path / "from_config.csv"
    assert main(["--config", str(cfg), "sweep", "--out", str(out)]) == 0
    rows = _read_rows(out)
    assert len(rows) == 7
    assert rows[0]["eta"] == pytest.approx(0.05)
    assert rows[-1]["eta"] == pytest.approx(0.12)


def test_flag_overrides_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"steps": 7}))
    out = tmp_path / "overridden.csv"
    assert main(["--config", str(cfg), "sweep", "--steps", "9", "--out", str(out)]) == 0
    assert len(_read_rows(out)) == 9


@pytest.mark.parametrize(
    "payload",
    [
        json.dumps({"stepz": 7}),
        "{nope",
        json.dumps([1, 2, 3]),
        json.dumps({"steps": 7.9}),
        json.dumps({"jobs": 0.5}),
    ],
)
def test_config_file_rejected(tmp_path, payload, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(payload)
    out = tmp_path / "never.csv"
    assert main(["--config", str(cfg), "sweep", "--out", str(out)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_missing_config_file(tmp_path, capsys):
    out = tmp_path / "never.csv"
    assert main(["--config", str(tmp_path / "absent.json"), "sweep", "--out", str(out)]) == 2
    assert "config file not found" in capsys.readouterr().err


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
    for required in (
        "engine-vs-closed-form", "series-coefficients", "turning-point-residuals",
        "quadrature-convergence", "reference-table", "crossing-location",
        "consistency-triangle", "spectral-log-slope",
    ):
        assert by_name[required]["status"] == "pass"
    # the deepest doublet is below 64-bit resolution and must be skipped,
    # not silently passed
    assert by_name["spectral[eta=0.14]"]["status"] == "skipped"
    assert "below resolution" in by_name["spectral[eta=0.14]"]["detail"]
    for eta_value in ("0.16", "0.18", "0.2"):
        assert by_name[f"spectral[eta={eta_value}]"]["status"] == "pass"


def test_corrupted_correction_factor_is_caught(monkeypatch, capsys):
    # Flip the sign of the epsilon/2 term inside delta(eta): a plausible
    # transcription slip, large enough (~2%) that both gates must trip.
    def flipped(eta_value: float) -> float:
        eps = epsilon_closed_form(eta_value)
        half = 0.5 * math.log1p(eps)
        return math.exp(-half - 0.5 * eps - eps * (math.log(eta_value / 4.0) + half))

    monkeypatch.setattr(semiclassics, "delta_factor", flipped)

    assert main(["table1"]) == 1
    out = capsys.readouterr().out
    assert out.count("MISMATCH") == len(REFERENCE_RATIOS)

    assert main(["validate", "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is False
    by_name = {c["name"]: c for c in payload["checks"]}
    assert by_name["reference-table"]["status"] == "fail"

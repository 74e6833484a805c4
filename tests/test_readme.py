"""The README's library quick start runs as written and gives what its comments
quote, its command examples print what it records, and the package it documents
imports nothing beyond the standard library and numpy."""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

import pytest

from doublewell.cli import main

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def _quick_start() -> str:
    section = README.read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def _run(block: str) -> tuple[dict, dict]:
    """Run the block statement by statement: its namespace, and the value of
    each bare expression keyed by its source line."""
    namespace, values = {}, {}
    for node in ast.parse(block).body:
        if isinstance(node, ast.Expr):
            source = ast.get_source_segment(block, node)
            values[source] = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
        else:
            exec(compile(ast.Module([node], type_ignores=[]), "README.md", "exec"), namespace)
    return namespace, values


def test_library_quick_start_runs_and_matches_its_comments():
    block = _quick_start()
    ns, values = _run(block)
    comments = {line.split("#", 1)[0].strip(): line.split("#", 1)[1] for line in block.splitlines() if "#" in line}

    def quoted(statement: str, text: str) -> str:
        # the README must still quote `text` on that line
        assert text in comments[statement], (statement, comments[statement])
        return text

    # "x.yz..." quotes leading digits, so the value's repr starts with them
    leading = [
        ("tp = dw.turning_points(p, level)", "α = 8.936...", ns["tp"].alpha),
        ("tp = dw.turning_points(p, level)", "γ = 10.961...", ns["tp"].gamma),
        ("S = tp.action", "62.4157...", ns["S"]),
        ("T = tp.omega_t / p.angular_frequency", "6.3320...", ns["T"]),
        ("dw.ratio_wkb_instanton(0.1)", "0.98104...", values["dw.ratio_wkb_instanton(0.1)"]),
    ]
    for statement, text, value in leading:
        digits = re.search(r"[\d.]+\d", quoted(statement, text)).group(0)
        assert repr(value).startswith(digits), (statement, value)

    splitting, estimate = values["dw.exact_splitting(dw.from_eta(0.2))"]
    quoted("dw.exact_splitting(dw.from_eta(0.2))", f"({splitting:.3e}, {estimate:.2e})")
    shift = values["r.eigenvalues[0] + r.eigenvalues[1] - 1"]
    quoted("r.eigenvalues[0] + r.eigenvalues[1] - 1", f"physical ε at η = 0.1: {shift:.4e}")


#: the public library: one answer per question, each named in the README
PUBLIC_NAMES = {
    # model
    "WellParameters", "potential", "eta", "from_eta",
    # perturbation
    "AnharmonicExpansion", "PerturbedLevel", "epsilon_closed_form", "perturbed_level", "rs_engine",
    "epsilon_series_coefficients", "validity_boundary",
    # semiclassics
    "SQRT_E_OVER_PI", "SplittingReport", "turning_points", "delta_factor", "ln_delta_factor",
    "ln_splitting_wkb_exact", "ln_splitting_asymptotic", "ln_splitting_instanton", "splitting_asymptotic",
    "ratio_wkb_instanton", "splitting_report", "splitting_table",
    # spectral
    "GridSpec", "SpectrumResult", "ResolutionError", "solve_spectrum", "exact_splitting",
}


def test_public_names_are_the_documented_surface():
    import doublewell

    assert len(PUBLIC_NAMES) == 28
    assert sorted(doublewell.__all__) == sorted([*PUBLIC_NAMES, "__version__"])
    # each restated a field of the report row, or had one caller inside the package
    for gone in ("action_S", "period_T", "splitting_wkb_exact", "splitting_instanton", "transition_amplitudes"):
        assert not hasattr(doublewell, gone), gone
    text = README.read_text(encoding="utf-8")
    # named in code: in backticks, or as dw.name in the quick start
    undocumented = [name for name in doublewell.__all__ if not re.search(rf"(`|dw\.){name}\b", text)]
    assert not undocumented


def _absolute_imports(source: str) -> set[str]:
    """Top-level module names of every absolute import, those inside functions included."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_runtime_imports_only_the_standard_library_and_numpy():
    # the runtime depends on numpy alone, so every tier-1 result also holds on
    # an install without extras; the package's own modules import each other
    # relatively, and the quick start imports it by name
    allowed = sys.stdlib_module_names | {"numpy"}
    for path in sorted((ROOT / "src" / "doublewell").rglob("*.py")):
        assert _absolute_imports(path.read_text(encoding="utf-8")) - allowed == set(), path
    assert _absolute_imports(_quick_start()) - allowed == {"doublewell"}


def test_readme_command_examples_print_what_it_records(capsys):
    recorded = dict(re.findall(r"^\$ doublewell (.+)\n(.+)$", README.read_text(encoding="utf-8"), re.M))
    spectral, wkb = "splitting --eta 0.2 --method spectral", "splitting --a 10 --method wkb-exact"
    assert sorted(recorded) == sorted([spectral, wkb])
    # the eigensolver's line calls no numpy log or exp (its eigenvalues come from
    # a pure-Python bisection), so its bytes are pinned
    assert main(spectral.split()) == 0
    assert capsys.readouterr().out == recorded[spectral] + "\n"
    # the formula routes go through numpy's log and exp, whose last bit is not
    # shown to be the same on every CPU target
    assert main(wkb.split()) == 0
    printed, quoted = (
        dict(token.split("=", 1) for token in line.split()) for line in (capsys.readouterr().out, recorded[wkb])
    )
    assert printed.keys() == quoted.keys()
    assert (printed["method"], printed["eta"]) == (quoted["method"], quoted["eta"])
    for key in ("dE", "ln_dE_over_hbar_omega", "rel_estimate"):
        assert float(printed[key]) == pytest.approx(float(quoted[key]), rel=1e-12), key

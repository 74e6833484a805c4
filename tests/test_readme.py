"""The README's library quick start runs as written and gives what its comments quote."""

from __future__ import annotations

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


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

"""Closed-form level shift vs. the Rayleigh-Schrodinger ladder engine."""

from __future__ import annotations

import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import doublewell
from doublewell import (
    AnharmonicExpansion,
    epsilon_closed_form,
    epsilon_series_coefficients,
    from_eta,
    perturbed_level,
    rs_engine,
    validity_boundary,
)
from doublewell.perturbation import _transition_amplitudes


def test_epsilon_closed_form_value():
    assert epsilon_closed_form(0.1) == pytest.approx(0.01444375, rel=1e-12)
    # numpy scalars are numbers like any other
    assert epsilon_closed_form(np.float32(0.1)) == epsilon_closed_form(float(np.float32(0.1)))
    assert epsilon_closed_form(np.int64(1)) == epsilon_closed_form(1.0)


def test_epsilon_closed_form_root():
    root = math.sqrt(25.0 / 189.0)
    assert abs(epsilon_closed_form(root)) <= 1e-16
    assert root == pytest.approx(0.363696, abs=1e-6)


def test_epsilon_closed_form_small_eta_limit():
    assert epsilon_closed_form(1e-8) == pytest.approx(25.0 / 16.0 * 1e-16, rel=1e-10)


@pytest.mark.parametrize("bad", [0.0, -0.2, math.nan, math.inf, True])
def test_epsilon_closed_form_domain(bad):
    with pytest.raises(ValueError):
        epsilon_closed_form(bad)


def test_engine_matches_closed_form_everywhere():
    for et in np.linspace(0.01, 0.2, 50):
        expansion = AnharmonicExpansion.standard(from_eta(float(et)))
        assert abs(rs_engine(expansion, order=2) - epsilon_closed_form(float(et))) <= 1e-12


def test_engine_first_order_quartic_term():
    # <0|y^4|0> = 3 (hbar/2mw)^2 turns the quartic coefficient into (36/16) eta^2
    p = from_eta(0.07)
    expansion = dataclasses.replace(AnharmonicExpansion.standard(p), cubic=0.0)
    assert rs_engine(expansion, order=1) == pytest.approx(36.0 / 16.0 * 0.07**2, rel=1e-13)


def test_engine_second_order_cubic_term():
    # cubic-only second order: amplitudes 3 lam^3 (k=1) and sqrt(6) lam^3 (k=3)
    # give -(9 + 6/3) c3^2 lam^6 / (hbar w) = -(11/16) eta^2 * E0 in total
    p = from_eta(0.07)
    expansion = dataclasses.replace(AnharmonicExpansion.standard(p), quartic=0.0)
    value = rs_engine(expansion, order=2)
    assert value == pytest.approx(-11.0 / 16.0 * 0.07**2, rel=1e-13)
    lam = math.sqrt(p.hbar / (2.0 * p.mass * p.angular_frequency))
    explicit = -(9.0 + 6.0 / 3.0) * expansion.cubic**2 * lam**6 / (p.hbar * p.angular_frequency)
    assert value * 0.5 * p.hbar * p.angular_frequency == pytest.approx(explicit, rel=1e-13)


def test_engine_rejects_small_truncation():
    # the basis is fixed at the five states that hold every amplitude, so
    # only an unsupported order is left to refuse: above 2, below 1, or not
    # a whole number (a flag is not the number 1)
    expansion = AnharmonicExpansion.standard(from_eta(0.1))
    for bad in (3, True, "2", None, 1.5, 0):
        with pytest.raises(ValueError, match="^order "):
            rs_engine(expansion, order=bad)


def test_parity_selection_rules():
    # the cubic term connects |0> only to odd k, the quartic only to even k,
    # so the cross products vanish identically state by state
    amp_cubic, amp_quartic = _transition_amplitudes(AnharmonicExpansion.standard(from_eta(0.1)))
    k = np.arange(5)
    assert len(amp_cubic) == len(amp_quartic) == 5
    assert np.all(amp_cubic[k % 2 == 0] == 0.0)
    assert np.all(amp_quartic[k % 2 == 1] == 0.0)
    assert np.all(amp_cubic * amp_quartic == 0.0)
    assert np.count_nonzero(amp_cubic) == 2  # k = 1, 3
    assert np.count_nonzero(amp_quartic) == 3  # k = 0, 2, 4


@settings(max_examples=60)
@given(
    cubic=st.floats(min_value=-5.0, max_value=5.0),
    quartic=st.floats(min_value=-5.0, max_value=5.0),
)
def test_second_order_correction_never_raises_ground_state(cubic: float, quartic: float):
    expansion = dataclasses.replace(
        AnharmonicExpansion.standard(from_eta(0.3)), cubic=cubic, quartic=quartic
    )
    second = rs_engine(expansion, order=2) - rs_engine(expansion, order=1)
    assert second <= 0.0


def test_series_coefficients_standard():
    # read by order from one engine evaluation, so only the engine's own
    # rounding stands between them and the exact fractions
    a2, a4 = epsilon_series_coefficients("standard")
    assert abs(a2 - 25.0 / 16.0) <= 8 * math.ulp(25.0 / 16.0)
    assert abs(a4 - (-189.0 / 16.0)) <= 8 * math.ulp(189.0 / 16.0)
    # the paper's set is the only one
    with pytest.raises(ValueError, match="standard"):
        epsilon_series_coefficients("taylor")


def test_series_coefficients_taylor():
    # the engine on a set other than the paper's: the potential's own Taylor
    # coefficients about x = a, cubic c2/a and quartic c2/(4 a^2), at a = 1.
    # Orders are read as epsilon_series_coefficients reads them; -21/256 is
    # the quartic's second-order part only, not the physical eta^4 term
    expansion = AnharmonicExpansion(params=from_eta(1.0), cubic=0.5, quartic=0.125)
    quartic_only = dataclasses.replace(expansion, cubic=0.0)
    a4 = rs_engine(quartic_only, 2) - rs_engine(quartic_only, 1)
    a2 = rs_engine(expansion, 2) - a4
    assert abs(a2 - (-0.5)) <= 8 * math.ulp(0.5)
    assert abs(a4 - (-21.0 / 256.0)) <= 8 * math.ulp(21.0 / 256.0)


def test_series_coefficients_no_perturbation():
    # engine with both couplings off must give the zero polynomial; checked
    # directly rather than through the mode table
    p = from_eta(0.1)
    expansion = dataclasses.replace(AnharmonicExpansion.standard(p), cubic=0.0, quartic=0.0)
    assert rs_engine(expansion, order=2) == 0.0


def test_perturbed_level_value():
    level = perturbed_level(from_eta(0.1))
    assert level.unperturbed == 0.5
    assert level.energy == pytest.approx(0.5 * 1.01444375, rel=1e-12)
    assert level.energy == level.unperturbed * (1.0 + level.epsilon)


def test_engine_and_taylor_level_return_plain_floats():
    # a numpy scalar would leak into the level's repr as np.float64(...)
    assert type(rs_engine(AnharmonicExpansion.standard(from_eta(0.15)))) is float
    assert type(perturbed_level(from_eta(0.15)).epsilon) is float


def test_perturbed_level_small_eta_is_harmonic():
    level = perturbed_level(from_eta(1e-6))
    assert level.energy == pytest.approx(0.5, rel=1e-11)


@given(value=st.floats(min_value=0.01, max_value=0.60))
def test_below_barrier_flag_matches_energy_comparison(value: float):
    # the level carries no below-barrier flag any more; the comparison callers
    # make in its place, E < V(0), agrees with the dimensionless criterion
    # 4 eta^2 (1 + eps) < 1, since E / V(0) = 4 eta^2 (1 + eps)
    p = from_eta(value)
    level = perturbed_level(p)
    criterion = 4.0 * value * value * (1.0 + level.epsilon) < 1.0
    assert (level.energy < p.barrier_height) == criterion


@given(value=st.floats(min_value=0.005, max_value=0.60))
def test_below_barrier_throughout_working_range(value: float):
    # below the validity boundary the standard level always sits under the barrier
    p = from_eta(value)
    assert perturbed_level(p).energy < p.barrier_height


def test_below_barrier_with_negative_shift():
    # at eta = 0.49 the shift is already strongly negative, which keeps the
    # level under the barrier: eta^2 (1 + eps) = 0.167 < 1/4
    p = from_eta(0.49)
    level = perturbed_level(p)
    assert level.epsilon < -0.25
    assert level.energy < p.barrier_height


def test_validity_boundary_standard():
    boundary = validity_boundary()
    assert boundary == pytest.approx(0.6037523990662577, abs=1e-9)
    # the binding constraint is 1 + eps hitting zero, not the turning-point root
    assert 1.0 + epsilon_closed_form(boundary) == pytest.approx(0.0, abs=1e-12)
    # and the turning-point expression never reaches 1 below the boundary
    grid = np.linspace(1e-3, boundary - 1e-9, 500)
    values = 2.0 * grid * np.sqrt(1.0 + (grid**2 / 16.0) * (25.0 - 189.0 * grid**2))
    assert values.max() < 1.0


def test_import_does_not_load_scipy_optimize():
    # the boundary is closed form, so nothing needs a root finder at import
    src = str(Path(doublewell.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = "import sys, doublewell; print('scipy.optimize' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "False"


def test_no_command_imports_scipy(tmp_path):
    # the runtime needs numpy alone: with scipy made unimportable, every
    # subcommand and every splitting method, the eigensolver's included,
    # exits as it should and loads no scipy module
    src = str(Path(doublewell.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = f"""
import sys
sys.modules["scipy"] = None
from doublewell.cli import main
commands = [(["table1"], 0), (["validate"], 0), (["sweep", "--steps", "10", "--out", {str(tmp_path / "sweep.csv")!r}], 0)]
commands += [(["splitting", "--eta", "0.2", "--method", m], 0) for m in ("instanton", "asymptotic", "wkb-exact", "spectral")]
commands += [(["splitting", "--eta", "0.1", "--method", "spectral"], 3)]
codes = [(argv, main(argv), expected) for argv, expected in commands]
assert all(code == expected for _, code, expected in codes), codes
loaded = sorted(m for m, module in sys.modules.items() if m.split(".")[0] == "scipy" and module is not None)
assert not loaded, loaded
"""
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_turning_expression_small_in_table_range():
    for et in np.linspace(1e-3, 0.15, 100):
        assert 2.0 * et * math.sqrt(1.0 + epsilon_closed_form(float(et))) < 1.0


def test_expansion_validation():
    p = from_eta(0.1)
    with pytest.raises(ValueError, match="quartic"):
        AnharmonicExpansion(params=p, cubic=1.0, quartic=math.inf)
    with pytest.raises(ValueError, match="cubic"):
        AnharmonicExpansion(params=p, cubic=math.nan, quartic=1.0)
    # numbers only, one each: not text, not a sequence, not a flag
    for bad in ("1", [1.0], True):
        with pytest.raises(ValueError, match="^cubic "):
            AnharmonicExpansion(params=p, cubic=bad, quartic=1.0)
    with pytest.raises(ValueError, match="^params "):
        AnharmonicExpansion(params=None, cubic=1.0, quartic=1.0)

"""The sweep writer's formatter against `repr`, value for value."""

from __future__ import annotations

import subprocess
import sys

import numpy as np
import pytest

import doublewell._shortrepr as shortrepr
from doublewell._shortrepr import csv_rows

_COLS = 8


def _assert_matches_repr(values) -> None:
    """csv_rows writes each value as repr does, in any position of a row."""
    values = np.asarray(values, dtype=np.float64).ravel()
    for first in range(0, len(values), 1 << 16):
        part = values[first : first + (1 << 16)]
        part = np.concatenate([part, np.full(-len(part) % _COLS, 0.5)]).reshape(-1, _COLS)
        got = csv_rows(part, "\n").decode()
        expected = (("%r," * _COLS + "\n") * len(part)) % tuple(part.ravel().tolist())
        if got != expected:
            pairs = zip(got.replace("\n", "").split(","), expected.replace("\n", "").split(","))
            wrong = [(g, e) for g, e in pairs if g != e]
            pytest.fail(f"{len(wrong)} values differ from repr (written, repr): {wrong[:5]}")


def _neighbours(values) -> np.ndarray:
    values = np.asarray(values, dtype=np.float64)
    return np.concatenate([values, np.nextafter(values, 0.0), np.nextafter(values, np.inf)])


def test_log_spread_values_match_repr():
    # 10^6 values over [1e-6, 1e18] of both signs: both sides of the fixed
    # notation range, and every decimal exponent inside it
    rng = np.random.default_rng(14)
    n = 1_000_000
    _assert_matches_repr(10.0 ** rng.uniform(-6.0, 18.0, n) * rng.choice([-1.0, 1.0], n))


def test_raw_bit_patterns_match_repr():
    # every exponent, so most values are far outside the range: they must be
    # masked before any arithmetic, or the scaling overflows
    rng = np.random.default_rng(15)
    values = rng.integers(0, 2**64, 100_000, dtype=np.uint64).view(np.float64)
    _assert_matches_repr(values[np.isfinite(values)])


def test_powers_and_their_neighbours_match_repr():
    # the double nearest each power of ten, and every power of two in range
    tens = [float(f"1e{k}") for k in range(-8, 20)]
    powers = np.concatenate([tens, 2.0 ** np.arange(-30, 60)])
    _assert_matches_repr(np.concatenate([_neighbours(powers), -_neighbours(powers)]))


@pytest.mark.parametrize("edge", [1e-4, 1e16])
def test_values_next_to_the_range_ends_match_repr(edge):
    below, above = [edge], [edge]
    for _ in range(200):
        below.append(np.nextafter(below[-1], 0.0))
        above.append(np.nextafter(above[-1], np.inf))
    _assert_matches_repr(below + above)


def test_special_values_match_repr():
    _assert_matches_repr(
        [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, 1.7976931348623157e308,
         np.inf, -np.inf, np.nan, 1.0, -3.0, 12345.0, 2.0**52 + 1, 0.021, 0.5, 2.5e-4, 0.1, 0.3,
         -0.149, 123456789012345.6, 9999999999999998.0]
    )


def test_integers_and_short_decimals_match_repr():
    rng = np.random.default_rng(16)
    _assert_matches_repr(rng.integers(-(10**15), 10**15, 20_000).astype(np.float64))
    numerators = rng.integers(-(10**7), 10**7, 100_000)
    _assert_matches_repr(numerators / 10.0 ** rng.integers(0, 9, 100_000))


def test_ties_match_repr():
    # a whole number plus a few 64ths above 1e9 is an exact binary fraction
    # that often lies halfway between two 16- or 17-digit decimals
    rng = np.random.default_rng(18)
    n = 50_000
    _assert_matches_repr(np.floor(10.0 ** rng.uniform(9.0, 16.0, n)) + rng.integers(1, 64, n) / 64.0)


def test_fixed_notation_values_rarely_fall_back(monkeypatch):
    # the fast path is the point: below 1e9, where a float's binary fraction is
    # too fine for ties and whole numbers to be common, repr sees almost nothing
    calls = []

    def counting_repr(value):
        calls.append(value)
        return repr(value)

    monkeypatch.setattr(shortrepr, "repr", counting_repr, raising=False)
    rng = np.random.default_rng(17)
    n = 100_000
    values = 10.0 ** rng.uniform(-4.0, 9.0, n) * rng.choice([-1.0, 1.0], n)
    csv_rows(values.reshape(-1, 10), "\n")
    assert len(calls) < n // 10_000, len(calls)


def test_importing_the_cli_does_not_load_the_formatter():
    # only sweep needs it, so table1, splitting and validate never compile it
    code = "import sys, doublewell.cli; print('doublewell._shortrepr' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_importing_the_cli_does_not_load_json():
    # only validate --json needs it, so every other command skips its import
    code = "import sys, doublewell.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'json'))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"

"""Tests of the benchmark's oracles: python -m pytest bench"""

import cmath
import math
import sys
from pathlib import Path

import pytest
from scipy.special import erfcx

import oracles

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("xi", [1e-3, 1e-2, 0.3, 1.0, 5.0, 50.0])
def test_mellin_barnes_matches_exponential_closed_form(n, xi):
    exact = oracles.closed_form_transform(n, 1, xi)
    for value in oracles.transform_reference(1.0, 1.0, math.pi, 1.0, n, xi):
        assert oracles.relative_error(value, exact) < 1e-11


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("xi", [1e-3, 1e-2, 0.3, 1.0])
def test_mellin_barnes_matches_gaussian_closed_form(n, xi):
    exact = oracles.closed_form_transform(n, 2, xi)
    for value in oracles.transform_reference(1.0, 1.0, math.pi, 2.0, n, xi):
        assert oracles.relative_error(value, exact) < 1e-10


def test_mellin_barnes_is_independent_of_the_line():
    # Every line in (0, min(sigma, n)) gives the same integral.
    values = [oracles.mellin_barnes_transform(0.8, 1.0, math.pi, 2.2, 3, 0.7, c)
              for c in (0.4, 1.1, 1.8)]
    assert max(oracles.relative_error(v, values[0]) for v in values) < 1e-12


def test_mellin_barnes_resolves_the_large_xi_floor():
    # At n = 3, sigma = 2.2 the split pipeline is off by 1e-6 .. 1e-5 for
    # xi in [30, 100]; the two oracle lines must agree far below that, so the
    # defect shows up in the benchmark's accuracy figures.
    for xi in (30.0, 60.0, 99.0):
        a, b = oracles.transform_reference(0.8, 1.0, math.pi, 2.2, 3, xi)
        assert oracles.relative_error(b, a) < 1e-7


def test_mellin_barnes_rejects_lines_outside_the_strip():
    with pytest.raises(ValueError):
        oracles.mellin_barnes_transform(0.8, 1.0, math.pi, 0.7, 1, 1.0, 0.7)
    with pytest.raises(ValueError):
        oracles.mellin_barnes_transform(0.8, 1.0, 1.2, 0.7, 1, 1.0, 0.3)


@pytest.mark.parametrize("z", [0.0, 0.3, -2.5, 4.0 + 3.0j, -12.0 + 5.0j, -30.0, 25.0j])
def test_mpmath_series_matches_exp(z):
    assert oracles.relative_error(oracles.ml_series_mp(1.0, 1.0, z), cmath.exp(z)) < 1e-14


@pytest.mark.parametrize("z", [0.01, -0.5, -3.0, 2.0 - 1.0j, -6.0 + 6.0j, 8.0 * cmath.exp(0.9j)])
def test_mpmath_series_matches_erfcx(z):
    exact = complex(erfcx(-complex(z)))
    assert oracles.relative_error(oracles.ml_series_mp(0.5, 1.0, z), exact) < 1e-14


@pytest.mark.parametrize("r", [150.0, 900.0])
@pytest.mark.parametrize("phi", [math.pi, math.pi / 4 + 0.1, -2.0])
def test_mellin_barnes_ml_matches_erfcx(r, phi):
    z = r * cmath.exp(1j * phi)
    exact = complex(erfcx(-z))
    for c in (0.35, 0.6):
        assert oracles.relative_error(oracles.mellin_barnes_ml(0.5, 1.0, z, c), exact) < 1e-12


@pytest.mark.parametrize("alpha", [0.8, 1.3])
@pytest.mark.parametrize("r", [3.0, 40.0])
def test_mellin_barnes_ml_matches_mpmath_series(alpha, r):
    for phi in (math.pi, math.pi * alpha / 2 + 0.1):
        z = r * cmath.exp(1j * phi)
        series = oracles.ml_series_mp(alpha, 1.0, z)
        assert oracles.relative_error(oracles.mellin_barnes_ml(alpha, 1.0, z, 0.5), series) < 1e-12


@pytest.mark.parametrize("r", [0.0, 0.01, 0.3, 2.7, 41.0])
def test_jbar_reference_matches_half_order_closed_forms(r):
    assert oracles.jbar_reference(1, r) == pytest.approx(math.cos(2 * math.pi * r) / math.pi, abs=1e-15)
    assert oracles.jbar_reference(3, r) == pytest.approx(math.sin(2 * math.pi * r) * r / math.pi, abs=1e-13)


def test_digits_are_capped():
    assert oracles.digits(0.0) == 15.0
    assert oracles.digits(1e-7) == pytest.approx(7.0)


def test_grid_shift_stays_inside_the_window():
    sys.path.insert(0, str(SRC))
    import workloads

    for seed in range(20):
        xis = [unit.args[2] for unit in workloads.Grid(seed, Path(".")).units]
        assert all(1e-2 <= xi < 1e2 for xi in xis)
        assert 70.0 <= max(xis)
        for unit in workloads.Laws(seed, Path(".")).units:
            grid = unit.args[2]
            assert 1e-4 <= grid[0] < grid[-1] < 1e-2
    assert workloads.Kernels(3, Path(".")).units == workloads.Kernels(3, Path(".")).units

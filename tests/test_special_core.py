"""Tests for the numerical foundation: gamma, powers, quadrature, summation."""

import cmath
import math

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlfourier.errors import ConvergenceError, DomainError, PoleError
from mlfourier.special_core import (
    CompensatedSum,
    QuadratureConfig,
    accelerated_limit,
    complex_gamma,
    fixed_quad_complex,
    integrate_finite,
    integrate_semi_infinite,
    principal_pow,
    reciprocal_gamma,
)

GAMMA_GRID = [
    0.5, 1.0, 1.5, 7.25, 49.9,
    0.1 + 0.0j, -0.7, -3.3, -49.5,
    2.0 + 3.0j, -2.5 + 1.0j, 0.5 - 40.0j, -30.2 - 14.7j, 1e-4 + 1e-4j,
]


@pytest.mark.parametrize("z", GAMMA_GRID)
def test_gamma_matches_mpmath(z):
    want = complex(mp.gamma(mp.mpc(z)))
    got = complex_gamma(z)
    assert abs(got - want) <= 1e-13 * abs(want)


def test_gamma_random_box_accuracy():
    import random

    rng = random.Random(1234)
    worst = 0.0
    for _ in range(300):
        z = complex(rng.uniform(-50, 50), rng.uniform(-50, 50))
        if abs(z.imag) < 1e-3 and z.real <= 0.5:
            continue
        want = complex(mp.gamma(mp.mpc(z)))
        worst = max(worst, abs(complex_gamma(z) - want) / abs(want))
    assert worst <= 1e-13


@pytest.mark.parametrize("z", [0.0, -1.0, -7.0, -42.0])
def test_gamma_pole_raises(z):
    with pytest.raises(PoleError):
        complex_gamma(z)


@pytest.mark.parametrize("z", [0.0, -1.0, -7.0, -42.0])
def test_reciprocal_gamma_zero_at_poles(z):
    assert reciprocal_gamma(z) == 0.0


def test_reciprocal_gamma_near_pole():
    z = -3.0 + 1e-9j
    want = complex(1 / mp.gamma(mp.mpc(z)))
    assert abs(reciprocal_gamma(z) - want) <= 1e-13 * abs(want)


def test_reciprocal_gamma_underflow_is_zero_not_error():
    assert reciprocal_gamma(400.0) == 0.0


def test_gamma_beyond_product_overflow():
    # Gamma(165.2) ~ 1e295 is representable, close to the top of double
    # range; it must come back finite and accurate.
    want = complex(mp.gamma(mp.mpf("165.2")))
    assert abs(complex_gamma(165.2) - want) <= 1e-12 * abs(want)


@given(
    st.complex_numbers(
        min_magnitude=0.1, max_magnitude=20.0, allow_nan=False, allow_infinity=False
    )
)
@settings(max_examples=60, deadline=None)
def test_gamma_recurrence(z):
    if abs(z.imag) < 5e-2:  # keep clear of the pole line
        z = complex(z.real, 5e-2)
    lhs = complex_gamma(z + 1)
    rhs = z * complex_gamma(z)
    assert abs(lhs - rhs) <= 5e-12 * abs(lhs)


def test_principal_pow_branch():
    assert abs(principal_pow(-1.0, 0.5) - 1j) < 1e-15
    assert abs(principal_pow(4.0, 0.5) - 2.0) < 1e-15
    assert abs(principal_pow(1j, 2.0) + 1.0) < 1e-15
    assert principal_pow(0.0, 2.5) == 0.0
    with pytest.raises(DomainError):
        principal_pow(0.0, -1.0)
    with pytest.raises(DomainError):
        principal_pow(0.0, 1j)


def test_quadrature_config_validation():
    with pytest.raises(DomainError):
        QuadratureConfig(abs_tol=-1.0)
    with pytest.raises(DomainError):
        QuadratureConfig(max_subdivisions=0)


def test_integrate_finite_closed_forms():
    res = integrate_finite(lambda t: cmath.exp(1j * t), 0.0, math.pi)
    assert abs(res.value - 2j) <= 1e-12
    res = integrate_finite(lambda t: t**3, 0.0, 1.0)
    assert abs(res.value - 0.25) <= 1e-13
    # interior break point handed to the integrator
    res = integrate_finite(lambda t: abs(t - 0.3), 0.0, 1.0, points=[0.3])
    want = 0.3**2 / 2 + 0.7**2 / 2
    assert abs(res.value - want) <= 1e-12


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_integrate_finite_raises_when_quadpack_flags_roundoff():
    # unresolvable fast oscillation: QUADPACK stops well inside the
    # subdivision budget with its roundoff flag and an estimate of ~1e-7
    with pytest.raises(ConvergenceError, match="roundoff"):
        integrate_finite(lambda t: t + 1e-6 * math.sin(1e9 * t), 0.0, 1.0)


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_integrate_finite_raises_when_subdivisions_run_out():
    with pytest.raises(ConvergenceError, match="subdivisions"):
        integrate_finite(lambda t: 1.0 / t if t > 0.0 else 0.0, 0.0, 1.0)


def test_integrate_semi_infinite_exponential():
    res = integrate_semi_infinite(lambda t: cmath.exp(-(2 - 1j) * t), 1.0, 2.0)
    want = cmath.exp(-(2 - 1j)) / (2 - 1j)
    assert abs(res.value - want) <= 1e-11
    assert res.error < 1e-8


def test_integrate_semi_infinite_power_law():
    res = integrate_semi_infinite(lambda t: 1.0 / (1.0 + t * t) ** 2, 0.0, -2.0)
    assert abs(res.value - math.pi / 4) <= 1e-10


def test_integrate_semi_infinite_bad_hint():
    with pytest.raises(DomainError):
        integrate_semi_infinite(lambda t: 0.0, 0.0, -0.5)


def test_compensated_sum_exact_cancellation():
    s = CompensatedSum()
    for x in (1e16, 1.0, -1e16):
        s.add(x)
    assert s.value == 1.0


def test_fixed_quad_polynomial():
    # 16-node Gauss-Legendre is exact for polynomials up to degree 31
    val = fixed_quad_complex(lambda t: t**7 - 2 * t**3 + 1j * t, 0.0, 2.0)
    want = 2.0**8 / 8 - 2 * 2.0**4 / 4 + 1j * 2.0**2 / 2
    assert abs(val - want) <= 1e-12 * abs(want)


def test_accelerated_limit_alternating_log2():
    def terms():
        k = 0
        while True:
            yield (-1.0) ** k / (k + 1)
            k += 1

    val, err, used = accelerated_limit(terms(), order=6)
    assert abs(val - math.log(2.0)) <= 1e-10
    assert used < 60


def test_accelerated_limit_geometric():
    def terms():
        x = 1.0
        while True:
            yield x
            x *= 0.7

    val, err, used = accelerated_limit(terms(), order=4)
    assert abs(val - 1.0 / 0.3) <= 1e-10


def test_accelerated_limit_finite_generator():
    val, err, used = accelerated_limit(iter([1.0, 0.5, 0.25]), order=2)
    assert abs(val - 1.75) <= 1e-14


def test_accelerated_limit_divergent_raises():
    def ones():
        while True:
            yield 1.0

    with pytest.raises(ConvergenceError):
        accelerated_limit(ones(), order=2, max_terms=50)


def test_accelerated_limit_order_validation():
    with pytest.raises(DomainError):
        accelerated_limit(iter([1.0]), order=1)
    with pytest.raises(DomainError):
        accelerated_limit(iter([1.0]), order=13)

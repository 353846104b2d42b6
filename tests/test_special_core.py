"""Tests for the numerical foundation: gamma, powers, quadrature, summation."""

import cmath
import math

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlfourier.errors import ConvergenceError, DomainError, PoleError
from mlfourier.special_core import (
    accelerated_limit,
    complex_gamma,
    fsum_complex,
    gauss_legendre_rule,
    integrate_finite,
    integrate_panels,
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


def test_fsum_complex_exact_cancellation():
    assert fsum_complex([1e16, 1.0, -1e16]) == 1.0
    assert fsum_complex([1e16j, 1.0j, -1e16j]) == 1.0j


def test_gauss_legendre_rule_is_read_only():
    # Every quadrature shares the cached arrays: one write would corrupt
    # every later call.
    nodes, weights = gauss_legendre_rule(16)
    with pytest.raises(ValueError):
        nodes[0] = 0.0
    with pytest.raises(ValueError):
        weights *= 2.0
    assert abs(weights.sum() - 2.0) < 1e-14


def test_integrate_panels_complex_values():
    # Every panel of one batched call gets its own value; the flat contacts
    # of exp(-1/t) at a panel end cost tanh-sinh nothing.
    import numpy as np

    a = np.array([0.0, 1.0, 2.5, 0.0])
    b = np.array([1.0, 2.5, 7.0, 1.0])
    calls = []

    def f(x):
        calls.append(x.shape)
        return np.exp(1j * x) + np.exp(-1.0 / np.where(x > 0, x, 1.0))

    got = integrate_panels(f, a, b, 1.0)
    exact = [
        (cmath.exp(1j * hi) - cmath.exp(1j * lo)) / 1j
        + integrate_finite(lambda t: math.exp(-1.0 / t) if t > 0 else 0.0, lo, hi).value
        for lo, hi in zip(a, b)
    ]
    assert got.shape == (4,)
    assert all(abs(g - e) <= 1e-12 * abs(e) for g, e in zip(got, exact))
    assert len(calls) < 12  # one call per refinement level, not per node


def test_integrate_panels_failure_raises():
    import numpy as np

    with pytest.raises(ConvergenceError, match="tanh-sinh"):
        integrate_panels(lambda x: 1.0 / x + 0j, np.array([0.0]), np.array([1.0]), 1.0)


def test_accelerated_limit_alternating_log2():
    def terms():
        k = 0
        while True:
            yield (-1.0) ** k / (k + 1)
            k += 1

    val, err, used = accelerated_limit(terms())
    assert abs(val - math.log(2.0)) <= 1e-10
    assert used < 60


def test_accelerated_limit_geometric():
    def terms():
        x = 1.0
        while True:
            yield x
            x *= 0.7

    val, err, used = accelerated_limit(terms())
    assert abs(val - 1.0 / 0.3) <= 1e-10


def test_accelerated_limit_finite_generator():
    val, err, used = accelerated_limit(iter([1.0, 0.5, 0.25]))
    assert abs(val - 1.75) <= 1e-14


def test_accelerated_limit_divergent_raises():
    def ones():
        while True:
            yield 1.0

    with pytest.raises(ConvergenceError):
        accelerated_limit(ones(), max_terms=50)


def _aitken_table_reference(terms, max_terms=500):
    """The quadratic form of accelerated_limit: after every term the whole
    iterated-Aitken table, 6 passes deep, is rebuilt from the partial sums;
    3 consecutive estimates within max(1e-12, 1e-10 |estimate|) end it."""

    def aitken_pass(s):
        out = []
        for i in range(len(s) - 2):
            d1 = s[i + 1] - s[i]
            d2 = s[i + 2] - 2.0 * s[i + 1] + s[i]
            scale = abs(s[i]) + abs(s[i + 1]) + abs(s[i + 2])
            if abs(d2) <= 1e3 * 2.220446049250313e-16 * scale:
                out.append(s[i + 2])
            else:
                out.append(s[i] - d1 * d1 / d2)
        return out

    partials, estimates = [], []
    partial = 0.0 + 0.0j
    quiet = n_used = 0
    for term in terms:
        n_used += 1
        partial += term
        partials.append(partial)
        depth = min(6, (len(partials) - 1) // 2)
        table = partials
        for _ in range(depth):
            table = aitken_pass(table)
        est = table[-1]
        estimates.append(est)
        if len(estimates) >= 2:
            diff = abs(estimates[-1] - estimates[-2])
            if diff <= max(1e-12, 1e-10 * abs(est)):
                quiet += 1
                if quiet >= 3 and len(partials) >= 2 * depth + 3:
                    return est, max(diff, abs(term)), n_used
            else:
                quiet = 0
        if n_used >= max_terms:
            raise ConvergenceError(
                f"sequence acceleration stagnated after {max_terms} terms"
            )
    if not partials:
        return 0.0 + 0.0j, 0.0, 0
    return partials[-1], abs(partials[-1] - estimates[-1]), n_used


def _same_outcome(terms, **kwargs):
    try:
        want = _aitken_table_reference(iter(terms), **kwargs)
    except ConvergenceError as exc:
        with pytest.raises(ConvergenceError) as got:
            accelerated_limit(iter(terms), **kwargs)
        assert str(got.value) == str(exc)
        return
    assert accelerated_limit(iter(terms), **kwargs) == want


def test_accelerated_limit_matches_quadratic_table_on_transform_chunks(
    monkeypatch,
):
    # The chunk sums the split pipeline's tail accelerates on the three
    # reference problems.
    import mlfourier.radial_fourier as rf

    recorded = []

    def recording(terms, **kwargs):
        seen = []
        recorded.append((seen, kwargs))

        def tee():
            for t in terms:
                seen.append(t)
                yield t

        return accelerated_limit(tee(), **kwargs)

    monkeypatch.setattr(rf, "accelerated_limit", recording)
    for n, sigma in ((1, 0.7), (2, 1.5), (3, 2.2)):
        for xi in (0.05, 1.0, 20.0):
            rf.split_transform(rf.TransformProblem(0.8, 1.0, math.pi, sigma, n), xi)
    assert len(recorded) >= 9
    for seen, kwargs in recorded:
        _same_outcome(seen, **kwargs)


@pytest.mark.parametrize("seed", [2, 6, 12])
def test_accelerated_limit_matches_quadratic_table_on_random_sequences(seed):
    import random

    rng = random.Random(seed)
    for trial in range(40):
        ratio = -rng.uniform(0.3, 0.99) * cmath.exp(1j * rng.uniform(-0.5, 0.5))
        power = rng.uniform(0.5, 3.0)
        noise = rng.choice([0.0, 1e-14, 1e-9])
        terms = [
            ratio ** k / (k + 1) ** power
            + noise * complex(rng.gauss(0, 1), rng.gauss(0, 1))
            for k in range(rng.randint(0, 300))
        ]
        _same_outcome(terms, max_terms=250)
    # A sequence that never settles: both raise at the max_terms budget.
    walk = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(100)]
    with pytest.raises(ConvergenceError):
        accelerated_limit(iter(walk), max_terms=60)
    _same_outcome(walk, max_terms=60)

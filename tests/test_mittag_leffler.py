"""Tests for the Mittag-Leffler evaluators.

Closed forms used as oracles: E_{1,1}(z) = exp(z), E_{1,2}(z) = (e^z - 1)/z,
E_{1/2,1}(z) = exp(z^2) erfc(-z).  The frozen constants below were computed
once from the defining series at 60-digit working precision.
"""

import cmath
import functools
import inspect
import math
import warnings
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erfc, erfcx

import mlfourier
from mlfourier import mittag_leffler
from mlfourier.errors import AccuracyError, ConvergenceError, DomainError
from mlfourier.mittag_leffler import (
    MLParams,
    hankel_reciprocal_gamma,
    ml_contour,
    ml_eval,
    ml_on_ray,
    ml_series,
    _ml_laplace,
    _sector_sum_adaptive,
)
from mlfourier.special_core import complex_gamma, fsum_complex, reciprocal_gamma

# Frozen 22-digit references (defining series, 60-digit arithmetic).
E_04_05_AT_M4 = 0.03700828824226254018893 + 0.0j
E_07_13_AT_25_3PI4 = 0.209770436073095921983 + 0.1896272598473721096272j
E_17_10_AT_M4 = -0.3923948036710326683331 + 0.0j
E_08_10_AT_M40 = 0.005620733063863366978886 + 0.0j


def test_params_validation():
    with pytest.raises(DomainError, match="0 < alpha < 2"):
        MLParams(0.0, 1.0)
    with pytest.raises(DomainError, match="0 < alpha < 2"):
        MLParams(2.0, 1.0)
    with pytest.raises(DomainError):
        MLParams(1.0, 0.0)
    with pytest.raises(DomainError):
        MLParams(1.0, -3.0)
    with pytest.raises(DomainError, match="finite beta > 0"):
        MLParams(0.8, math.inf)


def test_series_exponential():
    p = MLParams(1.0, 1.0)
    for z in (0.3, -1.0, 2 + 1j, -4 - 2j, 1e-8):
        assert abs(ml_series(p, z) - cmath.exp(z)) <= 1e-13 * abs(cmath.exp(z))


def test_series_beta_two():
    p = MLParams(1.0, 2.0)
    z = -1.3 + 0.4j
    want = (cmath.exp(z) - 1.0) / z
    assert abs(ml_series(p, z) - want) <= 1e-13 * abs(want)


def test_series_half_order_erfc():
    p = MLParams(0.5, 1.0)
    want = math.exp(1.0) * erfc(1.0)
    assert abs(ml_series(p, -1.0) - want) <= 1e-12 * abs(want)


def test_series_at_zero_is_reciprocal_gamma():
    for beta in (0.5, 1.0, 1.8, 3.2):
        p = MLParams(0.7, beta)
        assert ml_series(p, 0.0) == 1.0 / complex_gamma(beta)


def test_series_cancellation_escalation():
    # Peak term ~6e13 against a result ~0.037: doubles alone cannot do it.
    p = MLParams(0.4, 0.5)
    got = ml_series(p, -4.0)
    assert abs(got - E_04_05_AT_M4) <= 1e-12 * abs(E_04_05_AT_M4)


def test_series_frozen_complex_point():
    p = MLParams(0.7, 1.3)
    z = 2.5 * cmath.exp(3j * math.pi / 4)
    got = ml_series(p, z)
    assert abs(got - E_07_13_AT_25_3PI4) <= 1e-12 * abs(E_07_13_AT_25_3PI4)


def test_series_domain_gate():
    with pytest.raises(AccuracyError):
        ml_series(MLParams(0.8, 1.0), 10.5)


@pytest.mark.parametrize("z", [math.nan, math.inf, complex(1.0, math.nan)])
def test_series_rejects_non_finite_z(z):
    with pytest.raises(DomainError, match="finite"):
        ml_series(MLParams(0.8, 1.0), z)


def test_series_never_sums_in_doubles(monkeypatch):
    # ml_series is the mpmath sum alone, not ml_eval's double series.
    def unreachable(*args, **kwargs):
        raise AssertionError("double series reached")

    monkeypatch.setattr(mittag_leffler, "_series_double", unreachable)
    cases = [
        (MLParams(0.4, 0.5), -4.0, E_04_05_AT_M4),
        (MLParams(0.7, 1.3), 2.5 * cmath.exp(3j * math.pi / 4), E_07_13_AT_25_3PI4),
        (MLParams(1.7, 1.0), -4.0, E_17_10_AT_M4),
        (MLParams(1.0, 1.0), 2 + 1j, cmath.exp(2 + 1j)),
    ]
    for p, z, want in cases:
        assert abs(ml_series(p, z) - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("alpha,beta", [(0.4, 0.5), (0.8, 1.0), (1.2, 2.0), (1.7, 1.0)])
def test_contour_matches_series_inside_disc(alpha, beta):
    p = MLParams(alpha, beta)
    for z in (0.5 * cmath.exp(0.3j), -1.9, 2.0j):
        s = ml_series(p, z)
        v = ml_contour(p, z)
        assert abs(s - v) <= 1e-9 * abs(s)


def test_contour_reaches_growth_sector_point():
    # arg z below the ray-representation threshold: only an enclosing-disc
    # contour can produce this value.
    p = MLParams(1.7, 1.0)
    z = 4.0 * cmath.exp(3j * math.pi / 4)
    assert abs(cmath.phase(z)) < math.pi * p.alpha / 2  # growth sector indeed
    s = ml_series(p, z)
    v = ml_contour(p, z)
    assert abs(s - v) <= 1e-8 * abs(s)


@pytest.mark.parametrize(
    "alpha,beta,z",
    [
        # inside the widest opening, outside the unit arc
        (0.8, 1.0, 2.0 * cmath.exp(0.1j)),
        # on the positive axis, where E_{1/2,beta} grows like e^{z^2}
        (0.5, 1.5, 3.0),
    ],
    ids=["inside-opening", "positive-axis"],
)
def test_contour_picks_growth_sector_contour(alpha, beta, z):
    p = MLParams(alpha, beta)
    s = ml_series(p, z)
    assert abs(ml_contour(p, z) - s) <= 1e-9 * abs(s)


def test_contour_arc_out_of_double_range_is_accuracy_error():
    # The arc factor e^{9^(1/0.3) + 1} = e^1517 is past double range, as is
    # E_{0.3,1}(9) itself; both evaluators say so by the same typed error.
    p = MLParams(0.3, 1.0)
    with pytest.raises(AccuracyError, match="double range"):
        ml_contour(p, 9.0)
    with pytest.raises(AccuracyError, match="double range"):
        ml_eval(p, 9.0)


def test_contour_guard_reads_the_arc_weight_exponent():
    # At |z|^(1/alpha) = 703 the arc runs at rho0 = 704, where its largest
    # weight e^{rho0} rho0^(1 - beta + alpha) is e^{712.5}, past double range
    # while e^{rho0} is not: the guard refuses it before any weight
    # overflows.  At (0.3, 0.5), rho0 = 703, the weight e^{708.2} is in
    # range and the contour still serves E = 6.6e306.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(AccuracyError, match="arc weight"):
            ml_contour(MLParams(0.8, 0.5), 703**0.8)
        p, z = MLParams(0.3, 0.5), 702**0.3
        want = ml_eval(p, z)
        assert abs(ml_contour(p, z) - want) <= 1e-13 * abs(want)


def test_contour_rounding_guard_raises_instead_of_a_value():
    # The growth-sector arc factor is e^{6^2.5 + 1} = e^89, while |E| is
    # about e^28: rounding of the arc's terms swamps the value, and the
    # contour sum says so rather than return a value far off.
    with pytest.raises((AccuracyError, ConvergenceError)):
        ml_contour(MLParams(0.4, 0.5), 6.0 * cmath.exp(0.5j))


def test_contour_over_node_cap_raises(monkeypatch):
    # Near the sector boundary the panels the rule asks for run into the
    # node cap (alpha = 1.99 at arg z = pi needs about 4.9e5); past it the
    # contour references give up rather than thin their panels.
    monkeypatch.setattr(mittag_leffler, "_MAX_NODES", 10**5)
    with pytest.raises(ConvergenceError, match="nodes"):
        ml_contour(MLParams(1.99, 1.0), -1.0)
    with pytest.raises(ConvergenceError, match="nodes"):
        hankel_reciprocal_gamma(MLParams(1.99, 1.0), 0.0)


def test_contour_references_take_no_contour():
    assert "ContourSpec" not in mlfourier.__all__
    assert "default_contour" not in mlfourier.__all__
    assert not hasattr(mittag_leffler, "ContourSpec")
    assert not hasattr(mittag_leffler, "default_contour")
    assert list(inspect.signature(ml_contour).parameters) == ["p", "z"]
    assert list(inspect.signature(hankel_reciprocal_gamma).parameters) == [
        "p", "shift"
    ]


@pytest.mark.parametrize("alpha,beta", [(0.4, 0.5), (0.8, 1.0), (1.2, 2.0)])
def test_contour_matches_series_outside_opening(alpha, beta):
    p = MLParams(alpha, beta)
    for r in (0.5, 2.0, 4.0):
        z = -r
        s = ml_series(p, z)
        v = ml_contour(p, z)
        assert abs(s - v) <= 1e-9 * abs(s)


@pytest.mark.parametrize("z", [math.nan, math.inf, complex(1.0, math.nan)])
def test_contour_rejects_non_finite_z(z):
    with pytest.raises(DomainError, match="finite"):
        ml_contour(MLParams(0.8, 1.0), z)


@pytest.mark.parametrize(
    "phi,r", [(math.pi, math.nan), (math.pi, math.inf), (math.nan, 1.0)]
)
def test_on_ray_rejects_non_finite_arguments(phi, r):
    with pytest.raises(DomainError, match="finite"):
        ml_on_ray(MLParams(0.8, 1.0), phi, r)


def test_on_ray_domain():
    p = MLParams(0.8, 1.0)
    # |phi| <= pi*alpha/2: the growth sector has a value too
    z = 2.0 * cmath.exp(0.3j * math.pi)
    s = ml_series(p, z)
    assert abs(ml_on_ray(p, 0.3 * math.pi, 2.0) - s) <= 1e-9 * abs(s)
    with pytest.raises(DomainError):
        ml_on_ray(p, math.pi, -1.0)


@pytest.mark.parametrize(
    "alpha,beta,phi",
    [
        (0.4, 0.5, math.pi),
        (0.8, 1.0, 3 * math.pi / 4),
        (1.2, 2.0, math.pi),
        (1.7, 1.0, math.pi),
    ],
)
def test_on_ray_matches_series(alpha, beta, phi):
    p = MLParams(alpha, beta)
    for r in (0.0, 0.1, 1.0, 4.0):
        s = ml_series(p, r * cmath.exp(1j * phi))
        v = ml_on_ray(p, phi, r)
        assert abs(s - v) <= 1e-9 * max(abs(s), 1e-15)


def test_on_ray_frozen_large_argument():
    p = MLParams(0.8, 1.0)
    got = ml_on_ray(p, math.pi, 40.0)
    assert abs(got - E_08_10_AT_M40) <= 1e-10 * abs(E_08_10_AT_M40)


@pytest.mark.parametrize(
    "alpha,beta,shift",
    [
        (0.7, 1.2, 0.0),
        (0.5, 1.0, 0.2),
        (1.3, 2.0, 1.3),
        (0.4, 1.4, 0.0),
    ],
)
def test_hankel_reciprocal_gamma_regular(alpha, beta, shift):
    p = MLParams(alpha, beta)
    got = hankel_reciprocal_gamma(p, shift)
    want = 1.0 / complex_gamma(beta + shift - alpha)
    assert abs(got - want) <= 1e-8 * max(abs(want), 1.0)


@pytest.mark.parametrize("alpha,beta,shift", [(0.9, 0.9, 0.0), (1.5, 0.5, 0.0)])
def test_hankel_reciprocal_gamma_at_poles(alpha, beta, shift):
    # beta + shift - alpha lands on a nonpositive integer: the value is 0.
    p = MLParams(alpha, beta)
    got = hankel_reciprocal_gamma(p, shift)
    assert abs(got) <= 1e-10


def test_hankel_reciprocal_gamma_shift_domain():
    p = MLParams(0.8, 1.0)
    with pytest.raises(DomainError):
        hankel_reciprocal_gamma(p, -1.0)


def test_sector_asymptotic_zero_terms():
    # alpha = 1, beta = 1: every algebraic term 1/Gamma(1 - k) is zero, and
    # the sector sum is its two boundary saddle terms, exp(z), alone
    value, err = _sector_sum_adaptive(MLParams(1.0, 1.0), -50.0 + 0.0j)
    want = math.exp(-50.0)
    assert abs(value - want) <= 1e-14 * want
    assert err <= 1e-15 * want


def test_sector_asymptotic_approximates_eval():
    # The sector sum against ml_eval's other branch, Laplace inversion
    p = MLParams(0.4, 0.5)
    z = -200.0 + 0.0j
    value, err = _sector_sum_adaptive(p, z)
    want = _ml_laplace(p, z)
    assert abs(value - want) <= 1e-13 * abs(want)
    assert err <= 1e-15 * abs(value)


@pytest.mark.parametrize("z", [30 * cmath.exp(2j), -60.0 + 0j, 100 * cmath.exp(1.5j)])
def test_sector_sum_skips_the_gamma_pole_at_zero(z):
    # beta - 6 alpha rounds to -4.4e-16 at (0.4, 2.4): 1/Gamma there is a
    # pole zero of rounding size, which must not read as convergence.
    p = MLParams(0.4, 2.4)
    assert mittag_leffler._sector_coefficients(0.4, 2.4)[5] is None
    want = _ml_laplace(p, z)
    assert abs(ml_eval(p, z) - want) <= 1e-13 * abs(want)


@pytest.mark.parametrize("beta", [2.0, 3.0])
@pytest.mark.parametrize("z", [-1.0001e4 + 0j, -1e6 + 0j, 1e5 * cmath.exp(2.5j)])
def test_sector_sum_is_refused_at_any_radius(beta, z):
    # At alpha = 1, beta = 2 or 3 the one algebraic term is 1/z or 1/z^2,
    # and the term it omits is the wave's size: the sum is refused before
    # it is summed, however large |z|, and Laplace inversion meets the
    # closed forms (e^z - 1)/z and (e^z - 1 - z)/z^2.
    p = MLParams(1.0, beta)
    value, err = _sector_sum_adaptive(p, z)
    assert cmath.isnan(value) and err == math.inf
    want = (cmath.exp(z) - 1.0) / z if beta == 2.0 else (cmath.exp(z) - 1.0 - z) / z ** 2
    assert abs(ml_eval(p, z) - want) <= 1e-14 * abs(want)


def test_sector_sum_is_accepted_where_its_terms_underflow():
    # At z = -1e300 the second term, 1e-600, is 0 in double: the sum stops
    # there with nothing omitted, and its one term is the value.
    p = MLParams(0.8, 1.0)
    z = -1e300 + 0j
    value, err = _sector_sum_adaptive(p, z)
    want = -1.0 / (z.real * math.gamma(0.2))
    assert err <= 1e-15 * abs(value)
    assert value.imag == 0.0 and abs(value.real - want) <= 2.0 * math.ulp(want)
    assert ml_eval(p, z) == value


def test_eval_dispatch_continuity():
    # Values straddling the series/contour handover agree with the series.
    for alpha, beta in ((0.6, 1.0), (1.4, 0.7)):
        p = MLParams(alpha, beta)
        for r in (4.9, 5.1):
            z = r * cmath.exp(1j * math.pi)
            s = ml_series(p, z)
            assert abs(ml_eval(p, z) - s) <= 1e-8 * abs(s)


def test_eval_sector_sum_handover():
    # Values straddling the contour/sector-sum handover agree with the
    # exact-remainder contour route.
    for alpha, beta in ((0.5, 1.0), (1.2, 2.0)):
        p = MLParams(alpha, beta)
        for r in (39.0, 41.0, 120.0):
            v = ml_on_ray(p, math.pi, r)
            assert abs(ml_eval(p, -r) - v) <= 1e-6 * abs(v) + 1e-12


def test_eval_exponential_closed_forms():
    # E_{1,1} = exp has no algebraic part: in the decay sector past the
    # series radius the sector sum returns it as its wave term, to
    # rounding, where Laplace inversion's absolute floor (~1e-17) would
    # cost up to 17% at z = -39.
    p = MLParams(1.0, 1.0)
    for r in (6.0, 20.0, 39.0, 45.0, 80.0, 300.0):
        got = ml_eval(p, -r)
        assert abs(got - math.exp(-r)) <= 1e-12 * math.exp(-r)
    for r in (6.0, 20.0, 39.0, 50.0):
        z = r * cmath.exp(2.2j)
        assert abs(ml_eval(p, z) - cmath.exp(z)) <= 1e-12 * abs(cmath.exp(z))


@given(
    st.floats(min_value=0.3, max_value=1.9),
    st.floats(min_value=0.4, max_value=3.0),
    st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False),
)
@settings(max_examples=40, deadline=None)
def test_series_conjugate_symmetry(alpha, beta, z):
    p = MLParams(alpha, beta)
    lhs = ml_series(p, z.conjugate())
    rhs = ml_series(p, z).conjugate()
    assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1e-12)


def test_decay_supremum_stabilizes():
    # In the decay sector r^sigma |E(e^{i phi} r^sigma)| is bounded: its
    # running maximum over r stops moving.
    p, sigma = MLParams(0.8, 1.0), 1.0
    sup, cur = [], 0.0
    for r in (1.0, 5.0, 20.0, 60.0, 100.0):
        w = r ** sigma * cmath.exp(1j * math.pi)
        cur = max(cur, r ** sigma * abs(ml_eval(p, w)))
        sup.append(cur)
    assert sup[-1] == sup[-2]
    assert sup[-1] < 0.5


def _mp_series(alpha, beta, z, dps=30):
    """E_{alpha,beta}(z) summed in a private mpmath context with dps
    digits more than the cancellation of the peak term e^(|z|^(1/alpha))
    absorbs."""
    ctx = mpmath.MPContext()
    ctx.dps = dps + int(abs(z) ** (1.0 / alpha) / math.log(10.0))
    zz, a, b = ctx.mpc(z), ctx.mpf(alpha), ctx.mpf(beta)
    acc, power, k = ctx.mpc(0), ctx.mpc(1), 0
    while True:
        term = power * ctx.rgamma(a * k + b)
        acc += term
        power *= zz
        k += 1
        if k > abs(z) ** (1.0 / alpha) and abs(term) < ctx.mpf(10) ** (-ctx.dps):
            return complex(acc)


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8, 1.3, 1.9])
@pytest.mark.parametrize("beta", [0.8, 1.0, 1.7, 2.5, 3.5])
def test_eval_taylor_route_near_origin(alpha, beta):
    # Near the origin the Taylor series is the route: Laplace inversion's
    # recurrence for beta > alpha + 1 divides by z and would lose every
    # digit there (1e25 relative at alpha 0.3, beta 3.5, |z| = 1e-8).
    p = MLParams(alpha, beta)
    for r in (1e-8, 1e-5, 1e-3):
        for phase in (0.0, math.pi * alpha / 4, math.pi * alpha / 2 + 0.02, math.pi):
            z = r * cmath.exp(1j * phase)
            want = _mp_series(alpha, beta, z, dps=60)
            assert abs(ml_eval(p, z) - want) <= 1e-14 * abs(want), (r, phase)


@pytest.mark.parametrize(
    "z",
    [math.nan, math.inf, -math.inf, complex(1.0, math.nan), complex(math.inf, 0.0)],
    ids=["nan", "inf", "-inf", "1+nan*i", "inf+0i"],
)
def test_eval_rejects_non_finite_z(z):
    p = MLParams(0.8, 1.0)
    with pytest.raises(DomainError, match="finite"):
        ml_eval(p, z)
    with pytest.raises(DomainError, match="finite"):
        ml_eval(p, np.array([-1.0, z]))


def _decay_phases(alpha):
    """Arguments of z inside the decay sector |arg z| > pi alpha/2, from
    0.02 rad off its boundary to the negative axis, both half-planes."""
    edge = math.pi * alpha / 2.0
    phases = {min(edge + d, math.pi) for d in (0.02, 0.3)} | {math.pi}
    return sorted(phases | {-ph for ph in phases if ph < math.pi})


@pytest.mark.parametrize("alpha", [1.3, 1.9])
@pytest.mark.parametrize("sign", [1, -1])
def test_eval_near_sector_boundary(alpha, sign):
    # 0.02 rad off the sector boundary, where the ray/arc contour's
    # quadrature used to raise ConvergenceError for alpha >= 1.3.
    p = MLParams(alpha, 1.0)
    phase = sign * (math.pi * alpha / 2.0 + 0.02)
    for r in (6.6, 8.467, 12.0, 22.5, 33.6):
        z = r * cmath.exp(1j * phase)
        want = _mp_series(alpha, 1.0, z)
        assert abs(ml_eval(p, z) - want) <= 1e-12 * abs(want)


def test_laplace_half_order_erfcx():
    p = MLParams(0.5, 1.0)
    for phase in _decay_phases(0.5):
        for r in (0.3, 1.0, 3.0, 8.0, 20.0, 40.0):
            z = r * cmath.exp(1j * phase)
            want = complex(erfcx(-z))
            assert abs(_ml_laplace(p, z) - want) <= 1e-13 * abs(want)


def test_laplace_exponential():
    # E_{1,1} = exp is the one case whose algebraic part vanishes, so |E|
    # sinks to e^{-40} in the decay sector; the evaluator's absolute floor
    # (~1e-17 there) then decides, as for the ray/arc contour before it.
    p = MLParams(1.0, 1.0)
    for phase in _decay_phases(1.0):
        for r in (0.3, 1.0, 3.0, 8.0, 20.0, 40.0):
            z = r * cmath.exp(1j * phase)
            want = cmath.exp(z)
            assert abs(_ml_laplace(p, z) - want) <= 1e-12 * abs(want) + 1e-16


@pytest.mark.parametrize("alpha,beta", [(0.5, 0.8), (0.8, 1.0), (1.3, 1.7), (1.9, 1.0)])
def test_laplace_matches_series_and_contour(alpha, beta):
    p = MLParams(alpha, beta)
    for phase in _decay_phases(alpha):
        for r in (0.5, 1.0, 2.0, 3.5, 5.0):
            z = r * cmath.exp(1j * phase)
            want = ml_series(p, z)
            assert abs(_ml_laplace(p, z) - want) <= 1e-12 * abs(want)
        if abs(abs(phase) - math.pi * alpha / 2.0) < 0.1:
            continue  # the ray/arc quadrature does not converge this close
        for r in (5.0, 9.0, 17.0, 28.0, 40.0):
            want = ml_on_ray(p, phase, r)
            got = _ml_laplace(p, r * cmath.exp(1j * phase))
            assert abs(got - want) <= 1e-12 * abs(want)


def _route(p, z):
    """(steps, mu, h, N, poles) of the parabola _ml_laplace sums on, with
    Garrappa's own step h and N, before the step ladder."""
    steps, b, gaps, poles = mittag_leffler._laplace_route(p, z)
    _, mu, h, n = mittag_leffler._laplace_parabola(p.alpha, b, gaps)
    return steps, mu, h, n, poles


def _exact_gaps(phis):
    return tuple(zip([0.0] + phis, phis + [math.inf]))


def _exact_route(p, z):
    """_route on the parabola planned from the exact phi values."""
    with mock.patch.object(mittag_leffler, "_laplace_gaps", _exact_gaps):
        return _route(p, z)


def _parent_laplace(p, z, route, h, n):
    """The direct 2N+1-node sum that _ml_laplace replaced, at step h with n
    nodes a side on the parabola of `route`: (value, scale), scale being
    the size of everything summed (nodes, residues, recurrence terms), on
    which rounding acts.  OverflowError where a residue leaves range."""
    steps, mu, _, _, poles = route
    a = p.alpha
    b = p.beta - steps * a
    u = h * np.arange(-n, n + 1)
    s = mu * (1.0 + 1j * u) ** 2
    ds = 2.0 * mu * (1j - u)
    log_s = np.log(s)
    f = np.exp(s + (a - b) * log_s) / (np.exp(a * log_s) - z) * ds
    value = complex(h * f.sum() / (2j * math.pi))
    scale = h * float(np.abs(f).sum()) / (2.0 * math.pi)
    for s_star in poles:
        residue = s_star ** (1.0 - b) * cmath.exp(s_star) / a
        value += residue
        scale += abs(residue)
    for _ in range(steps):
        value = (value - reciprocal_gamma(b)) / z
        scale = (scale + abs(reciprocal_gamma(b))) / abs(z)
        b += a
    return value, scale


@functools.lru_cache(maxsize=1)
def _laplace_points():
    """(p, z, exact route) at 3,000 seeded points: alpha 0.3-1.9, beta
    0.5-2.5, |z| 0.1-300 log-uniform, arg z uniform over both sectors or,
    at a quarter of the points, the negative real axis.  The exact route
    is None where the exact phi values leave no parabola."""
    rng = np.random.default_rng(2007)
    out = []
    for _ in range(3000):
        p = MLParams(rng.uniform(0.3, 1.9), rng.uniform(0.5, 2.5))
        r = 10.0 ** rng.uniform(-1.0, math.log10(300.0))
        if rng.random() < 0.25:
            z = complex(-r, 0.0)
        else:
            z = r * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
        try:
            out.append((p, z, _exact_route(p, z)))
        except ConvergenceError:
            out.append((p, z, None))
    return out


@functools.lru_cache(maxsize=1)
def _laplace_scan():
    """(p, z, route, ladder step, _ml_laplace value) at the points of
    _laplace_points that have a parabola.  The value is None where a
    residue leaves double range."""
    out = []
    for p, z, _ in _laplace_points():
        try:
            route = _route(p, z)
        except ConvergenceError:
            continue
        try:
            value = _ml_laplace(p, z)
        except AccuracyError:
            value = None
        out.append((p, z, route, mittag_leffler._laplace_step(*route[2:4]), value))
    return out


def test_laplace_scan_reaches_recurrence_and_poles():
    routes = [route for _, _, route, _, _ in _laplace_scan()]
    assert len(routes) > 2800
    assert sum(steps > 0 for steps, *_ in routes) >= 10
    assert sum(len(poles) > 0 for *_, poles in routes) > 1000


def test_on_ladder_brackets_values_next_to_its_rungs():
    # log2 can round across a rung; the rounding must still go the right way.
    for j in range(-200, 80):
        rung = 2.0 ** (j / 8.0)
        for x in (math.nextafter(rung, 0.0), rung, math.nextafter(rung, math.inf)):
            up, down = mittag_leffler._on_ladder(x, True), mittag_leffler._on_ladder(x, False)
            assert down <= x <= up and up <= down * 2.0 ** 0.125 * (1.0 + 1e-15), x


def test_laplace_gaps_lie_inside_the_true_ones():
    # A planned gap lies inside its true one, each finite nonzero end on
    # the ladder 2^(j/8), or is the true one where rounding would close it;
    # the gaps stop only before one whose left end, rounded up, leaves no
    # admissible vertex.
    def on_ladder(x):
        return x in (0.0, math.inf) or x == 2.0 ** (round(8.0 * math.log2(x)) / 8.0)

    closed = 0
    for p, z, _ in _laplace_points():
        phis = [phi for phi, _ in mittag_leffler._laplace_poles(p.alpha, z)]
        true, planned = _exact_gaps(phis), mittag_leffler._laplace_gaps(phis)
        for (lo, hi), (p_lo, p_hi) in zip(true, planned):
            if (p_lo, p_hi) != (lo, hi):
                assert lo <= p_lo < p_hi <= hi and on_ladder(p_lo) and on_ladder(p_hi), (p, z)
            elif lo < hi and not (on_ladder(lo) and on_ladder(hi)):
                closed += 1
        cut = true[len(planned):]
        assert all(lo * 2.0 ** 0.125 >= mittag_leffler._LAPLACE_MU_MAX for lo, _ in cut)
    assert closed > 0


def test_laplace_rounded_plans_lose_no_parabola():
    # Each gap is planned inside the true one, and one that rounding would
    # close keeps its exact ends: every point with a parabola keeps one,
    # at about as many nodes.
    points = _laplace_points()
    assert all(exact is not None for _, _, exact in points)
    assert len(_laplace_scan()) == len(points)
    exact_n = [mittag_leffler._laplace_step(*exact[2:4])[2] for _, _, exact in points]
    rounded_n = [n_k for _, _, _, (_, _, n_k), _ in _laplace_scan()]
    assert sum(rounded_n) <= 1.05 * sum(exact_n)


def test_laplace_rounded_plans_move_values_little():
    # Against the parent's sum on the parabola planned from the exact phi
    # values, with Garrappa's own step: rounding the gaps moves no value by
    # more than 1e-12 of what is summed.
    for (p, z, exact), (_, _, _, _, value) in zip(_laplace_points(), _laplace_scan()):
        if value is None:
            continue
        want, scale = _parent_laplace(p, z, exact, *exact[2:4])
        assert abs(value - want) <= 1e-12 * scale, (p, z)


def test_laplace_plans_on_a_ray_are_few():
    # One ray of the transform's profile: 1,000 points share few plans.
    z = np.geomspace(5.0, 500.0, 1000) * cmath.exp(0.9j * math.pi)
    for alpha, most in ((0.8, 1), (1.3, 70)):
        p = MLParams(alpha, 1.0)
        keys = {mittag_leffler._laplace_route(p, complex(v))[1:3] for v in z}
        assert len(keys) <= most, (alpha, len(keys))


@pytest.mark.parametrize("alpha", [0.3, 0.4, 0.5])
def test_laplace_strong_origins_match_series(alpha):
    # beta 2.1-2.5 gives the origin singularity strength 2(beta - alpha - 1)
    # of 1.2 to 2.4.  The reference series needs ~|z|^(1/alpha) terms at
    # as many digits: these radii keep it near a second a point.
    radii = {0.3: (2.0, 3.5), 0.4: (4.0, 6.0), 0.5: (6.0, 10.0)}[alpha]
    for beta in (2.1, 2.5):
        p = MLParams(alpha, beta)
        for phase in (math.pi * alpha / 2.0 + 0.05, math.pi):
            for r in radii:
                z = r * cmath.exp(1j * phase)
                want = ml_series(p, z)
                assert abs(_ml_laplace(p, z) - want) <= 1e-14 * abs(want), (beta, phase, r)


def test_laplace_strong_origins_match_contour_far_out():
    # Between a strong origin and a pole past the vertex clamp the planned
    # gap ends at the clamp.  A placement that weighs the pole's own phi
    # takes too coarse a step: 4 of these points are then 1.7e-13 to
    # 4.1e-13 off.
    rng = np.random.default_rng(3)
    for _ in range(400):
        alpha, beta = rng.uniform(0.3, 0.5), rng.uniform(2.1, 2.5)
        r = 10.0 ** rng.uniform(1.0, math.log10(150.0))
        phase = rng.uniform(math.pi * alpha / 2.0 + 0.1, math.pi) * rng.choice([-1, 1])
        p = MLParams(alpha, beta)
        want = ml_on_ray(p, phase, r)
        got = _ml_laplace(p, r * cmath.exp(1j * phase))
        assert abs(got - want) <= 3e-14 * abs(want), (alpha, beta, r, phase)


def test_laplace_matches_parent_sum_on_the_ladder():
    # The kept weights change only the rounding: on the same nodes the
    # parent's sum agrees to 1e-14 of what is summed.
    for p, z, route, (_, h_k, n_k), value in _laplace_scan():
        try:
            want, scale = _parent_laplace(p, z, route, h_k, n_k)
        except OverflowError:
            assert value is None, (p, z)
            continue
        assert abs(value - want) <= 1e-14 * scale, (p, z)


def test_laplace_ladder_moves_parent_values_little():
    # On its own (coarser) step the parent's sum is up to ~5e-13 off at
    # strong origins (alpha near 0.3-0.5, beta near 2.3): Garrappa's h is
    # too coarse there, and the ladder's smaller step is the closer one.
    for p, z, route, _, value in _laplace_scan():
        if value is None:
            continue
        want, scale = _parent_laplace(p, z, route, *route[2:4])
        assert abs(value - want) <= 1e-12 * scale, (p, z)


def test_laplace_step_on_the_ladder():
    cap = math.ceil(2.0 ** 0.25 * mittag_leffler._LAPLACE_MAX_NODES)
    for _, _, (_, _, h, n, _), (k, h_k, n_k), _ in _laplace_scan():
        assert h_k == 2.0 ** (-k / 4.0)
        assert h * 2.0 ** -0.25 < h_k <= h
        assert h_k * n_k >= h * n
        assert n_k <= min(math.ceil(2.0 ** 0.25 * n), cap)


def test_laplace_values_do_not_depend_on_the_kept_factors():
    tables = (mittag_leffler._laplace_parabola, mittag_leffler._laplace_weights)
    points = [(p, z) for p, z, _, _, value in _laplace_scan()[:300] if value is not None]

    def values():
        return [ml_eval(p, z) for p, z in points]

    for table in tables:
        table.cache_clear()
    cold = values()
    assert values() == cold  # warm
    for table in tables:
        for k in range(table.cache_info().maxsize + 10):
            table(0.5, 1.0 + 1e-3 * k, ((0.0, math.inf),))
        assert table.cache_info().currsize == table.cache_info().maxsize
    assert values() == cold  # after eviction
    for weights in mittag_leffler._laplace_weights(0.5, 1.0, ((0.0, math.inf),)):
        assert not weights.flags.writeable


@pytest.mark.parametrize("alpha,beta", [(0.4, 2.3), (0.8, 1.0), (1.3, 0.8), (1.7, 1.5)])
def test_laplace_array_matches_scalar_on_the_scan(alpha, beta):
    p = MLParams(alpha, beta)
    z = np.array([z for _, z, _, _, _ in _laplace_scan()[:300]])
    z = z[np.abs(z) ** (1.0 / alpha) < 600.0]  # E stays in double range
    want = np.array([ml_eval(p, complex(v)) for v in z])
    assert np.all(ml_eval(p, z) == want)


def _full_taylor_sum(p, z):
    """_series_double summed to the end: every term up to three quiet ones,
    then the fsum value and the cancellation ratio."""
    lnz = cmath.log(z)
    terms, s, majorant, quiet = [], 0j, 0.0, 0
    for k in range(4000):
        term = cmath.exp(k * lnz - math.lgamma(p.alpha * k + p.beta))
        terms.append(term)
        s += term
        majorant += abs(term)
        if abs(term) < mittag_leffler._SERIES_TOL * max(abs(s), 1e-300):
            quiet += 1
            if quiet >= 3:
                break
        else:
            quiet = 0
    value = fsum_complex(terms)
    return value, majorant / max(abs(value), 1e-300)


@functools.lru_cache(maxsize=1)
def _taylor_scan():
    """(p, z, early, full) at 4,000 seeded points: alpha 0.3-1.9, beta
    0.5-2.5, |z| 0.01-5 log-uniform, arg z uniform over both sectors or,
    at 40% of the points, pi."""
    rng = np.random.default_rng(2015)
    out = []
    for _ in range(4000):
        p = MLParams(rng.uniform(0.3, 1.9), rng.uniform(0.5, 2.5))
        phase = math.pi if rng.random() < 0.4 else rng.uniform(-math.pi, math.pi)
        z = 10.0 ** rng.uniform(-2.0, math.log10(5.0)) * cmath.exp(1j * phase)
        out.append((p, z, mittag_leffler._series_double(p, z), _full_taylor_sum(p, z)))
    return out


def test_early_stop_keeps_every_route_and_accepted_value():
    accepted = 0
    for p, z, (value, ratio), (full_value, full_ratio) in _taylor_scan():
        accepts = mittag_leffler._series_accepts(ratio)
        assert accepts == mittag_leffler._series_accepts(full_ratio), (p, z)
        if accepts:
            accepted += 1
            assert (value, ratio) == (full_value, full_ratio), (p, z)
    assert 1000 < accepted < 3900


def test_abandoned_sums_would_have_been_rejected():
    abandoned = [
        (p, z, full_ratio)
        for p, z, (value, ratio), (_, full_ratio) in _taylor_scan()
        if ratio == math.inf
    ]
    assert len(abandoned) > 100
    for p, z, full_ratio in abandoned:
        assert not mittag_leffler._series_accepts(full_ratio), (p, z, full_ratio)


def test_abandonment_catches_nearly_every_rejection():
    # The bound M > 1.01 x 4.5 (|s| + B) is sharp: of the scan's 641
    # rejected sums (463 under the parent's M + B > 9 (|s| + B)), all but
    # a handful stop early.
    rejected = [ratio for _, _, (_, ratio), (_, full_ratio) in _taylor_scan()
                if not mittag_leffler._series_accepts(full_ratio)]
    assert len(rejected) == 641
    assert sum(ratio == math.inf for ratio in rejected) > 600


def test_taylor_row_is_the_loop_expression():
    for alpha, beta in ((0.3, 0.5), (0.8, 1.0), (1.9, 2.5)):
        row = mittag_leffler._taylor_row(alpha, beta)
        assert isinstance(row, tuple)
        assert 3 < len(row) < mittag_leffler._SERIES_TERMS
        assert row == tuple(math.lgamma(alpha * k + beta) for k in range(len(row)))


def test_sums_past_the_kept_row_keep_their_bits(monkeypatch):
    # A sum longer than its kept row evaluates the rest itself.
    points = [(p, z) for p, z, _, _ in _taylor_scan()[:300]]
    want = [mittag_leffler._series_double(p, z) for p, z in points]
    monkeypatch.setattr(mittag_leffler, "_taylor_row", lambda a, b: (math.lgamma(b),))
    got = [mittag_leffler._series_double(p, z) for p, z in points]
    assert repr(got) == repr(want)  # repr: an abandoned sum is (nan, inf)


def test_sum_that_does_not_stop_raises(monkeypatch):
    monkeypatch.setattr(mittag_leffler, "_taylor_row", lambda a, b: (math.lgamma(b),))
    monkeypatch.setattr(mittag_leffler, "_SERIES_TERMS", 3)
    with pytest.raises(ConvergenceError, match="within 3 terms"):
        mittag_leffler._series_double(MLParams(1.3, 1.0), 4.5)


def _full_sector_sum(p, z, stop_on_sizes=False):
    """The sector sum summed whatever its outcome, with its stop tests on
    the magnitudes of the complex powers, as ml_eval summed it before
    doomed sums were refused: the fsum value and the estimate.  Its early
    stop reads |partial sum|, or with stop_on_sizes the sum M of the sizes
    taken, as _sector_sum_adaptive's does."""
    terms, s, winv, wpow = [], 0j, 1.0 / z, 1.0 + 0.0j
    prev = omitted = math.inf
    majorant = 0.0
    for k in range(1, mittag_leffler._SECTOR_TERMS + 1):
        wpow *= winv
        arg = p.beta - p.alpha * k
        rg = reciprocal_gamma(arg)
        if rg == 0 or (arg < 0 and abs(arg - round(arg)) <= 1e-12 * max(1.0, -arg)):
            continue
        size = abs(wpow) * abs(rg)
        if size > prev:
            omitted = size
            break
        terms.append(-wpow * rg)
        s += terms[-1]
        majorant += size
        prev = omitted = size
        if size < 1e-18 * max(majorant if stop_on_sizes else abs(s), 1e-300):
            break
    if majorant == 0.0 and math.isinf(omitted):
        omitted = 0.0
    wave = mittag_leffler._exponential_waves(p, z)
    terms.append(wave)
    return fsum_complex(terms), omitted + mittag_leffler._EPS * (majorant + abs(wave))


@functools.lru_cache(maxsize=1)
def _sector_scan():
    """(p, z, summed, full) at 20,000 seeded decay-sector points: alpha
    0.3-1.9, beta 0.5-2.5, |z| 5-1e3 log-uniform, arg z uniform over the
    decay sector or, at a quarter of the points, the negative real axis
    exactly.  summed is _sector_sum_adaptive's return, full
    _full_sector_sum's, and sized _full_sector_sum's with its early stop
    on the sizes."""
    rng = np.random.default_rng(2002)
    out = []
    for _ in range(20000):
        p = MLParams(rng.uniform(0.3, 1.9), rng.uniform(0.5, 2.5))
        r = 10.0 ** rng.uniform(math.log10(5.0), 3.0)
        if rng.random() < 0.25:
            z = complex(-r, 0.0)
        else:
            edge = math.pi * p.alpha / 2.0
            z = r * cmath.exp(1j * rng.choice((-1.0, 1.0)) * rng.uniform(edge, math.pi))
        out.append((p, z, _sector_sum_adaptive(p, z), _full_sector_sum(p, z),
                    _full_sector_sum(p, z, stop_on_sizes=True)))
    return out


def test_sector_refusal_is_conservative():
    # A refused sum, (nan, inf), is one the full sum's estimate rejects
    # against the 1e-15 target that _ml_rule sets; every other return is
    # the full sum's value, bit for bit, with the estimate of the full sum
    # whose early stop reads the sizes, to rounding.  Accept or refuse is
    # the full sum's at every point.
    rejected = refused = 0
    for p, z, (value, err), (full_value, full_err), (_, sized_err) in _sector_scan():
        rejects = not full_err <= 1e-15 * abs(full_value)
        rejected += rejects
        if err == math.inf:
            refused += 1
            assert cmath.isnan(value) and rejects, (p, z)
        else:
            assert repr(value) == repr(full_value), (p, z)
            assert abs(err - sized_err) <= 1e-14 * sized_err, (p, z)
        assert (not err <= 1e-15 * abs(value)) == rejects, (p, z)
    assert rejected > 5000
    # What is left is cancellation in the value, which sizes cannot see.
    assert refused >= 0.99 * rejected


def _kept_table_points():
    """Taylor and decay-sector points, across many (alpha, beta) keys."""
    return ([(p, z) for p, z, _, _ in _taylor_scan()[:200]]
            + [(p, z) for p, z, *_ in _sector_scan()[:200]])


def test_values_do_not_depend_on_the_kept_tables():
    tables = (mittag_leffler._taylor_row, mittag_leffler._sector_coefficients)
    points = _kept_table_points()

    def values():
        return [ml_eval(p, z) for p, z in points]

    for table in tables:
        table.cache_clear()
    cold = values()
    assert values() == cold  # warm
    for table in tables:
        for k in range(table.cache_info().maxsize + 10):
            table(0.5 + 1e-3 * k, 1.0)
        assert table.cache_info().currsize == table.cache_info().maxsize
    assert values() == cold  # after eviction
    coefficients = mittag_leffler._sector_coefficients(0.5, 1.0)
    assert isinstance(coefficients, tuple)
    assert len(coefficients) == mittag_leffler._SECTOR_TERMS


def test_few_sector_sums_are_summed_and_rejected(monkeypatch):
    # Kernels-style points: alpha 0.5, 0.8, 1.3, beta 1, arg z = pi or
    # 0.1 rad inside the decay sector, |z| 1e-2-1e3 stratified log-uniform.
    # A refused sum, (nan, inf), is not summed; only a sum whose value
    # cancels below M + |wave| still runs and is rejected.
    rng = np.random.default_rng(1)
    summed, wasted = [], []
    sector_sum = mittag_leffler._sector_sum_adaptive

    def counted(p, z):
        value, err = sector_sum(p, z)
        if err < math.inf:
            summed.append((p, z))
            if not err <= 1e-15 * abs(value):
                wasted.append((p, z))
        return value, err

    monkeypatch.setattr(mittag_leffler, "_sector_sum_adaptive", counted)
    for alpha in (0.5, 0.8, 1.3):
        p = MLParams(alpha, 1.0)
        for phi in (math.pi, math.pi * alpha / 2.0 + 0.1):
            for k in range(96):
                r = 1e-2 * 10.0 ** (5.0 * (k + rng.random()) / 96)
                ml_eval(p, r * cmath.exp(1j * phi))
    assert len(summed) > 150
    assert len(wasted) <= 2, wasted


def test_parabola_beyond_always_clamps_its_vertex(monkeypatch):
    # Every parabola right of all singularities has its vertex at the
    # clamp: Garrappa's own is always larger (next test).
    beyond = mittag_leffler._parabola_beyond
    calls, returned = [], []

    def recorded(phi0, p0):
        out = beyond(phi0, p0)
        calls.append(p0)
        if out is not None:
            returned.append(out)
        return out

    monkeypatch.setattr(mittag_leffler, "_parabola_beyond", recorded)
    mittag_leffler._laplace_parabola.cache_clear()  # kept plans call no planner
    rng = np.random.default_rng(2015)
    for _ in range(5000):
        alpha, beta = rng.uniform(0.3, 1.9), rng.uniform(0.5, 2.5)
        z = 10.0 ** rng.uniform(-2.0, 3.0) * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
        phis = [phi for phi, _ in mittag_leffler._laplace_poles(alpha, z)]
        mittag_leffler._laplace_parabola(alpha, beta, mittag_leffler._laplace_gaps(phis))
    # origins of strength 0 and above, and simple poles
    assert min(calls) == 0.0 and sum(0.0 < p0 != 1.0 for p0 in calls) > 100
    assert 1.0 in calls and len(returned) > 2000
    assert all(mu == mittag_leffler._LAPLACE_MU_MAX for mu, _, _ in returned)


def test_garrappa_vertex_lies_above_the_clamp():
    # Sec. 4.2's vertex for the parabola placed at phi_bar, as
    # _parabola_beyond computes it: never below 4.45, its limit as phi_bar
    # falls to 0.
    phi_bar = np.geomspace(1e-300, 1e4, 200001)
    ratio = mittag_leffler._LAPLACE_LOG_TOL / phi_bar
    n = np.ceil(phi_bar / math.pi * (1.0 - 1.5 * ratio + np.sqrt(1.0 - 2.0 * ratio)))
    a = math.pi * n / phi_bar
    mu = phi_bar * ((4.0 - a) / (7.0 - np.sqrt(1.0 + 12.0 * a))) ** 2
    assert mu.min() > 4.45 > mittag_leffler._LAPLACE_MU_MAX


def test_eval_decay_sector_never_escalates_to_mpmath(monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("slow branch reached")

    monkeypatch.setattr(mittag_leffler, "_series_mpmath", unreachable)
    for alpha, beta in ((0.5, 1.0), (0.8, 1.0), (0.8, 1.7), (1.3, 0.8), (1.9, 1.0)):
        p = MLParams(alpha, beta)
        for phase in _decay_phases(alpha):
            for r in (0.58, 1.0, 1.7, 3.0, 4.5, 5.0, 12.0, 39.0, 60.0):
                assert math.isfinite(abs(ml_eval(p, r * cmath.exp(1j * phase))))


def _growth_phases(alpha):
    """Arguments of z inside the growth sector |arg z| <= pi alpha/2, up
    to 0.02 rad off its boundary, both half-planes."""
    edge = math.pi * alpha / 2.0
    return [0.0, edge / 2.0, -edge / 2.0, edge - 0.02, -(edge - 0.02)]


@functools.lru_cache(maxsize=None)
def _growth_reference():
    """(params, z, mpmath series) past the series radius in the growth
    sector, shared by the scalar and array tests.  For alpha = 0.5 the
    reference series costs seconds per point beyond |z| = 10, and at
    |z| = 30 on the real axis E = e^900 overflows."""
    cases = []
    for alpha in (0.5, 0.8, 1.3, 1.9):
        radii = (5.5, 10.0) if alpha == 0.5 else (5.5, 12.0, 30.0)
        for beta in (0.8, 1.0, 1.7):
            z = np.array([r * cmath.exp(1j * ph) for ph in _growth_phases(alpha)
                          for r in radii])
            want = np.array([_mp_series(alpha, beta, v) for v in z])
            cases.append((MLParams(alpha, beta), z, want))
    return cases


def test_eval_growth_sector_beyond_series_radius():
    # Laplace inversion, residues included, past the series radius.
    for p, z, want in _growth_reference():
        got = np.array([ml_eval(p, complex(v)) for v in z])
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))


def test_eval_array_growth_sector_beyond_series_radius():
    for p, z, want in _growth_reference():
        assert np.all(np.abs(ml_eval(p, z) - want) <= 1e-12 * np.abs(want))


@functools.lru_cache(maxsize=None)
def _sector_reference():
    """(params, z, mpmath series) in the decay sector past SERIES_RADIUS,
    where ml_eval tries the sector sum first, 0.1 rad off its boundary and
    on the negative axis, shared by the scalar and array tests.  At
    alpha = 1.3, beta = 0.8, |z| = 71.8, 0.1 rad off the boundary, the
    optimally truncated sector sum is off by 3.5e-11: its estimate there
    is far above 1e-15 |E|."""
    cases = []
    for alpha in (0.8, 1.3, 1.9):
        edge = math.pi * alpha / 2.0
        phases = (edge + 0.1, -(edge + 0.1), math.pi)
        for beta in (0.8, 1.0, 1.7):
            z = np.array([r * cmath.exp(1j * ph) for ph in phases
                          for r in (8.0, 20.0, 41.0, 71.8, 150.0)])
            want = np.array([_mp_series(alpha, beta, v) for v in z])
            cases.append((MLParams(alpha, beta), z, want))
    return cases


def test_eval_sector_region_meets_laplace_target():
    # The sector sum is returned only where its estimate meets 1e-15
    # relative; every other point there goes to Laplace inversion.
    for p, z, want in _sector_reference():
        got = np.array([ml_eval(p, complex(v)) for v in z])
        assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))


def test_eval_array_sector_region_meets_laplace_target():
    for p, z, want in _sector_reference():
        assert np.all(np.abs(ml_eval(p, z) - want) <= 1e-13 * np.abs(want))


def test_eval_reaches_no_mpmath_or_quadrature(monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("slow branch reached")

    for name in ("_series_mpmath", "ml_on_ray"):
        monkeypatch.setattr(mittag_leffler, name, unreachable)
    # The contour references sum fixed nodes; no QUADPACK engine is left.
    for name in ("integrate_finite", "integrate_semi_infinite"):
        assert not hasattr(mittag_leffler, name), name
    for alpha in (0.3, 0.8, 1.3, 1.9):
        phases = _growth_phases(alpha) + _decay_phases(alpha)
        points = [r * cmath.exp(1j * ph) for ph in phases
                  for r in np.geomspace(1e-3, 1e3, 13)]
        # Leave out the growth-sector points where E overflows.
        z = np.array([v for v in points
                      if abs(v) ** (1.0 / alpha)
                      * math.cos(cmath.phase(v) / alpha) < 700.0])
        for beta in (0.8, 1.0, 2.5):
            p = MLParams(alpha, beta)
            for v in z:
                assert cmath.isfinite(ml_eval(p, complex(v)))
            assert np.all(np.isfinite(ml_eval(p, z)))


def test_eval_overflow_raises_accuracy_error():
    # E_{1/2,1}(x) ~ 2 e^{x^2}: at x = 26.63 e^{x^2} is finite but twice it
    # is not, and at x = 30 the residue e^900 overflows in exp itself.
    p = MLParams(0.5, 1.0)
    for x in (26.63, 30.0):
        with pytest.raises(AccuracyError):
            ml_eval(p, x)
        with pytest.raises(AccuracyError):
            ml_eval(p, np.array([-1.0, x]))


def test_eval_series_overflow_takes_laplace():
    # At alpha = 0.2 and |z| = 5 the Taylor terms reach e^3125, past double
    # range, while E itself is about e^221 at arg z = 0.3.  Laplace
    # inversion then gives E as the residue (1/alpha) s*^(1-beta) e^{s*},
    # s* = |z|^(1/alpha) e^{i arg z/alpha}, plus a part of size 1.  Im s*
    # is 3117, so an ulp of arg z moves the phase by about 1e-12.
    p = MLParams(0.2, 1.0)
    z = 5.0 * cmath.exp(0.3j)
    want = cmath.exp(5.0 ** 5 * cmath.exp(1.5j)) / 0.2
    assert abs(ml_eval(p, z) - want) <= 1e-11 * abs(want)
    assert abs(ml_eval(p, np.array([z]))[0] - want) <= 1e-11 * abs(want)


def test_eval_over_node_cap_raises(monkeypatch):
    # Over the node cap Laplace inversion gives up rather than loosen its
    # target, and ml_eval has no other route: a decay-sector point past the
    # series radius, one where the series cancels, and a growth-sector one.
    p = MLParams(0.8, 1.0)
    monkeypatch.setattr(mittag_leffler, "_LAPLACE_MAX_NODES", 5)
    for z in (-12.0, 3.0 * cmath.exp(3.0j), 8.0):
        with pytest.raises(ConvergenceError):
            ml_eval(p, z)
    with pytest.raises(ConvergenceError):
        _ml_laplace(p, -12.0)


def test_eval_sector_sum_skips_rounded_pole_terms():
    # beta - 6 alpha rounds to -7.000000000000001: that term is ~1e-21,
    # and the sector sum used to stop on it and return a value 2e-5 off.
    p = MLParams(1.3, 0.8)
    for r in (40.0, 45.0, 60.0, 80.0):
        want = _mp_series(1.3, 0.8, -r)
        assert abs(ml_eval(p, -r) - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("alpha", [0.3, 0.4, 0.5])
def test_eval_strong_origin_takes_laplace_recurrence(alpha, monkeypatch):
    # beta > alpha + 1 leaves no admissible parabola for E_{alpha,beta}
    # itself; one step of E_{a,b}(z) = (E_{a,b-a}(z) - 1/Gamma(b-a))/z
    # moves the origin singularity to a weaker one.
    def unreachable(*args, **kwargs):
        raise AssertionError("slow branch reached")

    monkeypatch.setattr(mittag_leffler, "ml_on_ray", unreachable)
    monkeypatch.setattr(mittag_leffler, "_series_mpmath", unreachable)
    p = MLParams(alpha, 2.5)
    # The reference series needs ~|z|^(1/alpha) terms at as many digits:
    # radii past these take seconds to minutes per point.
    radii = {0.3: (3.0, 5.0), 0.4: (3.0, 8.0), 0.5: (8.0, 15.0)}[alpha]
    for phase in _decay_phases(alpha):
        for r in radii:
            z = r * cmath.exp(1j * phase)
            assert _ml_laplace(p, z) is not None
            want = _mp_series(alpha, 2.5, z)
            assert abs(ml_eval(p, z) - want) <= 1e-12 * abs(want)


def _array_cases(alpha):
    edge = math.pi * alpha / 2.0
    radii = np.geomspace(1e-8, 1e3, 45)
    rays = [r * cmath.exp(1j * ph) for ph in (math.pi, -math.pi, edge + 0.02,
                                              -(edge + 0.02)) for r in radii]
    # z = 0, real points on both sides of the origin (the positive ones in
    # the growth sector) and a growth-sector point off the axis.
    extra = [0.0, -0.5, -3.0, -12.0, -60.0, 0.25, 2.0, 0.5 * cmath.exp(0.1j),
             6.5, 6.0 * cmath.exp(0.5j * edge)]
    return np.array(rays + extra, dtype=complex)


@pytest.mark.parametrize("alpha", [0.3, 0.8, 1.3, 1.9])
@pytest.mark.parametrize("beta", [0.8, 1.0, 1.7, 2.5])
def test_eval_array_matches_scalar(alpha, beta):
    p = MLParams(alpha, beta)
    z = _array_cases(alpha)
    got = ml_eval(p, z)
    assert isinstance(got, np.ndarray) and got.shape == z.shape
    want = np.array([ml_eval(p, complex(v)) for v in z])
    assert np.all(got == want)


@pytest.mark.parametrize("alpha", [0.3, 0.8, 1.3, 1.9])
@pytest.mark.parametrize("beta", [0.8, 1.0, 1.7, 2.5])
def test_eval_is_exactly_real_on_the_real_axis(alpha, beta):
    # E has real Taylor coefficients, but every route rounds in complex
    # arithmetic: at alpha = 0.8, beta = 1 the series at -0.5 carries an
    # imaginary part of 3.5e-17, which ml_eval must drop.
    p = MLParams(alpha, beta)
    z = _array_cases(alpha)
    real = np.concatenate([z[z.imag == 0.0], -np.geomspace(1e-8, 1e3, 45)])
    for x in real:
        assert ml_eval(p, complex(x)).imag == 0.0, x
    assert np.all(ml_eval(p, real).imag == 0.0)


def test_eval_array_keeps_shape_and_real_axis():
    p = MLParams(0.8, 1.0)
    z = _array_cases(0.8)[:180].reshape(12, 15)
    got = ml_eval(p, z)
    assert got.shape == (12, 15)
    assert np.array_equal(got.ravel(), ml_eval(p, z.ravel()))
    real = np.array([-1e-6, -0.3, -2.0, -4.9, -7.0, -39.0, -41.0, -500.0, 0.0, 0.4, 3.0])
    got = ml_eval(p, real)
    assert np.all(got.imag == 0.0)
    want = np.array([ml_eval(p, complex(v)) for v in real])
    assert np.all(got == want)


def test_eval_array_over_node_cap_raises(monkeypatch):
    monkeypatch.setattr(mittag_leffler, "_LAPLACE_MAX_NODES", 5)
    p = MLParams(0.8, 1.0)
    # The series takes the first point; the second has no parabola.
    with pytest.raises(ConvergenceError):
        ml_eval(p, np.array([-1.0, 12.0 * cmath.exp(3.0j)]))

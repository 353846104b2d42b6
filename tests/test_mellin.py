"""Tests for the Mellin–Barnes route of the radial transform.

Oracles: the closed forms for alpha = beta = 1, phi = pi at sigma = 1 and
sigma = 2; the residue series against the line integral where both hold;
and a private-context mpmath reference on the three reference problems:
the residue series in 40-digit arithmetic where it converges, elsewhere a
30-digit trapezoid sum on a third line, Re s = (min(sigma, n) - sigma)/2,
that the route never takes.  Near the sector boundary, where the series
lacks E's exponential term, only that mpmath line is the reference.
"""

import math
import os
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from mlfourier import mellin
from mlfourier.errors import ConvergenceError, DomainError
from mlfourier.mellin import (
    line_integral,
    mellin_transform,
    residue_coefficient,
    residue_series,
)
from mlfourier.radial_fourier import TransformProblem, ml_transform, split_transform

REFERENCE_PROBLEMS = ((1, 0.7), (2, 1.5), (3, 2.2))
SRC = Path(__file__).resolve().parents[1] / "src"

_MP = mpmath.MPContext()
_MP.dps = 40


def rel_err(got, want):
    return abs(got - want) / abs(want)


def closed_form(n, sigma, xi):
    """Transform of exp(-|x|^sigma) on R^n for sigma = 1 and 2."""
    if sigma == 1:
        return (
            (2.0 * math.pi) ** n
            * math.gamma(0.5 * (n + 1))
            * math.pi ** (-0.5 * (n + 1))
            * (1.0 + 4.0 * math.pi ** 2 * xi ** 2) ** (-0.5 * (n + 1))
        )
    return math.pi ** (0.5 * n) * math.exp(-(math.pi ** 2) * xi ** 2)


def _mp_series(alpha, beta, phi, sigma, n, xi):
    """Residue series in 40 digits, cut where the envelope of its terms,
    |term / sin(pi k sigma/2)|, is smallest; None unless that envelope is
    below 1e-20 of the sum."""
    ctx = _MP
    a, b, s, x = ctx.mpf(alpha), ctx.mpf(beta), ctx.mpf(sigma), ctx.mpf(xi)
    total, last = ctx.mpc(0), ctx.inf
    for k in range(1, 4000):
        half = k * s / 2
        envelope = (
            ctx.rgamma(a * k + b)
            * ctx.pi ** (-k * s - ctx.mpf(n) / 2 - 1)
            * ctx.gamma(n / ctx.mpf(2) + half)
            * ctx.gamma(1 + half)
            * x ** (-(n + k * s))
        )
        if envelope > last:
            break
        last = envelope
        if total != 0 and envelope < ctx.mpf(10) ** -30 * abs(total):
            return complex(total)
        total += -ctx.sinpi(half) * envelope * ctx.expjpi(k * ctx.mpf(phi) / ctx.pi)
    if total != 0 and last < ctx.mpf(10) ** -20 * abs(total):
        return complex(total)
    return None


def _mp_line(alpha, beta, phi, sigma, n, xi):
    """Trapezoid sum on Re s = c = (min(sigma, n) - sigma)/2 in 30 digits,
    the middle of the strip between the poles s = -sigma and
    s = min(sigma, n); s = 0 is removable, and the nodes (j + 1/2) h miss it.

    The step is set for about 1e-20 of the result.  On the strip the
    integrand exceeds its value on the line by up to e^(d |log(pi xi)|),
    and on the line it exceeds the result, which the nearest pole with a
    residue sets, by e^excess: (pi xi)^(c - s_1) at small xi and
    (pi xi)^(c + sigma) at large xi.  s_1 is s = m sigma for the first m
    with beta - alpha m not in {0, -1, -2, ...}, where 1/Gamma(beta -
    alpha m) leaves the pole of 1/sin(pi s/sigma) standing, or s = n,
    whichever is smaller.  The length is set for about 1e-20 of the
    result, e^(52 + excess) below the integrand's peak.  The integrand
    decays like exp(-(pi - pi alpha/2 - theta) t/sigma) for t > 0 and
    exp(-(pi - pi alpha/2 + theta)|t|/sigma) for t < 0, so near the sector
    boundary one side decays slowly and the other fast.  At phi = pi it is
    real-symmetric, f(-t) = conj f(t), and half the nodes suffice."""
    ctx = _MP
    a, b, sg = ctx.mpf(alpha), ctx.mpf(beta), ctx.mpf(sigma)
    theta = phi - math.pi if phi > 0 else phi + math.pi
    upper = min(sigma, n)
    c = 0.5 * (upper - sigma)
    d = 0.5 * (upper + sigma)
    s_1 = next(
        (m * sigma for m in range(1, math.ceil(n / sigma) + 1)
         if not (beta - alpha * m <= 0 and beta - alpha * m == math.floor(beta - alpha * m))),
        math.inf,
    )
    s_1 = min(s_1, n)
    log_pi_xi = math.log(math.pi * xi)
    excess = (c + sigma if log_pi_xi > 0.0 else c - s_1) * log_pi_xi
    h = 2.0 * math.pi * d / (46.0 + d * abs(log_pi_xi) + excess)
    base = math.pi - 0.5 * math.pi * alpha
    m_pos = math.ceil((52.0 + excess) * sigma / (base - theta) / h)
    m_neg = math.ceil((52.0 + excess) * sigma / (base + theta) / h)
    pxi = ctx.pi * ctx.mpf(xi)

    def f(t):
        s = ctx.mpc(c, t)
        q = s / sg
        return (
            ctx.exp(-1j * ctx.mpf(theta) * q)
            * ctx.pi
            / ctx.sinpi(q)
            * ctx.rgamma(b - a * q)
            * ctx.gamma((n - s) / 2)
            * ctx.rgamma(s / 2)
            * pxi ** s
        ) / sg

    with ctx.workdps(30):
        # Nodes in working precision: doubles would move them by an ulp,
        # a relative error the integrand's cancellation magnifies.
        step = ctx.mpf(h)
        if theta == 0.0:
            total = 2 * ctx.re(ctx.fsum(f(step * (j + 0.5)) for j in range(m_pos)))
        else:
            total = ctx.fsum(f(step * (j + 0.5)) for j in range(-m_neg, m_pos))
        return complex(
            step * total * ctx.pi ** (-ctx.mpf(n) / 2) * ctx.mpf(xi) ** (-n) / (2 * ctx.pi)
        )


@lru_cache(maxsize=None)
def mp_reference(alpha, beta, phi, sigma, n, xi):
    value = _mp_series(alpha, beta, phi, sigma, n, xi)
    if value is None:
        value = _mp_line(alpha, beta, phi, sigma, n, xi)
    return value


def second_line(tp, xi, fraction):
    """The Mellin-Barnes trapezoid sum on Re s = fraction * min(sigma, n),
    a line the route does not take, with the route's step rule."""
    upper = min(tp.sigma, tp.n)
    c = fraction * upper
    d = min(c, upper - c)
    log_pi_xi = math.log(math.pi * xi)
    h = 2.0 * math.pi * d / (40.0 + d * abs(log_pi_xi))
    rate = (abs(tp.phi) - 0.5 * math.pi * tp.alpha) / tp.sigma
    t = h * np.arange(-math.ceil(46.0 / rate / h), math.ceil(46.0 / rate / h) + 1)
    s = c + 1j * t
    f = np.exp(mellin._log_integrand(tp, s) + s * log_pi_xi)
    return complex(h * f.sum()) * math.pi ** (-0.5 * tp.n) * xi ** -tp.n / (2.0 * math.pi)


class TestClosedForms:
    # alpha = beta = 1, phi = pi: the profile is exp(-|x|^sigma).
    @pytest.mark.parametrize("n", [1, 2])
    def test_sigma_one(self, n):
        tp = TransformProblem(1.0, 1.0, math.pi, 1.0, n)
        for xi in np.geomspace(1e-2, 1e2, 17):
            assert rel_err(ml_transform(tp, xi), closed_form(n, 1, xi)) <= 1e-13

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_gaussian(self, n):
        # Even-integer sigma: every residue vanishes and the line integral
        # takes every point.  Its rounding is absolute on the scale of the
        # peak pi^(n/2): 1e-13 relative holds down to 1e-2 of the peak,
        # and 1e-13 of the peak holds down to a value of 1e-8.
        tp = TransformProblem(1.0, 1.0, math.pi, 2.0, n)
        peak = math.pi ** (0.5 * n)
        for xi in np.geomspace(1e-2, 1.37, 15):
            want = closed_form(n, 2, xi)
            assert want > 1e-8
            got = ml_transform(tp, xi)
            assert abs(got - want) <= 1e-13 * peak
            if want >= 1e-2 * peak:
                assert rel_err(got, want) <= 1e-13

    @pytest.mark.parametrize("n,xi,bound", [(3, 1e-3, 1e-13), (4, 1e-2, 1e-13), (4, 1e-3, 5e-12)])
    def test_gaussian_small_xi(self, n, xi, bound):
        # Every residue at s = m sigma vanishes, so the small-xi line is
        # sized for the pole at s = n; sized for s = sigma = 2 it was
        # 1.3e-12, 9.8e-13 and 9.0e-10 off.
        tp = TransformProblem(1.0, 1.0, math.pi, 2.0, n)
        assert rel_err(ml_transform(tp, xi), closed_form(n, 2, xi)) <= bound


@pytest.mark.parametrize(
    "sigma,n,grid",
    [(1.5, 2, np.geomspace(2.0, 10.0, 5)), (2.2, 3, (4.0, 5.0, 6.0))],
)
def test_residue_series_matches_line(sigma, n, grid):
    tp = TransformProblem(0.8, 1.0, math.pi, sigma, n)
    for xi in grid:
        value, err = residue_series(tp, xi)
        assert err <= 1e-15
        assert rel_err(value, line_integral(tp, xi)) <= 1e-12


@pytest.mark.parametrize("n,sigma", REFERENCE_PROBLEMS)
def test_reference_problems_against_mpmath(n, sigma):
    # At xi <= 1e-2 the right residue series takes (1, 0.7) and the line
    # takes nothing; the line's rounding floor reached 1.9e-13 there.
    tp = TransformProblem(0.8, 1.0, math.pi, sigma, n)
    for xi in np.geomspace(1e-4, 1e3, 25):
        want = mp_reference(0.8, 1.0, math.pi, sigma, n, float(xi))
        bound = 1e-14 if xi <= 1e-2 else 1e-12
        assert rel_err(ml_transform(tp, xi), want) <= bound, xi


@pytest.mark.parametrize("sigma", [4.0, 8.0])
def test_left_line_centre_on_a_gamma_pole(sigma):
    # For 2 pi xi >= 1 the line sits at c = -sigma/2; for sigma in 4Z its
    # centre node is a pole of Gamma(s/2), where K is 0, not nan.
    tp = TransformProblem(0.8, 1.0, math.pi, sigma, 3)
    grid = np.geomspace(1e-2, 1e2, 25)
    values = ml_transform(tp, grid)
    assert np.all(np.isfinite(values))
    if sigma == 4.0:
        for xi, value in zip(grid, values):
            if abs(value) >= 1e-8:
                want = _mp_line(0.8, 1.0, math.pi, sigma, 3, float(xi))
                assert rel_err(value, want) <= 1e-12, xi


@pytest.mark.parametrize(
    "problem,s_1,bound",
    [
        # beta = alpha: 1/Gamma(beta - alpha) = 0 cancels the pole at
        # s = sigma, and the nearest right pole is s = 2 sigma.
        ((0.8, 0.8, math.pi, 1.2, 3), 2.4, 1e-12),
        # beta - alpha = -1: s = n comes before s = 2 sigma = 3.2.
        ((1.5, 0.5, math.pi, 1.6, 3), 3.0, 1e-11),
    ],
)
def test_small_xi_line_sized_for_the_nearest_pole_with_a_residue(problem, s_1, bound):
    # A line sized for the cancelled pole at s = sigma was 2.0e-11 and
    # 1.7e-9 off at xi = 1e-4; sized for s_1 it is 4.1e-13 and 2.0e-12
    # off, its rounding floor.  The route takes the right residue series
    # there, 2.8e-16 and 1.1e-15 off.
    tp = TransformProblem(*problem)
    assert mellin._series_coefficients(tp).right.c == 0.6 * s_1
    want = _mp_line(*problem, 1e-4)
    assert rel_err(line_integral(tp, 1e-4), want) <= bound
    assert rel_err(ml_transform(tp, 1e-4), want) <= 1e-13


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_gaussian_small_xi_from_the_right_series(n):
    # Every residue at s = m sigma vanishes or meets an s = n + 2j, and the
    # right residue series is the Gaussian's Taylor series; the line it
    # replaces was up to 2.1e-11 off here.
    tp = TransformProblem(1.0, 1.0, math.pi, 2.0, n)
    for xi in np.geomspace(1e-4, 0.1, 13):
        assert rel_err(ml_transform(tp, xi), closed_form(n, 2, xi)) <= 2e-15, xi


def _summed(tp, xs, side=1):
    """The residue series of tp closed to the left (side 0) or to the
    right (side 1), and its estimate, at the array xs."""
    xs = np.asarray(xs, dtype=float)
    res = mellin._series_coefficients(tp).series[side]
    return mellin._residue_sum(res, xs, np.log(math.pi * xs))


def test_double_pole_carries_its_log_term():
    # (2, 1.5): 4 sigma = n + 4 = 6 is a double pole, whose residue is
    # (C + D log pi xi) (pi xi)^6.  Without D the sum is 1e-7 off.
    tp = TransformProblem(0.8, 1.0, math.pi, 1.5, 2)
    assert mellin._series_coefficients(tp).series[1].log_coef is not None
    value, err = _summed(tp, [1e-2])
    assert err[0] <= 1e-15
    want = _mp_line(0.8, 1.0, math.pi, 1.5, 2, 1e-2)
    assert rel_err(value[0], want) <= 1e-14
    assert rel_err(ml_transform(tp, 1e-2), want) <= 1e-14


@pytest.mark.parametrize("xi,taken", [(1e-3, True), (1e-2, False), (0.05, False)])
def test_nearly_coincident_poles_are_served_within_their_estimate(xi, taken):
    # At sigma = 1.5 + 1e-9, 4 sigma and n + 4 are 4e-9 apart: two simple
    # poles whose residues, near 1e9 times the others, cancel.  At small xi
    # their terms are too small to matter; from xi = 1e-2 the cancellation
    # shows in the estimate, which sends the point to the line.  Either
    # way the sum is within 10 times its estimate.
    sigma = 1.5 + 1e-9
    tp = TransformProblem(0.8, 1.0, math.pi, sigma, 2)
    want = _mp_line(0.8, 1.0, math.pi, sigma, 2, xi)
    value, err = _summed(tp, [xi])
    assert (err[0] <= 1e-15) == taken
    assert rel_err(value[0], want) <= 10.0 * err[0]
    assert rel_err(ml_transform(tp, xi), want) <= 1e-13


@pytest.mark.parametrize("side", [0, 1], ids=["left", "right"])
def test_series_within_its_estimate_on_a_seeded_sample(side):
    # Problems 0.05 to 1 of the sector's room inside it, phi = pi for a
    # third of them, xi in [1e-4, 0.15] on the right and [0.15, 100] on the
    # left: every point a series takes within its span is within 10 times
    # its estimate, and within 1e-14, of the mpmath line on the right and
    # of the 40-digit left series on the left.
    rng = np.random.default_rng(35)
    taken = 0
    for _ in range(40):
        n = int(rng.integers(1, 4))
        alpha, beta = rng.uniform(0.3, 1.9), rng.uniform(0.5, 2.5)
        sigma = 0.5 * (n - 1) + rng.uniform(0.1, 2.5)
        room = rng.uniform(0.05, 1.0)
        phi = min(0.5 * math.pi * alpha + room * math.pi * (1.0 - 0.5 * alpha), math.pi)
        phi = math.pi if rng.random() < 0.3 else float(rng.choice([1.0, -1.0])) * phi
        xi = 10.0 ** rng.uniform(*((math.log10(0.15), 2.0), (-4.0, math.log10(0.15)))[side])
        tp = TransformProblem(alpha, beta, phi, sigma, n)
        start, end = mellin._series_coefficients(tp).series[side].span
        if not start <= math.log(math.pi * xi) <= end:
            continue
        value, err = _summed(tp, [xi], side)
        if not err[0] <= 1e-15:
            continue
        reference = (_mp_series, _mp_line)[side](alpha, beta, phi, sigma, n, xi)
        if reference is None:  # the 40-digit series does not converge to 1e-20
            continue
        taken += 1
        true = rel_err(value[0], reference)
        assert true <= min(10.0 * err[0], 1e-14), (alpha, beta, phi, sigma, n, xi)
    assert taken >= 20


@settings(
    max_examples=50,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    alpha=st.floats(0.3, 1.9),
    beta=st.floats(0.5, 2.5),
    room=st.floats(0.0, 1.0),
    sign=st.sampled_from([1.0, -1.0]),
    n=st.sampled_from([1, 2, 3]),
    excess=st.floats(0.1, 2.5),
    log_xi=st.floats(-2.0, 1.0),
)
def test_agrees_with_split(alpha, beta, room, sign, n, excess, log_xi):
    # At least 0.1 rad inside the sector and xi <= 10.  The split pipeline
    # counts as sound where it converges.
    offset = 0.1 + room * (math.pi * (1.0 - 0.5 * alpha) - 0.1)
    tp = TransformProblem(
        alpha, beta, sign * (0.5 * math.pi * alpha + offset), 0.5 * (n - 1) + excess, n
    )
    xi = 10.0 ** log_xi
    try:
        split = split_transform(tp, xi)
    except ConvergenceError:
        assume(False)
    assert rel_err(ml_transform(tp, xi), split) <= 1e-6


@pytest.mark.parametrize(
    "alpha,offset,sigma,n,xi",
    [(1.3, 0.02, 1.5, 2, 0.5), (1.9, 0.02, 2.2, 3, 1.0)],
)
def test_near_sector_boundary(alpha, offset, sigma, n, xi):
    # The split pipeline's accelerated tail stagnates here (ConvergenceError
    # from split_transform); the route returns values that a second line
    # confirms.  The second line's own cancellation is about 2e-10 at the
    # second point.
    tp = TransformProblem(alpha, 1.0, 0.5 * math.pi * alpha + offset, sigma, n)
    value = ml_transform(tp, xi)
    assert rel_err(value, second_line(tp, xi, 0.3)) <= 1e-9


@pytest.mark.parametrize(
    "alpha,beta,offset,sigma,n",
    [
        (1.1, 1.0, 0.3, 1.5, 3),
        (1.3, 1.0, 0.1, 2.1, 3),
        (1.5, 1.5, 0.1, 2.3, 3),
        (1.5, 1.0, 0.3, 2.3, 2),
        (1.9, 1.0, 0.02, 2.2, 3),
    ],
)
def test_series_estimate_near_sector_boundary(alpha, beta, offset, sigma, n):
    # Near the sector boundary the residue series lacks E's exponential
    # term, and only the saddle-point size of that term in its estimate
    # keeps the route off a wrong series.  Scan xi for the first point where
    # the series is taken: there the route matches the mpmath line to
    # 1e-13.  At the scan point below it, where the exponential term
    # rejected the series, the estimate bounds the series' true error, and
    # is no more than 100 times it.
    phi = 0.5 * math.pi * alpha + offset
    tp = TransformProblem(alpha, beta, phi, sigma, n)
    xs = np.geomspace(0.1, 20.0, 47)
    first = next(i for i, x in enumerate(xs) if residue_series(tp, x)[1] <= 1e-15)
    assert first > 0
    xi, below = float(xs[first]), float(xs[first - 1])
    want = _mp_line(alpha, beta, phi, sigma, n, xi)
    assert rel_err(ml_transform(tp, xi), want) <= 1e-13
    value, err = residue_series(tp, below)
    true = rel_err(value, _mp_line(alpha, beta, phi, sigma, n, below))
    assert err / 100.0 <= true <= err


def test_series_rejected_where_it_misses_the_exponential_term():
    # At (alpha, phi, sigma, n, xi) = (1.5, 2.5, 2.2, 3, 1), 0.14 rad inside
    # the sector, the series is 86% off; its estimate sends the point to the
    # line.
    tp = TransformProblem(1.5, 1.0, 2.5, 2.2, 3)
    want = _mp_line(1.5, 1.0, 2.5, 2.2, 3, 1.0)
    value, err = residue_series(tp, 1.0)
    assert 0.5 <= rel_err(value, want) <= err
    assert rel_err(ml_transform(tp, 1.0), want) <= 1e-12


def test_series_taken_only_where_its_estimate_meets_the_target(monkeypatch):
    # A NaN estimate, of either series, is not known to meet the target:
    # the point goes to the line, in an array as alone.
    tp = TransformProblem(0.8, 1.0, math.pi, 2.2, 3)
    xs = np.array([0.05, 0.5, 5.0])
    want = line_integral(tp, xs)
    summed = mellin._residue_sum
    monkeypatch.setattr(
        mellin, "_residue_sum", lambda res, x, L: (summed(res, x, L)[0], np.full(x.size, math.nan))
    )
    assert np.array_equal(ml_transform(tp, xs), want)
    assert ml_transform(tp, 0.5) == want[1]


def test_line_node_cap():
    # 1e-6 rad from the sector boundary the integrand decays too slowly for
    # 2^20 nodes; the cap is checked before any node is evaluated.
    tp = TransformProblem(1.3, 1.0, 0.5 * math.pi * 1.3 + 1e-6, 1.5, 2)
    with pytest.raises(ConvergenceError, match="nodes"):
        ml_transform(tp, 0.05)


class TestValidation:
    def test_sigma_below_tail_scope(self):
        # Neither route sees sigma <= (n-1)/2: the problem type refuses it.
        for route in (ml_transform, split_transform):
            with pytest.raises(DomainError, match=r"sigma > \(n-1\)/2"):
                route(TransformProblem(0.8, 1.0, math.pi, 0.9, 3), 1.0)

    def test_nonpositive_xi(self):
        tp = TransformProblem(0.8, 1.0, math.pi, 0.7, 1)
        for route in (ml_transform, split_transform):
            with pytest.raises(DomainError):
                route(tp, 0.0)

    def test_unknown_strategy(self):
        # ml_transform has one route and takes neither a strategy nor
        # tolerances; the split is split_transform
        tp = TransformProblem(0.8, 1.0, math.pi, 0.7, 1)
        with pytest.raises(TypeError, match="strategy"):
            ml_transform(tp, 1.0, strategy="split")
        with pytest.raises(TypeError):
            ml_transform(tp, 1.0, 1e-12)


def test_residue_coefficient_closed_form():
    # alpha = beta = sigma = n = 1: 2/(1 + 4 pi^2 xi^2) ~ xi^-2/(2 pi^2).
    tp = TransformProblem(1.0, 1.0, math.pi, 1.0, 1)
    assert abs(residue_coefficient(tp, 1) - 1.0 / (2.0 * math.pi ** 2)) <= 1e-16
    assert residue_coefficient(tp, 2) == 0.0


def _recorded_nodes(monkeypatch):
    """Every s given to mellin._log_integrand from here on, with no line
    kernel kept from earlier calls."""
    mellin._KERNELS.clear()
    given_nodes = []
    evaluate = mellin._log_integrand

    def recorder(tp, s):
        given_nodes.append(np.array(s, dtype=complex))
        return evaluate(tp, s)

    monkeypatch.setattr(mellin, "_log_integrand", recorder)
    return given_nodes


def test_line_evaluates_each_node_once(monkeypatch):
    # At phi = pi the integrand is conjugate-symmetric and the line is summed
    # over t >= 0: the nodes are exactly 0, h, ..., m h, each evaluated once,
    # and the last one has passed the 1e-18 tail check.
    tp = TransformProblem(0.8, 1.0, math.pi, 2.2, 3)
    given_nodes = _recorded_nodes(monkeypatch)
    line_integral(tp, 1e-2)
    s = np.concatenate(given_nodes)
    assert np.all(s.real == 0.6 * 2.2)
    t = np.sort(s.imag)
    h = t[1]
    assert t[0] == 0.0 and np.array_equal(t, h * np.arange(t.size))
    mag = np.abs(np.exp(mellin._log_integrand(tp, s)))
    assert mag[np.argmax(s.imag)] <= math.exp(-41.5) * mag.max()
    assert t.size <= 600  # 438 nodes at this step; extensions stay short


def test_line_sides_have_their_own_length(monkeypatch):
    # 0.02 rad inside the sector at alpha = 1.5 the integrand decays like
    # e^{-0.0087 |t|} on one side and e^{-0.67 t} on the other: each side
    # stops where its own tail check passes.
    alpha, sigma = 1.5, 2.2
    tp = TransformProblem(alpha, 1.0, 0.5 * math.pi * alpha + 0.02, sigma, 3)
    given_nodes = _recorded_nodes(monkeypatch)
    line_integral(tp, 0.05)
    t = np.concatenate(given_nodes).imag
    assert np.unique(t).size == t.size
    slow, fast = -t.min(), t.max()
    assert 40.0 * fast < slow
    assert fast >= 41.5 * sigma / (math.pi - 0.5 * math.pi * alpha - (tp.phi - math.pi))


def _cold_caches():
    mellin._KERNELS.clear()
    mellin._series_coefficients.cache_clear()


# phi = pi takes the half line; phi = -2.5 and 2.5 take two-sided lines with
# the same lines and steps, so a kernel kept under the wrong problem shows.
CACHED_PROBLEMS = (
    TransformProblem(0.8, 1.0, math.pi, 2.2, 3),
    TransformProblem(1.3, 0.7, -2.5, 1.7, 2),
    TransformProblem(1.3, 0.7, 2.5, 1.7, 2),
)


@pytest.mark.parametrize("float_first", [True, False])
def test_kept_kernels_and_coefficients_give_the_cold_values(float_first):
    # Each call's value with every cache cleared first, against the same
    # calls made in a row, twice, so that all but the first find what the
    # earlier ones kept: the float point is one of the array's points.
    xs = np.geomspace(1e-4, 1e2, 13)
    calls = []
    for tp in CACHED_PROBLEMS:
        kinds = [lambda tp=tp: ml_transform(tp, float(xs[4])), lambda tp=tp: ml_transform(tp, xs)]
        calls += kinds if float_first else kinds[::-1]
    cold = []
    for call in calls:
        _cold_caches()
        cold.append(np.asarray(call()).tobytes())
    _cold_caches()
    warm = [np.asarray(call()).tobytes() for call in calls + calls]
    assert warm == cold + cold


def test_kept_arrays_are_read_only():
    tp = CACHED_PROBLEMS[1]
    ml_transform(tp, np.geomspace(1e-4, 1e2, 13))
    assert mellin._KERNELS
    for kernel in mellin._KERNELS.values():
        for arr in (kernel.baby_steps, *(arr for chunk in kernel.chunks for arr in chunk)):
            with pytest.raises(ValueError):
                arr[0] = 0.0
    plan = mellin._series_coefficients(tp)
    left, right = plan.series
    lines = (plan.left.ladder, plan.left.bounds, plan.right.ladder, plan.right.bounds)
    arrays = [f for f in (*lines, *left, *right) if isinstance(f, np.ndarray)]
    assert left.log_coef is None
    assert right.log_coef is not None  # 20 sigma = n + 32, a double pole
    assert len(arrays) == 13
    for arr in arrays:
        with pytest.raises(ValueError):
            arr[0] = 0.0


@pytest.mark.parametrize("n,sigma", REFERENCE_PROBLEMS)
def test_rungs_read_off_the_bounds_follow_the_step_rule(monkeypatch, n, sigma):
    # A point's rung is the smallest k with ladder[k] <= 2 pi d/(40 + d
    # |log pi xi|), the rule as rounded: at 0, at each bound and 1 ulp
    # either side, and at seeded points up to 746, on both lines, whether
    # the point is summed alone or in an array of many rungs.
    tp = TransformProblem(0.8, 1.0, math.pi, sigma, n)
    plan = mellin._series_coefficients(tp)
    steps = {}
    # A one-node kernel whose f_0 is the line's c: phase_sums records the
    # line and the step each point was summed on.
    monkeypatch.setattr(
        mellin, "_line_kernel", lambda tp, c, h: mellin._stored_kernel(h, 0, np.array([c + 0j]))
    )

    def phase_sums(kernel, L):
        steps.update(dict.fromkeys(L.tolist(), (kernel.f_0, kernel.h)))
        return np.zeros(L.size, complex)

    monkeypatch.setattr(mellin, "_phase_sums", phase_sums)
    rng = np.random.default_rng(34)
    for line, xi in ((plan.left, 1.0), (plan.right, 0.01)):
        b = line.bounds
        a = np.concatenate([
            [0.0], b, np.nextafter(b, 0.0), np.nextafter(b, math.inf),
            rng.uniform(0.0, 746.0, 300),
        ])
        a = a[a <= 746.0]
        # The left line takes pi xi >= 0.5, log(0.5) = -0.693, the right
        # line the rest.
        L = np.concatenate([a, -a[a < 0.69]]) if line is plan.left else -a[a > 0.7]
        rule = 2.0 * math.pi * line.d / (mellin._STEP_EFOLDS + line.d * np.abs(L))
        admitted = line.ladder[None, :] <= rule[:, None]
        assert admitted[:, -1].all()
        want = [(line.c, h) for h in line.ladder[np.argmax(admitted, axis=1)]]
        steps.clear()
        mellin._line(tp, np.full(L.size, xi), L)
        assert [steps[v] for v in L.tolist()] == want
        for v, route in zip(L.tolist(), want):
            steps.clear()
            mellin._line(tp, np.array([xi]), np.array([v]))
            assert steps == {v: route}


def test_kept_kernels_stay_within_the_node_cap(monkeypatch):
    # 0.002 rad inside the sector one kernel holds 430,306 nodes; the grid's
    # three kernels hold 1.3 million in all.  The line is called directly:
    # the transform takes the right residue series at the grid's small xi.
    _cold_caches()
    evaluated = {}
    evaluate = mellin._evaluate_kernel

    def recorder(tp, c, h):
        j0, kernel = evaluate(tp, c, h)
        evaluated[tp, c, h] = kernel.size
        return j0, kernel

    monkeypatch.setattr(mellin, "_evaluate_kernel", recorder)
    tp = TransformProblem(1.3, 1.0, 0.5 * math.pi * 1.3 + 0.002, 1.5, 2)
    line_integral(tp, np.geomspace(1e-12, 1e2, 25))
    for n, sigma in REFERENCE_PROBLEMS:
        ml_transform(TransformProblem(0.8, 1.0, math.pi, sigma, n), np.geomspace(1e-4, 1e3, 25))
    assert sum(evaluated.values()) > 2**20
    # The cap counts the stored nodes, padding included.
    assert sum(kernel.size for kernel in mellin._KERNELS.values()) <= 2**20
    # Every node evaluated is stored, the half line's f_0 split off.
    for key, kernel in mellin._KERNELS.items():
        assert kernel.nodes + (kernel.f_0 is not None) == evaluated[key]
        assert kernel.size == -(-kernel.nodes // 32) * 32
    # The least recently used went first; the reference problems' kernels,
    # asked for last, are all kept.
    keys = list(evaluated)
    assert keys[0] not in mellin._KERNELS
    reference = [key for key in keys if key[0].alpha == 0.8]
    assert reference == list(mellin._KERNELS)[-len(reference):]


def _direct_phase_sums(kernel, j0, h, log_pi_xi):
    """sum_j kernel[j] e^{i h (j0 + j) L} with one exponential per node and
    point, in the route's chunks and row blocks."""
    out = np.zeros(log_pi_xi.size, complex)
    for lo in range(0, kernel.size, 2**14):
        part = kernel[lo:lo + 2**14]
        t = h * (j0 + lo + np.arange(part.size))
        rows = max(1, 2**16 // part.size)
        for r in range(0, log_pi_xi.size, rows):
            L = log_pi_xi[r:r + rows, None]
            out[r:r + rows] += (part * np.exp(1j * (L * t))).sum(axis=1)
    return out


def _summed_nodes(kernel):
    """The nodes a stored kernel sums, without padding, after checking that
    only the last row is padded, with zeros, and that the giant steps are
    h (j0 + first node of the row)."""
    rows = [chunk for chunk, _giant in kernel.chunks]
    assert all(chunk.shape == (2**14 // 32, 32) for chunk in rows[:-1])
    flat = np.concatenate([chunk.ravel() for chunk in rows])
    assert 0 <= flat.size - kernel.nodes < 32
    assert np.all(flat[kernel.nodes:] == 0.0)
    giant = np.concatenate([giant for _chunk, giant in kernel.chunks])
    assert np.array_equal(giant, kernel.h * (kernel.j0 + 32 * np.arange(giant.size)))
    return flat[:kernel.nodes]


def _summed_kernels(monkeypatch, tp):
    """Every stored kernel whose phase sums the lines of tp take, for the
    left line (xi = 1) and the right one (xi = 1e-2)."""
    mellin._KERNELS.clear()
    summed = {}
    phase_sums = mellin._phase_sums

    def recorder(kernel, log_pi_xi):
        summed[kernel.nodes, kernel.j0, kernel.h] = kernel
        return phase_sums(kernel, log_pi_xi)

    monkeypatch.setattr(mellin, "_phase_sums", recorder)
    line_integral(tp, np.array([1e-2, 1.0]))
    monkeypatch.setattr(mellin, "_phase_sums", phase_sums)
    return list(summed.values())


def _check_phase_sums(kernel, L):
    # The baby-step/giant-step sum against the direct one: each phase
    # h j L is rounded once either way, so the two differ by a few eps of
    # sum_j |K_j| (1 + |L t_j|).
    nodes = _summed_nodes(kernel)
    got = mellin._phase_sums(kernel, L)
    want = _direct_phase_sums(nodes, kernel.j0, kernel.h, L)
    t = kernel.h * (kernel.j0 + np.arange(nodes.size))
    bound = 4.0 * np.finfo(float).eps * (
        np.abs(nodes).sum() + np.abs(L) * (np.abs(nodes) * np.abs(t)).sum()
    )
    assert np.all(np.abs(got - want) <= bound)


@pytest.mark.parametrize(
    "problem,sizes",
    [
        ((0.8, 1.0, math.pi, 0.7, 1), (345, 434)),
        ((0.8, 1.0, math.pi, 1.5, 2), (370, 434)),
        ((0.8, 1.0, math.pi, 2.2, 3), (397, 437)),
        # Two-sided lines, j0 < 0.
        ((1.3, 0.7, -2.5, 1.7, 2), (1934, 2369)),
        # 0.02 rad inside the sector: three node chunks.
        ((1.3, 1.0, 0.5 * math.pi * 1.3 + 0.02, 1.5, 2), (35377, 42539)),
    ],
)
@pytest.mark.parametrize("points", [1, 10, 300])
def test_split_phase_sums_match_one_exponential_per_node(monkeypatch, problem, sizes, points):
    # None of the lengths is a multiple of 32.  At phi = pi the half line's
    # f_0 is split off and the sum starts at j0 = 1.
    kernels = _summed_kernels(monkeypatch, TransformProblem(*problem))
    assert sorted(kernel.nodes for kernel in kernels) == list(sizes)
    L = np.log(math.pi * np.geomspace(1e-6, 1e2, points))
    for kernel in kernels:
        assert (kernel.j0 < 0) == (problem[2] != math.pi)
        assert (kernel.f_0 is None) == (problem[2] != math.pi)
        _check_phase_sums(kernel, L)


@pytest.mark.parametrize("nodes", [1, 33, 2**14 + 1, 2**14 + 31])
@pytest.mark.parametrize("j0", [0, -7])
def test_padding_never_enters_a_sum(nodes, j0):
    # Stored kernels padded with 31 zeros down to 1, in one chunk and in
    # two, for a half line (j0 = 0: f_0 split off) and a two-sided one: the
    # stored sums match the direct sums over the nodes alone.
    rng = np.random.default_rng(nodes)
    size = nodes + (j0 == 0)
    values = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    kernel = mellin._stored_kernel(0.05, j0, values)
    assert kernel.nodes == nodes and kernel.size == -(-nodes // 32) * 32 > nodes
    if j0 == 0:
        assert kernel.j0 == 1 and kernel.f_0 == values[0].real
        assert np.array_equal(_summed_nodes(kernel), values[1:])
    else:
        assert kernel.j0 == j0 and kernel.f_0 is None
        assert np.array_equal(_summed_nodes(kernel), values)
    _check_phase_sums(kernel, np.log(math.pi * np.geomspace(1e-6, 1e2, 7)))


@pytest.mark.parametrize("nodes", [1, 33, 2**14 + 31])
@pytest.mark.parametrize("j0", [0, -7])
def test_each_point_has_its_own_product(nodes, j0):
    # The row sums are one BLAS matrix-vector product per point, so a
    # point's sum is the same, byte for byte, in one call of 300 points,
    # alone, and in batches of 2 and 7.
    rng = np.random.default_rng(nodes)
    size = nodes + (j0 == 0)
    kernel = mellin._stored_kernel(
        0.05, j0, rng.standard_normal(size) + 1j * rng.standard_normal(size)
    )
    L = np.log(math.pi * np.geomspace(1e-6, 1e2, 300))
    whole = mellin._phase_sums(kernel, L).tobytes()
    for batch in (1, 2, 7):
        parts = [mellin._phase_sums(kernel, L[i:i + batch]) for i in range(0, L.size, batch)]
        assert np.concatenate(parts).tobytes() == whole


SKIP_PROBLEMS = (
    TransformProblem(0.8, 1.0, math.pi, 0.7, 1),
    TransformProblem(0.8, 1.0, math.pi, 1.5, 2),
    TransformProblem(0.8, 1.0, math.pi, 2.2, 3),
    TransformProblem(1.3, 0.7, 2.5, 1.7, 2),
    TransformProblem(1.3, 0.7, -2.5, 1.7, 2),
    TransformProblem(1.9, 1.0, 0.5 * math.pi * 1.9 + 0.02, 2.2, 3),
    TransformProblem(0.8, 0.8, math.pi, 1.2, 3),
    # Even-integer sigma: every left term vanishes.
    TransformProblem(1.0, 1.0, math.pi, 2.0, 2),
)


# Problems whose right series is refused before the line switch at pi xi =
# 0.5.
RIGHT_EDGED = (
    TransformProblem(0.8, 1.0, math.pi, 0.7, 1),
    TransformProblem(1.3, 0.7, -2.5, 1.5, 2),
    TransformProblem(1.5, 0.5, math.pi, 1.6, 3),
)


@pytest.mark.parametrize("tp", SKIP_PROBLEMS + RIGHT_EDGED[1:])
@pytest.mark.parametrize("side", [0, 1], ids=["left", "right"])
def test_points_past_a_span_are_refused_exactly(monkeypatch, side, tp):
    # Past its span a series' envelopes alone refuse it: summed anyway,
    # every such point misses the target, and with the span widened to
    # every point the series may serve (all of them on the left, pi xi <
    # 0.5 on the right) the route's values are the same, bit for bit.
    xs = np.concatenate([np.geomspace(1e-6, 0.159, 300), np.geomspace(0.16, 1e2, 100)])
    L = np.log(math.pi * xs)
    res = mellin._series_coefficients(tp).series[side]
    start, end = res.span
    wide = (-math.inf, (math.inf, mellin._RIGHT_EDGE)[side])
    past = ~((start <= L) & (L <= end)) & (L <= wide[1])
    # Every left series refuses some of these points (at even-integer
    # sigma its span is empty), and so does the right series of each
    # problem of RIGHT_EDGED; for the others the right edge may be the
    # line switch itself.
    if side == 0 or tp in RIGHT_EDGED:
        assert past.any()
        assert (side == 0 and start > -math.inf) or end < mellin._RIGHT_EDGE
    else:
        assert past.any() or end == mellin._RIGHT_EDGE
    assert (start > end) == (side == 0 and tp.sigma == 2.0)
    _value, err = mellin._residue_sum(res, xs[past], L[past])
    assert not np.any(err <= 1e-15)
    transform = mellin_transform(tp, xs)
    kept = mellin._series_coefficients

    def widened(tp):
        series = list(kept(tp).series)
        series[side] = series[side]._replace(span=wide)
        return kept(tp)._replace(series=tuple(series))

    monkeypatch.setattr(mellin, "_series_coefficients", widened)
    assert transform.tobytes() == mellin_transform(tp, xs).tobytes()


def test_right_series_exponent_carries_its_rounding():
    # s_0 - n = 1.7 - 4 is not a double: rounded, it put the value
    # ulp(s_0 - n) |log pi xi| off, 2.8e-15 and 2.2e-15 here, with an
    # estimate of at most 1e-15.
    tp = TransformProblem(0.8, 1.0, math.pi, 1.7, 4)
    assert mellin._series_coefficients(tp).series[1].power[1] != 0.0
    for xi in (1e-5, 1e-4):
        want = _mp_line(0.8, 1.0, math.pi, 1.7, 4, xi)
        assert rel_err(ml_transform(tp, xi), want) <= 1e-15, xi


@pytest.mark.parametrize("problem,xi", [
    ((0.8, 1.0, math.pi, 0.7, 1), 1e200),
    ((0.8, 1.0, math.pi, 1.5, 2), 1e100),
])
def test_underflowing_transform_is_zero(problem, xi):
    # xi^-(n + sigma) is 0 in double: the left series takes the point and
    # its value underflows to 0, where the line's absolute floor returned
    # -1.0e-287 and -1.7e-292.
    tp = TransformProblem(*problem)
    assert ml_transform(tp, xi) == 0.0
    assert residue_series(tp, xi)[0] == 0.0


@pytest.mark.parametrize(
    "entry", [residue_series, line_integral, mellin_transform, ml_transform],
    ids=lambda f: f.__name__,
)
@pytest.mark.parametrize(
    "xi", [math.nan, 0.0, -1.0, math.inf, np.array([0.1, math.nan])],
    ids=["nan", "0.0", "-1.0", "inf", "array-nan"],
)
def test_xi_outside_the_open_half_line_raises(entry, xi):
    # One check, shared by every entry point: log(pi xi) is nan or +-inf
    # there, and no rung of the ladder covers it.
    for tp in SKIP_PROBLEMS:
        with pytest.raises(DomainError, match="finite xi"):
            entry(tp, xi)


class TestArrays:
    TP = TransformProblem(0.8, 1.0, math.pi, 1.5, 2)

    def test_shapes(self):
        xs = np.geomspace(1e-3, 1e2, 12).reshape(3, 4)
        values = ml_transform(self.TP, xs)
        assert values.shape == (3, 4) and values.dtype == complex
        assert isinstance(ml_transform(self.TP, 0.5), complex)
        assert ml_transform(self.TP, np.array([])).shape == (0,)
        for transform in (mellin_transform, line_integral):
            empty = transform(self.TP, np.empty((0, 3)))
            assert empty.shape == (0, 3) and empty.dtype == complex
        value, err = residue_series(self.TP, xs)
        assert value.shape == err.shape == (3, 4)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan])
    def test_every_entry_is_checked(self, bad):
        with pytest.raises(DomainError):
            ml_transform(self.TP, np.array([0.5, bad, 2.0]))

    @pytest.mark.parametrize("n,sigma", REFERENCE_PROBLEMS)
    def test_real_at_phi_pi(self, n, sigma):
        # At phi = pi every residue and the half line are real; e^{ik pi}
        # in floating point leaves an imaginary part of 1e-16 relative at
        # a dozen points of each grid unless the phases are exact.
        tp = TransformProblem(0.8, 1.0, math.pi, sigma, n)
        values = ml_transform(tp, np.geomspace(1e-4, 1e3, 25))
        assert np.all(values.imag == 0.0)
        assert not np.any(np.signbit(values.imag))

    def test_reruns_are_byte_identical(self):
        xs = np.geomspace(1e-4, 1e3, 25)
        assert ml_transform(self.TP, xs).tobytes() == ml_transform(self.TP, xs).tobytes()


def _geomspace(low, high, points):
    return np.geomspace(10.0 ** low, 10.0 ** high, points)


# Grids whose extreme points take one rung of the ladder though not all
# their points do: log(pi xi) straddles 0, where |log pi xi| is smallest
# between the extremes (pi xi = 1 is on rung 0 of the left line, its ends
# on rung 1); and pi xi straddles 0.5, so that the extremes are on rung 1
# of different lines.
ONE_RUNG_EXTREMES = (
    np.array([math.exp(-0.5), 0.9, 1.0, 1.2, math.exp(0.5)]) / math.pi,
    np.array([math.exp(-3.0), 0.3, 0.5, 0.6, math.exp(-0.3)]) / math.pi,
)


# Both sides of pi xi = 0.5, with points the right residue series takes,
# points past its edge for (1, 0.7) and points its estimate refuses.
RIGHT_SERIES_SIDES = np.array([1e-4, 1e-2, 0.04, 0.06, 0.1, 0.15, 0.159, 0.16, 0.3, 2.0])


@settings(max_examples=30, derandomize=True, deadline=None)
@given(
    problem=st.sampled_from(REFERENCE_PROBLEMS),
    phi=st.sampled_from([math.pi, 0.5 * math.pi * 0.8 + 0.3, -2.0]),
    xs=st.builds(_geomspace, st.floats(-8.0, -1.0), st.floats(0.0, 1.5), st.integers(2, 9)),
)
@example(problem=(1, 0.7), phi=math.pi, xs=ONE_RUNG_EXTREMES[0])
@example(problem=(2, 1.5), phi=-2.0, xs=ONE_RUNG_EXTREMES[0])
@example(problem=(3, 2.2), phi=math.pi, xs=ONE_RUNG_EXTREMES[0])
@example(problem=(1, 0.7), phi=math.pi, xs=ONE_RUNG_EXTREMES[1])
@example(problem=(2, 1.5), phi=-2.0, xs=ONE_RUNG_EXTREMES[1])
@example(problem=(3, 2.2), phi=math.pi, xs=ONE_RUNG_EXTREMES[1])
@example(problem=(1, 0.7), phi=math.pi, xs=RIGHT_SERIES_SIDES)
@example(problem=(2, 1.5), phi=-2.0, xs=RIGHT_SERIES_SIDES)
@example(problem=(3, 2.2), phi=math.pi, xs=RIGHT_SERIES_SIDES)
def test_batch_matches_each_point_bit_for_bit(problem, phi, xs):
    # The grids straddle 2 pi xi = 1, where the line moves, reach the
    # series/line switch of each reference problem, and span several rungs
    # of the step ladder below xi = 1e-4; a point's value must not depend
    # on the other points of its grid.
    n, sigma = problem
    tp = TransformProblem(0.8, 1.0, phi, sigma, n)
    batch = ml_transform(tp, xs)
    for x, value in zip(xs, batch):
        assert value.tobytes() == np.complex128(ml_transform(tp, float(x))).tobytes()


def test_batch_matches_each_point_near_the_sector_boundary():
    # 0.02 rad inside the sector the kernels hold three chunks of nodes.
    tp = TransformProblem(1.3, 1.0, 0.5 * math.pi * 1.3 + 0.02, 1.5, 2)
    xs = np.geomspace(1e-6, 1e2, 25)
    batch = ml_transform(tp, xs)
    assert any(len(kernel.chunks) == 3 for key, kernel in mellin._KERNELS.items() if key[0] == tp)
    for x, value in zip(xs, batch):
        assert value.tobytes() == np.complex128(ml_transform(tp, float(x))).tobytes()


@pytest.mark.parametrize(
    "problem,grid",
    [
        ((1.3, 1.0, 2.0620352248333655, 1.5, 2), (1e-2, 1e2, 25)),
        ((1.9, 1.0, 3.0045, 2.2, 3), (1e-6, 1e2, 40)),
    ],
)
def test_values_do_not_depend_on_the_blas_thread_count(problem, grid):
    # Near the sector boundary the phase sums' matrix-vector products are
    # large enough that OpenBLAS may split them across threads.
    code = (
        "import sys, numpy as np\n"
        "from mlfourier.radial_fourier import TransformProblem, ml_transform\n"
        f"tp = TransformProblem(*{problem!r})\n"
        f"sys.stdout.write(ml_transform(tp, np.geomspace(*{grid!r})).tobytes().hex())\n"
    )
    outputs = []
    for threads in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": threads},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] and outputs[0] == outputs[1]


def test_transform_is_completely_monotone_in_xi_squared():
    # For 0 < alpha <= 1 and beta >= alpha, E(-x) is completely monotone
    # (Pollard; Schneider), and for sigma <= 2, e^{-y r^sigma} is a mixture
    # of Gaussians (Bochner subordination).  So F(sqrt u) is real, positive
    # and completely monotone in u: (-1)^k Delta^k F >= 0 on equispaced u,
    # here up to a rounding allowance of 2^k 1e-13 max|F| for k = 1, 2.
    # sigma = 2, where F falls below the line's absolute floor and the
    # check fails today, joins with the relative accuracy at large xi.
    # 150 seeded problems: alpha in [0.2, 1], beta in [alpha, 2.5], n in
    # 1..4, sigma in ((n-1)/2 + 0.01, 1.99).
    rng = np.random.default_rng(16)
    for _ in range(150):
        alpha = rng.uniform(0.2, 1.0)
        beta = rng.uniform(alpha, 2.5)
        n = int(rng.integers(1, 5))
        tp = TransformProblem(alpha, beta, math.pi, rng.uniform(0.5 * (n - 1) + 0.01, 1.99), n)
        for low, high in ((1e-6, 1e-2), (1e-2, 4.0), (4.0, 1e4)):
            F = ml_transform(tp, np.sqrt(np.linspace(low, high, 64)))
            assert (F.imag == 0.0).all() and (F.real > 0.0).all(), (tp, low)
            diff, scale = F.real, np.abs(F.real).max()
            for k in (1, 2):
                diff = np.diff(diff)
                assert ((-1) ** k * diff).min() >= -(2 ** k) * 1e-13 * scale, (tp, low, k)

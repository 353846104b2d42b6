"""Mellin–Barnes route for the radial transform of Mittag-Leffler profiles.

With e^{i phi} = -e^{i theta}, the Mellin transform of the profile
r -> E_{alpha,beta}(e^{i phi} r^sigma) is (Gorenflo, Kilbas, Mainardi &
Rogosin, *Mittag-Leffler Functions*, Springer 2014)

    F_M(s) = sigma^-1 e^{-i theta s/sigma} Gamma(s/sigma) Gamma(1 - s/sigma)
             / Gamma(beta - alpha s/sigma),      0 < Re s < sigma,

and that of the kernel r -> J_{n/2-1}(2 pi xi r) r^{n/2} is DLMF 10.22.43.
Mellin-Parseval turns the transform into one line integral,

    F(xi) = (2 pi)^-1 pi^(-n/2) xi^-n  int K(c+it) (pi xi)^(c+it) dt,
    K(s)  = sigma^-1 e^{-i theta s/sigma} pi/sin(pi s/sigma)
            / Gamma(beta - alpha s/sigma) * Gamma((n-s)/2) / Gamma(s/2),

on any line -sigma < c < min(sigma, n): at s = 0 the pole of 1/sin meets
the zero of 1/Gamma(s/2).  The integrand decays like
exp(-(|phi| - pi alpha/2)|t|/sigma): the route needs exactly the sector
condition.  Closing the contour to the left picks up the poles s = -k sigma,

    F(xi) = sum_{k>=1} e^{ik phi}/Gamma(alpha k + beta)
            pi^(-k sigma - n/2) Gamma((n + k sigma)/2)/Gamma(-k sigma/2)
            xi^-(n + k sigma),

the transform of E's Taylor series term by term (s = 0 contributes nothing,
1/Gamma(0) = 0).  The series converges for sigma < alpha and is asymptotic
for sigma >= alpha.

Closing it to the right picks up the poles s = m sigma and s = n + 2j,
double where the two meet (Paris & Kaminski, *Asymptotics and
Mellin-Barnes Integrals*, CUP 2001; Braaksma, Compositio Math. 15
(1964)): a series in (pi xi)^s, with log(pi xi) terms at the double
poles, that converges for sigma > alpha and is asymptotic otherwise.
Every right coefficient comes from one rule: K is the product of four
factors, and their orders and first two Taylor coefficients at a pole
give its residue (_right_residues).  The nearest pole with a residue,
s_1, places the small-xi line.

Both closures are one residue form (_Residues): terms (C_k + D_k log pi
xi) (pi xi)^(s_k - n) over poles in the order summed, cut at the smallest
envelope, with an error estimate (the first omitted term, rounding, and
on the left E's exponential term, which the series lacks) and a span of
log(pi xi) outside which the envelopes alone refuse the series (_edge).
mellin_transform offers each point to the left series, then to the right
one, within their spans, and a series takes the point where its estimate
is at most 1e-15 of the sum; the line integral takes the rest.  The line is
the trapezoid rule with the step set by the distance to the poles
(Trefethen & Weideman, SIAM Rev. 56 (2014)), rounded onto a ladder; its
equispaced nodes split each point's phase sum into baby and giant steps
(Paterson & Stockmeyer, SIAM J. Comput. 2 (1973)).  K does not depend on
xi, only (pi xi)^s does (Talman, J. Comput. Phys. 29 (1978)).  So each
problem has one plan, built on its first call and kept for the last 64
problems: both series, and each line's c, d, step ladder and the bounds on
|log pi xi| of its rungs; and the kernels of the lines and steps
used most recently are kept, up to 2^20 stored nodes (16 MiB) in all, in
the form the phase sums read.  A call reads its route, which series or
line and which rung, from its extremes of log(pi xi), and computes
only the exponentials and sums that depend on xi; a new process starts
with no plan.  Every public function takes a float xi or an ndarray of
them; each point's value is computed by the same arithmetic whatever the
other points are, and whatever was computed before.
"""

from __future__ import annotations

import math
import sys
from collections import OrderedDict
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from scipy.special import gamma, loggamma, psi, rgamma

from .errors import ConvergenceError, DomainError
from .special_core import _EPS

_TARGET = 1e-15  # the series' relative error estimate must meet this

_SERIES_TERMS = 256
# Safety factor on the saddle-point size of the exponential term.  Near the
# sector boundary that size exceeded the series' error against a 30-digit
# mpmath line by a factor 1.41 to 1.5 wherever it was measured.
_WAVE_MARGIN = 10.0

# The trapezoid error is about exp(-2 pi d/h) times the integrand's largest
# value on the strip |Re s - c| < d, where (pi xi)^s grows by e^{d |log pi xi|}.
_STEP_EFOLDS = 40.0
# Steps are rounded down onto h_base 2^(-k/_RUNGS), h_base = 2 pi d/40, so
# that points of a grid share steps, and so kernel values.
_RUNGS = 4
# Nodes stop once the integrand has fallen below 1e-18 of its peak.
_TAIL_EFOLDS = 41.5
_MAX_NODES = 2**20

# Points per block of the residue series' (points x terms) arrays.
_SERIES_ROWS = 128
# The right residue series runs over the poles s <= min(sigma, n) + 64.
_RIGHT_SPAN = 64.0
# The line's phase sums take the nodes in chunks of _CHUNK, and the points
# in blocks whose (points x rows) arrays hold at most _BLOCK entries.
_CHUNK = 2**14
_BLOCK = 2**16
# Nodes per row of a chunk in _phase_sums' baby-step/giant-step split.
_BABY = 32


def _like(xi, values: np.ndarray):
    """values, one per entry of xi, in xi's form: an array of its
    shape for an ndarray xi, else a Python scalar."""
    return values.reshape(xi.shape) if isinstance(xi, np.ndarray) else values[0].item()


def _sinpi(x: np.ndarray) -> np.ndarray:
    """sin(pi x), exactly 0 at integers: the argument is reduced to
    [-1/2, 1/2] without rounding before pi multiplies it."""
    r = x - 2.0 * np.round(0.5 * x)
    r = np.where(r > 0.5, 1.0 - r, np.where(r < -0.5, -1.0 - r, r))
    return np.sin(np.pi * r)


def _log_envelopes(tp, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """log|c_k / sin(pi k sigma/2)| and sin(pi k sigma/2) for the residue at
    s = -k sigma, written as c_k e^{ik phi} (pi xi)^(-k sigma) pi^(-n/2) xi^-n.

    c_k = Gamma((n + k sigma)/2) / (Gamma(alpha k + beta) Gamma(-k sigma/2))
    = -sin(pi k sigma/2) Gamma((n + k sigma)/2) Gamma(1 + k sigma/2)
    / (pi Gamma(alpha k + beta)), by 1/Gamma(-x) = -sin(pi x) Gamma(1 + x)/pi:
    every gamma has a positive argument, and c_k = 0 exactly where k sigma/2
    is an integer.
    """
    x = 0.5 * tp.sigma * k
    log_env = (
        loggamma(0.5 * tp.n + x)
        + loggamma(1.0 + x)
        - loggamma(tp.alpha * k + tp.beta)
        - math.log(math.pi)
    )
    return log_env, _sinpi(x)


def _phases(tp, k):
    """e^{ik phi} at an int k or an array of them, exactly (-1)^k at
    phi = pi, where every residue is real: e^{ik pi} in floating point
    leaves an imaginary part of rounding size."""
    if tp.phi == math.pi:
        return (-1.0) ** k + 0j
    return np.exp(1j * tp.phi * k)


def residue_coefficient(tp, k: int) -> complex:
    """Coefficient of xi^-(n + k sigma) in the residue series: e^{ik phi}
    pi^(-k sigma - n/2) Gamma((n + k sigma)/2) / (Gamma(alpha k + beta)
    Gamma(-k sigma/2)); 0 where k sigma/2 is an integer."""
    log_env, sin = _log_envelopes(tp, np.array([float(k)]))
    return complex(
        -sin[0]
        * math.exp(log_env[0] - (k * tp.sigma + 0.5 * tp.n) * math.log(math.pi))
        * _phases(tp, k)
    )


class _Wave(NamedTuple):
    """E's exponential term on the profile, where the problem has one
    (_wave)."""

    p: float
    log_scale: float
    xi_power: float
    r_power: float
    decay: float

    def log_size(self, xi: np.ndarray) -> np.ndarray:
        """log of the size of the term's transform, which the residue series
        does not contain, at each xi: log_scale + xi_power log xi + r_power
        log r - decay xi r, r = (2 pi xi/p)^(1/(p-1))."""
        log_r = np.log(2.0 * math.pi * xi / self.p) / (self.p - 1.0)
        r = np.exp(np.minimum(log_r, 700.0))
        size = self.log_scale + self.xi_power * np.log(xi) + self.r_power * log_r - self.decay * xi * r
        return np.where(log_r > 700.0, -math.inf, size)


def _wave(tp) -> _Wave | None:
    """E's exponential term on the profile, None where the problem has
    none: |phi| >= pi alpha, or a saddle off the principal sheet.

    E(z) carries (1/alpha) z^((1-beta)/alpha) e^{z^(1/alpha)} for
    |arg z| < pi alpha.  On the profile that is a wave e^{w r^p}, p =
    sigma/alpha, w = e^{i phi/alpha}, and for p > 1 its transform has a
    saddle at |r_s| = (2 pi xi/p)^(1/(p-1)), arg r_s = -gamma, gamma =
    (|phi|/alpha - pi/2)/(p-1), where the exponent has real part
    -2 pi xi (1 - 1/p) |r_s| sin(gamma).  Near the sector boundary gamma is
    small and this term outgrows the series' smallest term.  Its size is
    the saddle-point value with the Bessel kernel's large-argument
    amplitude; for gamma >= pi the saddle is off the principal sheet.
    """
    p = tp.sigma / tp.alpha
    delta = abs(tp.phi) / tp.alpha - 0.5 * math.pi
    gamma = delta / (p - 1.0) if p > 1.0 else math.inf
    if delta >= 0.5 * math.pi or gamma >= math.pi:
        return None
    return _Wave(
        p=p,
        log_scale=math.log(2.0 * math.pi / tp.alpha) - 0.5 * math.log(math.pi * p * (p - 1.0)),
        xi_power=0.5 - 0.5 * tp.n,
        r_power=tp.sigma * (1.0 - tp.beta) / tp.alpha + 0.5 * tp.n - 0.5 * p + 0.5,
        decay=2.0 * math.pi * (1.0 - 1.0 / p) * math.sin(gamma),
    )


def _read_only(*arrays: np.ndarray) -> None:
    for arr in arrays:
        arr.flags.writeable = False  # shared by every caller through a cache


class _Line(NamedTuple):
    """One line Re s = c of the Mellin-Barnes integral: d, the distance
    from c to the nearest pole, the step ladder and each rung's bound."""

    c: float
    d: float
    ladder: np.ndarray
    bounds: np.ndarray


def _line_plan(c: float, d: float) -> _Line:
    """The ladder h_base 2^(-k/4), h_base = 2 pi d/40, and its bounds B_k:
    the step rule ladder[k] <= 2 pi d/(40 + d a) is a <= 40 (2^(k/4) - 1)/d,
    and B_k is the largest float a where the rule as rounded admits rung k,
    set bit by bit from the top of its bit pattern, which orders the floats
    from 0 to inf as their values."""
    h_base = 2.0 * math.pi * d / _STEP_EFOLDS
    # |log(pi xi)| < 746 wherever pi xi is positive and finite.
    rungs = math.ceil(_RUNGS * math.log2(1.0 + d * 746.0 / _STEP_EFOLDS)) + 3
    ladder = np.array([h_base * 2.0 ** (-k / _RUNGS) for k in range(rungs)])
    bits = np.zeros(rungs, np.int64)
    for bit in 1 << np.arange(62, -1, -1, dtype=np.int64):
        trial = bits | bit
        admits = ladder <= 2.0 * math.pi * d / (_STEP_EFOLDS + d * trial.view(float))
        bits = np.where(admits, trial, bits)
    bounds = bits.view(float)
    _read_only(ladder, bounds)
    return _Line(c, d, ladder, bounds)


class _Residues(NamedTuple):
    """A residue series of the problem, closed to the left (_left_residues)
    or to the right (_right_residues): F = (pi xi)^power sum_k (coef_k +
    log_coef_k L) e^{ds_k L}, L = log(pi xi), summed by _residue_sum."""

    ds: np.ndarray  # s_k - s_0 over the poles s_k in the order summed
    coef: np.ndarray  # real at phi = pi, else complex
    log_coef: np.ndarray | None  # None where no pole is double
    size: np.ndarray  # a majorant of |coef_k| and |log_coef_k|, smooth in k
    pole: float  # s_0, the first pole with a residue
    power: tuple[float, float]  # s_0 - n as a hi/lo pair
    rounding: float  # the estimate's rounding per unit of the magnitudes summed
    span: tuple[float, float]  # the series is refused for L outside [lo, hi]
    wave: _Wave | None  # E's exponential term, where it enters the estimate


class _Plan(NamedTuple):
    """What mellin_transform computes of a problem that does not depend on
    xi (_series_coefficients)."""

    pi_n: float  # pi^(-n/2)
    left: _Line  # c = -sigma/2, for 2 pi xi >= 1
    right: _Line  # c = 0.6 s_1, s_1 = series[1].pole, below
    series: tuple[_Residues, _Residues]  # closed to the left, to the right


@lru_cache(maxsize=64)
def _series_coefficients(tp) -> _Plan:
    """The problem's plan: both residue series and the lines' c, d and
    step ladders; nothing here depends on xi.  The lines are placed from
    s_1, the nearest pole right of s = 0 with a residue: the first pole of
    the right series (_right_residues)."""
    series = (_left_residues(tp), _right_residues(tp))
    upper = series[1].pole
    c_left, c_right = -0.5 * tp.sigma, 0.6 * upper
    return _Plan(
        pi_n=math.pi ** (-0.5 * tp.n),
        left=_line_plan(c_left, min(c_left + tp.sigma, upper - c_left)),
        right=_line_plan(c_right, min(c_right + tp.sigma, upper - c_right)),
        series=series,
    )


def _two_prod(a, b):
    """(p, e) with p = fl(a b) and a b = p + e exactly (Dekker's split)."""
    p = a * b
    t = 134217729.0 * a
    a_hi = t - (t - a)
    t = 134217729.0 * b
    b_hi = t - (t - b)
    return p, ((a_hi * b_hi - p) + a_hi * (b - b_hi) + (a - a_hi) * b_hi) + (a - a_hi) * (b - b_hi)


def _two_sum(a, b):
    """(s, e) with s = fl(a + b) and a + b = s + e exactly (Knuth)."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _rgamma_at(x: np.ndarray, x_lo) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """1/Gamma(x + x_lo) to first order in the small x_lo, the derivative of
    1/Gamma at x, and a majorant M of its size, smooth in x: M = 1/Gamma(x)
    for x > 0, and below, by 1/Gamma(x) = sin(pi x) Gamma(1 - x)/pi, M =
    Gamma(1 - x)/pi, so the value is formed from sin(pi x), exactly 0 at
    the zeros, and never next to a pole of Gamma."""
    positive = x > 0.0
    xp, xn = np.where(positive, x, 1.0), np.where(positive, 0.0, x)
    up, psi_up = rgamma(xp), psi(xp)
    m = gamma(1.0 - xn) / math.pi
    d_down = math.pi * np.cos(math.pi * xn) - _sinpi(xn) * psi(1.0 - xn)
    value = np.where(positive, up * (1.0 - psi_up * x_lo), m * (_sinpi(xn) + x_lo * d_down))
    return value, np.where(positive, -psi_up * up, m * d_down), np.where(positive, up, m)


def _left_residues(tp) -> _Residues:
    """The residue series closed to the left, over s_k = -k sigma for k =
    1..256: the coefficient of (pi xi)^(s_k - n) is pi^(n/2) c_k e^{ik
    phi}, and its size pi^(n/2) |c_k / sin(pi k sigma/2)| (_log_envelopes).
    Near k sigma/2 = integer a term is small for its sine factor alone, so
    truncation follows that size instead.  At even-integer sigma every
    coefficient is 0.  The estimate adds E's exponential term where the
    problem has one (_wave)."""
    k = np.arange(1.0, _SERIES_TERMS + 1.0)
    log_env, sin = _log_envelopes(tp, k)
    s, s_lo = _two_prod(-k, tp.sigma)
    with np.errstate(over="ignore", invalid="ignore"):
        size = np.exp(log_env + 0.5 * tp.n * math.log(math.pi))
        coef = -sin * _phases(tp, k) * size
    zeros = np.zeros(k.size)
    # Every envelope ratio grows as L falls: the edge is searched from above.
    return _residues(tp, s, s_lo, coef, zeros, size, zeros, _EPS, (746.0, -746.0), _wave(tp))


def _right_residues(tp) -> _Residues:
    """The residue series closed to the right, F(xi) = -pi^(-n/2) xi^-n
    sum Res K(s) (pi xi)^s over the poles s_k right of the line, that is
    -pi^(n/2) (pi xi)^(-n) sum_k (C_k + D_k log pi xi) (pi xi)^(s_k)
    (Paris & Kaminski, *Asymptotics and Mellin-Barnes Integrals*, CUP
    2001; Braaksma, Compositio Math. 15 (1964)).  With q = s/sigma, theta =
    phi -+ pi and K = S G R A, each factor near a pole s_k is (s -
    s_k)^order (f0 + f1 (s - s_k) + ...):

    - S = pi/(sigma sin(pi q)): order -1 at an integer q, f0 = (-1)^q, f1
      = 0; elsewhere f0 = S, f1 = -(pi/sigma) f0 cot(pi q);
    - G = Gamma(y), y = (n - s)/2: order -1 at s = n + 2j, f0 = -2 (-1)^j/j!,
      f1 = (-1)^j psi(j + 1)/j!; elsewhere f0 = Gamma(y), f1 = -f0 psi(y)/2;
    - R = 1/Gamma(x), x = beta - alpha q: order +1 where x is 0, -1, -2,
      ..., f0 = -(alpha/sigma) (-1)^x Gamma(1 - x), f1 = (alpha/sigma) f0
      psi(1 - x); elsewhere f0 = 1/Gamma(x), f1 = -(alpha/sigma)
      d/dx 1/Gamma(x);
    - A = e^{-i theta q}/Gamma(s/2): order 0, f1 = f0 (-i theta/sigma -
      psi(s/2)/2).

    At total order -1, C = prod f0; at -2, a double pole, D = prod f0 and
    C = sum f1 prod (the other f0); at order 0 or more there is no term.
    So the poles s = m sigma cancelled by a zero of R carry none, and at
    s = m sigma = n + 2j with R = 0 the pole is simple, G's finite limit.
    The poles s = m sigma and s = n + 2j are one where m sigma == n + 2j in
    floating point or q rounds to the integer m; poles that only nearly
    coincide are kept apart, and their large opposite terms fail the
    estimate.  The arguments q, x, y, s/2 are carried with their rounding
    errors (_two_prod, _two_sum) and each regular factor is corrected to
    first order, 1/Gamma and Gamma below 0 through the reflection formula
    (_rgamma_at), so that a coefficient is accurate to a few ulps even
    next to a zero of a sine.  The poles run to min(sigma, n) + 64
    (_residues cuts them further): for pi xi < 0.5, (pi xi)^64 < 1e-19.
    Beside each coefficient the plan keeps a size: where S and G both have
    poles max(|C|, |D|), elsewhere |S G A| times a majorant of |R|, smooth
    where R may vanish, so that a small factor never stops the sum early.
    Rounding enters the estimate twice: eps for the sum, and eps for the
    coefficients' own rounding.
    """
    # A coefficient past double range is cut off below, not warned about.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        alpha, beta, sigma, n, phi = tp.alpha, tp.beta, tp.sigma, tp.n, tp.phi
        theta = phi - math.pi if phi > 0.0 else phi + math.pi
        top = min(sigma, n) + _RIGHT_SPAN
        s_j = n + 2.0 * np.arange(0.0, math.floor(0.5 * (top - n)) + 1.0)
        m_j = np.round(s_j / sigma)
        meets = (m_j >= 1.0) & ((m_j * sigma == s_j) | (s_j / sigma == m_j))
        m = np.arange(1.0, math.floor(top / sigma) + 1.0)
        m = m[~np.isin(m, m_j[meets])]
        s_m, s_m_lo = _two_prod(m, sigma)
        by_s = np.argsort(np.concatenate([s_j, s_m]), kind="stable")
        s, s_lo, q = (
            np.concatenate(parts)[by_s]
            for parts in ((s_j, s_m), (0.0 * s_j, s_m_lo), (np.where(meets, m_j, s_j / sigma), m))
        )
        p, e = _two_prod(q, sigma)
        q_lo = ((s - p) - e + s_lo) / sigma
        pole_s = q == np.round(q)
        sin_q = _sinpi(q) + math.pi * q_lo * np.cos(math.pi * q)
        f_s = np.where(pole_s, (-1.0) ** q, math.pi / (sigma * sin_q))
        d_s = np.where(pole_s, 0.0, -math.pi / sigma * f_s * np.cos(math.pi * q) / sin_q)
        y, e = _two_sum(float(n), -s)
        y, y_lo = 0.5 * y, 0.5 * (e - s_lo)
        pole_g = (y <= 0.0) & (y == np.floor(y))
        above = y > 0.0
        yp, yn = np.where(above, y, 1.0), np.where(above, 0.0, y)
        sin_y = _sinpi(yn) + math.pi * y_lo * np.cos(math.pi * yn)
        f_g = np.select(
            [pole_g, above],
            [-2.0 * (-1.0) ** yn / gamma(1.0 - yn), gamma(yp) * (1.0 + psi(yp) * y_lo)],
            math.pi / (sin_y * gamma(1.0 - yn) * (1.0 - psi(1.0 - yn) * y_lo)),
        )
        d_g = -0.5 * f_g * psi(np.where(pole_g, 1.0 - y, y))
        p, e = _two_prod(alpha, q)
        x, e2 = _two_sum(beta, -p)
        rg, slope, size = _rgamma_at(x, e2 - e - alpha * q_lo)
        slope *= -alpha / sigma
        zero_r = (x <= 0.0) & (x == np.floor(x))
        f_r = np.where(zero_r, slope, rg)
        d_r = np.where(zero_r, alpha / sigma * slope * psi(1.0 - x), slope)
        p, e = _two_prod(theta, q)
        half = gamma(0.5 * s) * (1.0 + psi(0.5 * s) * 0.5 * s_lo)
        f_a = np.exp(-1j * p) * (1.0 - 1j * (e + theta * q_lo)) / half
        d_a = f_a * (-1j * theta / sigma - 0.5 * psi(0.5 * s))
        f0, f1 = np.array([f_s, f_g, f_r, f_a]), np.array([d_s, d_g, d_r, d_a])
        lead = f0.prod(axis=0)
        d_lead = sum(f1[i] * np.delete(f0, i, axis=0).prod(axis=0) for i in range(4))
        order = 1 * zero_r - pole_s - pole_g
        coef = np.select([order == -1, order == -2], [lead, d_lead], 0.0)
        log_coef = np.where(order == -2, lead, 0.0)
        size = np.where(
            pole_s & pole_g, np.maximum(np.abs(coef), np.abs(log_coef)), np.abs(f_s * f_g * f_a) * size
        )
        # The scale -pi^(n/2) goes into the coefficients and their sizes.
        scale = -math.pi ** (0.5 * n)
        coef, log_coef, size = scale * coef, scale * log_coef, -scale * size
    # For sigma <= alpha the series is only asymptotic.  Where E also has an
    # exponential term on the profile (alpha > 1, or |phi| < pi alpha), the
    # transform of that term lies beyond all orders of the series and its
    # smallest term does not size it: at (1.2, 2.24, -2.07, 0.574, 1),
    # xi = 2.7e-4, the sum was 1.4e-12 off with an estimate of 4.9e-16.
    # There the series is never taken.
    taken = sigma > alpha or (alpha <= 1.0 and abs(phi) >= math.pi * alpha)
    return _residues(
        tp, s, s_lo, coef, log_coef, size, 1.0 * (order == -2), 2.0 * _EPS,
        (-746.0, _RIGHT_EDGE) if taken else None, None,
    )


def _residues(tp, s_hi, s_lo, coef, log_coef, size, logs, rounding, search, wave) -> _Residues:
    """The series over the poles s_hi + s_lo in the order summed, whose
    scaled coefficients, log coefficients and sizes are given, logs marking
    the double poles: from the first pole with a residue, which sets the
    scale, to the first coefficient or size outside double range, at most
    256 of them, with s_k - s_0 to within one rounding of the true poles.
    Its span runs from the edge (_edge) that search, (near, far), finds to
    infinity beyond near; it is empty where search is None or every
    coefficient is 0."""
    bad = ~(np.isfinite(coef) & np.isfinite(size) & (size > 0.0))
    first = int(np.argmax(((coef != 0.0) | (log_coef != 0.0)) & ~bad))
    last = first + int(np.argmax(bad[first:])) if bad[first:].any() else size.size
    cut = slice(first, min(last, first + _SERIES_TERMS))
    s_hi, s_lo, coef, log_coef, size, logs = (
        a[cut] for a in (s_hi, s_lo, coef, log_coef, size, logs)
    )
    d, e = _two_sum(s_hi, -s_hi[0])
    ds = d + (e + (s_lo - s_lo[0]))
    p, e = _two_sum(s_hi[0], -float(tp.n))
    if tp.phi == math.pi:  # every coefficient is real, up to the phases' rounding
        coef, log_coef = coef.real.copy(), log_coef.real.copy()
    _read_only(ds, coef, log_coef, size)
    span = (math.inf, -math.inf)
    if search is not None and (coef[0] != 0.0 or log_coef[0] != 0.0):
        near, far = search
        edge = _edge(ds, np.log(size), logs, near, far)
        span = (edge, math.inf) if near > far else (-math.inf, edge)
    return _Residues(
        ds=ds,
        coef=coef,
        log_coef=log_coef if logs.any() else None,
        size=size,
        pole=float(s_hi[0]),
        power=_two_sum(p, e + s_lo[0]),
        rounding=rounding,
        span=span,
        wave=wave,
    )


def _edge(ds: np.ndarray, log_size: np.ndarray, logs: np.ndarray, near: float, far: float) -> float:
    """An L = log(pi xi) between near and far from which on toward far a
    series' envelopes alone show that it must miss 1e-15, within 2^-10 of
    the first such L from near: far where no L there does, and an infinity
    beyond near where every L does.

    With e_k = size_k and env_k(L) = e_k (1 + [k double] |L|) e^{ds_k L},
    a sum stopped at k has |sum| <= sum_{j<k} env_j, so an estimate of at
    least r_k(L) = e_k e^{ds_k L}/sum_{j<k} env_j(L).  On the right (ds_k
    ascending, L < 0) every r_k grows with L, on the left (ds_k descending)
    as L falls, and so does their least value: where it passes 1e-15, with
    a margin for rounding, it does at every L further on, and the series
    is refused there before any term is formed.  The L returned is always
    such a point, so how closely it is found moves no route, only how many
    points are summed and refused.

    Two closed forms bracket the search.  The sum below k holds the first
    term, so r_k <= (e_k/e_0) e^{ds_k L}, and where that is e^-1 below
    1e-15 for some k the series is not refused.  Without double poles,
    where every env_k >= env_{k-1} the first envelope is the smallest, the
    sum is empty and every r_k >= 1/k: the series is refused."""
    target = math.log(_TARGET * (1.0 + 1e-6))
    double = logs.any()

    def refused(L: float) -> bool:
        terms = log_size + ds * L
        below = np.logaddexp.accumulate(terms + np.log1p(abs(L) * logs) if double else terms)
        return bool(np.min(terms[1:] - below[:-1], initial=math.inf) > target)

    taken = (target - 1.0 - log_size[1:] + log_size[0]) / ds[1:]
    rising = (log_size[:-1] - log_size[1:]) / np.diff(ds)
    if near > far:
        near = min(near, max(far, float(np.min(taken, initial=math.inf))))
        inner = max(far, min(near, float(np.min(rising, initial=math.inf))))
    else:
        near = max(near, min(far, float(np.max(taken, initial=-math.inf))))
        inner = min(far, max(near, float(np.max(rising, initial=-math.inf))))
    if not double:
        far = inner  # refused, unless it is far itself
    if not refused(far):
        return far
    if refused(near):
        return math.copysign(math.inf, near)
    while abs(far - near) > 2.0**-10:
        mid = 0.5 * (near + far)
        near, far = (near, mid) if refused(mid) else (mid, far)
    return far


# Largest xi whose pi xi, the log argument, is a finite double.
XI_MAX = sys.float_info.max / math.pi


def _require_xi(xi, top: float = sys.float_info.max) -> np.ndarray:
    """xi, a float or an array, as a 1-D float array; DomainError unless
    every entry is in (0, top], nan included."""
    x = np.asarray(xi, dtype=float).reshape(-1)
    # min and max are nan where an entry is: one pass each.
    if x.size and not (x.min() > 0.0 and x.max() <= top):
        bad = x[~((0.0 < x) & (x <= top))][0]
        raise DomainError(f"finite xi_mag in (0, {top:.4g}] required, got {bad}")
    return x


def _points(xi) -> tuple[np.ndarray, np.ndarray]:
    """xi as a 1-D float array, and log(pi xi), which the series and the
    line share; DomainError unless every xi is in (0, XI_MAX]."""
    x = _require_xi(xi, XI_MAX)
    return x, np.log(math.pi * x)


def _residue_sum(res: _Residues, xi: np.ndarray, L: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The series res at a 1-D array xi, L = log(pi xi), and its relative
    error estimate, _SERIES_ROWS points at a time.

    Each point sums the terms up to, not including, its smallest envelope,
    size_k (pi xi)^(s_k - s_0), among the plan's columns, a fixed set, so
    its bits do not depend on the batch.  Where the series is only
    asymptotic, this cut at its smallest term is the best it gives.  The
    estimate is that envelope, which bounds the first omitted term (a
    double pole's up to its factor 1 + |L|), plus res.rounding times the
    magnitudes summed, both relative to |sum|, plus, where res.wave is set,
    ten times the relative size of E's exponential term (_Wave.log_size),
    which no term of the series carries.  The value is (pi xi)^p_hi (1 +
    p_lo L) times the sum, p_hi + p_lo = s_0 - n.  A sum that is 0 or not
    finite makes the estimate inf or nan."""
    p_hi, p_lo = res.power
    values, errs = [], []
    for lo in range(0, max(xi.size, 1), _SERIES_ROWS):
        x, log_x = xi[lo:lo + _SERIES_ROWS], L[lo:lo + _SERIES_ROWS, None]
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            power = np.exp(log_x * res.ds)
            envelope = power * res.size
            if res.log_coef is None:
                terms = power * res.coef
            else:
                terms = (log_x * res.log_coef + res.coef) * power
            # Masked, not multiplied: a column past the stop may be inf.
            before = np.arange(res.ds.size) < envelope.argmin(axis=1)[:, None]
            terms = np.where(before, terms, 0.0)
            total = terms.sum(axis=1)
            err = (envelope.min(axis=1) + res.rounding * np.abs(terms).sum(axis=1)) / np.abs(total)
            scale = (math.pi * x) ** p_hi
            if p_lo:
                scale *= 1.0 + p_lo * log_x[:, 0]
            # Complex even at phi = pi, where the coefficients are real: the
            # positive power first keeps the imaginary part +0.
            value = np.multiply(scale, total, dtype=complex)
            if res.wave is not None:
                wave = res.wave.log_size(x) - np.log(np.abs(value))
                err += _WAVE_MARGIN * np.exp(np.minimum(wave, 0.0))
        values.append(value)
        errs.append(err)
    if len(values) == 1:
        return values[0], errs[0]
    return np.concatenate(values), np.concatenate(errs)


def residue_series(tp, xi):
    """The residue series closed to the left, at |xi| = xi, and its
    relative error estimate: a (complex, float) pair for a float xi, a pair
    of arrays of xi's shape for an ndarray.  Every point, and every later
    call on tp, shares the problem's plan (_series_coefficients): the
    coefficients of the poles s = -k sigma, k = 1..256, up to the first
    outside double range (_left_residues).  The terms are summed up to, not
    including, the smallest envelope |c_k/sin(pi k sigma/2)| (pi
    xi)^(-k sigma) (_residue_sum); the estimate is that envelope plus eps
    times the magnitudes summed, relative to |sum|, plus ten times the
    relative size of E's exponential term (_Wave.log_size).  It is inf, and
    the value 0, where the sum is 0 or not finite: for even-integer sigma,
    where every term vanishes, and for xi so small that the first envelope
    is the smallest.  DomainError unless every xi is in (0, XI_MAX].
    """
    values, errs = _residue_sum(_series_coefficients(tp).series[0], *_points(xi))
    summed = errs < math.inf
    return _like(xi, np.where(summed, values, 0.0)), _like(xi, np.where(summed, errs, math.inf))


def _log_integrand(tp, s: np.ndarray) -> np.ndarray:
    """log K(s), up to multiples of 2 pi i; the integrand is K(s) (pi xi)^s."""
    q = s / tp.sigma
    theta = tp.phi - math.pi if tp.phi > 0.0 else tp.phi + math.pi
    # pi/sin(pi q) with sin(pi q) = (sg i/2) e^{-sg i pi q}(1 - e^{2 sg i pi q})
    # for sg = sign(Im q): the exponential in the bracket never exceeds 1.
    sg = np.where(q.imag >= 0.0, 1.0, -1.0)
    log_reflection = (
        math.log(2.0 * math.pi)
        + 1j * sg * math.pi * (q - 0.5)
        - np.log1p(-np.exp(2j * sg * math.pi * q))
    )
    # At a pole of Gamma(s/2), s/2 = 0, -1, ..., K is 0 but loggamma is
    # nan: there the term is +inf.  The left line's centre node s = -sigma/2
    # is one for sigma in 4Z.
    half = 0.5 * s
    at_pole = (half.imag == 0.0) & (half.real <= 0.0) & (half.real == np.floor(half.real))
    return (
        -math.log(tp.sigma)
        - 1j * theta * q
        + log_reflection
        - loggamma(tp.beta - tp.alpha * q)
        + loggamma(0.5 * (tp.n - s))
        - np.where(at_pole, math.inf, loggamma(half))
    )


class _Kernel(NamedTuple):
    """A line kernel in the form _phase_sums reads.  The nodes summed,
    K(c + i h j) for j = j0, j0 + 1, ..., are cut into chunks of _CHUNK
    and each chunk is padded with zeros to rows of _BABY; a chunk's giant
    steps are t = h (j0 + lo + _BABY b), one per row b, and the baby steps
    h m, m < _BABY, are shared.  At phi = pi the line is the half line,
    h (f_0 + 2 Re sum_{j >= 1} K_j e^{i h j L}): f_0 = K(c) is split off
    and j0 = 1; on a two-sided line f_0 is None and j0 = -m_-."""

    h: float
    j0: int
    f_0: float | None
    baby_steps: np.ndarray
    chunks: tuple  # (rows, giant_steps) per chunk
    nodes: int  # nodes summed, padding not counted
    size: int  # nodes stored, padding included: what the cache's cap counts


def _stored_kernel(h: float, j0: int, kernel: np.ndarray) -> _Kernel:
    """The _Kernel of _evaluate_kernel's (j0, kernel) on the step h."""
    f_0 = None
    if j0 == 0:
        f_0, kernel, j0 = float(kernel[0].real), kernel[1:], 1
    chunks = []
    for lo in range(0, kernel.size, _CHUNK):
        part = kernel[lo:lo + _CHUNK]
        rows = np.zeros(-(-part.size // _BABY) * _BABY, complex)
        rows[:part.size] = part
        rows = rows.reshape(-1, _BABY)
        giant_steps = h * (j0 + lo + _BABY * np.arange(rows.shape[0]))
        _read_only(rows, giant_steps)
        chunks.append((rows, giant_steps))
    baby_steps = h * np.arange(_BABY)
    _read_only(baby_steps)
    size = sum(rows.size for rows, _giant in chunks)
    return _Kernel(h, j0, f_0, baby_steps, tuple(chunks), kernel.size, size)


# Kernels by (tp, c, h), least recently used first.  Bounded by their
# nodes, not their number: one kernel 0.002 rad inside the sector holds
# 430,306 nodes (6.9 MB).
_KERNELS: OrderedDict = OrderedDict()


def _line_kernel(tp, c: float, h: float) -> _Kernel:
    """_evaluate_kernel(tp, c, h) in the stored form, kept across calls:
    its arrays are read-only, and the least recently used kernels are
    dropped once the stored nodes of all kept ones would pass 2^20.  No
    kernel evaluates more than 2^20 nodes, and chunks hold multiples of 32,
    so padding never takes one past the cap: the one just stored is always
    kept."""
    key = (tp, c, h)
    if key in _KERNELS:
        _KERNELS.move_to_end(key)
        return _KERNELS[key]
    kernel = _stored_kernel(h, *_evaluate_kernel(tp, c, h))
    _KERNELS[key] = kernel
    total = sum(kept.size for kept in _KERNELS.values())
    while total > _MAX_NODES:
        _key, dropped = _KERNELS.popitem(last=False)
        total -= dropped.size
    return kernel


def _evaluate_kernel(tp, c: float, h: float) -> tuple[int, np.ndarray]:
    """(j0, K(c + i h j) for j = j0, j0 + 1, ..., m_+), each node evaluated
    once.  At phi = pi, f(-t) = conj f(t) and only t >= 0 is taken, j0 = 0;
    else j0 = -m_-.

    |K(c + it)| decays like t^p exp(-(pi - pi alpha/2 - theta) t/sigma) for
    t > 0 and like |t|^p exp(-(pi - pi alpha/2 + theta)|t|/sigma) for t < 0,
    p = 1/2 - beta + alpha c/sigma + n/2 - c.  Each side starts at the
    length where that form has fallen by e^-41.5 and is extended, by the
    nodes its exponential rate says it lacks, until its last node is below
    e^-41.5 of the peak over all nodes.  Nothing here depends on xi.
    ConvergenceError before the count would pass 2^20 nodes.
    """
    theta = tp.phi - math.pi if tp.phi > 0.0 else tp.phi + math.pi
    base = math.pi - 0.5 * math.pi * tp.alpha
    rates = {1: (base - theta) / tp.sigma}
    if tp.phi != math.pi:
        rates[-1] = (base + theta) / tp.sigma
    power = max(0.5 - tp.beta + tp.alpha * c / tp.sigma + 0.5 * tp.n - c, 0.0)
    lacking = {
        side: math.ceil(
            (_TAIL_EFOLDS + power * math.log(max(_TAIL_EFOLDS / rate, 1.0))) / rate / h
        )
        for side, rate in rates.items()
    }
    blocks: dict[int, list[np.ndarray]] = {side: [] for side in rates}
    length = dict.fromkeys(rates, 0)
    centre = None
    while lacking:
        if 1 + sum(length.values()) + sum(lacking.values()) > _MAX_NODES:
            raise ConvergenceError(
                f"Mellin-Barnes line needs more than {_MAX_NODES} nodes "
                f"(step {h:.3g}, decay rate {min(rates.values()):.3g})"
            )
        if centre is None:
            centre = np.exp(_log_integrand(tp, np.array([complex(c)])))
            peak = abs(centre[0])
        for side, extra in lacking.items():
            j = side * np.arange(length[side] + 1.0, length[side] + extra + 1.0)
            f = np.exp(_log_integrand(tp, c + 1j * (h * j)))
            blocks[side].append(f)
            length[side] += extra
            peak = max(peak, float(np.abs(f).max()))
        floor = math.exp(-_TAIL_EFOLDS) * peak
        lacking = {}
        for side, rate in rates.items():
            end = abs(blocks[side][-1][-1])
            if end > floor:
                lacking[side] = math.ceil((math.log(end / floor) + 1.0) / rate / h)
    if -1 not in rates:
        return 0, np.concatenate([centre, *blocks[1]])
    left = np.concatenate(blocks[-1])[::-1]
    return -length[-1], np.concatenate([left, centre, *blocks[1]])


def _phase_sums(kernel: _Kernel, log_pi_xi: np.ndarray) -> np.ndarray:
    """sum_j K_j e^{i h j L} over the nodes the stored kernel sums, for
    each L in log_pi_xi.

    The nodes are equispaced, so within a row of a chunk
    e^{i (t_b + h m) L} = e^{i t_b L} e^{i h m L}: each row is summed
    against the _BABY baby steps, and those sums against the giant steps,
    _BABY + nodes/_BABY exponentials per point instead of one per node
    (Paterson & Stockmeyer, SIAM J. Comput. 2 (1973)); the padding adds
    zeros.  The row sums are a stacked matmul, (1 x _BABY) baby steps
    times the chunk's (_BABY x rows) transpose for each point: one BLAS
    matrix-vector product per point, whose order of additions depends on
    the chunk alone.  One matrix-matrix product over all the points would
    be faster still, but its blocking, and so each point's bits, follow
    the number of points.  The giant-step sums run along a contiguous last
    axis, and the chunks are fixed by the kernel alone, so each point's
    sum is the same in any batch."""
    out = np.zeros(log_pi_xi.size, complex)
    baby = np.exp(1j * (log_pi_xi[:, None] * kernel.baby_steps))
    for rows, giant_steps in kernel.chunks:
        block = max(1, _BLOCK // rows.shape[0])
        for r in range(0, log_pi_xi.size, block):
            inner = np.matmul(baby[r:r + block, None, :], rows.T)[:, 0, :]
            giant = np.exp(1j * (log_pi_xi[r:r + block, None] * giant_steps))
            out[r:r + block] += (inner * giant).sum(axis=1)
    return out


# log(pi xi) is within 1e-12 of its true value: past these edges every
# point is on one side of pi xi = 0.5.
_LEFT_EDGE, _RIGHT_EDGE = math.log(0.5) + 1e-12, math.log(0.5) - 1e-12


def _line(tp, xi: np.ndarray, log_pi_xi: np.ndarray) -> np.ndarray:
    """line_integral on a 1-D array, routed from the extremes of log(pi
    xi): where they lie on one side of pi xi = 0.5 and the extremes of
    |log pi xi| on one rung of that line, so do all the points, and the
    whole array is summed as given on that kernel.  Only other arrays are
    split point by point, each point's rung read off its line's bounds.
    An empty array, its extremes inf and -inf, is split into no points."""
    plan = _series_coefficients(tp)
    lo, hi = log_pi_xi.min(initial=math.inf), log_pi_xi.max(initial=-math.inf)
    if lo > _LEFT_EDGE or hi < _RIGHT_EDGE:
        line = plan.left if lo > _LEFT_EDGE else plan.right
        k, top = line.bounds.searchsorted((max(lo, -hi, 0.0), max(-lo, hi)))
        if k == top:
            return _line_sums(tp, plan, line, k, xi, log_pi_xi)
    values = np.empty(xi.size, complex)
    left = math.pi * xi >= 0.5
    for line, on_line in ((plan.left, left), (plan.right, ~left)):
        rung = line.bounds.searchsorted(np.abs(log_pi_xi))
        for k in np.unique(rung[on_line]):
            at = on_line & (rung == k)
            values[at] = _line_sums(tp, plan, line, k, xi[at], log_pi_xi[at])
    return values


def _line_sums(tp, plan: _Plan, line: _Line, k: int, xi: np.ndarray, L: np.ndarray) -> np.ndarray:
    """The trapezoid sums at xi, L = log(pi xi), on one kernel of the line
    (_line_kernel): that of rung k."""
    kernel = _line_kernel(tp, line.c, float(line.ladder[k]))
    tail = _phase_sums(kernel, L)
    if kernel.f_0 is not None:  # the half line: f_0 + 2 Re sum_{j >= 1}
        tail = (kernel.f_0 + 2.0 * tail.real).astype(complex)
    return kernel.h * tail * np.exp(line.c * L) * xi ** -tp.n * (plan.pi_n / (2.0 * math.pi))


def line_integral(tp, xi):
    """The transform at |xi| = xi as a trapezoid sum on Re s = c: a complex
    for a float xi, an array of xi's shape for an ndarray.

    The integrand exceeds the result by about (pi xi)^(c + sigma) at large
    xi and (pi xi)^(c - s_1) at small xi, where s_1 is the nearest pole
    right of s = 0 with a residue, the right series' first pole: min(sigma,
    n) unless a zero of 1/Gamma(beta - alpha s/sigma) cancels the pole
    there (_right_residues).  So the line sits left at large xi and right
    at small xi: c = -sigma/2 for 2 pi xi >= 1 and c = 0.6 s_1 below.
    s = 0 is not a pole, since 1/Gamma(s/2) vanishes there; the poles
    nearest the strip are s = -sigma and s = s_1.  The step keeps
    exp(-2 pi d/h) below 1e-17 of the integrand on the strip of half-width
    d, the distance from c to those poles, h <= 2 pi d/(40 + d |log pi
    xi|), rounded down onto the ladder
    h_base 2^(-k/4), h_base = 2 pi d/40: a point's rung is the first k with
    |log pi xi| <= B_k, B_k = 40 (2^(k/4) - 1)/d as the rule rounds it, and
    c, d, the ladder and the bounds are in the problem's plan
    (_series_coefficients).  A call reads its route from the extremes of
    log(pi xi): an array whose extremes share a line and a rung is summed
    on that kernel as given (_line).  K(s) does not depend on xi, so
    it is evaluated once per problem, line and rung, in one pass over the
    nodes, and kept across calls in the form the phase sums read (_Kernel;
    up to 2^20 stored nodes over all kernels, the least recently used
    dropped first); each point adds (pi xi)^c sum_j K_j e^{i t_j log(pi xi)},
    whose phases the equispaced nodes split into 32 baby steps and one
    giant step per 32 nodes (_phase_sums), so a point costs
    32 + nodes/32 exponentials, and its 32-term row sums one BLAS
    matrix-vector product.  At phi = pi the integrand is
    conjugate-symmetric and the sum runs over t >= 0; elsewhere each side
    of the line has its own length (_evaluate_kernel).  ConvergenceError
    past 2^20 nodes.  The rung depends on xi alone and each point's sum is
    reduced on its own, never in a matrix-matrix product with other
    points, so a point's value is the same, bit for bit, in any array and
    under any number of BLAS threads.  On the small-xi line the terms
    exceed F by about (pi xi)^(-0.4 s_1), and so does its rounding:
    mellin_transform takes the right residue series there wherever its
    estimate allows.  DomainError unless every xi is in (0, XI_MAX].
    """
    return _like(xi, _line(tp, *_points(xi)))


def mellin_transform(tp, xi):
    """The transform at |xi| = xi: each point is offered to the residue
    series closed to the left, then to the one closed to the right, where
    its log(pi xi) lies in the series' span, and a series takes it where
    its estimate is at most 1e-15 relative (_residue_sum); the line
    integral takes the rest.  A float xi gives a complex, an ndarray an
    array of its shape; each point's value is the same, bit for bit,
    whatever the other points of the array.  A series whose span misses the
    array's extremes of log(pi xi) is not computed, and an array within
    one span whose every point that series takes is summed on it as given.
    DomainError unless every xi is in (0, XI_MAX], past which pi xi leaves
    double range."""
    x, L = _points(xi)
    lo, hi = L.min(initial=math.inf), L.max(initial=-math.inf)
    values = line = None  # line: the points no series has taken
    for res in _series_coefficients(tp).series:
        start, end = res.span
        if hi < start or lo > end:
            continue
        if line is None and start <= lo and hi <= end:
            value, err = _residue_sum(res, x, L)
            if err.max(initial=0.0) <= _TARGET:  # nan where an estimate is
                return _like(xi, value)
            at = np.arange(x.size)
        else:
            within = (start <= L) & (L <= end)
            at = np.flatnonzero(within if line is None else within & line)
            value, err = _residue_sum(res, x[at], L[at])
        if line is None:
            values, line = np.empty(x.size, complex), np.ones(x.size, bool)
        taken = err <= _TARGET
        values[at[taken]] = value[taken]
        line[at[taken]] = False
    if line is None or line.all():
        return _like(xi, _line(tp, x, L))
    at = np.flatnonzero(line)
    values[at] = _line(tp, x[at], L[at])
    return _like(xi, values)

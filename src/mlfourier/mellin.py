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

mellin_transform takes the series where its error estimate (the first
omitted term, rounding, and E's exponential term, which the series lacks)
is at most 1e-15 of the sum, and the line integral everywhere else.  The line is the trapezoid rule with the step set by the
distance to the poles (Trefethen & Weideman, SIAM Rev. 56 (2014)).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import loggamma

from .errors import ConvergenceError
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
# Nodes stop once the integrand has fallen below 1e-18 of its peak.
_TAIL_EFOLDS = 41.5
_MAX_NODES = 2**20


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


def residue_coefficient(tp, k: int) -> complex:
    """Coefficient of xi^-(n + k sigma) in the residue series: e^{ik phi}
    pi^(-k sigma - n/2) Gamma((n + k sigma)/2) / (Gamma(alpha k + beta)
    Gamma(-k sigma/2)); 0 where k sigma/2 is an integer."""
    log_env, sin = _log_envelopes(tp, np.array([float(k)]))
    return complex(
        -sin[0]
        * math.exp(log_env[0] - (k * tp.sigma + 0.5 * tp.n) * math.log(math.pi))
        * np.exp(1j * k * tp.phi)
    )


def _log_wave_size(tp, xi: float) -> float:
    """log of the size of the transform of E's exponential term, which the
    residue series does not contain; -inf where there is none.

    E(z) carries (1/alpha) z^((1-beta)/alpha) e^{z^(1/alpha)} for
    |arg z| < pi alpha.  On the profile that is a wave e^{w r^p}, p =
    sigma/alpha, w = e^{i phi/alpha}, and for p > 1 its transform has a
    saddle at |r_s| = (2 pi xi/p)^(1/(p-1)), arg r_s = -gamma, gamma =
    (|phi|/alpha - pi/2)/(p-1), where the exponent has real part
    -2 pi xi (1 - 1/p) |r_s| sin(gamma).  Near the sector boundary gamma is
    small and this term outgrows the series' smallest term.  The estimate
    is the saddle-point value with the Bessel kernel's large-argument
    amplitude; for gamma >= pi the saddle is off the principal sheet.
    """
    p = tp.sigma / tp.alpha
    delta = abs(tp.phi) / tp.alpha - 0.5 * math.pi
    if p <= 1.0 or delta >= 0.5 * math.pi:
        return -math.inf
    gamma = delta / (p - 1.0)
    if gamma >= math.pi:
        return -math.inf
    log_r = math.log(2.0 * math.pi * xi / p) / (p - 1.0)
    if log_r > 700.0:
        return -math.inf
    r = math.exp(log_r)
    return (
        math.log(2.0 * math.pi / tp.alpha)
        + (1.0 - 0.5 * tp.n) * math.log(xi)
        - 2.0 * math.pi * xi * (1.0 - 1.0 / p) * r * math.sin(gamma)
        - 0.5 * math.log(2.0 * math.pi ** 2 * xi)
        + 0.5 * math.log(2.0 * math.pi / (p * (p - 1.0)))
        + (tp.sigma * (1.0 - tp.beta) / tp.alpha + 0.5 * tp.n - 0.5 * p + 0.5) * log_r
    )


def residue_series(tp, xi: float) -> tuple[complex, float]:
    """The residue series at |xi| = xi and its relative error estimate.

    Near k sigma/2 = integer a term is small for its sin(pi k sigma/2)
    factor alone, so truncation follows the envelope |c_k/sin(pi k sigma/2)|
    (pi xi)^(-k sigma) instead: the terms are summed up to, not including,
    the smallest envelope among the first 256.  The estimate is that
    envelope, which bounds the first omitted term, plus eps times the sum of
    the magnitudes summed, both relative to |sum|, plus ten times the
    relative size of E's exponential term (_log_wave_size), which no term
    of the series carries.  It is inf where the sum is 0, as for
    even-integer sigma, where every term vanishes.
    """
    k = np.arange(1.0, _SERIES_TERMS + 1.0)
    log_env, sin = _log_envelopes(tp, k)
    if sin[0] == 0.0:
        return 0j, math.inf
    # Envelopes relative to the k = 1 one, which carries the scale through
    # exact powers: the large logs of small (pi xi)^(-k sigma) only enter
    # terms that they make small.
    log_x = -tp.sigma * math.log(math.pi * xi)
    with np.errstate(over="ignore", invalid="ignore"):
        envelope = np.exp(log_env - log_env[0] + (k - 1.0) * log_x)
    stop = int(np.argmin(envelope))
    terms = -sin[:stop] * envelope[:stop] * np.exp(1j * tp.phi * k[:stop])
    total = complex(np.sum(terms))
    if not (total != 0.0 and math.isfinite(abs(total))):
        return 0j, math.inf
    scale = (
        math.exp(log_env[0])
        * (math.pi * xi) ** -tp.sigma
        * math.pi ** (-0.5 * tp.n)
        * xi ** -tp.n
    )
    value = scale * total
    err = (envelope[stop] + _EPS * float(np.sum(np.abs(terms)))) / abs(total)
    wave = _log_wave_size(tp, xi) - math.log(abs(value))
    return value, err + _WAVE_MARGIN * math.exp(min(wave, 0.0))


def _log_integrand(tp, s: np.ndarray, log_pi_xi: float) -> np.ndarray:
    """log of K(s) (pi xi)^s, up to multiples of 2 pi i."""
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
    return (
        -math.log(tp.sigma)
        - 1j * theta * q
        + log_reflection
        - loggamma(tp.beta - tp.alpha * q)
        + loggamma(0.5 * (tp.n - s))
        - loggamma(0.5 * s)
        + s * log_pi_xi
    )


def line_integral(tp, xi: float) -> complex:
    """The transform at |xi| = xi as a trapezoid sum on Re s = c.

    The integrand exceeds the result by about (pi xi)^(c + sigma) at large
    xi and (pi xi)^(c - sigma) at small xi, so the line sits left at large
    xi and right at small xi: c = -sigma/2 for 2 pi xi >= 1 and
    c = 0.6 min(sigma, n) below.  s = 0 is not a pole, since 1/Gamma(s/2)
    vanishes there; the poles nearest the strip are s = -sigma and
    s = min(sigma, n).  The step keeps exp(-2 pi d/h) below 1e-17 of the
    integrand on the strip of half-width d, the distance from c to those
    poles; the nodes reach until the integrand has decayed below 1e-18 of
    its peak.  ConvergenceError past 2^20 nodes.
    """
    upper = min(tp.sigma, float(tp.n))
    c = -0.5 * tp.sigma if 2.0 * math.pi * xi >= 1.0 else 0.6 * upper
    d = min(c + tp.sigma, upper - c)
    log_pi_xi = math.log(math.pi * xi)
    h = 2.0 * math.pi * d / (_STEP_EFOLDS + d * abs(log_pi_xi))
    rate = (abs(tp.phi) - 0.5 * math.pi * tp.alpha) / tp.sigma
    t_max = _TAIL_EFOLDS / rate
    while True:
        m = math.ceil(t_max / h)
        if 2 * m + 1 > _MAX_NODES:
            raise ConvergenceError(
                f"Mellin-Barnes line needs more than {_MAX_NODES} nodes "
                f"(step {h:.3g}, decay rate {rate:.3g})"
            )
        t = h * np.arange(-m, m + 1)
        f = np.exp(_log_integrand(tp, c + 1j * t, log_pi_xi))
        mag = np.abs(f)
        if max(mag[0], mag[-1]) <= math.exp(-_TAIL_EFOLDS) * mag.max():
            break
        t_max *= 2.0
    total = complex(h * np.sum(f))
    return total * math.pi ** (-0.5 * tp.n) * xi ** -tp.n / (2.0 * math.pi)


def mellin_transform(tp, xi: float) -> complex:
    """The transform at |xi| = xi: the residue series where its error
    estimate is at most 1e-15 relative, else the line integral."""
    value, err = residue_series(tp, xi)
    if err <= _TARGET:
        return value
    return line_integral(tp, xi)

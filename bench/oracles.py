"""Reference values the benchmark checks mlfourier against.

Nothing here imports mlfourier: every value comes from closed forms,
scipy.special, or mpmath in a private context, so an oracle cannot inherit
a defect from the layer it checks.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath
import numpy as np
from scipy.special import erfcx, jv, loggamma

# A trapezoid rule on a strip of analyticity of half-width d has error about
# exp(-2 pi d / h); this many e-folds puts it below double rounding.
_TRAPEZOID_EFOLDS = 40.0
_TAIL_EFOLDS = 45.0

_MP = mpmath.MPContext()


def closed_form_transform(n: int, sigma: float, xi: float) -> float:
    """Transform of exp(-|x|^sigma) on R^n (alpha = beta = 1, phi = pi) for
    sigma = 1 and sigma = 2."""
    if sigma == 1:
        return (
            (2.0 * math.pi) ** n
            * math.gamma(0.5 * (n + 1))
            * math.pi ** (-0.5 * (n + 1))
            * (1.0 + 4.0 * math.pi**2 * xi**2) ** (-0.5 * (n + 1))
        )
    if sigma == 2:
        return math.pi ** (0.5 * n) * math.exp(-(math.pi**2) * xi**2)
    raise ValueError(f"no closed form for sigma = {sigma}")


def _theta(phi: float) -> float:
    # e^{i phi} = -e^{i theta} with theta in (-pi, pi].
    return phi - math.pi if phi > 0.0 else phi + math.pi


def _trapezoid_line(log_integrand, c: float, width: float, rate: float) -> complex:
    """h * sum f(c + i t_k) over t_k = k h, for an integrand analytic within
    `width` of the line and decaying like exp(-rate |t|)."""
    h = 2.0 * math.pi * width / _TRAPEZOID_EFOLDS
    t_max = _TAIL_EFOLDS / rate
    while True:
        t = h * np.arange(-math.ceil(t_max / h), math.ceil(t_max / h) + 1)
        f = np.exp(log_integrand(c + 1j * t))
        mag = np.abs(f)
        if max(mag[0], mag[-1]) <= 1e-18 * mag.max():
            return complex(h * f.sum())
        t_max *= 2.0


def mellin_barnes_transform(
    alpha: float, beta: float, phi: float, sigma: float, n: int, xi: float, c: float
) -> complex:
    """n-dimensional radial transform of E_{alpha,beta}(e^{i phi}|x|^sigma) at
    |xi| = xi, by Mellin-Parseval on the line Re s = c, 0 < c < min(sigma, n):

        F(xi) = 2 pi xi^(1-n/2) (1/2 pi i) int F_M(s) H_M(1-s) ds
              = xi^(1-n/2) int F_M(c+it) H_M(1-c-it) dt,

    F_M(s) = sigma^-1 e^{-i theta s/sigma} G(s/sigma) G(1-s/sigma) / G(beta -
    alpha s/sigma) is the Mellin transform of the profile (e^{i phi} =
    -e^{i theta}) and H_M(w) = a^-(w+n/2) 2^(w+n/2-1) G((nu+w+n/2)/2) /
    G((nu-w-n/2)/2+1), a = 2 pi xi, nu = n/2-1, that of the Bessel kernel
    (DLMF 10.22.43).  The nearest singularities are the poles at s = 0 and
    s = min(sigma, n), so the step follows the distance to them.
    """
    upper = min(sigma, float(n))
    if not 0.0 < c < upper:
        raise ValueError(f"line Re s = {c} outside (0, {upper})")
    theta = _theta(phi)
    rate = (math.pi * (1.0 - 0.5 * alpha) - abs(theta)) / sigma
    if not rate > 0.0:
        raise ValueError("Mellin-Barnes route needs |phi| > pi alpha / 2")
    nu = 0.5 * n - 1.0
    log_a = math.log(2.0 * math.pi * xi)

    def log_integrand(s):
        q = s / sigma
        m = 1.0 - s + 0.5 * n
        return (
            -math.log(sigma)
            - 1j * theta * q
            + loggamma(q)
            + loggamma(1.0 - q)
            - loggamma(beta - alpha * q)
            - m * log_a
            + (m - 1.0) * math.log(2.0)
            + loggamma(0.5 * (nu + m))
            - loggamma(0.5 * (nu - m) + 1.0)
        )

    total = _trapezoid_line(log_integrand, c, min(c, upper - c), rate)
    return xi ** (1.0 - 0.5 * n) * total


def transform_lines(sigma: float, n: int, xi: float) -> tuple[float, float]:
    """Two Mellin-Barnes lines suited to |xi|.  The integrand exceeds the
    result by about xi^(c+sigma) at large xi and xi^(c-sigma) at small xi,
    so large xi takes lines near the left pole and small xi near the right."""
    upper = min(sigma, float(n))
    if 2.0 * math.pi * xi >= 1.0:
        return 0.3 * upper, 0.45 * upper
    return 0.55 * upper, 0.7 * upper


def transform_reference(
    alpha: float, beta: float, phi: float, sigma: float, n: int, xi: float
) -> tuple[complex, complex]:
    """The transform on the two lines of transform_lines."""
    return tuple(
        mellin_barnes_transform(alpha, beta, phi, sigma, n, xi, c)
        for c in transform_lines(sigma, n, xi)
    )


def mellin_barnes_ml(alpha: float, beta: float, z: complex, c: float) -> complex:
    """E_{alpha,beta}(z) in the decay sector |arg z| > pi alpha/2 by Mellin
    inversion on Re q = c, 0 < c < 1: with z = -e^{i theta} x,

        E(z) = (1/2 pi) int G(q) G(1-q) / G(beta - alpha q) e^{-i theta q}
               x^{-q} dt,   q = c + i t.
    """
    if not 0.0 < c < 1.0:
        raise ValueError(f"line Re q = {c} outside (0, 1)")
    x = abs(z)
    theta = _theta(math.atan2(z.imag, z.real))
    rate = math.pi * (1.0 - 0.5 * alpha) - abs(theta)
    if not rate > 0.0:
        raise ValueError("Mellin-Barnes route needs |arg z| > pi alpha / 2")
    log_x = math.log(x)

    def log_integrand(q):
        return (
            loggamma(q)
            + loggamma(1.0 - q)
            - loggamma(beta - alpha * q)
            - 1j * theta * q
            - q * log_x
        )

    return _trapezoid_line(log_integrand, c, min(c, 1.0 - c), rate) / (2.0 * math.pi)


def ml_series_mp(alpha: float, beta: float, z: complex) -> complex:
    """Taylor series of E_{alpha,beta}(z) in a private mpmath context, with
    enough digits to carry the largest term (about exp(|z|^(1/alpha)))
    and 30 more.

    When alpha is a fraction p/q with q <= 64 (as 0.5, 0.8 and 1.3 are), the
    terms follow from t_k = t_{k-q} z^q / ((x)(x+1)...(x+p-1)), x = alpha (k-q)
    + beta, and only the first q need a reciprocal gamma.
    """
    r = abs(z)
    peak_digits = int(r ** (1.0 / alpha) / math.log(10.0)) if r > 1.0 else 0
    ctx = _MP
    ctx.dps = peak_digits + 30
    zz = ctx.mpc(z)
    frac = Fraction(alpha).limit_denominator(64)
    if abs(float(frac) - alpha) <= 1e-15 * alpha:
        p, q = frac.numerator, frac.denominator
        a = ctx.mpf(p) / q
    else:
        p, q = None, None
        a = ctx.mpf(alpha)
    b = ctx.mpf(beta)
    zq = zz ** q if q else None
    # Stop once a term is 25 digits below the result, which itself may lie
    # peak_digits below the largest term.
    tol = ctx.mpf(10) ** (-(peak_digits + 25))
    terms: list = []
    acc = ctx.mpc(0)
    peak = ctx.mpf(0)
    k = 0
    while True:
        if q is None or k < q:
            term = zz**k * ctx.rgamma(a * k + b)
        else:
            x = a * (k - q) + b
            den = ctx.mpf(1)
            for j in range(p):
                den *= x + j
            term = terms[k - q] * zq / den
        terms.append(term)
        acc += term
        mag = abs(term)
        peak = max(peak, mag)
        if k > 2 and mag < tol * peak:
            return complex(acc)
        k += 1


def ml_reference(alpha: float, beta: float, z: complex) -> tuple[complex, complex]:
    """Two independent-ish values of E_{alpha,beta}(z) for the kernels check.

    alpha = 1/2, beta = 1: erfcx(-z) (and the mpmath series for |z| <= 10).
    alpha = 1, beta = 1: exp(z).  Otherwise the mpmath series for |z| <= 100
    and two Mellin-Barnes lines beyond.
    """
    if beta == 1.0 and alpha == 0.5:
        v = complex(erfcx(-complex(z)))
        return v, (ml_series_mp(alpha, beta, z) if abs(z) <= 10.0 else v)
    if beta == 1.0 and alpha == 1.0:
        v = complex(np.exp(complex(z)))
        return v, v
    if abs(z) <= 100.0:
        v = ml_series_mp(alpha, beta, z)
        return v, v
    return mellin_barnes_ml(alpha, beta, z, 0.35), mellin_barnes_ml(alpha, beta, z, 0.6)


def jbar_reference(n: int, r: float) -> float:
    """J_{n/2-1}(2 pi r) r^(n/2) from scipy.special.jv."""
    if r == 0.0:
        return 1.0 / math.pi if n == 1 else 0.0
    return float(jv(0.5 * n - 1.0, 2.0 * math.pi * r) * r ** (0.5 * n))


def relative_error(value: complex, reference: complex) -> float:
    return abs(value - reference) / abs(reference)


def digits(rel_err: float, cap: float = 15.0) -> float:
    """-log10 of a relative error, capped so an exact match reads as `cap`."""
    if rel_err <= 10.0 ** (-cap):
        return cap
    return -math.log10(rel_err)

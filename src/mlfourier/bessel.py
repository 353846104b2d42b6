"""Bessel J evaluators and the extended large-argument expansion.

Real orders are evaluated with scipy.special.jv; complex orders, which jv
does not accept, with the ascending series summed in mpmath by the
library's one self-verifying precision ladder (special_core._mp_series),
until rounding is below 1e-17 of the value.

The expansion writes J_lambda(r) = sum_{l=0}^{M} sum_{+-} c_l^{+-}(lambda)
r^{-(l+1/2)} e^{+-ir} + L_lambda(r; M) with |L| = O(r^{-M-3/2}).  The
coefficients are built by two independent routes and cross-asserted:

  route A (closed form):
      c_l^{+-} = (2^{-l} / (sqrt(2 pi) l!))
                 * Gamma(lambda+l+1/2) / Gamma(lambda-l+1/2)
                 * exp(+-i (pi l/2 - lambda_*))
  route B (product form):
      c_l^{+-} = 2^{lambda-1/2} c_lambda Gamma(l+lambda+1/2)
                 * (+-i/2)^l ff_l(lambda-1/2) / l! * exp(-+i lambda_*)
      with c_lambda = 2^{-lambda}/(Gamma(1/2) Gamma(lambda+1/2)),
      ff_l the falling factorial, lambda_* = pi lambda/2 + pi/4.

The two agree identically; the l=0 pair collapses to
sqrt(2/pi) r^{-1/2} cos(r - lambda_*).  For half-integer lambda the falling
factorial terminates and the expansion is exact from some M on.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import jv

from .errors import AccuracyError, DomainError, FitError, DegenerateFitError
from .special_core import (
    _mp_series,
    Complex,
    complex_gamma,
    line_fit,
    principal_pow,
    reciprocal_gamma,
)


@dataclass(frozen=True)
class BesselOrder:
    """Order of J_lambda.  Re lambda > -1/2 for the series and the
    reference; lambda = -1/2 exactly is reachable only through the
    closed-form identity."""

    lam: Complex

    def __post_init__(self) -> None:
        lam = complex(self.lam)
        if lam.real < -0.5:
            raise DomainError(f"Re lambda >= -1/2 required, got {lam}")
        if lam.real == -0.5 and lam.imag != 0.0:
            raise DomainError(
                "on the boundary Re lambda = -1/2 only the real point "
                "lambda = -1/2 (identity path) is supported"
            )


def _as_lambda(lam) -> Complex:
    if isinstance(lam, BesselOrder):
        return complex(lam.lam)
    return complex(lam)


def _require_series_domain(lam: Complex) -> None:
    if not lam.real > -0.5:
        raise DomainError(
            f"Re lambda > -1/2 required here (lambda = {lam}); "
            "lambda = -1/2 has its own closed-form identity"
        )


def _series_mpmath(lam: Complex, r: float, dps: int) -> Complex:
    """The ascending series at r, summed by special_core._mp_series from
    dps digits up to a rounding below 1e-17 of the value.  The alternating
    terms peak near e^r/sqrt(2 pi r) against |J| ~ sqrt(2/(pi r)), and
    near a zero of J the cancellation is deeper."""
    import mpmath as mp

    def terms():
        half = mp.mpf(r) / 2
        lam_mp = mp.mpc(lam) if lam.imag else mp.mpf(lam.real)
        term = mp.power(half, lam_mp) * mp.rgamma(lam_mp + 1)
        for m in itertools.count():
            yield term
            term *= -(half * half) / ((m + 1) * (lam_mp + m + 1))

    return _mp_series(terms, dps, 1e-17)


def bessel_j_series(lam, r: float) -> Complex:
    """Ascending series sum_m (-1)^m (r/2)^(2m+lambda)/(m! Gamma(m+lambda+1))
    at a finite r >= 0, summed in mpmath from 20 + ceil(0.45 r) digits up,
    until rounding is below 1e-17 of the value (_series_mpmath)."""
    lam = _as_lambda(lam)
    _require_series_domain(lam)
    if not 0.0 <= r < math.inf:
        raise DomainError(f"finite r >= 0 required, got r = {r}")
    if r == 0.0:
        if lam == 0:
            return 1.0 + 0.0j
        if lam.real > 0.0:
            return 0.0 + 0.0j
        raise DomainError("J_lambda(0) diverges for Re lambda < 0")
    return _series_mpmath(lam, r, 20 + math.ceil(0.45 * r))


def bessel_j_half_identity(r: float) -> float:
    """The lambda = -1/2 closed form sqrt(2/pi) r^(-1/2) cos r."""
    if not r > 0.0:
        raise DomainError("r > 0 required")
    return math.sqrt(2.0 / math.pi) * math.cos(r) / math.sqrt(r)


def small_argument_leading(n: int, r: float) -> Complex:
    """Leading small-argument behaviour a_n r^(n/2-1) of J_{n/2-1},
    a_n = 2^(1-n/2)/Gamma(n/2); meaningful on 0 <= r <= 1."""
    if n <= 1:
        raise DomainError("n > 1 required")
    a_n = 2.0 ** (1.0 - 0.5 * n) / complex_gamma(0.5 * n)
    if r == 0.0:
        return a_n if n == 2 else 0.0 + 0.0j
    return a_n * r ** (0.5 * n - 1.0)


def small_argument_remainder_constant(n: int) -> float:
    """Constant C with |J_{n/2-1}(r) - a_n r^(n/2-1)| <= C r^(n/2) on (0,1],
    from the linear bound on |e^{irt} - 1| inside the integral
    representation: C = 1/(2^lam (1+lam) |Gamma(lam+1/2)| Gamma(1/2)) with
    lam = n/2 - 1."""
    if n <= 1:
        raise DomainError("n > 1 required")
    lam = 0.5 * n - 1.0
    return 1.0 / (
        2.0 ** lam
        * (1.0 + lam)
        * abs(complex_gamma(lam + 0.5))
        * math.sqrt(math.pi)
    )


@dataclass(frozen=True)
class BesselExpansion:
    """Immutable coefficient table of the extended expansion."""

    lam: Complex
    M: int
    coeffs: tuple  # ((c_0^+, c_0^-), ..., (c_M^+, c_M^-))


def _falling_factorial(x: Complex, m: int) -> Complex:
    out = 1.0 + 0.0j
    for j in range(m):
        out *= x - j
    return out


@lru_cache(maxsize=64)
def _expansion_coeffs(lam: Complex, M: int) -> tuple:
    """Coefficient pairs by both routes, cross-asserted to 1e-12.

    No Re lambda gate: the scaled-kernel evaluators need lambda = 0 and
    lambda = 1/2 too.
    """
    lam = complex(lam)
    lam_star = math.pi * lam / 2.0 + math.pi / 4.0
    c_lam = principal_pow(2.0, -lam) / (
        math.sqrt(math.pi) * complex_gamma(lam + 0.5)
    )
    pre_b = principal_pow(2.0, lam - 0.5) * c_lam
    pairs = []
    for ell in range(M + 1):
        # route A
        ratio = complex_gamma(lam + ell + 0.5) * reciprocal_gamma(
            lam - ell + 0.5
        )
        base_a = 2.0 ** (-ell) / (math.sqrt(2.0 * math.pi) * math.factorial(ell))
        phase = 1j * (math.pi * ell / 2.0 - lam_star)
        cp_a = base_a * ratio * cmath.exp(phase)
        cm_a = base_a * ratio * cmath.exp(-phase)
        # route B
        gam = complex_gamma(ell + lam + 0.5)
        ff = _falling_factorial(lam - 0.5, ell)
        fact = math.factorial(ell)
        cp_b = (
            pre_b * gam * (0.5j) ** ell * ff / fact * cmath.exp(-1j * lam_star)
        )
        cm_b = (
            pre_b * gam * (-0.5j) ** ell * ff / fact * cmath.exp(1j * lam_star)
        )
        scale = max(abs(cp_a), abs(cm_a), 1.0)
        if abs(cp_a - cp_b) > 1e-12 * scale or abs(cm_a - cm_b) > 1e-12 * scale:
            raise AccuracyError(
                f"coefficient routes disagree at l={ell}, lambda={lam}"
            )
        pairs.append((cp_a, cm_a))
    return tuple(pairs)


def build_expansion(lam, M: int) -> BesselExpansion:
    """Expansion with coefficients c_l^{+-}(lambda) for l = 0..M; both
    coefficient routes are computed and must agree to 1e-12."""
    lam = _as_lambda(lam)
    if not lam.real > 0.5:
        raise DomainError(f"Re lambda > 1/2 required, got {lam}")
    if M < 1:
        raise DomainError("M >= 1 required")
    return BesselExpansion(lam=lam, M=M, coeffs=_expansion_coeffs(lam, M))


def bessel_asymptotic(exp: BesselExpansion, r: float) -> Complex:
    """sum_{l=0}^{M} sum_{+-} c_l^{+-} r^{-(l+1/2)} e^{+-ir}."""
    if not r > 1.0:
        raise DomainError("r > 1 required")
    return _asymptotic_eval(exp.coeffs, r)


def _asymptotic_eval(coeffs: tuple, r):
    """The truncated expansion at a float or an array of r."""
    e_plus = np.exp(1j * r)
    e_minus = np.conj(e_plus)
    rp = 1.0 / np.sqrt(r)
    acc = 0.0 + 0.0j
    for cp, cm in coeffs:
        acc += (cp * e_plus + cm * e_minus) * rp
        rp /= r
    return acc


def bessel_j_reference(lam, r: float) -> Complex:
    """J_lambda(r) for Re lambda > -1/2 and finite r >= 0: scipy.special.jv
    for real orders, bessel_j_series for complex ones, which jv does not
    accept."""
    lam = _as_lambda(lam)
    if lam.imag:
        return bessel_j_series(lam, r)
    _require_series_domain(lam)
    if not 0.0 <= r < math.inf:
        raise DomainError(f"finite r >= 0 required, got r = {r}")
    if r == 0.0 and lam.real < 0.0:
        raise DomainError("J_lambda(0) diverges for Re lambda < 0")
    return complex(jv(lam.real, r))


@dataclass(frozen=True)
class DecayCertificate:
    """Fitted decay of the expansion remainder |L_lambda(r; M)|.

    slope is the least-squares exponent of the envelope of |L| against r on
    a log-log grid; exact marks a terminating expansion (half-integer
    lambda), where L vanishes identically and the slope is -inf.
    """

    slope: float
    intercept: float
    exact: bool
    n_points: int


def _remainder_envelope(lam: Complex, coeffs: tuple, r0: float) -> float:
    # Peak |reference - expansion| over one oscillation period starting at
    # r0; 33 samples resolve the 2pi beat comfortably.
    peak = 0.0
    for j in range(33):
        r = r0 + 2.0 * math.pi * j / 32.0
        val = abs(bessel_j_reference(lam, r) - _asymptotic_eval(coeffs, r))
        peak = max(peak, val)
    return peak


def remainder_decay_certificate(lam, M: int, r_grid) -> DecayCertificate:
    """Certify |L_lambda(r; M)| = O(r^(-M-3/2)) by fitting the envelope
    decay on a geometric grid inside (5, 200)."""
    lam = _as_lambda(lam)
    if M < 1:
        raise DomainError("M >= 1 required")
    grid = [float(r) for r in r_grid]
    if len(grid) < 8:
        raise DegenerateFitError("at least 8 grid points required")
    if any(not 5.0 < r < 200.0 for r in grid):
        raise DomainError("r_grid must lie inside (5, 200)")
    ratios = [b / a for a, b in zip(grid, grid[1:])]
    if any(q <= 1.0 for q in ratios) or (
        max(ratios) - min(ratios) > 0.02 * min(ratios)
    ):
        raise DegenerateFitError("r_grid must be increasing and geometric")

    coeffs = _expansion_coeffs(lam, M)
    # Terminating case: every coefficient past M vanishes, L is identically
    # zero and a log-log fit is meaningless.
    higher = _expansion_coeffs(lam, M + 4)[M + 1 :]
    if all(cp == 0 and cm == 0 for cp, cm in higher):
        return DecayCertificate(
            slope=-math.inf, intercept=-math.inf, exact=True, n_points=len(grid)
        )

    env = [_remainder_envelope(lam, coeffs, r) for r in grid]
    if max(env) < 1e-12:
        raise FitError(
            "remainder is at the double-precision noise floor; "
            "shrink the upper end of r_grid"
        )
    slope, intercept = line_fit(np.log(np.asarray(grid)), np.log(np.asarray(env)))
    return DecayCertificate(
        slope=slope,
        intercept=intercept,
        exact=False,
        n_points=len(grid),
    )


def jbar(n: int, r):
    """Scaled radial kernel J_{n/2-1}(2 pi r) r^(n/2), with J from
    scipy.special.jv (the order is real), at a float or an array of r.

    n = 1 collapses to cos(2 pi r)/pi through the half-order identity;
    r = 0 gives 1/pi for n = 1 and 0 for n >= 2.  A float r gives a
    complex value, an array a real array.  DomainError unless r (every
    entry) is finite and >= 0.
    """
    if n < 1:
        raise DomainError("n >= 1 required")
    if np.ndim(r):
        r = np.asarray(r, dtype=float)
        if not np.all((0.0 <= r) & (r < math.inf)):
            raise DomainError("finite r >= 0 required")
        if n == 1:
            return np.cos(2.0 * np.pi * r) / np.pi
        return jv(0.5 * n - 1.0, 2.0 * np.pi * r) * r ** (0.5 * n)
    if not 0.0 <= r < math.inf:
        raise DomainError(f"finite r >= 0 required, got r = {r}")
    if n == 1:
        # sqrt(2/pi) (2 pi r)^(-1/2) cos(2 pi r) * r^(1/2) == cos(2 pi r)/pi
        return complex(math.cos(2.0 * math.pi * r) / math.pi)
    if r == 0.0:
        return 0.0 + 0.0j
    return complex(jv(0.5 * n - 1.0, 2.0 * math.pi * r)) * r ** (0.5 * n)

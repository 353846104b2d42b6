"""Mittag-Leffler function E_{alpha,beta} by Taylor series, by Laplace
inversion on an optimal parabolic contour (Garrappa, SIAM J. Numer. Anal.
53 (2015)), by contour integrals over a two-ray-plus-arc contour, and by a
large-argument sector expansion, together with the reciprocal-gamma contour
identities.

`ml_eval` is the evaluator, in both sectors, with one accuracy target: the
double Taylor series where its cancellation guard accepts (|z| <=
SERIES_RADIUS), past that the sector sum wherever, in the decay sector,
its own error estimate is at most 1e-15 relative, and Laplace inversion
everywhere else.  A sum bound to be rejected stops early (Taylor) or is
refused before any term is formed (sector), so a point pays for little
more than the route it returns.  Laplace inversion plans its parabola in
the gaps between the singularities, each left end rounded up and each
right end down onto the ladder 2^(j/8), and keeps the last 128 plans with
their node weights, at most 4.9 MB: a call is one division per node and
one sum.  An array of z is evaluated entry by entry by that same rule, so
each entry's value is the scalar one.  The sector sum is the one
evaluator of the large-argument expansion: the optimally truncated
algebraic sum -sum_k z^-k/Gamma(beta - alpha k) plus E's exponentially
small saddle terms.  The mpmath series (ml_series) and the ray/arc
contour (ml_contour, ml_on_ray) are independent references; ml_eval
reaches neither.

Conventions.  The contour C(eps, omega) consists of the rays
arg z = +-omega, |z| >= eps and the arc |z| = eps, -omega <= arg z <= omega,
oriented positively (in along the lower ray, around the arc, out along the
upper ray).  Its openings satisfy pi*alpha/2 < omega < min(pi*alpha, pi),
which makes cos(omega/alpha) < 0 so the ray integrands decay exponentially
in the radial variable rho = |z|^(1/alpha).  The contour references take no
contour: one rule (_contour) picks it from the point r e^{i phi} that must
stay off it.  In the decay sector |phi| > pi*alpha/2 the arc is the unit
circle and omega lies halfway between pi*alpha/2 and min(|phi|, pi*alpha);
in the growth sector omega lies halfway between pi*alpha/2 and
min(pi*alpha, pi) and the arc radius is (r^(1/alpha) + 1)^alpha, which
encloses the point.  One routine (_contour_integral) sums on it 16-node
Gauss-Legendre panels, in rho on the rays and arg z on the arc, sized from
the nearest singularity (Trefethen & Weideman, SIAM Rev. 56 (2014)).
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from typing import Callable, Iterable, Iterator

import numpy as np

from .errors import AccuracyError, ConvergenceError, DomainError
from .special_core import (
    _ABS_TOL,
    _EPS,
    _REL_TOL,
    _mp_series,
    Complex,
    fsum_complex,
    gauss_legendre_rule,
    reciprocal_gamma,
)

# |z| up to which ml_eval tries the double Taylor series.  Past it, the
# sector sum's own estimate decides.
SERIES_RADIUS = 5.0


@dataclass(frozen=True)
class MLParams:
    """Order pair (alpha, beta) of E_{alpha,beta}."""

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        if not (0.0 < self.alpha < 2.0):
            raise DomainError(f"0 < alpha < 2 required, got alpha = {self.alpha}")
        if not 0.0 < self.beta < math.inf:
            raise DomainError(f"finite beta > 0 required, got beta = {self.beta}")


# Largest x with e^x in double range.
_LOG_DOUBLE_MAX = math.log(sys.float_info.max)


def _contour(p: MLParams, phi: float, r: float) -> tuple[float, float]:
    """(eps, omega) of the contour for the point r e^{i phi}, by the rule
    stated under Conventions above.  The growth-sector arc's largest factor
    e^{eps^(1/alpha)} is e times E's own scale e^{r^(1/alpha)}."""
    lo = math.pi * p.alpha / 2.0
    if abs(phi) > lo:
        return 1.0, 0.5 * (lo + min(abs(phi), math.pi * p.alpha))
    eps = (r ** (1.0 / p.alpha) + 1.0) ** p.alpha
    return eps, 0.5 * (lo + min(math.pi * p.alpha, math.pi))


# Contour quadrature: 16-node Gauss-Legendre panels, a node budget, the
# e-folds the ray integrands fall through before the rays stop, and the
# (values x nodes) products summed per block.
_PANEL_NODES = 16
_MAX_NODES = 2**20
_RAY_EFOLDS = 45.0
_BLOCK = 2**20


def _panels(edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights of the panels between edges."""
    t, w = gauss_legendre_rule(_PANEL_NODES)
    half = 0.5 * np.diff(edges)[:, np.newaxis]
    mid = 0.5 * (edges[:-1] + edges[1:])[:, np.newaxis]
    return (mid + half * t).ravel(), (half * w).ravel()


def _contour_integral(
    p: MLParams,
    phi: float,
    r: float,
    factor: Callable[..., np.ndarray],
    args: tuple = (),
) -> Complex | np.ndarray:
    """Integral of exp(z^(1/a)) z^((1-b)/a) factor(z) dz over the contour
    C(eps, omega) that _contour picks for the point r e^{i phi}: the sum of
    factor(z_k) w_k over the panels described under Conventions above.

    factor(z, *args) takes the nodes as a row and each of args as a column,
    one row per value; with no args it gives one value, a complex.  Each
    row is summed on its own, so a value is the same in any batch.
    AccuracyError when the arc's largest weight e^{rho0} rho0^(1-b+a),
    rho0 = eps^(1/alpha), leaves double range, or where rounding, eps times
    the sum of |terms|, exceeds the target max(_ABS_TOL, _REL_TOL |value|);
    ConvergenceError when the contour needs more than _MAX_NODES nodes.
    """
    a, b = p.alpha, p.beta
    eps, om = _contour(p, phi, r)
    rho0 = eps ** (1.0 / a)
    # The log of the arc's largest weight e^{rho0} rho0^(1 - b + a), at psi = 0.
    peak = rho0 + (1.0 - b + a) * math.log(rho0)
    if not peak <= _LOG_DOUBLE_MAX:
        raise AccuracyError(
            f"contour arc weight e^{{{peak:.1f}}} leaves double range"
        )
    # The nearest singularity: the point, an angle gap off the rays, and in
    # the growth sector ln(eps/r) inside the arc's parameter strip.
    if abs(phi) > math.pi * a / 2.0:
        gap = min(abs(phi) - om, 1.0)
        arc_width = 0.5 * gap
    else:
        gap = min(om - abs(phi), 1.0)
        depth = math.log(eps) - math.log(r) if r > 0.0 else math.inf
        arc_width = 0.5 * min(1.0 / rho0, depth, 1.0)
    rate = -math.cos(om / a)
    rho1 = rho0 + (_RAY_EFOLDS + 5.0 * math.log(_RAY_EFOLDS / rate)) / rate
    # A singularity an angle gap off a ray lies about rho gap/alpha from it:
    # ray panels grow with rho until the exponential's own scale caps them.
    rel, cap = 0.5 * gap / a, 2.0 / max(abs(math.sin(om / a)), rate)
    turn = min(max(cap / rel, rho0), rho1)
    grow = math.log(turn / rho0) / math.log1p(rel)
    arcs = 2.0 * om / arc_width
    count = _PANEL_NODES * (2.0 * (grow + (rho1 - turn) / cap) + arcs)
    if not count <= _MAX_NODES:
        raise ConvergenceError(
            f"contour needs about {count:.3g} nodes, more than {_MAX_NODES} (gap {gap:.3g})"
        )
    ray = rho0 * (1.0 + rel) ** np.arange(math.ceil(grow) + 1)
    ray = np.append(ray, ray[-1] + cap * np.arange(1, (rho1 - ray[-1]) // cap + 2))
    arc = np.linspace(-om, om, math.ceil(arcs) + 1)
    # Each node as rho e^{i psi} = z^(1/alpha), with d(log z) for its rule.
    theta, w_theta = _panels(arc)
    rho, w_rho = _panels(ray)
    rad = np.concatenate([np.full(theta.size, rho0), rho, rho])
    psi = np.concatenate([theta, np.full(rho.size, om), np.full(rho.size, -om)]) / a
    dlog = np.concatenate([1j * w_theta, a * w_rho / rho, -a * w_rho / rho])
    z = rad ** a * np.exp(1j * a * psi)
    # One exponent keeps the arc's factors' product in range wherever it is.
    w = dlog * np.exp(rad * np.exp(1j * psi) + (1.0 - b + a) * (np.log(rad) + 1j * psi))
    rows = len(args[0]) if args else 1
    block = max(1, _BLOCK // z.size)
    out = np.empty(rows, complex)
    for lo in range(0, rows, block):
        terms = np.atleast_2d(factor(z, *(c[lo:lo + block, None] for c in args))) * w
        value = terms.sum(axis=1)
        bound = _EPS * np.abs(terms).sum(axis=1)
        miss = ~(bound <= np.maximum(_ABS_TOL, _REL_TOL * np.abs(value)))
        if miss.any():
            i = int(np.argmax(miss))
            raise AccuracyError(
                f"contour sum of size {abs(value[i]):.3e} leaves double range "
                f"or its rounding {bound[i]:.3e} misses the target"
            )
        out[lo:lo + block] = value
    return out if args else complex(out[0])


# Relative accuracy of the Taylor sums: ml_series' target and the
# acceptance of ml_eval's double series.
_SERIES_TOL = 1e-14


def _series_mpmath(p: MLParams, z: Complex, dps: int) -> Complex:
    """The Taylor series at z, summed by special_core._mp_series from dps
    digits up to a rounding below _SERIES_TOL of the value."""
    import mpmath as mp

    def terms():
        zz = mp.mpc(z)
        # The gamma argument must be formed in working precision: rounding
        # alpha*k to a double costs O(1) absolute error at the series peak.
        alpha = mp.mpf(p.alpha)
        beta = mp.mpf(p.beta)
        power = mp.mpc(1)
        for k in range(0, 100000):
            yield power * mp.rgamma(alpha * k + beta)
            power *= zz

    return _mp_series(terms, dps, _SERIES_TOL)


def ml_series(p: MLParams, z: Complex) -> Complex:
    """Taylor series sum_{k>=0} z^k / Gamma(alpha k + beta), summed in
    mpmath (_series_mpmath) from 26 digits up, at a working precision it
    raises until rounding is below 1e-14 of the value; 26 digits are too
    few wherever the terms cancel deeply, and the first pass then measures
    by how much.

    Truncates when the term magnitude stays below 1e-14 |partial sum| for 3
    consecutive terms.  Accuracy domain |z| <= 10; DomainError for a
    non-finite z.
    """
    z = complex(z)
    if not cmath.isfinite(z):
        raise DomainError(f"finite z required, got {z}")
    if abs(z) > 10.0:
        raise AccuracyError(
            f"ml_series accuracy domain is |z| <= 10, got |z| = {abs(z):.3f}"
        )
    if z == 0:
        return reciprocal_gamma(p.beta)
    return _series_mpmath(p, z, 26)


def _series_accepts(ratio: float) -> bool:
    """Whether a double Taylor sum with cancellation ratio `ratio` carries
    relative accuracy _SERIES_TOL: rounding of its large terms costs
    ~eps * ratio."""
    return _EPS * ratio <= 0.1 * _SERIES_TOL


# The largest cancellation ratio _series_accepts passes, widened by 1%
# for the rounding of the running sum: a partial sum whose final ratio is
# bound to exceed this is abandoned.
_SERIES_ABANDON = 1.01 * 0.1 * _SERIES_TOL / _EPS

# Most Taylor terms a sum can take (ConvergenceError past it).
_SERIES_TERMS = 4000


@lru_cache(maxsize=64)
def _taylor_row(a: float, b: float) -> tuple[float, ...]:
    """lgamma(a k + b) for k = 0, 1, ..., the same expression the Taylor
    loop would evaluate, up to the terms a sum at |z| <= SERIES_RADIUS
    reaches: at |z| = SERIES_RADIUS, up to the third term that lies below
    1e-17 of the largest before it or leaves double range.  A sum that
    goes further evaluates its own."""
    log_r = math.log(SERIES_RADIUS)
    row = []
    peak = -math.inf
    past = 0
    for k in range(_SERIES_TERMS):
        row.append(math.lgamma(a * k + b))
        log_size = k * log_r - row[-1]
        peak = max(peak, log_size)
        if log_size < peak - 39.2 or log_size > _LOG_DOUBLE_MAX:  # e^-39.2 < 1e-17
            past += 1
            if past == 3:
                break
    return tuple(row)


def _series_double(p: MLParams, z: Complex) -> tuple[Complex, float]:
    """Double-precision Taylor sum at z != 0 and its cancellation ratio
    (sum of term magnitudes over |sum|), or (nan, inf) once the sum is
    bound to be rejected.

    Rounding of the large intermediate terms caps the achievable relative
    accuracy at ~eps * ratio.  The term sizes m_k = |z|^k/Gamma(alpha k +
    beta) are log-concave in k (lgamma is convex), so once m_k < m_{k-1}
    every later ratio is at most q = m_k/m_{k-1} and the unsummed tail at
    most B = m_k q/(1 - q).  The final majorant is at least M, the one so
    far, and the final |sum| at most |s| + B, s the sum so far; once M
    exceeds _SERIES_ABANDON (|s| + B), the final ratio is bound to exceed
    what _series_accepts passes and the sum stops.  Only a partial ratio
    M/|s| above that bound pays for the test.  The lgamma values come from
    the kept row of (alpha, beta) (_taylor_row); a sum that runs past it
    is summed again with the rest evaluated in place.
    """
    lnz = cmath.log(z)
    row = _taylor_row(p.alpha, p.beta)
    summed = _taylor_sum(lnz, row)
    if summed is None and len(row) < _SERIES_TERMS:
        alpha, beta = p.alpha, p.beta
        rest = (math.lgamma(alpha * k + beta) for k in range(len(row), _SERIES_TERMS))
        summed = _taylor_sum(lnz, chain(row, rest))
    if summed is None:
        raise ConvergenceError(f"ml_series did not converge within {_SERIES_TERMS} terms")
    return summed


def _taylor_sum(lnz: Complex, lgammas: Iterable[float]) -> tuple[Complex, float] | None:
    """_series_double's sum over the terms exp(k log z - lgammas[k]), or
    None where it does not stop within them."""
    # Log-form terms: exp(k log z - lgamma(alpha k + beta)) sidesteps the
    # double-range overflow of z**k that a running product hits near k=300.
    # The running sum serves only the stop tests; the value is fsum_complex.
    # Every name the loop reads is local, and max() is spelled out: this
    # loop is most of ml_eval's Taylor route.
    exp = cmath.exp
    abandon, tol = _SERIES_ABANDON, _SERIES_TOL
    terms = []
    append = terms.append
    s = 0.0 + 0.0j
    majorant = 0.0
    prev = math.inf
    quiet = 0
    for k, lg in enumerate(lgammas):
        term = exp(k * lnz - lg)
        append(term)
        s += term
        size, total = abs(term), abs(s)
        majorant += size
        if majorant > abandon * total and size < prev:
            q = size / prev
            if majorant > abandon * (total + size * q / (1.0 - q)):
                return complex(math.nan, math.nan), math.inf
        prev = size
        if size < tol * (total if total > 1e-300 else 1e-300):
            quiet += 1
            if quiet >= 3:
                break
        else:
            quiet = 0
    else:
        return None
    value = fsum_complex(terms)
    return value, majorant / max(abs(value), 1e-300)


def ml_contour(p: MLParams, z: Complex) -> Complex:
    """E_{alpha,beta}(z) as (2 pi i alpha)^{-1} times the contour integral of
    exp(w^(1/alpha)) w^((1-beta)/alpha) / (w - z), over the contour that
    _contour picks for z, which leaves the pole w = z outside.
    AccuracyError where the arc's largest weight, about
    e^{|z|^(1/alpha) + 1} |z|^((1-beta)/alpha + 1), leaves double range or
    the sum's rounding misses its target (_contour_integral), and
    DomainError for a non-finite z.
    """
    z = complex(z)
    if not cmath.isfinite(z):
        raise DomainError(f"finite z required, got {z}")
    value = _contour_integral(p, cmath.phase(z), abs(z), lambda w: 1.0 / (w - z))
    return value / (2j * math.pi * p.alpha)


def ml_on_ray(p: MLParams, phi: float, r: float) -> Complex:
    """E_{alpha,beta}(r e^{i phi}) for finite r >= 0 by ml_contour.  The
    integrand cancels more as r grows; ml_eval's sector sum is the
    large-argument evaluator.
    """
    if not 0.0 <= r < math.inf:
        raise DomainError(f"finite r >= 0 required, got r = {r}")
    return ml_contour(p, r * cmath.exp(1j * phi))


def hankel_reciprocal_gamma(p: MLParams, shift: float) -> Complex:
    """(2 pi i alpha)^{-1} times the contour integral of
    exp(z^(1/alpha)) z^((1-beta-shift)/alpha) dz, over the contour that
    _contour picks at phi = pi.

    Substituting w = z^(1/alpha) reduces this to the classical reciprocal
    gamma contour integral: the value is 1/Gamma(beta + shift - alpha), so
    shift = alpha gives 1/Gamma(beta) and shift = 0 gives 1/Gamma(beta -
    alpha).
    """
    if not p.beta + shift > 0:
        raise DomainError("beta + shift must be positive")
    shifted = MLParams(p.alpha, p.beta + shift)
    value = _contour_integral(shifted, math.pi, 0.0, np.ones_like)
    return value / (2j * math.pi * p.alpha)


def _wave_branches(alpha: float, phi: float) -> Iterator[tuple[float, float]]:
    """(angle, weight) of each branch angle phi + 2 pi m, m in {-1, 0, 1},
    with |phi + 2 pi m| <= pi alpha: weight 1/2 within 1e-9 of that edge,
    else 1.  The one rule for which exponential terms E carries."""
    for m in (-1, 0, 1):
        ang = phi + 2.0 * math.pi * m
        gap = math.pi * alpha - abs(ang)
        if gap >= -1e-9:
            yield ang, 0.5 if gap <= 1e-9 else 1.0


def _exponential_waves(p: MLParams, z: Complex) -> Complex:
    """Saddle contributions (1/alpha) z_m^((1-beta)/alpha) exp(z_m^(1/alpha))
    summed over the branches z_m = |z| e^{i(arg z + 2 pi m)} that
    _wave_branches gives.

    In the decay sector these are exponentially small but not negligible
    near the sector boundary or for alpha > 1 at moderate |z|; for alpha > 1
    the conjugate branch m = -sign(arg z) enters alongside m = 0.  A branch
    angle exactly on |angle| = pi*alpha takes weight 1/2, which is what
    makes alpha = 1 (where the two boundary branches coincide) come out
    right.  Powers of |z| are formed only for a branch that enters.  In the
    decay sector, where the sector sum runs, every branch has
    cos(angle/alpha) < 0: one whose |z|^(1/alpha) overflows adds e^-inf = 0.
    """
    r = abs(z)
    total = 0.0 + 0.0j
    for ang, weight in _wave_branches(p.alpha, cmath.phase(z)):
        try:
            r_root = r ** (1.0 / p.alpha)
        except OverflowError:
            continue
        root = r_root * cmath.exp(1j * ang / p.alpha)
        if root.real > 700.0:
            raise AccuracyError("exponential wave term overflows")
        total += (
            weight
            * r ** ((1.0 - p.beta) / p.alpha)
            * cmath.exp(1j * ang * (1.0 - p.beta) / p.alpha)
            * cmath.exp(root)
            / p.alpha
        )
    return total


_SECTOR_TERMS = 59

# The sector sum is refused where the term it omits exceeds (1e-15 - eps)
# (M + |wave|), widened by far more than the rounding (below 1e-13
# relative) that separates the sizes it reads from the magnitudes of the
# complex terms.
_SECTOR_REFUSE = (1e-15 - _EPS) * (1.0 + 1e-10)


@lru_cache(maxsize=64)
def _sector_coefficients(a: float, b: float) -> tuple[tuple[Complex, float] | None, ...]:
    """(1/Gamma(b - a k), its size g_k) for k = 1.._SECTOR_TERMS, None for
    a skipped term.

    A term is skipped where its reciprocal gamma lands on a pole zero,
    exactly or up to the rounding of a*k, measured against max(1, |b - a k|)
    so that the pole at 0 is caught too.  Such terms carry no information
    about where the series stops being useful; alpha = 1.3, beta = 0.8,
    k = 6 gives -7.000000000000001, and a term of 1e-21 there would read as
    convergence, as would alpha = 0.4, beta = 2.4, k = 6, which gives
    -4.4e-16."""
    coefficients = []
    for k in range(1, _SECTOR_TERMS + 1):
        arg = b - a * k
        rg = reciprocal_gamma(arg)
        pole = rg == 0 or (arg < 0 and abs(arg - round(arg)) <= 1e-12 * max(1.0, -arg))
        coefficients.append(None if pole else (rg, abs(rg)))
    return tuple(coefficients)


def _sector_sum_adaptive(p: MLParams, z: Complex) -> tuple[Complex, float]:
    """Optimally truncated sector sum plus the exponentially small wave
    terms, with a first-omitted-term error estimate, or (nan, inf) where
    the sum is bound to miss its 1e-15 relative target.  Terms on a gamma
    pole are skipped (see _sector_coefficients).

    One walk over the real sizes |z|^-k g_k fixes the stop: the sum takes
    the sizes up to the first one that rises past the one before it, which
    it omits, or up to the first one below 1e-18 of M, the sum of the sizes
    taken, or up to its last term.  The omitted size is the rising one,
    else the last one taken.  Where it exceeds _SECTOR_REFUSE (M + |wave|),
    and 1e-280, far from where sizes underflow and lose digits, the estimate omitted + eps (M + |wave|) exceeds 1e-15 of the value, at
    most M + |wave|, and (nan, inf) is returned before any complex term is
    formed.  Otherwise the kept terms are formed and summed by
    fsum_complex.  Where every term sits on a gamma pole (alpha = 1 with
    integer beta) the series is exactly zero and the waves are the value.
    """
    coefficients = _sector_coefficients(p.alpha, p.beta)
    wave = _exponential_waves(p, z)
    rinv = 1.0 / abs(z)
    power = 1.0
    omitted = math.inf
    majorant = 0.0
    stop = k = 0
    for c in coefficients:
        k += 1
        power *= rinv
        if c is None:
            continue
        size = power * c[1]
        if size > omitted:
            omitted = size
            break
        majorant += size
        omitted = size
        stop = k
        if size < 1e-18 * (majorant if majorant > 1e-300 else 1e-300):
            break
    if majorant == 0.0 and math.isinf(omitted):
        omitted = 0.0
    bound = majorant + abs(wave)
    if omitted >= 1e-280 and omitted > _SECTOR_REFUSE * bound:
        return complex(math.nan, math.nan), math.inf
    terms = [wave]
    winv = 1.0 / z
    wpow = 1.0 + 0.0j
    for c in coefficients[:stop]:
        wpow *= winv
        if c is not None:
            terms.append(-wpow * c[0])
    return fsum_complex(terms), omitted + _EPS * bound


# Laplace inversion: fixed target and node cap (the target is never
# relaxed), and the largest parabola vertex mu at which rounding of the
# e^mu-sized integrand still meets the target.
_LAPLACE_LOG_TOL = math.log(1e-15)
_LAPLACE_MAX_NODES = 500
_LAPLACE_MU_MAX = _LAPLACE_LOG_TOL - math.log(_EPS)
# Plans key on (alpha, b, gaps): phi values on the ladder 2^(j/_RUNGS)
# (_laplace_gaps); the last _LAPLACE_KEPT plans and weights are kept.
_RUNGS = 8
_LAPLACE_KEPT = 128
_Gaps = tuple[tuple[float, float], ...]


def _parabola_between(
    phi0: float, phi1: float, p0: float
) -> tuple[float, float, int] | None:
    """(mu, h, N) of the cheapest parabola separating singularities with
    phi values phi0 < phi1 (Garrappa 2015, Sec. 4.1, at t = 1); p0 is the
    strength of the left singularity, the right one is a simple pole.  A
    phi1 past the reach of a vertex below _LAPLACE_MU_MAX is planned as at
    that reach.  None when rounding leaves no admissible parabola."""
    log_tol = _LAPLACE_LOG_TOL
    f_max = math.exp(_LAPLACE_MU_MAX)
    sq0 = math.sqrt(phi0)
    sq1 = min(math.sqrt(phi1), 2.0 * math.sqrt(_LAPLACE_MU_MAX) - sq0)
    if p0 < 1e-14:  # only the origin (sq0 = 0) has strength below 1
        f_min = 1.01
    else:
        f_min = max(1.01 * (sq0 + sq1) / (sq1 - sq0) ** max(p0, 1.0), 1.5)
    if f_min >= f_max:
        return None
    f_bar = f_min + f_min / f_max * (f_max - f_min)
    fq = 1.0 / f_bar
    if p0 < 1e-14:
        bar0, bar1 = 0.0, 2.0 * sq1 / (2.0 + fq)
    else:
        fp = f_bar ** (-1.0 / p0)
        w = -sq1 * sq1 / log_tol
        den = 2.0 + w - (1.0 + w) * fp + fq
        bar0 = ((2.0 + w + fq) * sq0 + fp * sq1) / den
        bar1 = (-(1.0 + w) * fq * sq0 + (2.0 + w - (1.0 + w) * fp) * sq1) / den
    log_tol -= math.log(f_bar)
    w = -bar1 * bar1 / log_tol
    mid = (1.0 + w) * bar0 + bar1
    mu = (mid / (2.0 + w)) ** 2
    h = -2.0 * math.pi / log_tol * (bar1 - bar0) / mid
    return mu, h, math.ceil(math.sqrt(1.0 - log_tol / mu) / h)


def _parabola_beyond(phi0: float, p0: float) -> tuple[float, float, int] | None:
    """(mu, h, N) of the cheapest parabola right of every singularity, the
    rightmost having phi value phi0 and strength p0 (Garrappa 2015,
    Sec. 4.2, at t = 1).  None when rounding leaves no admissible one.

    Garrappa's vertex, never below 4.45 (its limit as phi_bar falls to 0),
    lies above _LAPLACE_MU_MAX = 1.50, where it would amplify rounding: the
    vertex is clamped and the parabola pays in nodes.  Of his placement
    only the offset q enters, 0 at the origin's strength 0."""
    log_tol = _LAPLACE_LOG_TOL
    sq_star = math.sqrt(phi0)
    q = 0.0
    if p0 >= 1e-14:
        phi_bar = 1.01 * phi0 if phi0 > 0 else 0.01
        sq_bar = math.sqrt(phi_bar)
        for _ in range(100):
            ratio = log_tol / phi_bar
            n = math.ceil(
                phi_bar / math.pi * (1.0 - 1.5 * ratio + math.sqrt(1.0 - 2.0 * ratio))
            )
            a = math.pi * n / phi_bar
            sq_mu = sq_bar * abs(4.0 - a) / abs(7.0 - math.sqrt(1.0 + 12.0 * a))
            if 1.0 < ((sq_bar - sq_star) / sq_mu) ** (-p0) < 10.0:
                break
            # Move the parabola off the singularity until its error factor
            # lands in (1, 10), aiming at 5.
            sq_bar = 5.0 ** (-1.0 / p0) * sq_mu + sq_star
            phi_bar = sq_bar * sq_bar
        else:
            return None
        q = 5.0 ** (-1.0 / p0) * sq_mu
    if (q + sq_star) ** 2 >= _LAPLACE_MU_MAX:
        return None
    log_eps = math.log(_EPS)
    w = math.sqrt(log_eps / (log_eps - log_tol))
    u = math.sqrt(-((q + sq_star) ** 2) / log_eps)
    n = math.ceil(w * log_tol / (2.0 * math.pi) / (u * w - 1.0))
    return _LAPLACE_MU_MAX, w / n, n


def _laplace_poles(a: float, z: Complex) -> list[tuple[float, Complex]]:
    """(phi(s*), s*) of the poles s* = |z|^(1/a) e^{i(arg z + 2 pi k)/a} of
    s^(a-b)/(s^a - z) in the principal sheet, z != 0, by increasing phi.
    phi(s) = (Re s + |s|)/2 = (Re sqrt(s))^2: s lies left of the parabola
    with vertex mu exactly when phi(s) < mu."""
    theta = cmath.phase(z)
    try:
        root = abs(z) ** (1.0 / a)
    except OverflowError:
        raise AccuracyError(f"|z|^(1/alpha) leaves double range at z = {z}, alpha = {a}") from None
    poles = []
    for k in range(math.ceil(-a / 2 - theta / (2 * math.pi)),
                   math.floor(a / 2 - theta / (2 * math.pi)) + 1):
        ang = (theta + 2.0 * math.pi * k) / a
        phi = root * math.cos(ang / 2.0) ** 2
        if phi > 1e-15:
            poles.append((phi, root * cmath.exp(1j * ang)))
    return sorted(poles, key=lambda q: q[0])


def _on_ladder(phi: float, up: bool) -> float:
    """phi > 0 rounded up or down onto the ladder 2^(j/_RUNGS)."""
    step = 1 if up else -1
    j = (math.ceil if up else math.floor)(_RUNGS * math.log2(phi))
    while step * (2.0 ** (j / _RUNGS) - phi) < 0.0:  # log2 rounded across a rung
        j += step
    return 2.0 ** (j / _RUNGS)


def _laplace_gaps(phis: list[float]) -> _Gaps:
    """The gaps (lo, hi) between the origin (phi 0), the poles' increasing
    phi values and infinity, planned inside the true ones: lo rounded up
    and hi down onto the ladder (_on_ladder), the origin and infinity kept.
    A gap that the rounding would close keeps its exact ends.  The gaps
    stop before the first with lo >= _LAPLACE_MU_MAX, where no parabola
    has its vertex."""
    gaps = []
    for lo, hi in zip([0.0] + phis, phis + [math.inf]):
        lo_r = _on_ladder(lo, True) if lo > 0.0 else lo
        hi_r = _on_ladder(hi, False) if hi < math.inf else hi
        gap = (lo_r, hi_r) if lo_r < hi_r else (lo, hi)
        if gap[0] >= _LAPLACE_MU_MAX:
            break
        gaps.append(gap)
    return tuple(gaps)


@lru_cache(maxsize=_LAPLACE_KEPT)
def _laplace_parabola(a: float, b: float, gaps: _Gaps) -> tuple[int, float, float, int] | None:
    """(j, mu, h, N) of the cheapest parabola for E_{a,b} in one of the
    gaps of _laplace_gaps, the j-th, whatever its N; None when rounding
    leaves none.  The origin (gap 0's left end) has strength 2(b - a - 1)
    when positive; every pole is simple."""
    best = None
    for j, (lo, hi) in enumerate(gaps):
        if not (lo < _LAPLACE_MU_MAX and lo < hi):
            continue
        strength = max(0.0, 2.0 * (b - a - 1.0)) if j == 0 else 1.0
        if hi < math.inf:
            cand = _parabola_between(lo, hi, strength)
        else:
            cand = _parabola_beyond(lo, strength)
        if cand is not None and (best is None or cand[2] < best[3]):
            best = (j,) + cand
    return best


def _laplace_route(p: MLParams, z: Complex) -> tuple[int, float, _Gaps, tuple[Complex, ...]]:
    """(m, b, gaps, poles): the plan key (alpha, b = beta - m alpha, gaps)
    of E_{a,b}(z) for the smallest m >= 0 whose parabola has at most
    _LAPLACE_MAX_NODES nodes a side, and the poles right of that parabola.

    Each step of E_{a,b}(z) = (E_{a,b-a}(z) - 1/Gamma(b-a))/z lowers the
    strength 2(b - a - 1) of the origin singularity by 2a, so a strong
    origin (beta > alpha + 1), which can leave no admissible parabola,
    moves to a weaker one.  ConvergenceError when no step helps.
    """
    poles = _laplace_poles(p.alpha, z)
    gaps = _laplace_gaps([q[0] for q in poles])
    b = p.beta
    steps = 0
    while True:
        plan = _laplace_parabola(p.alpha, b, gaps)
        if plan is not None and plan[3] <= _LAPLACE_MAX_NODES:
            return steps, b, gaps, tuple(q[1] for q in poles[plan[0]:])
        if b <= p.alpha + 1.0:
            raise ConvergenceError(
                f"no parabola meets the 1e-15 target for E_{{{p.alpha},"
                f"{p.beta}}}({z}) within {_LAPLACE_MAX_NODES} nodes"
            )
        b -= p.alpha
        steps += 1


def _laplace_step(h: float, n: int) -> tuple[int, float, int]:
    """(k, h_k, N_k): h rounded down onto the ladder h_k = 2^(-k/4),
    k = ceil(-4 log2 h), and N_k = ceil(h N/h_k) nodes a side, so that
    h_k <= h and h_k N_k >= h N (neither error of the trapezoid sum
    grows)."""
    k = math.ceil(-4.0 * math.log2(h))
    if 2.0 ** (-k / 4.0) > h:  # log2 rounded across an integer
        k += 1
    h_k = 2.0 ** (-k / 4.0)
    n_k = math.ceil(h * n / h_k)
    if h_k * n_k < h * n:
        n_k += 1
    return k, h_k, n_k


@lru_cache(maxsize=_LAPLACE_KEPT)
def _laplace_weights(a: float, b: float, gaps: _Gaps) -> tuple[np.ndarray, np.ndarray]:
    """Read-only weights (c, d) on the parabola s = mu T, T = (1 + iu)^2,
    of _laplace_parabola's plan, at its ladder nodes u_j = h_k j, |j| <=
    N_k (_laplace_step): c = h_k mu^(a-b+1) e^{mu T} W/(2 pi i), W =
    (1 + iu)^(2(a-b)) 2(i - u), and d = mu^a P, P = (1 + iu)^(2a), from one
    complex log (principal: arg T = 2 atan u lies in (-pi, pi))."""
    _, mu, h, n = _laplace_parabola(a, b, gaps)
    _, h_k, n_k = _laplace_step(h, n)
    u = h_k * np.arange(-n_k, n_k + 1)
    one_iu = 1.0 + 1j * u
    log_one_iu = np.log(one_iu)
    scale = h_k * mu ** (a - b + 1.0) / (2j * math.pi)
    c = np.exp(mu * one_iu * one_iu + 2.0 * (a - b) * log_one_iu) * (2.0 * (1j - u)) * scale
    d = mu**a * np.exp(2.0 * a * log_one_iu)
    c.flags.writeable = d.flags.writeable = False
    return c, d


def _ml_laplace(p: MLParams, z: Complex) -> Complex:
    """E_{alpha,beta}(z), z != 0, by inverting its Laplace transform
    s^(alpha-beta)/(s^alpha - z) with the trapezoid rule on the optimal
    parabola s = mu (1 + iu)^2 (Garrappa, SIAM J. Numer. Anal. 53 (2015);
    contours after Weideman & Trefethen, Math. Comp. 76 (2007)).

    The poles s* right of the parabola enter through their residues
    (1/alpha) s*^(1-beta) e^{s*}.  The parabola (mu, h, N) is chosen for
    the fewest nodes at absolute accuracy about 1e-15 relative to the
    integrand scale (see _laplace_route for beta > alpha + 1), with
    Garrappa's N capped at _LAPLACE_MAX_NODES, in the gaps between the
    singularities' phi values with each left end rounded up and each right
    end down onto the ladder 2^(j/_RUNGS) (_laplace_gaps): the planned gap
    lies inside the true one, so Garrappa's error bound holds for the true
    singularities, and nearby points share a plan.  Its step is rounded
    down onto the ladder 2^(-k/4) (_laplace_step).  The plan and its
    weights c, d are kept for the last _LAPLACE_KEPT (alpha, b, gaps) keys;
    N_k <= ceil(2^(1/4) 500) = 595, so a key holds at most 1,191 nodes x 2
    complex arrays (38 KB), 4.9 MB in all.  A call is the sum of
    c/(d - z), one division per node.  The kept tables are pure functions
    of their keys: a cold and a warm cache give the same bits.
    ConvergenceError when no parabola meets the target within the cap,
    AccuracyError when E leaves double range.
    """
    steps, b, gaps, poles = _laplace_route(p, z)
    a = p.alpha
    c, d = _laplace_weights(a, b, gaps)
    value = complex((c / (d - z)).sum())
    try:
        for s_star in poles:
            value += s_star ** (1.0 - b) * cmath.exp(s_star) / a
    except OverflowError:
        raise AccuracyError(
            f"residue e^{{s*}} at Re s* = {s_star.real:.1f} leaves double range"
        ) from None
    for _ in range(steps):
        value = (value - reciprocal_gamma(b)) / z
        b += a
    if not cmath.isfinite(value):
        raise AccuracyError(f"E_{{{p.alpha},{p.beta}}}({z}) leaves double range")
    return value


def ml_eval(p: MLParams, z: Complex | np.ndarray) -> Complex | np.ndarray:
    """E_{alpha,beta}(z) at a complex z, in both sectors, by one rule:

    - z = 0: 1/Gamma(beta).
    - |z| <= SERIES_RADIUS: the double Taylor series, where its
      cancellation guard accepts.  A sum stops as soon as a bound on its
      unsummed tail shows the guard must reject it (_series_double), so a
      point that goes on to Laplace inversion pays little for the try.
    - |z| > SERIES_RADIUS in the decay sector |arg z| > pi alpha/2: the
      truncated sector sum with its exponentially small wave terms, where
      its error estimate (first omitted term plus rounding) is at most
      1e-15 |value|, a bound relative to E.  A sum that the sizes of its
      terms, from |z| alone, show must miss that bound returns (nan, inf)
      before any complex term is formed (_sector_sum_adaptive); such a
      point goes straight to Laplace inversion.
    - Everywhere else: Laplace inversion on Garrappa's optimal parabola
      (2015) with a node cap, to a fixed 1e-15 absolute on its integrand's
      scale (not relative to |E|), planned in the singularities' gaps
      rounded inward onto 2^(j/8); the last 128 plans are kept with their
      weights, at most 4.9 MB.  No parabola within the cap raises
      ConvergenceError; a value outside double range, AccuracyError.

    Accuracy: ~5e-14 relative against independent values wherever |E| is
    algebraic in 1/|z|, whichever route serves the point.  Only E_{1,1} =
    exp, whose algebraic part vanishes, sinks below Laplace inversion's
    absolute floor (~1e-17) in the decay sector; past SERIES_RADIUS the
    sector sum returns it as its wave term, to rounding.

    E is real on the real axis, and a real z gets an exactly real value.
    An ndarray z gives an ndarray of its shape holding, entry by entry, the
    value at that entry as a complex.  A non-finite z, or entry, raises
    DomainError.
    """
    if isinstance(z, np.ndarray):
        values = (ml_eval(p, v) for v in z.flat)
        return np.fromiter(values, complex, z.size).reshape(z.shape)
    z = complex(z)
    if not cmath.isfinite(z):
        raise DomainError(f"finite z required, got {z}")
    value = _ml_rule(p, z)
    # Each route rounds in complex arithmetic, which leaves an imaginary
    # part of rounding size where E is real.
    return complex(value.real, 0.0) if z.imag == 0.0 else value


def _ml_rule(p: MLParams, z: Complex) -> Complex:
    """ml_eval's rule at a complex z."""
    if z == 0:
        return reciprocal_gamma(p.beta)
    if abs(z) <= SERIES_RADIUS:
        try:
            value, ratio = _series_double(p, z)
        except OverflowError:  # a Taylor term leaves double range
            ratio = math.inf
        if _series_accepts(ratio):
            return value
    elif abs(cmath.phase(z)) > math.pi * p.alpha / 2.0:
        value, err = _sector_sum_adaptive(p, z)
        if err <= 1e-15 * abs(value):
            return value
    return _ml_laplace(p, z)

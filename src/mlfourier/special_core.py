"""Complex gamma functions, principal powers, and reusable quadrature engines.

Everything here is plumbing shared by the higher-level modules: the gamma
pair (scipy.special.gamma behind pole and range checks), principal-branch
powers, adaptive quadrature on a finite interval with an error estimate
(the tests' independent reference), Gauss-Legendre rules, batched tanh-sinh
quadrature over many panels of a vectorised integrand, exactly rounded
complex sums (math.fsum on each part), the one least-squares line of the
fits, the self-verifying precision
ladder of the mpmath series references, and a sequence-acceleration
engine for slowly convergent oscillatory chunk sums.

The adaptive engine, the accelerator and the contour sums' rounding guard
work to one fixed target, absolute 1e-12 or relative 1e-10, and the
tanh-sinh panels to a thousandth of it, the absolute part scaled by the
size the caller expects; none takes a tolerance.

Only the references reach scipy.integrate and mpmath, so neither is
imported with the package: QUADPACK (quad, through which integrate_finite
calls it) and tanhsinh (integrate_panels) load on their first call, and
mpmath on the first series the precision ladder sums.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np
from scipy.special import gamma

from .errors import AccuracyError, ConvergenceError, DegenerateFitError, DomainError, PoleError

# The library works in IEEE doubles; Python's built-in complex carries the
# re/im pair everywhere.
Complex = complex

_EPS = 2.220446049250313e-16

# The one target of integrate_finite, accelerated_limit and the contour
# sums: an error of at most max(_ABS_TOL, _REL_TOL * |value|).
_ABS_TOL = 1e-12
_REL_TOL = 1e-10
# The target of integrate_panels, a thousandth of the one above, because
# the split transform's panel errors add up and its 2 pi/|xi|^n scaling
# magnifies them: at the engines' own target the n = 3, sigma = 2.2
# transform at |xi| ~ 100 lost 1.4 digits against an independent
# Mellin-Barnes value.  Much lower is past what tanh-sinh can certify: an
# absolute 1e-18 failed with an estimate of 1.1e-17 on the panel [1.5, 2]
# there.
_PANEL_ABS_TOL = 1e-15
_PANEL_REL_TOL = 1e-13
# Aitken passes (Shanks depth) of accelerated_limit, and the number of
# consecutive estimates within the target that ends it.
_AITKEN_ORDER = 6
_STAGNATION = 3


class IntegralResult(NamedTuple):
    value: Complex
    error: float


def fsum_complex(terms: Iterable[Complex]) -> Complex:
    """Sum of complex terms, math.fsum (Shewchuk, Discrete Comput. Geom.
    18, 1997) of the real parts and of the imaginary parts: each part is
    the exactly rounded sum of its terms.  math.fsum is handed lists, which
    it walks faster than generators."""
    if not isinstance(terms, list):
        terms = list(terms)
    return complex(math.fsum([t.real for t in terms]), math.fsum([t.imag for t in terms]))


def _mp_series(
    terms: Callable[[], Iterable[mp.mpc]], dps: int, target: float
) -> Complex:
    """Sum of the mpmath series that terms() yields, at a working precision
    raised until rounding is below target of the value.

    Each pass sums at dps digits until 3 consecutive terms fall below
    target |sum|, then accepts when the residual floor of that precision,
    10^(3-dps) times the sum of |term|, is at most target |sum|.  Otherwise
    the terms cancelled too deeply: the pass measures by how much, and the
    next one runs at max(log10(sum of |term| / |sum|) + 26, 2 dps) digits,
    at most 1200.  AccuracyError after 8 passes.
    """
    import mpmath as mp

    for _attempt in range(8):
        with mp.workdps(dps):
            acc = mp.mpc(0)
            majorant = mp.mpf(0)
            quiet = 0
            for term in terms():
                acc += term
                majorant += abs(term)
                if abs(term) < target * abs(acc):
                    quiet += 1
                    if quiet >= 3:
                        break
                else:
                    quiet = 0
            floor = mp.mpf(10) ** (3 - dps) * majorant
            if floor <= target * abs(acc):
                return complex(acc)
            needed = int(mp.log10(majorant / abs(acc))) + 26
        dps = min(max(needed, 2 * dps), 1200)
    raise AccuracyError(
        "series cancellation exceeds the supported precision range"
    )


def _ensure_finite(value: Complex, what: str) -> Complex:
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise AccuracyError(f"{what} produced a non-finite value {value!r}")
    return value


def _is_nonpositive_integer(z: Complex) -> bool:
    return z.imag == 0.0 and z.real <= 0.0 and z.real == math.floor(z.real)


def _gamma(z: Complex) -> Complex:
    # Real arguments take scipy's real routine: its complex routine differs
    # from it by a few ulp on the real axis.
    return complex(gamma(z.real if z.imag == 0.0 else z))


def complex_gamma(z: Complex) -> Complex:
    """Gamma function on the complex plane, poles excluded.

    Relative error <= 1e-13 for |z| <= 50; AccuracyError where Gamma leaves
    double range.
    """
    z = complex(z)
    if _is_nonpositive_integer(z):
        raise PoleError(f"gamma pole at z = {z}")
    return _ensure_finite(_gamma(z), "complex_gamma")


def reciprocal_gamma(z: Complex) -> Complex:
    """Entire function 1/Gamma(z); exactly 0 at nonpositive integers.

    Underflows gracefully to 0 when Gamma(z) exceeds double range; raises
    AccuracyError when Gamma(z) underflows and 1/Gamma(z) would overflow.
    """
    z = complex(z)
    if _is_nonpositive_integer(z):
        return 0.0 + 0.0j
    g = _gamma(z)
    if g == 0.0:
        raise AccuracyError(
            f"reciprocal_gamma overflows double range at z = {z}"
        )
    if not (math.isfinite(g.real) and math.isfinite(g.imag)):
        return 0.0 + 0.0j
    return 1.0 / g


def principal_pow(z: Complex, w: Complex) -> Complex:
    """z**w on the principal branch, arg z in (-pi, pi]."""
    z = complex(z)
    w = complex(w)
    if z == 0:
        if w.real > 0.0 and w.imag == 0.0:
            return 0.0 + 0.0j
        raise DomainError("0**w defined here only for real w with Re w > 0")
    log_z = complex(math.log(abs(z)), cmath.phase(z))
    return _ensure_finite(cmath.exp(w * log_z), "principal_pow")


def quad(*args, **kwargs):
    """scipy.integrate.quad, imported on the first call: only the
    references integrate by QUADPACK."""
    from scipy.integrate import quad as quadpack

    return quadpack(*args, **kwargs)


def integrate_finite(
    f: Callable[[float], Complex],
    a: float,
    b: float,
    points: Sequence[float] | None = None,
) -> IntegralResult:
    """Adaptive quadrature of a complex-valued integrand on [a, b].

    Returns the value together with an error estimate; raises
    ConvergenceError when QUADPACK flags its result (subdivision budget
    exhausted, roundoff, extrapolation breakdown) and the error estimate
    exceeds the tolerance max(_ABS_TOL, _REL_TOL * |result|).
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise DomainError("integrate_finite requires finite endpoints")
    # quad integrates the real and imaginary parts separately; a value cache
    # avoids recomputing f where the two adaptive passes share nodes.
    cached = lru_cache(maxsize=None)(f)
    kwargs: dict = {
        "epsabs": 0.5 * _ABS_TOL,
        "epsrel": 0.5 * _REL_TOL,
        "limit": 200,  # subintervals per adaptive pass
        "full_output": 1,
    }
    interior = [p for p in points or () if a < p < b]
    if interior:
        kwargs["points"] = interior
    out_re = quad(lambda x: cached(x).real, a, b, **kwargs)
    out_im = quad(lambda x: cached(x).imag, a, b, **kwargs)
    value = complex(out_re[0], out_im[0])
    err = out_re[1] + out_im[1]
    tol = max(_ABS_TOL, _REL_TOL * abs(value))
    for out in (out_re, out_im):
        # with full_output, quad appends a message exactly when QUADPACK
        # flags its own result (ier != 0): subdivision budget, roundoff,
        # bad integrand behaviour or a failing extrapolation table
        if len(out) >= 4 and err > tol:
            reason = " ".join(out[3].split(".")[0].split())
            raise ConvergenceError(
                f"quadrature: {reason}; error estimate {err:.3e} exceeds "
                f"tolerance {tol:.3e}"
            )
    return IntegralResult(_ensure_finite(value, "quadrature"), err)


@lru_cache(maxsize=None)
def gauss_legendre_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on [-1, 1], cached per order and read-only."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    for arr in (nodes, weights):
        arr.flags.writeable = False  # shared by every caller through the cache
    return nodes, weights


def line_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """(slope, intercept) of the least-squares line y = slope x + intercept
    through the points (x, y), in closed form about the means:
    slope = sum (x - mean x)(y - mean y) / sum (x - mean x)^2.  Centring
    keeps the sums free of the cancellation the normal equations in x and
    x^2 suffer.  DegenerateFitError unless every x and y is finite and the
    x are not all equal."""
    x_mean = x.sum() / x.size
    y_mean = y.sum() / y.size
    dx = x - x_mean
    sxx = (dx * dx).sum()
    # An x that is not finite makes every dx, so sxx, nan or infinite, and
    # a y that is not finite makes y_mean so.
    if not (0.0 < sxx < math.inf and math.isfinite(y_mean)):
        raise DegenerateFitError(
            "a least-squares line needs finite samples and two distinct x"
        )
    slope = float((dx * (y - y_mean)).sum() / sxx)
    return slope, float(y_mean - slope * x_mean)


def integrate_panels(
    f: Callable[..., np.ndarray],
    a: np.ndarray,
    b: np.ndarray,
    scale: float,
    args: tuple = (),
) -> np.ndarray:
    """Tanh-sinh quadrature (Takahasi & Mori 1974) of a vectorised
    integrand over the panels [a_i, b_i], all in one
    scipy.integrate.tanhsinh call.

    f(x, *args) takes a float array of abscissae, one row per panel that has
    not converged yet (args filtered to the same rows), and returns the
    integrand there.  Each panel stops once its error estimate is below
    _PANEL_ABS_TOL * scale, scale being the size the caller expects of the
    integrals, or _PANEL_REL_TOL times its own value; ConvergenceError when
    a panel misses that within tanhsinh's level budget, as for QUADPACK.
    """
    from scipy.integrate import tanhsinh

    res = tanhsinh(
        lambda x, *rest: f(x.real, *rest),
        a,
        b,
        args=args,
        atol=_PANEL_ABS_TOL * scale,
        rtol=_PANEL_REL_TOL,
    )
    if np.any(res.status != 0):
        bad = int(np.flatnonzero(res.status != 0)[0])
        raise ConvergenceError(
            f"tanh-sinh quadrature: status {int(res.status[bad])} on panel "
            f"[{a[bad]:.6g}, {b[bad]:.6g}], error estimate "
            f"{abs(res.error[bad]):.3e}"
        )
    integral = res.integral
    if not np.all(np.isfinite(integral)):
        raise AccuracyError("tanh-sinh quadrature produced a non-finite value")
    return integral


def _aitken(s0: Complex, s1: Complex, s2: Complex) -> Complex:
    d1 = s1 - s0
    d2 = s2 - 2.0 * s1 + s0
    scale = abs(s0) + abs(s1) + abs(s2)
    if abs(d2) <= 1e3 * _EPS * scale:
        # Already converged at this depth; carry the latest value.
        return s2
    return s0 - d1 * d1 / d2


def accelerated_limit(
    terms: Iterable[Complex], max_terms: int = 500
) -> tuple[Complex, float, int]:
    """Limit of sum(terms) by iterated Aitken acceleration of partial sums.

    At most _AITKEN_ORDER = 6 Aitken passes (Shanks depth).  The iteration
    stops once _STAGNATION = 3 consecutive accelerated estimates agree within
    max(_ABS_TOL, _REL_TOL * |estimate|); there is no upper truncation of the
    series before acceleration.  ConvergenceError after max_terms terms.
    Returns (limit, error_estimate, terms_used).
    """
    # columns[d] is the partial-sum sequence after d Aitken passes.  Each
    # new partial sum extends every column by one entry, built from the
    # last three of the column before: O(_AITKEN_ORDER) work per term.
    # The partial sums feed only the Aitken table, whose target is far
    # above their rounding: a plain running sum.
    columns: list[list[Complex]] = [[]]
    partial = 0.0 + 0.0j
    estimates: list[Complex] = []
    quiet = 0
    n_used = 0
    for term in terms:
        n_used += 1
        partial += term
        columns[0].append(partial)
        for d in range(1, _AITKEN_ORDER + 1):
            prev = columns[d - 1]
            if len(prev) < 3:
                break
            if d == len(columns):
                columns.append([])
            columns[d].append(_aitken(prev[-3], prev[-2], prev[-1]))
        depth = min(_AITKEN_ORDER, (n_used - 1) // 2)
        est = columns[depth][-1]
        estimates.append(est)
        if len(estimates) >= 2:
            diff = abs(estimates[-1] - estimates[-2])
            if diff <= max(_ABS_TOL, _REL_TOL * abs(est)):
                quiet += 1
                if quiet >= _STAGNATION and n_used >= 2 * depth + 3:
                    err = max(diff, abs(term))
                    return est, err, n_used
            else:
                quiet = 0
        if n_used >= max_terms:
            raise ConvergenceError(
                f"sequence acceleration stagnated after {max_terms} terms"
            )
    # Series itself was finite: the plain sum is exact.
    if not n_used:
        return 0.0 + 0.0j, 0.0, 0
    return columns[0][-1], abs(columns[0][-1] - estimates[-1]), n_used

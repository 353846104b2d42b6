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
is at most 1e-15 of the sum, and the line integral everywhere else.  At
small xi, where u = -sigma log(pi xi) passes a bound u_1 set by the
coefficients, the series sums no term and is not computed.  The line is
the trapezoid rule with the step set by the distance to the poles
(Trefethen & Weideman, SIAM Rev. 56 (2014)), rounded onto a ladder; its
equispaced nodes split each point's phase sum into baby and giant steps
(Paterson & Stockmeyer, SIAM J. Comput. 2 (1973)).  K does not depend on
xi, only (pi xi)^s does (Talman, J. Comput. Phys. 29 (1978)).  So each
problem has one plan, built on its first call and kept for the last 64
problems: the series' coefficients and u_1, whether E's exponential term
enters the series' estimate, and each line's c, d, step ladder and the
bounds on |log pi xi| of its rungs; and the kernels of the lines and steps
used most recently are kept, up to 2^20 stored nodes (16 MiB) in all, in
the form the phase sums read.  A call reads its route, series or line,
which line and which rung, from its extremes of log(pi xi), and computes
only the exponentials and sums that depend on xi; a new process starts
with no plan.  Every public function takes a float xi or an ndarray of
them; each point's value is computed by the same arithmetic whatever the
other points are, and whatever was computed before.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from functools import lru_cache
from typing import NamedTuple

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
# Steps are rounded down onto h_base 2^(-k/_RUNGS), h_base = 2 pi d/40, so
# that points of a grid share steps, and so kernel values.
_RUNGS = 4
# Nodes stop once the integrand has fallen below 1e-18 of its peak.
_TAIL_EFOLDS = 41.5
_MAX_NODES = 2**20

# Points per block of the residue series' (points x terms) arrays.
_SERIES_ROWS = 128
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


def _wave(tp) -> tuple[float, float] | None:
    """(p, gamma) of E's exponential term on the profile (_log_wave_size),
    None where the problem has none: |phi| >= pi alpha, or a saddle off the
    principal sheet."""
    p = tp.sigma / tp.alpha
    delta = abs(tp.phi) / tp.alpha - 0.5 * math.pi
    gamma = delta / (p - 1.0) if p > 1.0 else math.inf
    if delta >= 0.5 * math.pi or gamma >= math.pi:
        return None
    return p, gamma


def _log_wave_size(tp, xi: np.ndarray) -> np.ndarray:
    """log of the size of the transform of E's exponential term, which the
    residue series does not contain, at each xi, for a problem that has
    one (_wave).

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
    p, gamma = _wave(tp)
    log_r = np.log(2.0 * math.pi * xi / p) / (p - 1.0)
    r = np.exp(np.minimum(log_r, 700.0))
    size = (
        math.log(2.0 * math.pi / tp.alpha)
        + (1.0 - 0.5 * tp.n) * np.log(xi)
        - 2.0 * math.pi * xi * (1.0 - 1.0 / p) * r * math.sin(gamma)
        - 0.5 * np.log(2.0 * math.pi ** 2 * xi)
        + 0.5 * math.log(2.0 * math.pi / (p * (p - 1.0)))
        + (tp.sigma * (1.0 - tp.beta) / tp.alpha + 0.5 * tp.n - 0.5 * p + 0.5) * log_r
    )
    return np.where(log_r > 700.0, -math.inf, size)


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


class _Plan(NamedTuple):
    """What mellin_transform computes of a problem that does not depend on
    xi (_series_coefficients)."""

    k_less_1: np.ndarray  # k - 1 for k = 1..256
    rel_env: np.ndarray  # log_env[k] - log_env[0] of the residue envelopes
    signed: np.ndarray  # the terms' signed factors -sin(pi k sigma/2) e^{ik phi}
    scale: float  # exp(log_env[0])
    pi_n: float  # pi^(-n/2)
    u_1: float
    has_wave: bool  # whether E's exponential term enters the estimate
    left: _Line  # c = -sigma/2, for 2 pi xi >= 1
    right: _Line  # c = 0.6 s_1 (_right_pole), below


def _right_pole(tp) -> float:
    """s_1, the nearest pole of K right of s = 0 with a residue: s = m sigma
    for the first m with beta - alpha m not in {0, -1, -2, ...} (elsewhere
    the zero of 1/Gamma(beta - alpha s/sigma) cancels the pole of
    1/sin(pi s/sigma)), or s = n, whichever is smaller.  No m past
    ceil(n/sigma) comes before s = n, and at alpha = 1 with integer beta no
    m sigma has a residue at all."""
    for m in range(1, math.ceil(tp.n / tp.sigma) + 1):
        b = tp.beta - tp.alpha * m
        if b > 0.0 or b != math.floor(b):
            return min(m * tp.sigma, float(tp.n))
    return float(tp.n)


@lru_cache(maxsize=64)
def _series_coefficients(tp) -> _Plan:
    """The problem's plan: the residue series' 256 coefficients, u_1, and
    the lines' c, d and step ladders; nothing here depends on xi.

    With A_k = log_env[k] - log_env[0] and u = -sigma log(pi xi), the k-th
    envelope relative to the first is exp(A_k + u (k - 1)).  For u > u_1 =
    max_{k>=2} (-A_k/(k - 1)) + 1 every one of them exceeds e, so the
    smallest envelope is the first and the series sums no term; the e-fold
    margin is far above the exponent's rounding.  Where sin(pi sigma/2) = 0
    every term is 0, and u_1 = -inf.
    """
    k = np.arange(1.0, _SERIES_TERMS + 1.0)
    log_env, sin = _log_envelopes(tp, k)
    k_less_1 = k - 1.0
    rel_env = log_env - log_env[0]
    signed = -sin * _phases(tp, k)
    _read_only(k_less_1, rel_env, signed)
    upper = _right_pole(tp)
    c_left, c_right = -0.5 * tp.sigma, 0.6 * upper
    return _Plan(
        k_less_1=k_less_1,
        rel_env=rel_env,
        signed=signed,
        scale=math.exp(log_env[0]),
        pi_n=math.pi ** (-0.5 * tp.n),
        u_1=-math.inf if sin[0] == 0.0 else float(np.max(-rel_env[1:] / k_less_1[1:]) + 1.0),
        has_wave=_wave(tp) is not None,
        left=_line_plan(c_left, min(c_left + tp.sigma, upper - c_left)),
        right=_line_plan(c_right, min(c_right + tp.sigma, upper - c_right)),
    )


def _points(xi) -> tuple[np.ndarray, np.ndarray]:
    """xi as a 1-D float array, and log(pi xi), which the series and the
    line share."""
    x = np.asarray(xi, dtype=float).reshape(-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        return x, np.log(math.pi * x)


def _series(tp, xi: np.ndarray, log_pi_xi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """residue_series on a 1-D array, _SERIES_ROWS points at a time; points
    past u_1 (_series_coefficients) sum no term and are not computed."""
    plan = _series_coefficients(tp)
    values = np.zeros(xi.size, complex)
    errs = np.full(xi.size, math.inf)
    live = np.flatnonzero(~(-tp.sigma * log_pi_xi > plan.u_1))
    for lo in range(0, live.size, _SERIES_ROWS):
        at = live[lo:lo + _SERIES_ROWS]
        x, log_x = xi[at], -tp.sigma * log_pi_xi[at]
        rows = np.arange(x.size)
        # Envelopes relative to the k = 1 one, which carries the scale
        # through exact powers: the large logs of small (pi xi)^(-k sigma)
        # only enter terms that they make small.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            envelope = np.exp(plan.rel_env + np.multiply.outer(log_x, plan.k_less_1))
            stop = np.argmin(envelope, axis=1)
            terms = np.where(plan.k_less_1 < stop[:, None], plan.signed * envelope, 0.0)
            total = terms.sum(axis=1)
            value = plan.scale * (math.pi * x) ** -tp.sigma * plan.pi_n * x ** -tp.n * total
            err = (envelope[rows, stop] + _EPS * np.abs(terms).sum(axis=1)) / np.abs(total)
            if plan.has_wave:
                wave = _log_wave_size(tp, x) - np.log(np.abs(value))
                err += _WAVE_MARGIN * np.exp(np.minimum(wave, 0.0))
            else:  # the wave term would add 10 e^(-inf - log|value|): nan at 0 or nan
                err[~(np.abs(value) > 0.0)] = math.nan
        summed = (total != 0.0) & np.isfinite(np.abs(total))
        values[at] = np.where(summed, value, 0.0)
        errs[at] = np.where(summed, err, math.inf)
    return values, errs


def residue_series(tp, xi):
    """The residue series at |xi| = xi and its relative error estimate: a
    (complex, float) pair for a float xi, a pair of arrays of xi's shape
    for an ndarray.  Every point, and every later call on tp, shares the
    problem's plan (_series_coefficients): the 256 coefficients, u_1 and
    whether E's exponential term enters the estimate.

    Near k sigma/2 = integer a term is small for its sin(pi k sigma/2)
    factor alone, so truncation follows the envelope |c_k/sin(pi k sigma/2)|
    (pi xi)^(-k sigma) instead: the terms are summed up to, not including,
    the smallest envelope among the first 256.  The estimate is that
    envelope, which bounds the first omitted term, plus eps times the sum of
    the magnitudes summed, both relative to |sum|, plus ten times the
    relative size of E's exponential term (_log_wave_size), which no term
    of the series carries.  It is inf where the sum is 0, as for
    even-integer sigma, where every term vanishes, and for xi so small
    that -sigma log(pi xi) passes u_1 (_series_coefficients): there every
    envelope is more than e times the first, so no term is summed, and
    none is computed.
    """
    values, errs = _series(tp, *_points(xi))
    return _like(xi, values), _like(xi, errs)


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
    right of s = 0 with a residue (_right_pole): min(sigma, n) unless
    1/Gamma(beta - alpha) = 0 cancels the pole at s = sigma.  So the line
    sits left at large xi and right at small xi: c = -sigma/2 for
    2 pi xi >= 1 and c = 0.6 s_1 below.  s = 0 is not a pole, since
    1/Gamma(s/2) vanishes there; the poles nearest the strip are s = -sigma
    and s = s_1.  The step keeps exp(-2 pi d/h) below 1e-17 of the
    integrand on the strip of half-width d, the distance from c to those
    poles, h <= 2 pi d/(40 + d |log pi xi|), rounded down onto the ladder
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
    under any number of BLAS threads.
    """
    return _like(xi, _line(tp, *_points(xi)))


def mellin_transform(tp, xi):
    """The transform at |xi| = xi: the residue series where its error
    estimate is at most 1e-15 relative, else the line integral.  A float xi
    gives a complex, an ndarray an array of its shape; each point's value
    is the same, bit for bit, whatever the other points of the array.
    Where the series can sum no term at any point, the whole array goes to
    the line as given."""
    x, log_pi_xi = _points(xi)
    plan = _series_coefficients(tp)
    if -tp.sigma * log_pi_xi.max(initial=-math.inf) > plan.u_1:
        return _like(xi, _line(tp, x, log_pi_xi))
    values, errs = _series(tp, x, log_pi_xi)
    on_line = ~(errs <= _TARGET)
    if on_line.any():
        values[on_line] = _line(tp, x[on_line], log_pi_xi[on_line])
    return _like(xi, values)

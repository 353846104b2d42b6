"""Radial Fourier transform of Mittag-Leffler profiles.

ml_transform is the transform: the Mellin-Barnes form of mlfourier.mellin,
a residue series or one line integral, which needs no split of the
integrand.

split_transform is the paper's construction, kept as a named reference.
The n-dimensional transform of E_{alpha,beta}(e^{i phi} |x|^sigma) reduces
to a one-dimensional Bessel-weighted integral.  After rescaling r -> r/|xi|
it splits, through a smooth partition of unity phi_cut + psi_cut = 1, into
a compact part

    M(xi) = integral_0^inf phi_cut(r) E(e^{i phi} (r/|xi|)^sigma) jbar_n(r) dr

and an oscillatory tail N(xi) of the same shape with psi_cut.  The full
transform is (2 pi/|xi|^n) (M + N).  The tail substitutes the order
(n-1)//2 + 1 large-argument Bessel expansion: each e^{+-2 pi i r}-phased
term is summed over half-period chunks with iterated Aitken acceleration,
plus an absolutely convergent remainder integral.

The split evaluates its integrand on whole node arrays, with ml_eval, jbar
and the cutoffs taking arrays; ml_eval applies its scalar rule to each
node, and most of the split's time goes there.  M is a set of tanh-sinh
panels integrated in one batched call.  N and the check below share one
chunk-and-accelerate routine, _chunk_limits: the transition chunks
[1, 1.5] and [1.5, 2], and the chunks where E's exponential term turns
too fast for fixed nodes (_wave_chunks), are tanh-sinh panels
of one batched call, the other chunks from r = 2 on 16-node
Gauss-Legendre rules evaluated a block of chunks at a time.  Nothing here
takes tolerances: the panels work to a thousandth of the engines' fixed
target, scaled to the expected size of M and N, and the chunk sums stop
at the accelerator's own target.

The integration-by-parts machinery transfers derivatives from the e^{ir}
phase onto contour kernels Q_l.  Q_0(u) is the contour integral of
e^{z^(1/alpha)} z^((1-beta)/alpha)/(z - e^{i phi} u^sigma), and
Q_l(u) = u^l (d/du)^l Q_0(u) is one contour integral too: the derivative
expands into pole factors of order j+1 with coefficients C~_{j,l}(sigma)
from a recurrence, summed inside the integrand.  q_kernel takes arrays of
u on one set of contour nodes, and the check calls it at every node of its
e^{ir}-phased chunks of width pi and psi^(l)-weighted panels on [1, 2].
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable

import numpy as np
from scipy.special import jv

from .errors import AccuracyError, DomainError
from .special_core import (
    _EPS,
    Complex,
    accelerated_limit,
    fsum_complex,
    gauss_legendre_rule,
    integrate_panels,
)
from .mittag_leffler import (
    MLParams,
    _contour_integral,
    _wave_branches,
    ml_eval,
)
from . import mellin
from .mellin import _require_xi, mellin_transform
from .bessel import (
    _asymptotic_eval,
    _expansion_coeffs,
    _falling_factorial,
    jbar,
)


@dataclass(frozen=True)
class TransformProblem:
    """Parameters of the profile E_{alpha,beta}(e^{i phi} |x|^sigma) on R^n.

    The phase must lie in the algebraic-decay sector |phi| > pi alpha/2,
    and sigma must be finite and > (n-1)/2, the scope of the paper's
    results: every transform, law and region takes its problem from here
    and checks neither again.
    """

    alpha: float
    beta: float
    phi: float
    sigma: float
    n: int

    def __post_init__(self) -> None:
        MLParams(self.alpha, self.beta)  # validates alpha, beta
        if not (-math.pi < self.phi <= math.pi):
            raise DomainError(f"phi must lie in (-pi, pi], got {self.phi}")
        if not abs(self.phi) > math.pi * self.alpha / 2.0:
            raise DomainError(
                f"|phi| > pi*alpha/2 required for algebraic decay, got "
                f"|phi| = {abs(self.phi):.6f} <= {math.pi * self.alpha / 2:.6f}"
            )
        if self.n < 1 or self.n != int(self.n):
            raise DomainError(f"n must be a positive integer, got {self.n}")
        if not 0.5 * (self.n - 1) < self.sigma < math.inf:
            raise DomainError(
                f"finite sigma > (n-1)/2 = {0.5 * (self.n - 1)} required, "
                f"got sigma = {self.sigma}"
            )

    @property
    def ml(self) -> MLParams:
        return MLParams(self.alpha, self.beta)


# ---------------------------------------------------------------------------
# Smooth cutoff pair
# ---------------------------------------------------------------------------


def _bump(t: np.ndarray) -> np.ndarray:
    pos = t > 0.0
    return np.where(pos, np.exp(-1.0 / np.where(pos, t, 1.0)), 0.0)


def cutoff_phi(r):
    """Smooth transition equal to 1 on [-1, 1], supported in [-2, 2], at a
    float or an array of r."""
    t = np.abs(np.asarray(r, dtype=float))
    hi = _bump(2.0 - t)
    lo = _bump(t - 1.0)
    out = np.where(hi == 0.0, 0.0, hi / np.where(hi == 0.0, 1.0, hi + lo))
    return out if np.ndim(r) else float(out)


def cutoff_psi(r):
    """Complement 1 - cutoff_phi: vanishes on [-1, 1], equals 1 beyond 2."""
    return 1.0 - cutoff_phi(r)


_MAX_CUTOFF_DERIVATIVE = 6


def _psi_derivatives(m: int, r: np.ndarray) -> list[np.ndarray]:
    """psi_cut and its first m derivatives at an array of 1 < r < 2, where
    psi_cut = l/(h + l) with h = e^{-1/(2-r)} and l = e^{-1/(r-1)}.

    An exponential f = e^g has f^(j+1) = sum_k C(j,k) g^(k+1) f^(j-k), and
    the quotient follows from l = psi_cut (h + l) by Leibniz's rule."""
    u, v = 2.0 - r, r - 1.0
    # k-th derivatives, k = 0..m, of the exponents -1/u and -1/v.
    dg = [-math.factorial(k) / u ** (k + 1) for k in range(m + 1)]
    dq = [-((-1) ** k) * math.factorial(k) / v ** (k + 1) for k in range(m + 1)]

    def exp_derivatives(d: list[np.ndarray]) -> list[np.ndarray]:
        f = [np.exp(d[0])]
        for j in range(m):
            f.append(sum(math.comb(j, k) * d[k + 1] * f[j - k] for k in range(j + 1)))
        return f

    h, l = exp_derivatives(dg), exp_derivatives(dq)
    den = [a + b for a, b in zip(h, l)]
    psi: list[np.ndarray] = []
    for j in range(m + 1):
        lower = sum(math.comb(j, k) * psi[k] * den[j - k] for k in range(j))
        psi.append((l[j] - lower) / den[0])
    return psi


def cutoff_derivative(m: int, r):
    """m-th derivative of cutoff_psi for r >= 0, at a float or an array of
    r; supported in [1, 2] for m >= 1.  Derivatives come from exact
    recurrences for the closed-form transition, not finite differences."""
    if m < 0 or m > _MAX_CUTOFF_DERIVATIVE:
        raise DomainError(
            f"derivative order must be in [0, {_MAX_CUTOFF_DERIVATIVE}]"
        )
    if m == 0:
        return cutoff_psi(r)
    t = np.atleast_1d(np.asarray(r, dtype=float))
    # The transition has flat contact at both ends: all derivatives vanish
    # outside (1, 2), and the guard also avoids overflow in exp(-1/(r-1)).
    inside = (t > 1.0 + 1e-9) & (t < 2.0 - 1e-9)
    out = np.zeros(t.shape)
    out[inside] = _psi_derivatives(m, t[inside])[m]
    return out.reshape(np.shape(r)) if np.ndim(r) else float(out[0])


# ---------------------------------------------------------------------------
# Profile and chunked oscillatory summation
# ---------------------------------------------------------------------------


def _profile(tp: TransformProblem, xi_mag: float) -> Callable:
    """r -> E(e^{i phi} (r/|xi|)^sigma) at a float or an array of r."""
    phase = cmath.exp(1j * tp.phi)
    p = tp.ml
    sig = tp.sigma
    inv = 1.0 / xi_mag

    def g(r):
        return ml_eval(p, phase * (r * inv) ** sig)

    return g


def _panel_scale(tp: TransformProblem, xi_mag: float) -> float:
    """Expected size of M and of the tail's transition chunks, the scale of
    their tanh-sinh panels' absolute target.

    Below |xi| = 1 both parts shrink like |xi|^min(sigma, n): the profile
    falls off as (r/|xi|)^-sigma and jbar_n grows like r^(n-1) from the
    origin.  A fixed absolute target would let any relative error through
    there.
    """
    return min(1.0, xi_mag) ** min(tp.sigma, tp.n)


# Largest xi_mag whose pi xi_mag, the Mellin-Barnes route's log argument,
# is a finite double: ml_transform's domain ends there.
XI_MAX = mellin.XI_MAX




_TAIL_CHUNKS = 400  # chunk budget of the tail's and the check's accelerated sums


# ---------------------------------------------------------------------------
# Compact part
# ---------------------------------------------------------------------------


def compute_M(tp: TransformProblem, xi_mag: float) -> Complex:
    """Compact part: integral of phi_cut(r) E(e^{i phi}(r/|xi|)^sigma)
    jbar_n(r) over the support [0, 2]."""
    _require_xi(xi_mag)
    g = _profile(tp, xi_mag)
    n = tp.n

    def f(r: np.ndarray) -> np.ndarray:
        return cutoff_phi(r) * g(r) * jbar(n, r)

    # At small |xi| the profile turns over on the scale r ~ |xi| and then
    # decays like r^-sigma out to r = 1: the layer and each decade of the
    # decay get a panel of their own, all integrated in one batched call.
    pts = {1.0}
    for factor in (1.0, 5.0 ** (1.0 / tp.sigma), 40.0 ** (1.0 / tp.sigma)):
        x = xi_mag * factor
        if 1e-14 < x < 1.0:
            pts.add(x)
    x = 10.0 * xi_mag
    while x < 1.0:
        if x > 1e-14:
            pts.add(x)
        x *= 10.0
    edges = np.array([0.0, *sorted(pts), 2.0])
    panels = integrate_panels(f, edges[:-1], edges[1:], _panel_scale(tp, xi_mag))
    return complex(panels.sum())


# ---------------------------------------------------------------------------
# Oscillatory tail
# ---------------------------------------------------------------------------

_CHUNK_ORDER = 16  # one half-oscillation per chunk: Gauss-Legendre 16 is ample


def _tail_coefficient_pairs(n: int, M: int) -> tuple[tuple, bool]:
    """Scaled expansion coefficients of jbar_n and whether a remainder
    integral is needed.

    jbar_n(r) = sum_l sum_pm c_l^pm (2 pi)^(-(l+1/2)) e^{+-2 pi i r}
    r^((n-1)/2 - l) + r^(n/2) L(2 pi r; M).  For n = 1 the kernel is exactly
    cos(2 pi r)/pi: a single l = 0 pair and no remainder.
    """
    if n == 1:
        c0 = 1.0 / math.sqrt(2.0 * math.pi) + 0.0j
        pairs = ((c0, c0),) + ((0.0 + 0.0j, 0.0 + 0.0j),) * M
        return pairs, False
    lam = complex(0.5 * n - 1.0)
    return _expansion_coeffs(lam, M), True


def _bessel_remainder(lam: float, x, coeffs: tuple):
    # L(x; M) = J_lambda(x) - order-M truncation, at a float or an array.
    return jv(lam, x) - _asymptotic_eval(coeffs, x)


_CHUNK_BLOCK = 16  # chunks per batched profile evaluation from k = 2 on
# Radians an integrand may turn through on a chunk for 16 Gauss-Legendre
# nodes to integrate it to rounding: on [-1, 1] they take e^{i kappa x} to
# 9e-16 at kappa = 8, 1e-13 at 10 and 3e-11 at 12.
_CHUNK_MAX_TURN = 16.0


def _chunk_lower(k: np.ndarray, half: float) -> np.ndarray:
    """Left ends of the tail chunks k: [1 + k/2, 1.5 + k/2] for k = 0, 1,
    then chunks half wide from r = 2."""
    return np.where(k < 2, 1.0 + 0.5 * k, 2.0 + half * (k - 2))


def _wave_chunks(tp: TransformProblem, xi_mag: float, half: float) -> list[int]:
    """Tail chunks k >= 2 of _chunk_limits' layout on which E's exponential
    term is above rounding and turns faster than _CHUNK_MAX_TURN allows.

    Each branch angle theta = phi + 2 pi m of mittag_leffler._wave_branches
    contributes exp(rho e^{i theta/alpha}) with rho = (r/|xi|)^(sigma/alpha).
    Its size is exp(rho cos(theta/alpha)), largest at the chunk's left end,
    and its phase turns (sigma/alpha) rho |sin(theta/alpha)|/r radians per
    unit r, fastest at one of the ends, on top of the pi that the caller's
    e^{+-i r pi/half} phase turns on a chunk.  Near the sector boundary cos(theta/alpha) is close to 0 and
    that term can turn 120 radians per unit r at r = 2.
    """
    power = tp.sigma / tp.alpha
    k = np.arange(2, _TAIL_CHUNKS)
    lo = _chunk_lower(k, half)
    hi = _chunk_lower(k + 1, half)
    rho_lo = (lo / xi_mag) ** power
    rho_hi = (hi / xi_mag) ** power
    fastest = power * np.maximum(rho_lo / lo, rho_hi / hi)
    need = np.zeros(k.shape, bool)
    for ang, _weight in _wave_branches(tp.alpha, tp.phi):
        theta = ang / tp.alpha
        log_size = math.cos(theta) * rho_lo
        turn = half * abs(math.sin(theta)) * fastest + math.pi
        need |= (log_size > math.log(_EPS)) & (turn > _CHUNK_MAX_TURN)
    return k[need].tolist()


def _chunk_limits(
    base: Callable, kernels: list[Callable], half: float, scale: float,
    extra: Iterable[int],
) -> list[Complex]:
    """Accelerated integral_1^inf psi_cut(r) base(r) kernel(r) dr for each
    kernel, chunk by chunk as in Longman (Proc. Cambridge Philos. Soc. 52, 1956).

    Chunk k is [1 + k/2, 1.5 + k/2] for k = 0, 1, where psi_cut switches
    on, and [2 + (k-2) half, 2 + (k-1) half] from k = 2 on, half being the
    half-period of the kernels' phase.  psi_cut is non-analytic at the flat
    contacts r = 1, 2, where fixed-order nodes lose ~1e-10: chunks 0, 1 and
    those in extra are tanh-sinh panels of one batched call, for integrals
    of expected size scale.  The other chunks are 16-node Gauss-Legendre
    rules, with psi_cut base evaluated a block of chunks at a time and
    shared by every kernel.  Each kernel's chunk sums are accelerated over
    at most _TAIL_CHUNKS chunks.
    """

    def transition(r: np.ndarray, kind: np.ndarray, chunk: np.ndarray) -> np.ndarray:
        rows = r.reshape(kind.size, -1)
        kind, chunk = kind.ravel(), chunk.ravel()
        # Panels advance level by level together, so the rows of one chunk
        # coincide and psi base is evaluated once for all kernels.
        shared = np.empty(rows.shape, complex)
        for c in np.unique(chunk):
            sel = chunk == c
            row = rows[np.argmax(sel)]
            shared[sel] = cutoff_psi(row) * base(row)
        out = np.empty(rows.shape, complex)
        for t in np.unique(kind):
            sel = kind == t
            out[sel] = shared[sel] * kernels[t](rows[sel])
        return out.reshape(r.shape)

    panel_chunks = np.array([0, 1, *extra])
    panel = {k: i for i, k in enumerate(panel_chunks.tolist())}
    starts = np.tile(_chunk_lower(panel_chunks, half), len(kernels))
    widths = np.tile(np.where(panel_chunks < 2, 0.5, half), len(kernels))
    kinds = np.repeat(np.arange(len(kernels)), len(panel))
    head = integrate_panels(
        transition, starts, starts + widths, scale,
        args=(kinds, np.tile(panel_chunks, len(kernels))),
    ).reshape(len(kernels), len(panel))

    nodes, weights = gauss_legendre_rule(_CHUNK_ORDER)
    blocks: list[tuple[np.ndarray, np.ndarray]] = []
    sums: dict[tuple[int, int], np.ndarray] = {}

    def chunk_value(t: int, k: int) -> Complex:
        if k in panel:
            return complex(head[t, panel[k]])
        j, i = divmod(k - 2, _CHUNK_BLOCK)
        if (t, j) not in sums:
            while len(blocks) <= j:
                first = 2 + _CHUNK_BLOCK * len(blocks)
                a = _chunk_lower(np.arange(first, first + _CHUNK_BLOCK), half)
                r = a[:, np.newaxis] + 0.5 * half * (nodes + 1.0)
                blocks.append((r, 0.5 * half * weights * cutoff_psi(r) * base(r)))
            r, vals = blocks[j]
            sums[t, j] = np.sum(vals * kernels[t](r), axis=1)
        return complex(sums[t, j][i])

    limits = []
    for t in range(len(kernels)):
        chunks = (chunk_value(t, k) for k in range(_TAIL_CHUNKS))
        limits.append(accelerated_limit(chunks, max_terms=_TAIL_CHUNKS)[0])
    return limits


def compute_N(tp: TransformProblem, xi_mag: float) -> Complex:
    """Oscillatory tail: integral of psi_cut(r) E(e^{i phi}(r/|xi|)^sigma)
    jbar_n(r) over [1, infinity), chunked at half-periods of the kernel
    phase and accelerated.

    jbar_n is replaced by its large-argument expansion of order
    M = (n-1)//2 + 1, the smallest that exceeds (n-1)/2 and so leaves an
    absolutely integrable remainder term."""
    _require_xi(xi_mag)
    n = tp.n
    M = (n - 1) // 2 + 1
    pairs, need_remainder = _tail_coefficient_pairs(n, M)
    two_pi = 2.0 * math.pi
    lam = 0.5 * n - 1.0

    # One accelerated sum per kernel: e^{+-2 pi i r} r^((n-1)/2 - l) with
    # weight c_l^+- (2 pi)^(-(l+1/2)) for each expansion order l, then the
    # remainder r^(n/2) L(2 pi r; M) with weight 1.
    weights: list[Complex] = []
    kernels: list[Callable] = []
    for ell in range(M + 1):
        cp, cm = pairs[ell]
        if cp == 0 and cm == 0:
            continue
        scale = two_pi ** (-(ell + 0.5))
        for coeff, sign in ((cp, 1.0), (cm, -1.0)):
            weights.append(coeff * scale)
            power = 0.5 * (n - 1) - ell
            kernels.append(
                lambda r, s=sign, p=power: np.exp(1j * s * two_pi * r) * r ** p
            )
    if need_remainder:
        weights.append(1.0)
        kernels.append(
            lambda r, p=0.5 * n: _bessel_remainder(lam, two_pi * r, pairs) * r ** p
        )

    # On the wave chunks E's exponential term turns too fast for fixed
    # nodes: they join the transition chunks' tanh-sinh panels.
    g, scale = _profile(tp, xi_mag), _panel_scale(tp, xi_mag)
    wave = _wave_chunks(tp, xi_mag, 0.5)
    limits = _chunk_limits(g, kernels, 0.5, scale, wave)
    return fsum_complex(w * lim for w, lim in zip(weights, limits))


def min_ibp_order(n: int) -> int:
    """Smallest integer N with N > (n-1)/2 + 1, the parts-integration depth
    that makes every tail integrand absolutely integrable in dimension n."""
    if not (isinstance(n, int) and n >= 1):
        raise DomainError(f"dimension must be a positive integer, got {n}")
    return (n + 1) // 2 + 1


def ml_transform(
    tp: TransformProblem, xi_mag: float | np.ndarray
) -> Complex | np.ndarray:
    """The n-dimensional radial Fourier transform F at |xi| = xi_mag, by the
    Mellin-Barnes route of mlfourier.mellin: the residue series at
    s = -k sigma where its error estimate is at most 1e-15 relative; for
    pi xi_mag < 0.5, the residue series at s = m sigma and n + 2j where its
    own estimate is; else a trapezoid sum on one line of the Mellin-Barnes
    integral.  Its accuracy target is fixed, like ml_eval's.

    An ndarray xi_mag gives an array of its shape, with one line kernel
    shared by the points that take the same line and step; each entry
    equals, bit for bit, the value at that float alone.  The kernels and
    both series' coefficients depend on tp alone and are kept across calls
    in the process (kernels up to 2^20 nodes in all, least recently used
    dropped first), so later calls on tp skip that work; a new process,
    such as each mlf transform invocation, starts with none.  DomainError for
    xi_mag outside (0, XI_MAX], nan included, for any entry; past XI_MAX =
    5.72e307, pi xi_mag leaves double range.  AccuracyError where a value
    is not finite, as ml_eval; tp is in the paper's scope sigma > (n-1)/2
    by construction."""
    value = mellin_transform(tp, xi_mag)  # checks xi_mag: mellin._require_xi
    finite = np.isfinite(value)
    if not finite.all():
        at = float(np.extract(~finite, xi_mag)[0])
        raise AccuracyError(f"F is not finite at xi = {at!r} for {tp}")
    return value


def split_transform(tp: TransformProblem, xi_mag: float) -> Complex:
    """The same transform by the paper's construction,
    (2 pi/|xi|^n)(M + N) with compute_M and compute_N, at a fixed target.
    A reference for ml_transform: neither falls back on the other.
    DomainError for xi_mag <= 0 or not finite.  sigma > (n-1)/2, which
    TransformProblem enforces, leaves compute_N's remainder integrable."""
    m_part = compute_M(tp, xi_mag)
    n_part = compute_N(tp, xi_mag)
    return 2.0 * math.pi / xi_mag ** tp.n * (m_part + n_part)


# ---------------------------------------------------------------------------
# Contour kernels of the integration-by-parts identity
# ---------------------------------------------------------------------------


@lru_cache(maxsize=256)
def _qtilde_constants(ell: int, sigma: float) -> tuple:
    """Coefficients C~_{j,ell}(sigma), j = 1..ell, of the expansion

        u^ell d^ell/du^ell (z - E u^sigma)^(-1)
            = sum_j C~_{j,ell} E^j u^(j sigma) (z - E u^sigma)^(-(j+1)).

    The recurrence A_{j,l+1} = A_{j,l} (j S - l) + A_{j-1,l} j S, starting
    from A_{1,1} = S, is exactly the term-by-term derivative of the ansatz
    above; it is evaluated directly at S = sigma.
    """
    table = {1: float(sigma)}
    for level in range(1, ell):
        table = {
            j: table.get(j, 0.0) * (j * sigma - level)
            + table.get(j - 1, 0.0) * j * sigma
            for j in range(1, level + 2)
        }
    return tuple(table[j] for j in range(1, ell + 1))


def q_kernel(tp: TransformProblem, ell: int, r):
    """Contour kernel of the derivative-transfer identity: the contour
    integral of e^{z^(1/alpha)} z^((1-beta)/alpha) times

        u^ell d^ell/du^ell (z - e^{i phi} u^sigma)^(-1)
            = sum_j C~_{j,ell} w^j (z - w)^(-(j+1)),   w = e^{i phi} r^sigma,

    at u = r; ell = 0 is the plain pole kernel 1/(z - w).  The sum is taken
    inside the integrand, as 1/(z - w) times a polynomial in w/(z - w), so
    each value is one contour integral and the weights w^j scale no
    quadrature error.  Q_ell(r) is r^ell times the ell-th derivative of
    Q_0 in r.

    r is a float or an ndarray; every r shares one node set, and each entry
    of an array equals, bit for bit, the value at that float alone.
    DomainError unless ell is an int >= 0 and r (every entry) is finite
    and >= 0."""
    if not (isinstance(ell, int) and ell >= 0):
        raise DomainError(f"int ell >= 0 required, got ell = {ell!r}")
    u = np.asarray(r, dtype=float)
    bad = u[~((0.0 <= u) & (u < math.inf))]
    if bad.size:
        raise DomainError(f"finite r >= 0 required, got r = {bad[0]}")
    # The polynomial sum_j C~_{j,ell} t^j in t = w/(z - w), by Horner's rule.
    coeffs = [*reversed(_qtilde_constants(ell, tp.sigma)), 0.0]

    def factor(z: np.ndarray, w: np.ndarray) -> np.ndarray:
        d = z - w
        return np.polyval(coeffs, w / d) / d if ell else 1.0 / d

    # In the decay sector, which TransformProblem enforces, _contour picks
    # the same contour for every r.
    w = cmath.exp(1j * tp.phi) * u.reshape(-1) ** tp.sigma
    values = _contour_integral(tp.ml, tp.phi, 0.0, factor, (w,))
    return values.reshape(u.shape) if u.ndim else complex(values[0])


def ibp_identity_check(tp: TransformProblem, xi_mag: float, ell: int, N: int) -> float:
    """Relative difference between the oscillatory integral

        integral_0^inf e^{ir} r^((n-1)/2 - ell) psi_cut(r) Q_0(r/|xi|) dr

    and its N-fold derivative-transferred form

        i^N sum_{l1+l2+l3=N} (N!/(l1! l2! l3!)) ((n-1)/2 - ell)_(l1, falling)
        integral e^{ir} r^((n-1)/2 - ell - N + l2) psi^(l2)(r)
        Q_(l3)(r/|xi|) dr.

    Both sides are quadratured independently, with q_kernel evaluated at
    every quadrature node, once per l3 and node set within the call: the
    left side and the l1 = N tail term share Q_0, and edge terms with the
    same l3 share their panel's nodes."""
    _require_xi(xi_mag)
    if N not in (1, 2, 3):
        raise DomainError("N must be 1, 2, or 3")
    if ell not in (0, 1):
        raise DomainError("ell must be 0 or 1")

    q_values: dict[tuple, np.ndarray] = {}

    def q(l3: int, r: np.ndarray) -> np.ndarray:
        key = (l3, r.shape, r.tobytes())
        if key not in q_values:
            q_values[key] = q_kernel(tp, l3, r / xi_mag)
        return q_values[key]

    def kernel(power: float, l3: int) -> Callable:
        return lambda r: r ** power * q(l3, r)

    # The right side's terms (coefficient, power, l2, l3): those with
    # l2 = 0 run out to infinity, the others live where psi^(l2) does.
    base_power = 0.5 * (tp.n - 1) - ell
    tail, edge = [], []
    for l1 in range(N + 1):
        for l2 in range(N + 1 - l1):
            multinomial = math.comb(N, l1) * math.comb(N - l1, l2)
            c = multinomial * _falling_factorial(base_power, l1)
            term = (c, base_power - N + l2, l2, N - l1 - l2)
            if c != 0.0:
                (edge if l2 else tail).append(term)

    # The left side and the tail terms share one chunked sum over
    # half-periods pi of their e^{ir} phase; on the wave chunks the
    # kernels' exponential term turns too fast for fixed nodes.
    kernels = [kernel(base_power, 0)] + [kernel(pw, l3) for _c, pw, _l2, l3 in tail]
    lhs, *tail_vals = _chunk_limits(
        lambda r: np.exp(1j * r), kernels, math.pi, 1.0,
        _wave_chunks(tp, xi_mag, math.pi),
    )

    # psi^(l2) is supported in [1, 2]: one smooth panel per term, all in one
    # batched call.
    def edge_integrand(r: np.ndarray, which: np.ndarray) -> np.ndarray:
        rows = r.reshape(which.size, -1)
        out = np.empty(rows.shape, complex)
        for i, j in enumerate(which.ravel()):
            _c, pw, l2, l3 = edge[j]
            r_i = rows[i]
            out[i] = np.exp(1j * r_i) * cutoff_derivative(l2, r_i) * kernel(pw, l3)(r_i)
        return out.reshape(r.shape)

    ones = np.ones(len(edge))
    edge_vals = integrate_panels(
        edge_integrand, ones, 2.0 * ones, 1.0, args=(np.arange(len(edge)),)
    )
    rhs = fsum_complex(
        c * val for (c, *_rest), val in zip(tail + edge, [*tail_vals, *edge_vals])
    )
    rhs_val = (1j) ** N * rhs
    return abs(lhs - rhs_val) / abs(lhs)

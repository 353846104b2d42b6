"""Asymptotic-law verification and L^p membership regions.

The transform of E_{alpha,beta}(e^{i phi}|x|^sigma) obeys, as |xi| -> 0,
a power law |xi|^(sigma-n) for (n-1)/2 < sigma < n, a logarithmic law for
sigma = n, and a constant law for sigma > n.  As |xi| -> infinity it decays
like C |xi|^-(n+sigma) with a closed-form C, unless sigma is an even
integer (see verify_large_xi).  This module fits log-log
slopes on computed transform grids, discriminates the logarithmic case by
model selection, classifies p-integrability both analytically (theorem
tables) and numerically (dyadic-shell divergence detection).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import DegenerateFitError, DomainError, LawMismatchError
from .special_core import Complex, gauss_legendre_rule, line_fit
from .mellin import residue_coefficient
from .radial_fourier import TransformProblem, ml_transform

SLOPE_TOL = 0.05
RATIO_SPREAD_TOL = 0.05
LOG_R2_MIN = 0.99
MODEL_SELECTION_FACTOR = 5.0


@dataclass(frozen=True)
class ExponentFit:
    """Least-squares line through (log |xi|, log |F|)."""

    slope: float
    intercept: float
    residual: float
    grid: tuple

    def __post_init__(self) -> None:
        if len(self.grid) < 6:
            raise DegenerateFitError("exponent fit requires >= 6 grid points")


@dataclass(frozen=True)
class LpRegion:
    """Interval of exponents p for which the transform lies in L^p."""

    p_lower: float
    p_upper: float
    lower_open: bool
    upper_open: bool
    source: str

    def __post_init__(self) -> None:
        if self.source not in ("HausdorffYoung", "FullTheorem"):
            raise DomainError(f"unknown region source {self.source!r}")
        if not (1.0 <= self.p_lower <= self.p_upper):
            raise DomainError(
                f"need 1 <= p_lower <= p_upper, got "
                f"[{self.p_lower}, {self.p_upper}]"
            )

    def contains(self, p: float) -> bool:
        if p < self.p_lower or (p == self.p_lower and self.lower_open):
            return False
        if p > self.p_upper or (p == self.p_upper and self.upper_open):
            return False
        return True


@dataclass(frozen=True)
class AsymptoticReport:
    """Outcome of a law verification run."""

    small_xi_law: str | None
    small_slope_fit: ExponentFit | None
    large_slope_fit: ExponentFit | None
    constants_matched: bool
    notes: str


def _check_geometric(xs: np.ndarray) -> None:
    if (xs <= 0.0).any() or (xs[1:] <= xs[:-1]).any():
        raise DegenerateFitError("grid must be positive and increasing")
    ratios = xs[1:] / xs[:-1]
    if ratios.max() > 1.02 * ratios.min():
        raise DegenerateFitError("grid must be geometric (constant ratio)")


def _fit(xs: np.ndarray, values: np.ndarray, mags: np.ndarray) -> ExponentFit:
    """fit_exponent on arrays: the grid, the values and their magnitudes."""
    if xs.size < 6:
        raise DegenerateFitError("exponent fit requires >= 6 samples")
    _check_geometric(xs)
    if (mags <= 0.0).any():
        raise DegenerateFitError("all sample magnitudes must be positive")
    lx, ly = np.log(xs), np.log(mags)
    slope, intercept = line_fit(lx, ly)
    residual = math.sqrt(((ly - (slope * lx + intercept)) ** 2).sum() / ly.size)
    return ExponentFit(
        slope=slope,
        intercept=intercept,
        residual=residual,
        grid=tuple(zip(xs.tolist(), values.tolist())),
    )


def fit_exponent(samples: Sequence[tuple[float, Complex]]) -> ExponentFit:
    """Fit log|value| = slope * log(xi) + intercept on a geometric grid, by
    the closed-form least-squares line of special_core.line_fit.
    DegenerateFitError for fewer than 6 samples, a grid that is not
    positive, increasing and geometric, a zero value, or any xi or value
    that is not finite."""
    xs = np.array([s[0] for s in samples], dtype=float)
    values = np.array([complex(s[1]) for s in samples])
    return _fit(xs, values, np.abs(values))


def small_xi_law(tp: TransformProblem) -> str:
    """Theorem case for the |xi| -> 0 behavior: 'power' for sigma < n, 'log'
    for sigma = n, 'constant' for sigma > n.  Like every law and region
    here it holds for sigma > (n-1)/2, which TransformProblem enforces."""
    if tp.sigma < tp.n:
        return "power"
    if tp.sigma == tp.n:
        return "log"
    return "constant"


def _default_small_grid() -> np.ndarray:
    # Within the small-|xi| window [1e-4, 1e-1]; the upper end stops at
    # 1e-2 because corrections to the sigma = n logarithmic law decay only
    # like 1/log(1/|xi|) and would otherwise bend the regression line.
    return np.geomspace(1e-4, 1e-2, 10)


def _default_large_grid() -> np.ndarray:
    return np.geomspace(10.0, 1e4, 10)


def _relative_rms(actual: np.ndarray, predicted: np.ndarray) -> float:
    return float(np.sqrt(np.mean(((actual - predicted) / actual) ** 2)))


def _log_model_stats(
    xs: np.ndarray, mags: np.ndarray
) -> tuple[float, float, float, float]:
    """Fit |F| = a + b log(xi); return (b, res_rel, r2, res_power_rel).

    res_rel and res_power_rel are relative RMS errors of the log model and
    of the plain power model |F| = C xi^c, commensurately measured so the
    two are comparable for model selection.
    """
    lx = np.log(xs)
    b, a = line_fit(lx, mags)
    pred_log = a + b * lx
    res_log = _relative_rms(mags, pred_log)
    ss_res = float(np.sum((mags - pred_log) ** 2))
    ss_tot = float(np.sum((mags - np.mean(mags)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
    c, logc = line_fit(lx, np.log(mags))
    pred_pow = np.exp(logc + c * lx)
    res_pow = _relative_rms(mags, pred_pow)
    return b, res_log, r2, res_pow


def verify_small_xi(
    tp: TransformProblem, grid: Sequence[float] | None = None
) -> AsymptoticReport:
    """Verify the |xi| -> 0 law of the transform against the theorem case.

    power case: fitted slope must equal sigma - n within 0.05 and the ratio
    F/|xi|^(sigma-n) must stabilize (relative spread < 5% over the last
    third of the grid).  log case: |F| must be linear in log|xi| (R^2 >
    0.99) and the log model must beat the power model by >= 5x in relative
    residual.  constant case: slope 0 within 0.05.  Raises
    LawMismatchError when the computed behavior deviates.
    """
    law = small_xi_law(tp)
    xs = np.array(grid if grid is not None else _default_small_grid(), float)
    values = ml_transform(tp, xs)
    mags = np.abs(values)
    fit = _fit(xs, values, mags)
    notes: list[str] = []
    # Stabilization is judged on the third of the grid nearest the limit
    # (the smallest |xi| values).
    third = max(len(xs) // 3, 2)

    if law == "power":
        expected = tp.sigma - tp.n
        if abs(fit.slope - expected) > SLOPE_TOL:
            raise LawMismatchError(
                f"small-xi slope {fit.slope:.4f} deviates from "
                f"sigma - n = {expected:.4f} beyond {SLOPE_TOL}"
            )
        ratio = mags[:third] / xs[:third] ** expected
        spread = float(ratio.max() / ratio.min() - 1.0)
        matched = spread < RATIO_SPREAD_TOL
        notes.append(
            f"power law |xi|^({expected:.3f}): slope {fit.slope:.4f}, "
            f"limit-ward ratio spread {spread:.4f}"
        )
    elif law == "log":
        b, res_log, r2, res_pow = _log_model_stats(xs, mags)
        matched = (
            r2 > LOG_R2_MIN
            and res_pow >= MODEL_SELECTION_FACTOR * res_log
            and b != 0.0
        )
        if not matched:
            raise LawMismatchError(
                f"log law rejected: R^2 = {r2:.4f}, relative residuals "
                f"log-model {res_log:.2e} vs power-model {res_pow:.2e}"
            )
        notes.append(
            f"log law: |F| linear in log|xi| with coefficient {b:.4f}, "
            f"R^2 = {r2:.5f}, power/log residual ratio "
            f"{res_pow / res_log:.1f}"
        )
    else:
        if abs(fit.slope) > SLOPE_TOL:
            raise LawMismatchError(
                f"small-xi slope {fit.slope:.4f} deviates from 0 "
                f"(constant law) beyond {SLOPE_TOL}"
            )
        ratio = mags[:third]
        spread = float(ratio.max() / ratio.min() - 1.0)
        matched = spread < RATIO_SPREAD_TOL
        notes.append(
            f"constant law: slope {fit.slope:.4f}, limit-ward spread "
            f"{spread:.4f}"
        )

    return AsymptoticReport(
        small_xi_law=law,
        small_slope_fit=fit,
        large_slope_fit=None,
        constants_matched=bool(matched),
        notes="; ".join(notes),
    )


def large_xi_law(tp: TransformProblem) -> tuple[float, complex]:
    """The |xi| -> infinity law F ~ C |xi|^exponent: exponent -(n+sigma)
    and C = e^{i phi}/Gamma(alpha+beta) pi^(-sigma-n/2)
    Gamma((n+sigma)/2)/Gamma(-sigma/2), the k = 1 coefficient of the residue
    series (mellin.residue_coefficient).  That is the transform of the
    |x|^sigma term of E at the origin, as a homogeneous distribution; the
    exponent is independent of alpha and beta.  For even-integer sigma C = 0
    and F decays faster than any power: DomainError."""
    constant = residue_coefficient(tp, 1)
    if constant == 0.0:
        raise DomainError(
            f"no large-xi power law for even-integer sigma = {tp.sigma}: "
            "the transform decays faster than any power"
        )
    return -(tp.n + tp.sigma), constant


def verify_large_xi(
    tp: TransformProblem, grid: Sequence[float] | None = None
) -> AsymptoticReport:
    """Verify the |xi| -> infinity law F ~ C |xi|^-(n+sigma) of
    large_xi_law.  The fitted slope must equal -(n+sigma) within SLOPE_TOL,
    else LawMismatchError; constants_matched reports whether |F|
    |xi|^(n+sigma) at the largest grid point is within 5% of |C|.  For
    even-integer sigma C = 0, F decays faster than any power, and
    DomainError is raised."""
    expected, constant = large_xi_law(tp)
    xs = np.array(grid if grid is not None else _default_large_grid(), float)
    values = ml_transform(tp, xs)
    mags = np.abs(values)
    fit = _fit(xs, values, mags)
    if abs(fit.slope - expected) > SLOPE_TOL:
        raise LawMismatchError(
            f"large-xi slope {fit.slope:.4f} deviates from -(n + sigma) = "
            f"{expected:.4f} beyond {SLOPE_TOL}"
        )
    c_abs = abs(constant)
    scaled = mags[-1] * xs[-1] ** -expected
    rel = abs(scaled - c_abs) / c_abs
    return AsymptoticReport(
        small_xi_law=None,
        small_slope_fit=None,
        large_slope_fit=fit,
        constants_matched=bool(rel <= 0.05),
        notes=(
            f"power law |xi|^({expected:.3f}): slope {fit.slope:.4f}; "
            f"|F| |xi|^(n+sigma) {scaled:.6e} vs |C| {c_abs:.6e} "
            f"(relative difference {rel:.1e})"
        ),
    )


# ---------------------------------------------------------------------------
# L^p regions
# ---------------------------------------------------------------------------


def lp_region(tp: TransformProblem) -> tuple[LpRegion, LpRegion | None]:
    """Analytic p-integrability intervals.

    First element: the full-theorem region — (1, n/(n-sigma)) open/open for
    (n-1)/2 < sigma < n; (1, inf) open/open for sigma = n; (1, inf]
    open/closed for sigma > n.  Second element: the Hausdorff-Young region —
    [2, inf] for sigma > n; [2, inf) for sigma = n; [2, n/(n-sigma)) for
    n/2 < sigma < n; None when sigma <= n/2 (no conclusion from that
    route).  TransformProblem has already put sigma above (n-1)/2."""
    n, sigma = tp.n, tp.sigma
    if sigma < n:
        full = LpRegion(1.0, n / (n - sigma), True, True, "FullTheorem")
    elif sigma == n:
        full = LpRegion(1.0, math.inf, True, True, "FullTheorem")
    else:
        full = LpRegion(1.0, math.inf, True, False, "FullTheorem")

    hy: LpRegion | None
    if sigma > n:
        hy = LpRegion(2.0, math.inf, False, False, "HausdorffYoung")
    elif sigma == n:
        hy = LpRegion(2.0, math.inf, False, True, "HausdorffYoung")
    elif sigma > 0.5 * n:
        hy = LpRegion(2.0, n / (n - sigma), False, True, "HausdorffYoung")
    else:
        hy = None
    return full, hy


_SHELL_COUNT = 10
_SHELL_NODES = 4
_DECAY_THRESHOLD = 0.97
_DETECTOR_RUN = 6


@lru_cache(maxsize=64)
def _shell_nodes(
    tp: TransformProblem, inward: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Half-widths of the dyadic shells marching away from |xi| = 1 (toward
    0 when inward, toward infinity otherwise), their Gauss-Legendre nodes,
    one row per shell, and |F| at those nodes from one ml_transform call."""
    k = np.arange(_SHELL_COUNT)
    a, b = (2.0 ** -(k + 1.0), 2.0 ** -k) if inward else (2.0 ** k, 2.0 ** (k + 1.0))
    nodes, _ = gauss_legendre_rule(_SHELL_NODES)
    half = 0.5 * (b - a)
    xs = (0.5 * (a + b))[:, None] + half[:, None] * nodes
    mags = np.abs(ml_transform(tp, xs))
    for arr in (half, xs, mags):
        arr.flags.writeable = False  # shared by every caller through the cache
    return half, xs, mags


def _shell_integrals(tp: TransformProblem, p: float, inward: bool) -> np.ndarray:
    """Integrals of |F|^p |xi|^(n-1) over the shells of _shell_nodes."""
    half, xs, mags = _shell_nodes(tp, inward)
    _, weights = gauss_legendre_rule(_SHELL_NODES)
    return half * ((mags ** p * xs ** (tp.n - 1)) @ weights)


def lp_numerical_check(tp: TransformProblem, p: float) -> str:
    """Empirical p-integrability probe: 'finite', 'divergent-at-0', or
    'divergent-at-infty'.

    Integrates |F|^p |xi|^(n-1) over dyadic shells spanning [1e-3, 1] and
    [1, 1e3]; divergence at an end is declared when the shell contributions
    fail to decay geometrically (ratio >= 0.97) over 6 consecutive shells.
    Theorem-endpoint p values are the analytic classifier's job
    (lp_region); this probe cannot certify borderline divergence."""
    if p < 1.0:
        raise DomainError("p >= 1 required")
    inner = _shell_integrals(tp, p, inward=True)
    ratios_in = inner[1:] / inner[:-1]
    if np.all(ratios_in[-_DETECTOR_RUN:] >= _DECAY_THRESHOLD):
        return "divergent-at-0"
    outer = _shell_integrals(tp, p, inward=False)
    ratios_out = outer[1:] / outer[:-1]
    if np.all(ratios_out[-_DETECTOR_RUN:] >= _DECAY_THRESHOLD):
        return "divergent-at-infty"
    return "finite"

"""Acceptance checks, one test per criterion.

Each test prints a single `CRITERION k: PASS/FAIL` line (with elapsed time
and detail) and then asserts it.  Tolerances and parameter sets are the
stated ones; nothing is loosened.

The laws asserted are derived, since the paper's abstract fixes neither
exponents nor constants:

- criterion 7: the transform decays like |xi|^-(n+sigma), with constant
  e^{i phi}/Gamma(alpha+beta) pi^(-sigma-n/2) Gamma((n+sigma)/2)
  / Gamma(-sigma/2), from the |x|^sigma term of E at the origin;
- criterion 4, n = 1: the compact-part plateau int_0^2 phi_cut jbar_1 dr is
  exactly 0, because jbar_1(r) = cos(2 pi r)/pi and
  phi_cut(1+u) + phi_cut(2-u) = 1;
- criterion 4, small xi: M / xi^sigma approaches its constant with relative
  remainder O(xi^min(n-sigma, sigma)).

verify_large_xi asserts the criterion-7 slope and compares the tail with
its constant; test_asymptotics runs it on the reference problems.
"""

import cmath
import math
import time

import numpy as np
import pytest

from mlfourier.bessel import (
    bessel_asymptotic,
    bessel_j_half_identity,
    build_expansion,
    jbar,
    remainder_decay_certificate,
)
from mlfourier.mittag_leffler import (
    MLParams,
    hankel_reciprocal_gamma,
    ml_contour,
    ml_series,
)
from mlfourier.special_core import (
    complex_gamma,
    integrate_finite,
    reciprocal_gamma,
)
from mlfourier.radial_fourier import (
    TransformProblem,
    compute_M,
    cutoff_phi,
    ibp_identity_check,
    ml_transform,
    split_transform,
    _tail_coefficient_pairs,
)
from mlfourier.asymptotics import (
    fit_exponent,
    lp_numerical_check,
    lp_region,
    verify_small_xi,
)

CERT_GRID = np.geomspace(12.0, 190.0, 12)


def report(k: int, ok: bool, t0: float, detail: str) -> str:
    line = (
        f"CRITERION {k}: {'PASS' if ok else 'FAIL'} "
        f"({time.monotonic() - t0:.1f}s) - {detail}"
    )
    print(line)
    return line


def test_criterion_1_series_vs_contour():
    t0 = time.monotonic()
    worst = 0.0
    for alpha in (0.4, 0.8, 1.2, 1.7):
        for beta in (0.5, 1.0, 2.0):
            p = MLParams(alpha, beta)
            for mag in (0.1, 1.0, 4.0):
                for phi in (0.75 * math.pi, math.pi):
                    z = mag * cmath.exp(1j * phi)
                    a = ml_series(p, z)
                    b = ml_contour(p, z)
                    worst = max(worst, abs(a - b) / max(abs(a), 1e-300))
    ok = worst < 1e-7 and time.monotonic() - t0 < 30.0
    line = report(1, ok, t0, f"max relative deviation {worst:.3e} (< 1e-7)")
    assert ok, line


def test_criterion_2_reciprocal_gamma_identity():
    t0 = time.monotonic()
    pairs = [(0.8, 1.0), (0.5, 1.2), (1.3, 2.0), (1.1, 1.0), (0.7, 0.7), (1.5, 0.5)]
    worst_rel = 0.0
    worst_abs = 0.0
    for alpha, beta in pairs:
        p = MLParams(alpha, beta)
        got_b = hankel_reciprocal_gamma(p, shift=alpha)
        want_b = reciprocal_gamma(beta)
        worst_rel = max(worst_rel, abs(got_b - want_b) / abs(want_b))
        got_ba = hankel_reciprocal_gamma(p, shift=0.0)
        gap = beta - alpha
        if gap <= 0 and abs(gap - round(gap)) < 1e-12:
            # reciprocal gamma vanishes at nonpositive integers
            worst_abs = max(worst_abs, abs(got_ba))
        else:
            want_ba = reciprocal_gamma(gap)
            worst_rel = max(worst_rel, abs(got_ba - want_ba) / abs(want_ba))
    ok = worst_rel < 1e-8 and worst_abs < 1e-10 and time.monotonic() - t0 < 10.0
    line = report(
        2, ok, t0,
        f"worst relative {worst_rel:.3e} (< 1e-8), "
        f"worst pole-point magnitude {worst_abs:.3e} (< 1e-10)",
    )
    assert ok, line


def test_criterion_3_bessel_expansion_reductions():
    t0 = time.monotonic()
    # order-1 truncation against its closed form
    worst_closed = 0.0
    for lam in (1.0, 1.7, 2.5):
        exp = build_expansion(lam, 1)
        lam_star = math.pi * lam / 2 + math.pi / 4
        for r in (2.0, 5.0, 20.0, 60.0):
            got = bessel_asymptotic(exp, r)
            want = math.sqrt(2 / math.pi) * math.cos(r - lam_star) / math.sqrt(r)
            want -= (
                (lam * lam - 0.25)
                / math.sqrt(2 * math.pi)
                * math.sin(r - lam_star)
                * r ** -1.5
            )
            worst_closed = max(worst_closed, abs(got - want))
    # leading pair reduces to the half-order cosine identity; at order
    # -1/2 the generic coefficient formula is an indeterminate gamma
    # ratio, so the limit-valued pair from the tail machinery is used
    worst_half = 0.0
    pair = _tail_coefficient_pairs(1, 0)[0][0]
    for r in (0.5, 1.0, 2.0, 7.0, 31.0):
        got = (pair[0] * cmath.exp(1j * r) + pair[1] * cmath.exp(-1j * r)) / math.sqrt(r)
        worst_half = max(worst_half, abs(got - bessel_j_half_identity(r)))
    # remainder decay certificates
    slopes = {}
    cert_ok = True
    for lam, M in ((1.5, 1), (2.0, 1), (2.0, 2), (2.5, 3)):
        cert = remainder_decay_certificate(lam, M, CERT_GRID)
        slopes[(lam, M)] = cert.slope
        cert_ok = cert_ok and cert.slope <= -(M + 1.5) + 0.15
    ok = (
        worst_closed < 1e-12
        and worst_half < 1e-12
        and cert_ok
        and time.monotonic() - t0 < 20.0
    )
    line = report(
        3, ok, t0,
        f"closed-form gap {worst_closed:.2e}, half-order gap {worst_half:.2e} "
        f"(both < 1e-12), certificate slopes "
        + ", ".join(f"{k}: {v:.2f}" for k, v in slopes.items()),
    )
    assert ok, line


def test_criterion_4_compact_part_limit_constants():
    # Large xi: E(e^{i phi}(r/xi)^sigma) -> 1/Gamma(beta) uniformly on [0, 2],
    # so M tends to the plateau int_0^2 phi_cut jbar_n dr / Gamma(beta), with
    # a remainder O(xi^-sigma) from the next term of E's series.  For n = 1,
    # jbar_1(r) = cos(2 pi r)/pi and phi_cut(1+u) + phi_cut(2-u) = 1 make the
    # plateau exactly 0, so that leg is measured on the L^1 scale
    # int_0^2 |phi_cut jbar_1| dr / |Gamma(beta)|, and the computed plateau
    # must vanish to rounding on the same scale.
    #
    # Small xi: E(z) = -z^-1/Gamma(beta-alpha) + O(z^-2) in the decay sector
    # gives M = xi^sigma * L + remainder.  Near r = 0, jbar_n(r) ~ r^(n-1);
    # the layer r < xi, where E is bounded, contributes O(xi^n), and the z^-2
    # term O(xi^min(2 sigma, n)).  Relative to xi^sigma the remainder is
    # O(xi^min(n-sigma, sigma)): xi^0.3 for n = 1 and xi^0.7 for n = 2, about
    # 0.18 and 0.018 at xi = 1e-3.  At xi = 1e-12 it is below the tolerance.
    t0 = time.monotonic()
    sigma = 0.7
    xi_small = 1e-12
    legs = []
    for alpha, beta, phi, n in ((0.8, 1.0, math.pi, 1), (0.5, 1.2, math.pi, 2)):
        tp = TransformProblem(alpha, beta, phi, sigma, n)
        moment = integrate_finite(
            lambda r: cutoff_phi(r) * jbar(n, r), 0.0, 2.0, points=[1.0]
        ).value
        plateau = moment / complex_gamma(beta)
        got_inf = compute_M(tp, 1e6)
        if n == 1:
            l1 = integrate_finite(
                lambda r: abs(cutoff_phi(r) * jbar(n, r)),
                0.0,
                2.0,
                points=[0.25, 0.75, 1.0, 1.25, 1.75],
            ).value.real
            legs.append(("n=1 plateau", abs(moment) / l1, 1e-12))
            rel_inf = abs(got_inf - plateau) * abs(complex_gamma(beta)) / l1
        else:
            rel_inf = abs(got_inf - plateau) / abs(plateau)
        legs.append((f"n={n} large-xi", rel_inf, 1e-4))
        scaled_limit = -(
            cmath.exp(-1j * phi)
            / complex_gamma(beta - alpha)
            * integrate_finite(
                lambda r: cutoff_phi(r) * jbar(n, r) * r ** -sigma,
                0.0,
                2.0,
                points=[1.0],
            ).value
        )
        got_zero = compute_M(tp, xi_small) / xi_small ** sigma
        rel_zero = abs(got_zero - scaled_limit) / abs(scaled_limit)
        legs.append((f"n={n} small-xi", rel_zero, 1e-3))
    ok = all(rel < tol for _, rel, tol in legs) and time.monotonic() - t0 < 120.0
    detail = ", ".join(f"{name} rel {rel:.3e} (tol {tol:g})" for name, rel, tol in legs)
    line = report(4, ok, t0, detail)
    assert ok, line


def test_criterion_5_derivative_transfer_identity():
    t0 = time.monotonic()
    tp = TransformProblem(0.8, 1.0, math.pi, 1.0, 1)
    worst = 0.0
    for ell, order in ((0, 1), (0, 2), (1, 1)):
        for xi in (0.5, 1.0, 2.0):
            worst = max(worst, ibp_identity_check(tp, xi, ell, order))
    ok = worst < 1e-5 and time.monotonic() - t0 < 120.0
    line = report(5, ok, t0, f"worst relative difference {worst:.3e} (< 1e-5)")
    assert ok, line


def test_criterion_6_small_xi_laws():
    t0 = time.monotonic()
    pairs = [(0.8, 1.0), (1.3, 2.0)]
    # power-law cases: fit in windows deep enough that the law has set in
    # for both parameter pairs, deeper for lower dimensions where the
    # profile scale makes that cheap
    power_grids = {
        (1, 0.7): np.geomspace(1e-8, 1e-5, 8),
        (2, 1.5): np.geomspace(1e-6, 1e-4, 8),
        (3, 2.2): np.geomspace(1e-4, 1e-2, 8),
    }
    checks = []
    for (n, sigma), grid in power_grids.items():
        slopes = []
        for alpha, beta in pairs:
            tp = TransformProblem(alpha, beta, math.pi, sigma, n)
            fit = fit_exponent([(x, ml_transform(tp, x)) for x in grid])
            slopes.append(fit.slope)
            checks.append(
                (f"(n={n},sigma={sigma}) a={alpha} slope {fit.slope:+.3f}",
                 abs(fit.slope - (sigma - n)) <= 0.05)
            )
        checks.append(
            (f"(n={n},sigma={sigma}) pair gap {abs(slopes[0]-slopes[1]):.4f}",
             abs(slopes[0] - slopes[1]) < 0.03)
        )
    for n in (1, 2):
        for alpha, beta in pairs:
            tp = TransformProblem(alpha, beta, math.pi, float(n), n)
            rep = verify_small_xi(tp)
            checks.append(
                (f"log n={n} a={alpha} law={rep.small_xi_law}",
                 rep.small_xi_law == "log" and rep.constants_matched)
            )
    const_slopes = []
    for alpha, beta in pairs:
        tp = TransformProblem(alpha, beta, math.pi, 2.0, 1)
        rep = verify_small_xi(tp)
        const_slopes.append(rep.small_slope_fit.slope)
        checks.append(
            (f"const a={alpha} slope {rep.small_slope_fit.slope:+.4f}",
             abs(rep.small_slope_fit.slope) <= 0.05)
        )
    checks.append(
        (f"const pair gap {abs(const_slopes[0]-const_slopes[1]):.4f}",
         abs(const_slopes[0] - const_slopes[1]) < 0.03)
    )
    ok = all(flag for _, flag in checks) and time.monotonic() - t0 < 600.0
    bad = [name for name, flag in checks if not flag]
    line = report(
        6, ok, t0,
        "all sub-checks hold" if ok else "failing: " + "; ".join(bad),
    )
    assert ok, line


def test_criterion_7_large_xi_law():
    # Near x = 0, E(e^{i phi}|x|^sigma) = 1/Gamma(beta)
    # + e^{i phi}|x|^sigma/Gamma(alpha+beta) + O(|x|^{2 sigma}).  The constant
    # transforms to a multiple of delta(xi); the |x|^sigma term, as a
    # homogeneous distribution, to e^{i phi}/Gamma(alpha+beta)
    # * pi^(-sigma-n/2) Gamma((n+sigma)/2)/Gamma(-sigma/2) * |xi|^-(n+sigma),
    # which sets the sharp law for sigma not an even integer.  For
    # alpha = beta = sigma = n = 1 the constant is 1/(2 pi^2), the tail of
    # the closed form 2/(1 + 4 pi^2 xi^2).
    t0 = time.monotonic()
    grid = np.geomspace(10.0, 1e4, 10)
    results = []
    for n, sigma in ((1, 0.7), (2, 1.5), (3, 2.2)):
        tp = TransformProblem(0.8, 1.0, math.pi, sigma, n)
        fit = fit_exponent([(x, ml_transform(tp, x)) for x in grid])
        results.append((n, sigma, fit.slope))
    ok = all(abs(s + n + sg) <= 0.05 for n, sg, s in results) and (
        time.monotonic() - t0 < 300.0
    )
    detail = ", ".join(
        f"(n={n},sigma={sg}) slope {s:+.4f} vs {-(n + sg):+.1f} required"
        for n, sg, s in results
    )
    line = report(7, ok, t0, detail)
    assert ok, line


def test_criterion_8_integrability_regions():
    t0 = time.monotonic()
    expected = {
        (1, 0.7): (10 / 3, True, 10 / 3, True),
        (1, 0.6): (2.5, True, 2.5, True),
        (2, 1.5): (4.0, True, 4.0, True),
        (3, 2.0): (3.0, True, 3.0, True),
        (3, 2.2): (3.75, True, 3.75, True),
        (5, 4.5): (10.0, True, 10.0, True),
        (1, 1.0): (math.inf, True, math.inf, True),
        (2, 2.0): (math.inf, True, math.inf, True),
        (2, 5.0): (math.inf, False, math.inf, False),
        (4, 7.0): (math.inf, False, math.inf, False),
    }
    tables_ok = True
    for (n, sigma), (fu, fuo, hu, huo) in expected.items():
        full, hy = lp_region(TransformProblem(0.8, 1.0, math.pi, sigma, n))
        good = (
            full.p_lower == 1.0
            and full.lower_open
            and full.upper_open == fuo
            and (
                math.isinf(full.p_upper)
                if math.isinf(fu)
                else abs(full.p_upper - fu) < 1e-12
            )
            and hy is not None
            and hy.p_lower == 2.0
            and not hy.lower_open
            and hy.upper_open == huo
            and (
                math.isinf(hy.p_upper)
                if math.isinf(hu)
                else abs(hy.p_upper - hu) < 1e-12
            )
        )
        tables_ok = tables_ok and good
    tp = TransformProblem(0.8, 1.0, math.pi, 0.7, 1)
    verdicts = {p: lp_numerical_check(tp, p) for p in (1.5, 2.0, 4.0)}
    numeric_ok = (
        verdicts[1.5] == "finite"
        and verdicts[2.0] == "finite"
        and verdicts[4.0] == "divergent-at-0"
    )
    ok = tables_ok and numeric_ok and time.monotonic() - t0 < 300.0
    line = report(
        8, ok, t0,
        f"tables {'match' if tables_ok else 'WRONG'}; numerical p=1.5/2/4 -> "
        + "/".join(verdicts[p] for p in (1.5, 2.0, 4.0)),
    )
    assert ok, line


def test_criterion_9_gaussian_oracle():
    t0 = time.monotonic()
    # Both routes: ml_transform (Mellin-Barnes) and split_transform, the
    # paper's split pipeline.
    tp = TransformProblem(1.0, 1.0, math.pi, 2.0, 1)
    worst = {}
    for route in (ml_transform, split_transform):
        name = route.__name__
        worst[name] = 0.0
        for xi in (0.3, 1.0):
            want = math.sqrt(math.pi) * math.exp(-math.pi ** 2 * xi ** 2)
            got = route(tp, xi)
            worst[name] = max(worst[name], abs(got - want) / want)
    ok = max(worst.values()) < 1e-6 and time.monotonic() - t0 < 30.0
    detail = ", ".join(f"{k} {v:.3e}" for k, v in worst.items())
    line = report(9, ok, t0, f"worst relative deviation {detail} (< 1e-6)")
    assert ok, line

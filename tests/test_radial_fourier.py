"""Tests for the cutoff-split radial transform, contour kernels, and the
derivative-transfer identity.

Oracles: a Gaussian profile with a closed-form transform, a reference
Hankel quadrature, finite differences for derivatives, and mutual
cross-checks between independent evaluation routes.
"""

import cmath
import math
import sys
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from mlfourier import radial_fourier
from mlfourier.bessel import jbar
from mlfourier.errors import DomainError
from mlfourier.mittag_leffler import MLParams, _contour, ml_eval
from mlfourier.special_core import (
    accelerated_limit,
    complex_gamma,
    integrate_finite,
)
from mlfourier.radial_fourier import (
    XI_MAX,
    TransformProblem,
    compute_M,
    compute_N,
    cutoff_derivative,
    cutoff_phi,
    cutoff_psi,
    ibp_identity_check,
    min_ibp_order,
    ml_transform,
    q_kernel,
    split_transform,
    _profile,
    _qtilde_constants,
    _require_xi,
)

GAUSS_TP = TransformProblem(alpha=1.0, beta=1.0, phi=math.pi, sigma=2.0, n=1)
BASE_TP = TransformProblem(alpha=0.8, beta=1.0, phi=math.pi, sigma=1.0, n=1)
# (alpha, beta, phi, sigma, n) off the reference problems: phases other
# than pi, alpha past 1 and down to 0.3, and n = 4.
Q_PROBLEMS = [
    (0.8, 1.0, math.pi, 2.2, 3),
    (1.2, 0.7, 2.3, 2.0, 4),
    (0.5, 1.5, 2.0, 2.5, 4),
    (1.5, 1.0, 0.75 * math.pi + 0.3, 2.2, 3),
    (0.3, 0.5, 1.806, 2.5, 4),
]


def gauss_closed_form(xi: float) -> float:
    return math.sqrt(math.pi) * math.exp(-math.pi ** 2 * xi ** 2)


def rel_err(a, b) -> float:
    return abs(a - b) / abs(b)


def transform_direct(tp, xi_mag):
    """Single-pass QUADPACK evaluation of the unsplit integrand (no cutoff
    split): head on [0, 2.5] plus accelerated half-period chunks beyond.
    An independent reference for the split's M + N."""
    g = _profile(tp, xi_mag)
    n = tp.n

    def f(r: float):
        return g(r) * jbar(n, r)

    head = integrate_finite(f, 0.0, 2.5, points=[1.0, 2.0]).value
    chunks = (
        integrate_finite(f, 2.5 + 0.5 * k, 3.0 + 0.5 * k).value for k in range(400)
    )
    return head + accelerated_limit(chunks, max_terms=400)[0]


def fourier_radial_reference(f0, n, xi_mag):
    """n-dimensional radial Fourier transform of the profile f0,

        (2 pi / |xi|^(n/2-1)) integral_0^inf f0(r) J_(n/2-1)(2 pi |xi| r)
        r^(n/2) dr,

    as 2 pi |xi|^(1-n) times the accelerated half-period chunk sum of
    f0(r) jbar_n(|xi| r), each chunk by QUADPACK.  For decaying,
    non-oscillatory profiles."""
    _require_xi(xi_mag)
    half_period = 0.5 / xi_mag

    def f(r: float):
        return f0(r) * jbar(n, xi_mag * r)

    chunks = (
        integrate_finite(f, k * half_period, (k + 1) * half_period).value
        for k in range(4000)
    )
    value = accelerated_limit(chunks, max_terms=4000)[0]
    return 2.0 * math.pi * xi_mag ** (1 - n) * value


class TestTransformProblem:
    def test_accepts_admissible(self):
        for sigma, n in ((1.0, 1), (1.1, 3)):
            tp = TransformProblem(0.8, 1.0, math.pi, sigma, n)
            assert (tp.sigma, tp.n) == (sigma, n)

    def test_rejects_alpha_outside_range(self):
        with pytest.raises(DomainError):
            TransformProblem(2.0, 1.0, math.pi, 1.0, 1)
        with pytest.raises(DomainError):
            TransformProblem(0.0, 1.0, math.pi, 1.0, 1)

    def test_rejects_phase_outside_sector(self):
        # |phi| must exceed pi*alpha/2
        with pytest.raises(DomainError, match="pi\\*alpha/2"):
            TransformProblem(1.5, 1.0, 2.0, 1.0, 1)

    def test_rejects_phase_outside_principal_range(self):
        with pytest.raises(DomainError):
            TransformProblem(0.5, 1.0, 4.0, 1.0, 1)

    def test_rejects_bad_sigma_and_dim(self):
        with pytest.raises(DomainError):
            TransformProblem(0.8, 1.0, math.pi, 0.0, 1)
        with pytest.raises(DomainError, match="finite sigma"):
            TransformProblem(0.8, 1.0, math.pi, math.inf, 1)
        with pytest.raises(DomainError):
            TransformProblem(0.8, 1.0, math.pi, 1.0, 0)
        with pytest.raises(DomainError):
            TransformProblem(0.8, 1.0, math.pi, 1.0, 1.5)

    def test_rejects_infinite_beta(self):
        with pytest.raises(DomainError, match="finite beta > 0"):
            TransformProblem(0.8, math.inf, math.pi, 0.7, 1)

    def test_rejects_sigma_at_or_below_the_paper_scope(self):
        # sigma > (n-1)/2 is the scope of the paper's results; for n = 3,
        # 1.0 is the boundary (n-1)/2 itself, and it is outside
        for sigma in (0.9, 1.0):
            with pytest.raises(DomainError) as exc:
                TransformProblem(0.8, 1.0, math.pi, sigma, 3)
            assert str(exc.value) == (
                f"finite sigma > (n-1)/2 = 1.0 required, got sigma = {sigma}"
            )


class TestTailStrategy:
    def test_min_ibp_order(self):
        assert [min_ibp_order(n) for n in (1, 2, 3, 4, 5)] == [2, 2, 3, 3, 4]
        for n in (1, 2, 3, 4, 5):
            N = min_ibp_order(n)
            assert N > 0.5 * (n - 1) + 1
            assert not N - 1 > 0.5 * (n - 1) + 1
        with pytest.raises(DomainError):
            min_ibp_order(0)


class TestCutoffs:
    def test_plateau_and_support(self):
        assert cutoff_phi(0.0) == 1.0
        assert cutoff_phi(0.5) == 1.0
        assert cutoff_phi(-1.0) == 1.0
        assert cutoff_phi(2.0) == 0.0
        assert cutoff_phi(3.0) == 0.0
        assert cutoff_psi(3.0) == 1.0
        assert cutoff_psi(0.5) == 0.0

    def test_partition_of_unity(self):
        for r in np.linspace(0.0, 3.0, 61):
            assert abs(cutoff_phi(r) + cutoff_psi(r) - 1.0) < 1e-15

    def test_transition_midpoint_symmetry(self):
        # h(2-|r|) and h(|r|-1) trade places under r -> 3-r
        assert abs(cutoff_phi(1.5) - 0.5) < 1e-15
        for s in (0.1, 0.25, 0.4):
            assert abs(cutoff_phi(1 + s) + cutoff_phi(2 - s) - 1.0) < 1e-14

    def test_strictly_inside_transition(self):
        v = cutoff_phi(1.5)
        assert 0.0 < v < 1.0

    def test_derivative_order_zero_is_psi(self):
        assert cutoff_derivative(0, 0.5) == 0.0
        assert cutoff_derivative(0, 3.0) == 1.0
        assert abs(cutoff_derivative(0, 1.5) - cutoff_psi(1.5)) < 1e-15

    def test_derivative_supported_in_transition(self):
        for m in range(1, 7):
            assert cutoff_derivative(m, 0.5) == 0.0
            assert cutoff_derivative(m, 1.0) == 0.0
            assert cutoff_derivative(m, 2.0) == 0.0
            assert cutoff_derivative(m, 3.0) == 0.0

    def test_first_derivative_matches_finite_difference(self):
        h = 1e-5
        for r in (1.2, 1.5, 1.8):
            fd = (cutoff_psi(r + h) - cutoff_psi(r - h)) / (2 * h)
            assert abs(cutoff_derivative(1, r) - fd) < 1e-6

    def test_derivatives_match_symbolic(self):
        # The float recurrences against symbolic differentiation of
        # psi_cut = l/(h + l), h = e^{-1/(2-r)}, l = e^{-1/(r-1)}.
        import sympy as sp

        r = sp.symbols("r", positive=True)
        hi = sp.exp(-1 / (2 - r))
        lo = sp.exp(-1 / (r - 1))
        expr = lo / (hi + lo)
        grid = np.linspace(1.01, 1.99, 50)
        for m in range(1, 7):
            expr = sp.diff(expr, r)
            exact = sp.lambdify(r, expr, modules="math")
            want = np.array([exact(x) for x in grid])
            got = np.array([cutoff_derivative(m, x) for x in grid])
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_higher_derivatives_match_finite_difference(self):
        h = 1e-4
        for m in (2, 3):
            for r in (1.3, 1.6):
                fd = (
                    cutoff_derivative(m - 1, r + h)
                    - cutoff_derivative(m - 1, r - h)
                ) / (2 * h)
                scale = max(1.0, abs(fd))
                assert abs(cutoff_derivative(m, r) - fd) < 1e-5 * scale

    def test_derivative_of_an_array_is_the_scalar_values(self):
        # r <= 1 and r >= 2 among the points, where the derivatives vanish.
        ends = [0.0, 0.5, 1.0, 1.0 + 1e-10, 2.0 - 1e-10, 2.0, 2.5, 7.0]
        r = np.concatenate((ends, np.linspace(1.0, 2.0, 100)))
        for m in range(1, 7):
            got = cutoff_derivative(m, r.reshape(3, -1))
            assert got.shape == (3, r.size // 3)
            want = np.array([cutoff_derivative(m, float(x)) for x in r])
            assert np.array_equal(got.ravel(), want), m

    def test_order_gate(self):
        with pytest.raises(DomainError):
            cutoff_derivative(7, 1.5)
        with pytest.raises(DomainError):
            cutoff_derivative(-1, 1.5)


class TestReferenceTransform:
    def test_gaussian_self_duality(self):
        f0 = lambda r: math.exp(-math.pi * r * r)
        for n in (1, 2, 3):
            got = fourier_radial_reference(f0, n, 1.0)
            assert abs(got - math.exp(-math.pi)) < 1e-9

    def test_indicator_zero_crossing(self):
        f0 = lambda r: 1.0 if r < 1.0 else 0.0
        # sin(2 pi xi)/(pi xi) vanishes at xi = 1/2
        got = fourier_radial_reference(f0, 1, 0.5)
        assert abs(got) < 1e-9

    def test_indicator_general_point(self):
        f0 = lambda r: 1.0 if r < 1.0 else 0.0
        xi = 0.3
        want = math.sin(2 * math.pi * xi) / (math.pi * xi)
        got = fourier_radial_reference(f0, 1, xi)
        assert abs(got - want) < 1e-9

    def test_zero_profile(self):
        assert fourier_radial_reference(lambda r: 0.0, 2, 1.0) == 0.0

    def test_rejects_bad_xi(self):
        with pytest.raises(DomainError):
            fourier_radial_reference(lambda r: 0.0, 1, 0.0)


class TestComputeM:
    def test_cross_check_against_reference(self):
        # exp-profile case: the compact part equals the reference transform
        # of the cut profile
        tp = TransformProblem(1.0, 1.0, math.pi, 1.0, 1)
        m_val = compute_M(tp, 1.0)
        p = MLParams(1.0, 1.0)
        f0 = lambda r: cutoff_phi(r) * ml_eval(p, -r)
        want = fourier_radial_reference(f0, 1, 1.0) / (2 * math.pi)
        assert abs(m_val - want) < 1e-8 * max(1.0, abs(want))

    def test_large_xi_plateau_value(self):
        # E(...) -> 1/Gamma(beta) uniformly on [0,2] as |xi| grows, so M
        # approaches the cut moment of the kernel
        tp = TransformProblem(0.5, 1.2, math.pi, 0.7, 2)
        target = (
            integrate_finite(
                lambda r: cutoff_phi(r) * jbar(2, r),
                0.0,
                2.0,
                points=[1.0],
            ).value
            / complex_gamma(1.2)
        )
        got = compute_M(tp, 1e6)
        assert abs(got - target) < 2e-4 * abs(target)

    def test_small_xi_scaled_value_stabilizes(self):
        # |xi|^{-sigma} M approaches a constant; successive decades shrink
        # the deviation
        tp = TransformProblem(0.5, 1.2, math.pi, 0.7, 2)
        target = -(
            cmath.exp(-1j * tp.phi)
            / complex_gamma(tp.beta - tp.alpha)
            * integrate_finite(
                lambda r: cutoff_phi(r) * jbar(2, r) * r ** -0.7,
                0.0,
                2.0,
                points=[1.0],
            ).value
        )
        devs = []
        for xi in (1e-2, 1e-3, 1e-4):
            got = compute_M(tp, xi) / xi ** tp.sigma
            devs.append(abs(got - target) / abs(target))
        assert devs[1] < 0.5 * devs[0]
        assert devs[2] < 0.5 * devs[1]
        assert devs[2] < 5e-3

    @pytest.mark.parametrize(
        "alpha, beta, n, sigma, xi, bound",
        [
            pytest.param(a, b, n, 0.7, xi, 1e-8, id=f"{a}-{b}-{n}-{xi}")
            for a, b, n in ((0.8, 1.0, 1), (0.5, 1.2, 2))
            for xi in (1e-9, 1e-12)
        ]
        # |M| ~ xi^2.2 is 1.2e-14 and 2.9e-10 here, under abs_tol = 1e-12:
        # only a tolerance scaled to that size holds M to 1e-10 (a fixed
        # abs_tol left 5.5e-10).
        + [pytest.param(0.8, 1.0, 3, 2.2, xi, 1e-10, id=f"0.8-1.0-3-2.2-{xi}")
           for xi in (1e-6, 1e-4)],
    )
    def test_tiny_xi_matches_log_variable_reference(
        self, alpha, beta, n, sigma, xi, bound
    ):
        # The profile turns over at r ~ xi and decays like r^-sigma out to
        # r = 1.  On [0, 1], where cutoff_phi = 1, the variable t = log(r/xi)
        # makes that whole stretch smooth on a unit scale; [1, 2] is taken
        # directly.
        tp = TransformProblem(alpha, beta, math.pi, sigma, n)
        phase = cmath.exp(1j * tp.phi)

        def integrand(r):
            return ml_eval(tp.ml, phase * (r / xi) ** tp.sigma) * jbar(n, r)

        def inner(t):
            r = xi * math.exp(t)
            return r * integrand(r)

        def outer(r):
            return cutoff_phi(r) * integrand(r)

        want = 0j
        for f, a, b in ((inner, -60.0, math.log(1.0 / xi)), (outer, 1.0, 2.0)):
            for unit, part in ((1.0, lambda v: v.real), (1j, lambda v: v.imag)):
                val, _ = quad(
                    lambda x: part(f(x)), a, b, epsabs=1e-20, epsrel=1e-12, limit=200
                )
                want += unit * val
        got = compute_M(tp, xi)
        assert abs(got - want) <= bound * abs(want)

    def test_rejects_nonpositive_xi(self):
        with pytest.raises(DomainError):
            compute_M(BASE_TP, 0.0)

    @pytest.mark.parametrize("xi", [math.inf, math.nan])
    def test_rejects_non_finite_xi(self, xi):
        for part in (compute_M, compute_N):
            with pytest.raises(DomainError, match="finite"):
                part(BASE_TP, xi)


class TestComputeN:
    def test_strategies_agree(self):
        # The expansion tail against the raw integrand's chunk sum, less the
        # compact part.
        for xi in (0.1, 1.0, 10.0):
            a = compute_N(BASE_TP, xi)
            b = transform_direct(BASE_TP, xi) - compute_M(BASE_TP, xi)
            assert abs(a - b) < 1e-6 * max(abs(a), abs(b))

    def test_small_xi_scaled_limit_nonzero(self):
        vals = [compute_N(BASE_TP, xi) / xi ** BASE_TP.sigma for xi in (3e-3, 1e-3)]
        assert abs(vals[0] - vals[1]) < 0.05 * abs(vals[1])
        assert abs(vals[1]) > 1e-4

    def test_large_xi_limit_matches_cut_moment(self):
        # in dimension 2 the tail approaches the negated cut moment over
        # Gamma(beta): the regularized full-line kernel moment vanishes
        tp = TransformProblem(0.5, 1.2, math.pi, 0.7, 2)
        target = -(
            integrate_finite(
                lambda r: cutoff_phi(r) * jbar(2, r),
                0.0,
                2.0,
                points=[1.0],
            ).value
            / complex_gamma(1.2)
        )
        got = compute_N(tp, 1e6)
        assert abs(got - target) < 1e-2 * abs(target)

    def test_sigma_scope_gate(self):
        # The problem type refuses sigma <= (n-1)/2 before compute_N runs.
        with pytest.raises(DomainError, match=r"sigma > \(n-1\)/2"):
            compute_N(TransformProblem(0.8, 1.0, math.pi, 0.9, 3), 1.0)

    def test_fast_exponential_term_near_the_sector_boundary(self):
        # 0.18 rad inside the sector E's exponential term turns about 120
        # rad per unit r at r = 2 here, and 1/Gamma(beta - alpha) is near a
        # pole, so that term is about 2% of the profile.  16 Gauss-Legendre
        # nodes on [2, 2.5] leave N 1.5e-3 off, and F 9.5e-7, unless such
        # chunks are tanh-sinh panels.
        alpha = 1.7637
        tp = TransformProblem(alpha, 0.7765, 0.5 * math.pi * alpha + 0.1799, 2.4197, 3)
        xi = 0.0459
        assert rel_err(split_transform(tp, xi), ml_transform(tp, xi)) <= 1e-10


class TestMlTransform:
    # Each end-to-end check runs both routes: ml_transform, the
    # Mellin-Barnes route, and split_transform, the paper's split pipeline
    # (2 pi/|xi|^n)(M + N).

    def test_gaussian_oracle(self):
        for route in (ml_transform, split_transform):
            for xi in (0.3, 1.0):
                got = route(GAUSS_TP, xi)
                want = gauss_closed_form(xi)
                assert abs(got - want) < 1e-6 * abs(want), route.__name__

    def test_split_at_large_xi_in_three_dimensions(self):
        # At n = 3, sigma = 2.2, xi = 100 |M + N| is about 3e-7 of |M|, so
        # the split's panel errors are magnified most here.
        tp = TransformProblem(0.8, 1.0, math.pi, 2.2, 3)
        split = split_transform(tp, 100.0)
        mellin = ml_transform(tp, 100.0)
        assert abs(split - mellin) < 1e-5 * abs(mellin)

    def test_depends_on_magnitude_only(self):
        # the API admits no direction argument; same magnitude, same value
        assert ml_transform(GAUSS_TP, 0.7) == ml_transform(GAUSS_TP, 0.7)

    def test_scaling_consistency(self):
        # the split's substituted form (profile argument r/|xi|, scaled
        # kernel) and the Mellin-Barnes route both match the unsubstituted
        # reference transform of the raw profile
        tp = BASE_TP
        xi = 2.0
        p = MLParams(tp.alpha, tp.beta)
        f0 = lambda r: ml_eval(p, cmath.exp(1j * tp.phi) * r ** tp.sigma)
        want = fourier_radial_reference(f0, 1, xi)
        for route in (ml_transform, split_transform):
            got = route(tp, xi)
            assert abs(got - want) < 1e-8 * abs(want), route.__name__

    @pytest.mark.parametrize(
        "alpha,beta,phi,sigma,n,xi",
        [
            (0.8, 1.0, math.pi, 1.0, 1, 1.0),
            (0.5, 1.2, math.pi, 0.9, 2, 0.7),
            (1.2, 1.0, 3.0, 1.5, 1, 2.0),
            (0.7, 0.8, -2.8, 1.2, 3, 1.3),
            (1.5, 2.0, 2.5, 2.0, 2, 0.4),
        ],
    )
    def test_split_consistency(self, alpha, beta, phi, sigma, n, xi):
        tp = TransformProblem(alpha, beta, phi, sigma, n)
        split = compute_M(tp, xi) + compute_N(tp, xi)
        direct = transform_direct(tp, xi)
        assert abs(split - direct) < 1e-6 * max(abs(split), abs(direct))

    def test_continuity_on_local_grids(self):
        # linear midpoint prediction on a tight geometric triple; a jump
        # would blow the deviation up to O(1).  xi = 80 lies on the split's
        # large-xi cancellation floor.
        for route in (ml_transform, split_transform):
            for xi in (0.02, 3.0, 80.0):
                h = 5e-3
                lo = route(BASE_TP, xi * (1 - h))
                mid = route(BASE_TP, xi)
                hi = route(BASE_TP, xi * (1 + h))
                assert abs(0.5 * (lo + hi) - mid) < 5e-2 * abs(mid), route.__name__

    def test_no_jump_under_tiny_step(self):
        for route in (ml_transform, split_transform):
            for xi in (0.5, 20.0):
                a = route(BASE_TP, xi)
                b = route(BASE_TP, xi * (1 + 1e-6))
                assert abs(a - b) < 1e-4 * abs(a), route.__name__

    @pytest.mark.parametrize("n,sigma", [(1, 0.7), (2, 1.5), (3, 2.2)])
    def test_split_on_the_reference_problems(self, n, sigma):
        # The worst point is (3, 2.2) at xi = 100, 4.3e-7: the split's M + N
        # cancellation floor.  Every point with xi <= 1 is within 2.3e-12.
        tp = TransformProblem(0.8, 1.0, math.pi, sigma, n)
        for xi in np.geomspace(1e-2, 1e2, 7):
            split, mellin = split_transform(tp, xi), ml_transform(tp, xi)
            assert rel_err(split, mellin) <= 1e-6, xi

    @pytest.mark.parametrize("xi", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_xi(self, xi):
        with pytest.raises(DomainError, match="finite"):
            ml_transform(BASE_TP, xi)
        with pytest.raises(DomainError, match="finite"):
            ml_transform(BASE_TP, np.array([1.0, xi]))

    def test_xi_limit_is_where_pi_xi_leaves_double_range(self):
        assert math.isfinite(math.pi * XI_MAX)
        assert math.pi * math.nextafter(XI_MAX, math.inf) == math.inf
        for tp in (BASE_TP, TransformProblem(0.8, 1.0, math.pi, 2.2, 3)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert ml_transform(tp, XI_MAX) == 0.0
                assert np.all(ml_transform(tp, np.array([1e300, XI_MAX])) == 0.0)
            for xi in (math.nextafter(XI_MAX, math.inf), 1.7e308, sys.float_info.max):
                with pytest.raises(DomainError, match="5.722e"):
                    ml_transform(tp, xi)
                with pytest.raises(DomainError, match="5.722e"):
                    ml_transform(tp, np.array([1.0, xi]))

    @pytest.mark.parametrize(
        "alpha,beta,phi,sigma,n,h",
        [
            (0.8, 1.0, math.pi, 0.7, 1, 0.1),
            (0.8, 1.0, math.pi, 1.5, 2, 0.1),
            (0.8, 1.0, math.pi, 2.2, 3, 0.1),
            # F turns faster in log xi here: h = 0.1 leaves 2.9e-7
            (1.3, 0.7, -2.5, 1.5, 2, 0.05),
        ],
    )
    def test_inversion_at_the_origin(self, alpha, beta, phi, sigma, n, h):
        # f(0) = E(0) = 1/Gamma(beta) is the integral of F over R^n:
        # |S^(n-1)| times the integral of F(e^u) e^(nu) du, whose integrand
        # decays like e^(-sigma u) and e^(nu) at the two ends, so the
        # trapezoid sum on [-60/sigma, 60/sigma] converges geometrically.
        tp = TransformProblem(alpha, beta, phi, sigma, n)
        k = math.ceil(60.0 / sigma / h)
        u = h * np.arange(-k, k + 1)
        terms = ml_transform(tp, np.exp(u)) * np.exp(n * u)
        sphere = 2.0 * math.pi ** (n / 2) / math.gamma(n / 2)
        got = sphere * h * complex(math.fsum(terms.real), math.fsum(terms.imag))
        assert abs(got - 1.0 / math.gamma(beta)) <= 1e-13


class TestQKernel:
    def test_value_at_origin(self):
        for alpha, beta in ((0.8, 1.0), (0.5, 1.2), (1.3, 2.0)):
            tp = TransformProblem(alpha, beta, math.pi, 1.0, 1)
            got = q_kernel(tp, 0, 0.0)
            want = 2j * math.pi * alpha / complex_gamma(beta)
            assert abs(got - want) < 1e-12 * abs(want)

    def test_matches_ml_eval_route(self):
        # Q_0(u) = 2 pi i alpha E(e^{i phi} u^sigma), by the independent
        # Laplace-inversion and sector-sum routes of ml_eval.
        u = np.geomspace(1e-4, 1e6, 60)
        for problem in Q_PROBLEMS:
            tp = TransformProblem(*problem)
            got = q_kernel(tp, 0, u)
            want = (2j * math.pi * tp.alpha
                    * ml_eval(tp.ml, cmath.exp(1j * tp.phi) * u ** tp.sigma))
            assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want)), problem

    @pytest.mark.parametrize("alpha,beta,phi,sigma,n", Q_PROBLEMS)
    def test_array_equals_floats_bit_for_bit(self, alpha, beta, phi, sigma, n):
        tp = TransformProblem(alpha, beta, phi, sigma, n)
        u = np.geomspace(1e-3, 1e4, 12).reshape(3, 4)
        for ell in range(4):
            got = q_kernel(tp, ell, u)
            assert got.shape == u.shape
            assert got.tolist() == [[q_kernel(tp, ell, float(x)) for x in row] for row in u]

    def test_first_order_matches_finite_difference(self):
        tp = BASE_TP
        r = 1.7
        h = 1e-5
        fd = r * (q_kernel(tp, 0, r + h) - q_kernel(tp, 0, r - h)) / (2 * h)
        got = q_kernel(tp, 1, r)
        assert abs(got - fd) < 1e-5 * abs(fd)

    def test_second_order_matches_finite_difference(self):
        tp = TransformProblem(0.8, 1.0, math.pi, 0.7, 1)
        r = 1.3
        h = 1e-4
        d1 = lambda u: (
            q_kernel(tp, 0, u + h) - q_kernel(tp, 0, u - h)
        ) / (2 * h)
        d2 = (d1(r + h) - d1(r - h)) / (2 * h)
        want = r * r * d2  # order ell is u^ell (d/du)^ell of the base kernel
        got = q_kernel(tp, 2, r)
        assert abs(got - want) < 1e-4 * abs(want)

    def test_symbolic_constants_order_two(self):
        s = 0.7
        c1, c2 = _qtilde_constants(2, s)
        assert abs(c1 - s * (s - 1)) < 1e-12
        assert abs(c2 - 2 * s * s) < 1e-12
        # Orders 3..6 against symbolic differentiation of the definition:
        # at u = 1 and z = E + 1 every factor u^(j S) (z - E u^S)^(-(j+1))
        # is 1, so u^ell d^ell/du^ell (z - E u^S)^(-1) becomes
        # sum_j C~_j E^j and C~_j is the coefficient of E^j.
        import sympy as sp

        u, z, E, S = sp.symbols("u z E S")
        for ell in range(3, 7):
            deriv = sp.diff(1 / (z - E * u**S), u, ell)
            poly = sp.Poly(sp.expand(deriv.subs({u: 1, z: E + 1})), E)
            for s in (0.7, 2.2):
                got = _qtilde_constants(ell, s)
                assert len(got) == ell
                for j, c in enumerate(got, start=1):
                    coeff = poly.coeff_monomial(E**j)
                    want = float(coeff.subs(S, sp.Rational(str(s))))
                    assert abs(c - want) <= 1e-12 * max(abs(want), 1.0)

    def test_large_r_boundary_decay(self):
        # r^sigma |Q_0| approaches 2 pi alpha / |Gamma(beta - alpha)| from
        # the first term of the reciprocal expansion
        tp = BASE_TP
        target = (
            2 * math.pi * tp.alpha / abs(complex_gamma(tp.beta - tp.alpha))
        )
        rels = []
        for r in (1e2, 1e3, 1e4):
            got = r ** tp.sigma * abs(q_kernel(tp, 0, r))
            rels.append(abs(got - target) / target)
        assert rels[1] < rels[0]
        assert rels[2] < rels[1]
        assert rels[2] < 1e-3
        # u^ell (d/du)^ell u^-sigma = (-sigma)(-sigma-1)...(-sigma-ell+1)
        # u^-sigma, so r^sigma |Q_ell| approaches that target times
        # prod_{j<ell} (sigma + j).  Each Q_ell is one contour integral:
        # summing ell pole integrals, each to an absolute 1e-12, and then
        # weighting them by r^(j sigma) left 1.6e-6 at r = 1e4.
        tp = TransformProblem(0.8, 1.0, math.pi, 2.2, 3)
        base = 2 * math.pi * tp.alpha / abs(complex_gamma(tp.beta - tp.alpha))
        r = 1e4
        for ell in (1, 2, 3):
            target = base * math.prod(tp.sigma + j for j in range(ell))
            got = r ** tp.sigma * abs(q_kernel(tp, ell, r))
            assert abs(got - target) < 1e-7 * target, ell

    def test_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            q_kernel(BASE_TP, -1, 1.0)
        with pytest.raises(DomainError):
            q_kernel(BASE_TP, 0, -1.0)

    @pytest.mark.parametrize(
        "ell,r",
        [(0, math.nan), (0, math.inf), (1, np.array([1.0, math.nan])),
         (0, np.array([[2.0], [-1.0]])), (1.0, 1.0), (0.5, 1.0), ("1", 1.0)],
    )
    def test_rejects_non_finite_r_and_non_integer_ell(self, ell, r):
        # A typed domain error (CLI exit 2), not AccuracyError or TypeError.
        with pytest.raises(DomainError):
            q_kernel(BASE_TP, ell, r)


class TestIbpIdentity:
    @pytest.mark.parametrize("ell,order", [(0, 1), (0, 2), (1, 1)])
    @pytest.mark.parametrize("xi", [0.5, 1.0, 2.0])
    def test_identity_holds(self, ell, order, xi):
        rel = ibp_identity_check(BASE_TP, xi, ell, order)
        assert rel < 1e-5

    @pytest.mark.parametrize(
        "n,sigma,k",
        [(2, 1.5, 0), (2, 1.5, 1), (3, 2.2, 0), (3, 2.2, 1), (3, 2.2, 2),
         (3, 2.2, 4), (3, 2.2, 5)],
    )
    def test_identity_on_the_reference_problems(self, n, sigma, k):
        # The points xi = geomspace(1e-2, 1e2, 7)[k] where the kernels'
        # Chebyshev fit missed 1e-9 by degree 512 while Q_ell was a sum of
        # separately integrated pole kernels.
        tp = TransformProblem(0.8, 1.0, math.pi, sigma, n)
        xi = float(np.geomspace(1e-2, 1e2, 7)[k])
        assert ibp_identity_check(tp, xi, 0, min_ibp_order(n)) < 1e-5

    @pytest.mark.parametrize(
        "alpha,beta,phi,sigma,n",
        [(0.5, 1.5, 2.0, 2.5, 4), (0.8, 1.0, -2.0, 1.5, 2),
         (1.2, 0.7, 2.3, 2.0, 4), (1.5, 1.0, 0.75 * math.pi + 0.3, 2.2, 3)],
    )
    def test_identity_off_the_negative_axis(self, alpha, beta, phi, sigma, n):
        # Phases other than pi, and n = 4 past the reference problems.  On
        # the last two the kernels' exponential term turns fast on the
        # chunks of width pi; those chunks are tanh-sinh panels.
        tp = TransformProblem(alpha, beta, phi, sigma, n)
        assert ibp_identity_check(tp, 0.3, 0, min_ibp_order(n)) < 1e-9

    def test_each_kernel_is_evaluated_once_per_node_set(self, monkeypatch):
        # At n = 2, ell = 0 the left side's Q_0 and the l1 = N tail term's
        # Q_0 meet on the same nodes, as do edge terms with the same l3.
        calls = []
        evaluate = radial_fourier.q_kernel

        def recorder(tp, ell, r):
            calls.append((ell, r.shape, r.tobytes()))
            return evaluate(tp, ell, r)

        monkeypatch.setattr(radial_fourier, "q_kernel", recorder)
        tp = TransformProblem(0.8, 1.0, -2.0, 1.5, 2)
        assert ibp_identity_check(tp, 0.3, 0, 2) < 1e-9
        assert calls and len(set(calls)) == len(calls)

    def test_module_reaches_no_quadpack(self):
        # The check sums on compute_N's chunk routine, not per-chunk QUADPACK.
        for name in ("integrate_finite", "integrate_semi_infinite"):
            assert not hasattr(radial_fourier, name), name

    def test_boundary_envelope_decreasing(self):
        # psi(r) r^{(n-1)/2 - ell - sigma j} -> 0 for j >= 1
        tp = BASE_TP
        for j in (1, 2):
            env = [
                cutoff_psi(r) * r ** (0.5 * (tp.n - 1) - tp.sigma * j)
                for r in (1e2, 1e3, 1e4)
            ]
            assert env[0] > env[1] > env[2]

    def test_order_gate(self):
        with pytest.raises(DomainError):
            ibp_identity_check(BASE_TP, 1.0, 0, 4)
        with pytest.raises(DomainError):
            ibp_identity_check(BASE_TP, 1.0, 0, 0)
        with pytest.raises(DomainError):
            ibp_identity_check(BASE_TP, 1.0, 2, 1)

    def test_sigma_scope_gate(self):
        # The problem type refuses sigma <= (n-1)/2 before the check runs.
        with pytest.raises(DomainError, match=r"sigma > \(n-1\)/2"):
            ibp_identity_check(TransformProblem(0.8, 1.0, math.pi, 0.9, 3), 1.0, 0, 1)


class TestContourSeparation:
    def test_pole_distance_bound(self):
        # every contour point stays at least max(1, r) sin(|phi| - omega)
        # away from the kernel pole r e^{i phi}
        tp = BASE_TP
        p = MLParams(tp.alpha, tp.beta)
        eps, omega = _contour(p, tp.phi, 0.0)
        gap = math.sin(abs(tp.phi) - omega)
        assert gap > 0.0
        zs = [
            eps * cmath.exp(1j * t)
            for t in np.linspace(-omega, omega, 17)
        ]
        zs += [
            rho * cmath.exp(sign * 1j * omega)
            for rho in np.geomspace(eps, 50.0, 9)
            for sign in (1.0, -1.0)
        ]
        for r in (0.1, 1.0, 10.0):
            # in the decay sector the contour does not depend on |pole|
            assert _contour(p, tp.phi, r) == (eps, omega)
            pole = r * cmath.exp(1j * tp.phi)
            bound = max(1.0, r) * gap
            for z in zs:
                assert abs(z - pole) >= bound - 1e-12

"""Tests for Bessel evaluators and the extended asymptotic expansion.

Frozen constants are 25-digit references computed once from the defining
series in high-precision arithmetic; scipy.special.jv serves as an
independent cross-implementation oracle.
"""

import cmath
import math

import mpmath
import numpy as np
import pytest
from scipy.special import jv

from mlfourier.bessel import (
    BesselOrder,
    bessel_asymptotic,
    bessel_j_half_identity,
    bessel_j_reference,
    bessel_j_series,
    build_expansion,
    jbar,
    remainder_decay_certificate,
    small_argument_leading,
    small_argument_remainder_constant,
    _asymptotic_eval,
    _expansion_coeffs,
)
from mlfourier.errors import (
    DegenerateFitError,
    DomainError,
    FitError,
)

J0_AT_39_5 = 0.0672680985097538596732556
J27_AT_25 = 0.04822051962389762060365857
J_COMPLEX_AT_3 = 0.4147054563236916299677906 + 0.2161757142787137346001218j

CERT_GRID = np.geomspace(12.0, 190.0, 12)


class TestBesselOrder:
    def test_accepts_interior(self):
        BesselOrder(0.0)
        BesselOrder(2.5 + 1.0j)
        BesselOrder(-0.5)

    def test_rejects_left_of_boundary(self):
        with pytest.raises(DomainError):
            BesselOrder(-0.6)

    def test_rejects_complex_boundary(self):
        with pytest.raises(DomainError):
            BesselOrder(-0.5 + 0.3j)


class TestSeries:
    def test_at_zero(self):
        assert bessel_j_series(0, 0.0) == 1.0
        assert bessel_j_series(1, 0.0) == 0.0
        assert bessel_j_series(0.3 + 0.1j, 0.0) == 0.0

    def test_zero_of_half_order_at_pi(self):
        assert abs(bessel_j_series(0.5, math.pi)) < 1e-15

    @pytest.mark.parametrize("lam", [0, 0.5, 1, 1.5, 2, 2.7, 5])
    @pytest.mark.parametrize("r", [0.3, 1, 5, 10, 12, 20, 30, 39.5, 40])
    def test_against_scipy(self, lam, r):
        assert abs(bessel_j_series(lam, r) - jv(lam, r)) < 1e-11

    def test_escalated_zone_frozen_value(self):
        assert abs(bessel_j_series(0, 39.5) - J0_AT_39_5) < 1e-12
        assert abs(bessel_j_series(2.7, 25.0) - J27_AT_25) < 1e-12

    def test_complex_order(self):
        assert abs(bessel_j_series(1 + 0.5j, 3.0) - J_COMPLEX_AT_3) < 1e-12

    # bessel_j_reference keeps the series domain on its scipy route for
    # real orders
    def test_rejects_negative_radius(self):
        for evaluate in (bessel_j_series, bessel_j_reference):
            with pytest.raises(DomainError):
                evaluate(0, -1.0)

    @pytest.mark.parametrize("r", [math.nan, math.inf])
    def test_reference_rejects_non_finite_radius(self, r):
        # scipy's jv would return nan on the real-order route
        with pytest.raises(DomainError, match="finite"):
            bessel_j_reference(1.0, r)

    def test_rejects_divergent_origin(self):
        for evaluate in (bessel_j_series, bessel_j_reference):
            with pytest.raises(DomainError):
                evaluate(-0.3, 0.0)

    def test_boundary_order_points_to_identity(self):
        for evaluate in (bessel_j_series, bessel_j_reference):
            with pytest.raises(DomainError):
                evaluate(BesselOrder(-0.5), 1.0)


class TestHalfIdentity:
    def test_worked_examples(self):
        assert abs(bessel_j_half_identity(math.pi / 2)) < 1e-15
        assert abs(bessel_j_half_identity(2 * math.pi) - 1 / math.pi) < 1e-15
        assert abs(bessel_j_half_identity(1.0) - 0.4310988680183761) < 1e-12

    @pytest.mark.parametrize("r", [0.3, 1.0, 4.0, 17.5])
    def test_matches_scipy_half_order(self, r):
        assert abs(bessel_j_half_identity(r) - jv(-0.5, r)) < 1e-13

    def test_rejects_origin(self):
        with pytest.raises(DomainError):
            bessel_j_half_identity(0.0)


class TestSmallArgument:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_companion_bound_holds(self, n):
        C = small_argument_remainder_constant(n)
        lam = 0.5 * n - 1.0
        for r in np.linspace(1e-3, 1.0, 100):
            lead = small_argument_leading(n, r)
            assert abs(jv(lam, r) - lead) <= C * r ** (0.5 * n)

    def test_leading_constants(self):
        # a_n = 2^(1-n/2)/Gamma(n/2)
        assert abs(small_argument_leading(2, 0.0) - 1.0) < 1e-15
        a3 = small_argument_leading(3, 1.0)
        assert abs(a3 - math.sqrt(2 / math.pi)) < 1e-14

    def test_rejects_invalid_dimension(self):
        with pytest.raises(DomainError):
            small_argument_leading(1, 0.5)
        with pytest.raises(DomainError):
            small_argument_remainder_constant(1)


class TestExpansion:
    def test_gate_on_order(self):
        with pytest.raises(DomainError):
            build_expansion(0.5, 2)
        with pytest.raises(DomainError):
            build_expansion(0.2, 2)

    def test_gate_on_truncation(self):
        with pytest.raises(DomainError):
            build_expansion(2, 0)

    @pytest.mark.parametrize("lam", [1, 1.5, 2, 2.5, 3.3])
    def test_leading_pair_collapses_to_cosine(self, lam):
        exp = build_expansion(lam, 1)
        cp, cm = exp.coeffs[0]
        lam_star = math.pi * lam / 2 + math.pi / 4
        for r in [3.0, 7.7, 20.0]:
            pair = (cp * cmath.exp(1j * r) + cm * cmath.exp(-1j * r)) / math.sqrt(r)
            closed = math.sqrt(2 / math.pi) * math.cos(r - lam_star) / math.sqrt(r)
            assert abs(pair.imag) < 1e-15
            assert abs(pair - closed) < 1e-12

    @pytest.mark.parametrize("lam", [1, 1.5, 2])
    def test_order_one_closed_form(self, lam):
        # M=1 truncation equals
        # sqrt(2/pi) cos(r-l*) r^(-1/2) - (lam^2-1/4)/sqrt(2 pi) sin(r-l*) r^(-3/2)
        exp = build_expansion(lam, 1)
        lam_star = math.pi * lam / 2 + math.pi / 4
        for r in [2.0, 5.0, 20.0]:
            got = bessel_asymptotic(exp, r)
            want = math.sqrt(2 / math.pi) * math.cos(r - lam_star) / math.sqrt(r)
            want -= (
                (lam * lam - 0.25)
                / math.sqrt(2 * math.pi)
                * math.sin(r - lam_star)
                * r ** -1.5
            )
            assert abs(got - want) < 1e-12

    def test_routes_agree_for_complex_order(self):
        build_expansion(1.2 + 0.8j, 6)

    def test_half_integer_termination_is_exact(self):
        # lambda = 3/2 terminates at M = 1, lambda = 5/2 at M = 2
        for lam, M in [(1.5, 1), (2.5, 2)]:
            exp = build_expansion(lam, M)
            for r in [2.0, 10.0, 100.0]:
                assert abs(bessel_asymptotic(exp, r) - jv(lam, r)) < 1e-13

    def test_ungated_coefficients_for_kernel_orders(self):
        # lambda = 1/2 terminates at l = 0: the expansion IS J_(1/2)
        coeffs = _expansion_coeffs(0.5 + 0.0j, 3)
        assert all(c == (0, 0) for c in coeffs[1:])
        for r in [2.0, 9.0, 60.0]:
            assert abs(_asymptotic_eval(coeffs, r) - jv(0.5, r)) < 1e-14
        _expansion_coeffs(0.0 + 0.0j, 6)  # must build without error

    def test_asymptotic_example_accuracy(self):
        exp = build_expansion(2, 3)
        err = abs(bessel_asymptotic(exp, 20.0) - jv(2, 20.0))
        assert err < 5 * 20.0 ** -4.5

    def test_asymptotic_rejects_small_radius(self):
        exp = build_expansion(2, 1)
        with pytest.raises(DomainError):
            bessel_asymptotic(exp, 1.0)


class TestReference:
    @pytest.mark.parametrize("lam", [0, 0.5, 1, 2])
    def test_overlap_window(self, lam):
        for r in np.linspace(20, 40, 11):
            assert abs(bessel_j_reference(lam, r) - jv(lam, r)) < 1e-11

    @pytest.mark.parametrize("lam", [0, 0.5, 1, 2])
    def test_expansion_zone(self, lam):
        for r in np.geomspace(40.5, 500, 9):
            assert abs(bessel_j_reference(lam, r) - jv(lam, r)) < 1e-11

    def test_complex_order_matches_mpmath(self):
        # The series serves a complex order at every r, far past the
        # r ~ 40 where the order-6 expansion is off by 1e-10.
        for lam in (1 + 0.5j, 1.2 + 0.8j, 2.5 + 1j):
            for r in (0.5, 3.0, 39.5, 40.5, 100.0, 190.0):
                with mpmath.workdps(40):
                    want = complex(mpmath.besselj(mpmath.mpc(lam), r))
                scale = max(abs(want), math.sqrt(2 / (math.pi * r)))
                for evaluate in (bessel_j_series, bessel_j_reference):
                    assert abs(evaluate(lam, r) - want) <= 1e-13 * scale


class TestCertificate:
    @pytest.mark.parametrize(
        "lam,M", [(1.5, 1), (2.0, 1), (2.0, 2), (2.5, 3)]
    )
    def test_criterion_pairs(self, lam, M):
        cert = remainder_decay_certificate(lam, M, CERT_GRID)
        assert cert.slope <= -(M + 1.5) + 0.15

    def test_complex_order_slope(self):
        # The reference is the series, not the order-6 expansion itself.
        cert = remainder_decay_certificate(1.2 + 0.8j, 6, CERT_GRID)
        assert math.isfinite(cert.slope)
        assert cert.slope <= -7.35

    def test_terminating_orders_are_exact(self):
        assert remainder_decay_certificate(1.5, 1, CERT_GRID).exact
        assert remainder_decay_certificate(2.5, 3, CERT_GRID).exact
        assert not remainder_decay_certificate(2.0, 1, CERT_GRID).exact

    def test_order_below_one_rejected(self):
        with pytest.raises(DomainError, match="M >= 1"):
            remainder_decay_certificate(2, 0, CERT_GRID)

    def test_single_point_grid_degenerate(self):
        with pytest.raises(FitError):
            remainder_decay_certificate(2, 1, [10.0])

    def test_non_geometric_grid_degenerate(self):
        with pytest.raises(DegenerateFitError):
            remainder_decay_certificate(2, 1, np.linspace(10, 100, 10))

    def test_grid_outside_window(self):
        with pytest.raises(DomainError):
            remainder_decay_certificate(2, 1, np.geomspace(4, 100, 10))
        with pytest.raises(DomainError):
            remainder_decay_certificate(2, 1, np.geomspace(10, 250, 10))

    def test_noise_floor_raises(self):
        # At M = 5 the remainder sits at ~1e-15 over this window
        with pytest.raises(FitError):
            remainder_decay_certificate(2, 5, np.geomspace(100, 190, 8))


class TestScaledKernel:
    def test_worked_examples(self):
        assert abs(jbar(1, 0.25)) < 1e-15
        assert jbar(2, 0.0) == 0.0
        assert abs(jbar(3, 0.5)) < 1e-15
        assert abs(jbar(1, 0.0) - 1 / math.pi) < 1e-15

    def test_line_case_is_scaled_cosine(self):
        for r in [0.1, 0.5, 1.3, 7.0]:
            want = math.cos(2 * math.pi * r) / math.pi
            assert abs(jbar(1, r) - want) < 1e-15

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_scipy_chain(self, n):
        lam = 0.5 * n - 1.0
        for r in [0.3, 1.0, 2.5, 5.0, 8.0]:
            want = jv(lam, 2 * math.pi * r) * r ** (0.5 * n)
            assert abs(jbar(n, r) - want) < 1e-9 * max(1.0, r ** (0.5 * n))

    @pytest.mark.parametrize("n", [2, 3, 5, 7])
    def test_small_radius_envelope(self, n):
        # |jbar(n,r)| <= B_n r^(n-1) with B_n = pi^(n/2-1)/Gamma(n/2)
        B = math.pi ** (0.5 * n - 1.0) / math.gamma(0.5 * n)
        for r in np.geomspace(1e-3, 2.0, 40):
            assert abs(jbar(n, r)) <= B * r ** (n - 1) * (1 + 1e-12)

    def test_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            jbar(0, 1.0)
        with pytest.raises(DomainError):
            jbar(2, -0.5)

    @pytest.mark.parametrize(
        "r",
        [math.nan, math.inf, np.array([1.0, math.nan]), np.array([1.0, math.inf])],
        ids=["nan", "inf", "array-nan", "array-inf"],
    )
    @pytest.mark.parametrize("n", [1, 2])
    def test_rejects_non_finite_radius(self, n, r):
        with pytest.raises(DomainError, match="finite"):
            jbar(n, r)

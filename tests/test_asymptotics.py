"""Tests for exponent fitting, small/large decay-law verification, and the
analytic and numerical L^p integrability regions.

Synthetic generators with known exponents test the fitter; the transform
itself is probed on geometric grids chosen deep enough that every parameter
combination has reached its asymptotic regime.
"""

import math

import numpy as np
import pytest

from mlfourier import asymptotics
from mlfourier.asymptotics import (
    AsymptoticReport,
    ExponentFit,
    LpRegion,
    fit_exponent,
    large_xi_law,
    lp_numerical_check,
    lp_region,
    small_xi_law,
    verify_large_xi,
    verify_small_xi,
)
from mlfourier.errors import (
    DegenerateFitError,
    DomainError,
    LawMismatchError,
)
from mlfourier.radial_fourier import TransformProblem, ml_transform
from mlfourier.special_core import line_fit

POWER_TP = TransformProblem(0.8, 1.0, math.pi, 0.7, 1)
LOG_TP = TransformProblem(0.8, 1.0, math.pi, 1.0, 1)
CONST_TP = TransformProblem(0.8, 1.0, math.pi, 2.0, 1)

GRID8 = np.geomspace(0.01, 10.0, 8)


class TestFitExponent:
    def test_exact_power_law(self):
        fit = fit_exponent([(x, x ** -2.0) for x in GRID8])
        assert abs(fit.slope + 2.0) < 1e-10
        assert fit.residual < 1e-12

    def test_constant_samples(self):
        fit = fit_exponent([(x, 3.0) for x in GRID8])
        assert abs(fit.slope) < 1e-12

    def test_modulated_power_law(self):
        fit = fit_exponent(
            [(x, x ** 0.5 * (1 + 0.01 * math.sin(math.log(x)))) for x in GRID8]
        )
        assert abs(fit.slope - 0.5) < 0.02

    def test_complex_values_use_magnitude(self):
        fit = fit_exponent([(x, 1j * x ** -1.0) for x in GRID8])
        assert abs(fit.slope + 1.0) < 1e-10

    def test_grid_is_recorded(self):
        fit = fit_exponent([(x, x) for x in GRID8])
        assert len(fit.grid) == 8

    def test_too_few_points(self):
        with pytest.raises(DegenerateFitError):
            fit_exponent([(x, x) for x in np.geomspace(1, 10, 5)])

    def test_non_geometric_grid(self):
        with pytest.raises(DegenerateFitError):
            fit_exponent([(x, x) for x in np.linspace(1, 10, 8)])

    def test_zero_value(self):
        samples = [(x, x) for x in GRID8]
        samples[3] = (samples[3][0], 0.0)
        with pytest.raises(DegenerateFitError):
            fit_exponent(samples)

    @pytest.mark.parametrize(
        "xi,value",
        [(math.nan, 1.0), (math.inf, 1.0), (None, math.nan), (None, math.inf),
         (None, complex(1.0, math.nan)), (None, complex(math.inf, 1.0))],
    )
    def test_non_finite_samples(self, capfd, xi, value):
        # A sample xi or value that is not finite is refused, not fitted to
        # a nan slope, and no LAPACK message reaches stderr.
        samples = [(x, x) for x in GRID8]
        samples[3] = (samples[3][0] if xi is None else xi, value)
        with pytest.raises(DegenerateFitError):
            fit_exponent(samples)
        assert capfd.readouterr().err == ""

    @pytest.mark.parametrize(
        "values",
        [
            GRID8 ** -2.0,  # power
            np.full(GRID8.size, 3.0),  # constant
            1j * GRID8 ** -1.0,  # complex values
            GRID8 ** 0.5 * (1 + 0.01 * np.sin(np.log(GRID8))),  # noisy
        ],
    )
    def test_line_matches_polyfit(self, values):
        # The closed-form line against numpy's least-squares polynomial,
        # directly and inside fit_exponent.
        lx, ly = np.log(GRID8), np.log(np.abs(values))
        want = np.polyfit(lx, ly, 1)
        fit = fit_exponent(list(zip(GRID8, values)))
        for got in (line_fit(lx, ly), (fit.slope, fit.intercept)):
            assert np.all(np.abs(np.array(got) - want) <= 1e-12)

    def test_line_needs_two_distinct_x(self):
        with pytest.raises(DegenerateFitError):
            line_fit(np.ones(8), np.arange(8.0))


class TestSmallXiLaw:
    @staticmethod
    def law(n, sigma):
        return small_xi_law(TransformProblem(0.8, 1.0, math.pi, sigma, n))

    def test_three_cases(self):
        assert self.law(1, 0.7) == "power"
        assert self.law(1, 1.0) == "log"
        assert self.law(1, 2.0) == "constant"
        assert self.law(2, 2.0) == "log"
        assert self.law(3, 2.2) == "power"
        assert self.law(2, 3.5) == "constant"

    def test_out_of_scope(self):
        # The problem type refuses sigma <= (n-1)/2 before the law is asked.
        with pytest.raises(DomainError, match=r"sigma > \(n-1\)/2"):
            self.law(3, 1.0)
        with pytest.raises(DomainError, match=r"sigma > \(n-1\)/2"):
            self.law(2, 0.5)


class TestVerifySmallXi:
    def test_power_case(self):
        rep = verify_small_xi(POWER_TP)
        assert rep.small_xi_law == "power"
        assert abs(rep.small_slope_fit.slope + 0.3) < 0.05
        assert rep.constants_matched
        assert "power law" in rep.notes

    def test_log_case(self):
        rep = verify_small_xi(LOG_TP)
        assert rep.small_xi_law == "log"
        assert rep.small_slope_fit is not None
        assert rep.constants_matched
        assert "log law" in rep.notes

    def test_constant_case(self):
        rep = verify_small_xi(CONST_TP)
        assert rep.small_xi_law == "constant"
        assert abs(rep.small_slope_fit.slope) < 0.05
        assert rep.constants_matched

    def test_mismatch_raises(self):
        # feeding the large-|xi| window to the small-|xi| law check must be
        # reported, not absorbed
        with pytest.raises(LawMismatchError):
            verify_small_xi(POWER_TP, grid=np.geomspace(10.0, 1e3, 7))

    def test_log_law_mismatch_raises(self):
        # past xi = 1 the sigma = n transform decays like a power, which the
        # log model cannot fit
        with pytest.raises(LawMismatchError, match="log law rejected"):
            verify_small_xi(LOG_TP, grid=np.geomspace(10.0, 1e3, 7))

    def test_constant_law_mismatch_raises(self):
        with pytest.raises(LawMismatchError, match="constant law"):
            verify_small_xi(CONST_TP, grid=np.geomspace(10.0, 1e3, 7))

    def test_out_of_scope(self):
        with pytest.raises(DomainError, match=r"sigma > \(n-1\)/2"):
            verify_small_xi(TransformProblem(0.8, 1.0, math.pi, 0.9, 3))


class TestVerifyLargeXi:
    def test_observed_decay_is_steeper_than_dimension(self):
        # the tail of the computed transform falls like |xi|^{-(n+sigma)},
        # not |xi|^{-n}: the |xi|^{-n} coefficient carries 1/Gamma(0) = 0;
        # checked with its constant on the three reference problems
        for n, sigma in ((1, 0.7), (2, 1.5), (3, 2.2)):
            rep = verify_large_xi(TransformProblem(0.8, 1.0, math.pi, sigma, n))
            assert abs(rep.large_slope_fit.slope + n + sigma) < 0.05
            assert rep.constants_matched

    def test_constant_mismatch_is_reported(self, monkeypatch):
        # a transform 10% off keeps its slope but misses the constant
        def off(tp, xi):
            return 1.1 * ml_transform(tp, xi)

        monkeypatch.setattr(asymptotics, "ml_transform", off)
        rep = verify_large_xi(POWER_TP, grid=np.geomspace(100.0, 1e4, 6))
        assert abs(rep.large_slope_fit.slope + 1.7) < 0.05
        assert not rep.constants_matched

    def test_slope_mismatch_raises(self):
        # the small-|xi| window follows the |xi|^(sigma - n) law instead
        with pytest.raises(LawMismatchError, match="large-xi slope"):
            verify_large_xi(POWER_TP, grid=np.geomspace(1e-4, 1e-2, 7))

    def test_even_integer_sigma_has_no_power_law(self):
        # every residue at s = -k sigma vanishes: F decays faster than any
        # power, so no slope may be fitted
        with pytest.raises(DomainError, match="even-integer"):
            verify_large_xi(CONST_TP)

    def test_fitted_decay_exponent(self):
        grid = np.geomspace(10.0, 1e4, 7)
        fit = fit_exponent([(x, ml_transform(POWER_TP, x)) for x in grid])
        want = -(POWER_TP.n + POWER_TP.sigma)
        assert abs(fit.slope - want) < 0.05


class TestLargeXiLaw:
    def test_closed_form_constant(self):
        # alpha = beta = sigma = n = 1: 2/(1 + 4 pi^2 xi^2) ~ xi^-2/(2 pi^2)
        exponent, constant = large_xi_law(TransformProblem(1.0, 1.0, math.pi, 1.0, 1))
        assert exponent == -2.0
        assert abs(constant - 1.0 / (2.0 * math.pi ** 2)) <= 1e-16

    def test_constant_of_the_reference_problems(self):
        # the transform itself approaches C xi^-(n+sigma)
        for n, sigma in ((1, 0.7), (2, 1.5), (3, 2.2)):
            tp = TransformProblem(0.8, 1.0, math.pi, sigma, n)
            exponent, constant = large_xi_law(tp)
            assert exponent == -(n + sigma)
            scaled = ml_transform(tp, 1e8) * 1e8 ** (n + sigma)
            assert abs(scaled - constant) <= 1e-3 * abs(constant)

    def test_even_integer_sigma_has_no_law(self):
        with pytest.raises(DomainError, match="even-integer"):
            large_xi_law(CONST_TP)

    def test_out_of_scope(self):
        with pytest.raises(DomainError, match=r"sigma > \(n-1\)/2"):
            large_xi_law(TransformProblem(0.8, 1.0, math.pi, 0.9, 3))


class TestParameterInvariance:
    # The decay exponents depend only on (n, sigma): slopes fitted across
    # the alpha x beta grid must agree within 0.03.  Near beta - alpha equal
    # to a nonpositive integer the leading small-|xi| coefficient
    # 1/Gamma(beta - alpha) almost vanishes, which delays the onset of the
    # law, so the small-|xi| fit uses a deep window where every combination
    # has converged.
    ALPHAS = (0.5, 0.9, 1.3, 1.7)
    BETAS = (0.8, 1.0, 2.0)

    def test_small_xi_slopes_agree(self):
        grid = np.geomspace(1e-12, 1e-9, 7)
        slopes = []
        for a in self.ALPHAS:
            for b in self.BETAS:
                tp = TransformProblem(a, b, math.pi, 0.7, 1)
                fit = fit_exponent([(x, ml_transform(tp, x)) for x in grid])
                slopes.append(fit.slope)
        assert max(slopes) - min(slopes) < 0.03

    def test_large_xi_slopes_agree(self):
        grid = np.geomspace(10.0, 1e4, 7)
        slopes = []
        for a in self.ALPHAS:
            for b in self.BETAS:
                tp = TransformProblem(a, b, math.pi, 0.7, 1)
                fit = fit_exponent([(x, ml_transform(tp, x)) for x in grid])
                slopes.append(fit.slope)
        assert max(slopes) - min(slopes) < 0.03

    def test_phase_invariance(self):
        grid = np.geomspace(1e-12, 1e-9, 7)
        slopes = []
        for phi in (math.pi, 0.75 * math.pi):
            tp = TransformProblem(0.8, 1.0, phi, 0.7, 1)
            fit = fit_exponent([(x, ml_transform(tp, x)) for x in grid])
            slopes.append(fit.slope)
        assert abs(slopes[0] - slopes[1]) < 0.03


class TestLpRegion:
    @pytest.mark.parametrize(
        "n,sigma,full_upper,full_upper_open,hy_upper,hy_upper_open",
        [
            (1, 0.7, 1 / 0.3, True, 1 / 0.3, True),
            (1, 0.6, 2.5, True, 2.5, True),
            (2, 1.5, 4.0, True, 4.0, True),
            (3, 2.0, 3.0, True, 3.0, True),
            (3, 2.2, 3.75, True, 3.75, True),
            (5, 4.5, 10.0, True, 10.0, True),
            (1, 1.0, math.inf, True, math.inf, True),
            (2, 2.0, math.inf, True, math.inf, True),
            (2, 5.0, math.inf, False, math.inf, False),
            (4, 7.0, math.inf, False, math.inf, False),
        ],
    )
    def test_region_tables(
        self, n, sigma, full_upper, full_upper_open, hy_upper, hy_upper_open
    ):
        tp = TransformProblem(0.8, 1.0, math.pi, sigma, n)
        full, hy = lp_region(tp)
        assert full.source == "FullTheorem"
        assert full.p_lower == 1.0 and full.lower_open
        assert abs(full.p_upper - full_upper) < 1e-12 or (
            math.isinf(full.p_upper) and math.isinf(full_upper)
        )
        assert full.upper_open == full_upper_open
        assert hy is not None
        assert hy.source == "HausdorffYoung"
        assert hy.p_lower == 2.0 and not hy.lower_open
        assert abs(hy.p_upper - hy_upper) < 1e-12 or (
            math.isinf(hy.p_upper) and math.isinf(hy_upper)
        )
        assert hy.upper_open == hy_upper_open

    def test_no_hausdorff_young_conclusion(self):
        # (n-1)/2 < sigma <= n/2 keeps the full region but gives no
        # square-integrability route
        tp = TransformProblem(0.8, 1.0, math.pi, 1.2, 3)
        full, hy = lp_region(tp)
        assert full.p_upper == pytest.approx(3.0 / 1.8)
        assert hy is None

    def test_out_of_scope(self):
        with pytest.raises(DomainError, match=r"sigma > \(n-1\)/2"):
            lp_region(TransformProblem(0.8, 1.0, math.pi, 1.0, 3))

    def test_containment(self):
        # the Hausdorff-Young interval sits inside the closure of the full
        # interval whenever both exist
        cases = [(1, 0.7), (2, 1.5), (3, 2.2), (1, 1.0), (2, 5.0), (5, 4.5)]
        for n, sigma in cases:
            tp = TransformProblem(0.8, 1.0, math.pi, sigma, n)
            full, hy = lp_region(tp)
            if hy is None:
                continue
            assert full.p_lower <= hy.p_lower
            assert hy.p_upper <= full.p_upper

    def test_contains_method(self):
        tp = TransformProblem(0.8, 1.0, math.pi, 0.7, 1)
        full, hy = lp_region(tp)
        assert not full.contains(1.0)
        assert full.contains(2.0)
        assert not full.contains(10.0 / 3.0)
        assert hy.contains(2.0)

    def test_region_validation(self):
        with pytest.raises(DomainError):
            LpRegion(0.5, 2.0, True, True, "FullTheorem")
        with pytest.raises(DomainError):
            LpRegion(3.0, 2.0, True, True, "FullTheorem")
        with pytest.raises(DomainError):
            LpRegion(1.0, 2.0, True, True, "SomewhereElse")


class TestLpNumericalCheck:
    def test_interior_points_finite(self):
        assert lp_numerical_check(POWER_TP, 1.5) == "finite"
        assert lp_numerical_check(POWER_TP, 2.0) == "finite"

    def test_exterior_point_diverges_at_origin(self):
        # p = 4 exceeds n/(n-sigma) = 10/3: the origin shells stop decaying
        assert lp_numerical_check(POWER_TP, 4.0) == "divergent-at-0"

    def test_rejects_p_below_one(self):
        with pytest.raises(DomainError):
            lp_numerical_check(POWER_TP, 0.9)

    def test_transforms_go_through_ml_transform(self, monkeypatch):
        # each side's 40 shell nodes are one ml_transform(tp, xs) call, every
        # node goes through it, and a side the cache has seen is not
        # recomputed
        seen = []

        def recorder(tp, xi):
            assert isinstance(xi, np.ndarray)
            seen.extend((tp, float(x)) for x in xi.ravel())
            return xi.astype(complex) ** (tp.sigma - tp.n)

        k = np.arange(10.0)
        nodes, _ = np.polynomial.legendre.leggauss(4)
        shells = [(2.0 ** -(k + 1.0), 2.0 ** -k), (2.0 ** k, 2.0 ** (k + 1.0))]
        shell_nodes = {
            float(x)
            for a, b in shells
            for x in ((0.5 * (a + b))[:, None] + (0.5 * (b - a))[:, None] * nodes).ravel()
        }
        monkeypatch.setattr(asymptotics, "ml_transform", recorder)
        asymptotics._shell_nodes.cache_clear()
        try:
            lp_numerical_check(POWER_TP, 1.5)
            calls = len(seen)
            lp_numerical_check(POWER_TP, 2.0)
        finally:
            # drop the recorder's values from the shared cache
            asymptotics._shell_nodes.cache_clear()
        assert {xi for _, xi in seen} == shell_nodes
        assert len(seen) == calls
        assert len(set(seen)) == calls
        assert all(tp == POWER_TP for tp, _ in seen)

"""Unit tests for the adaptive/oscillatory quadrature layer."""

import math

import numpy as np
import pytest

from spdc_ng.quadrature import (Domain, QuadratureError, QuadTolerance,
                                integrate_1d)

SQRT_PI = math.sqrt(math.pi)


class TestFinite:
    def test_polynomial(self):
        v, e = integrate_1d(lambda x: x * x, Domain.finite(0.0, 1.0))
        assert v == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_seeded_kink(self):
        v, _ = integrate_1d(lambda x: np.abs(x - 0.3), Domain.finite(0.0, 1.0),
                            seed_points=(0.3,))
        assert v == pytest.approx(0.3 ** 2 / 2 + 0.7 ** 2 / 2, abs=1e-12)


class TestImproper:
    def test_gaussian_full_line(self):
        v, e = integrate_1d(lambda x: np.exp(-x * x), Domain.full_line())
        assert v == pytest.approx(SQRT_PI, abs=1e-10)
        assert abs(v - SQRT_PI) <= max(e, 1e-12)

    def test_exponential_half_line(self):
        v, _ = integrate_1d(lambda x: np.exp(-x), Domain.half_line(0.0))
        assert v == pytest.approx(1.0, abs=1e-10)

    def test_translation_invariance(self):
        # A narrow bump far from the origin must not be missed.
        for c in (-5.0, 0.0, 7.0):
            v, _ = integrate_1d(lambda x, c=c: np.exp(-(x - c) ** 2),
                                Domain.full_line(), seed_points=(c,))
            assert v == pytest.approx(SQRT_PI, rel=1e-9)


class TestOscillatory:
    def test_fresnel_sin(self):
        v, e = integrate_1d(lambda x: np.sin(x * x),
                            Domain.half_line(0.0, osc_scale=1.0))
        assert v == pytest.approx(math.sqrt(math.pi / 8.0), abs=1e-6)

    def test_fresnel_cos(self):
        v, _ = integrate_1d(lambda x: np.cos(x * x),
                            Domain.half_line(0.0, osc_scale=1.0))
        assert v == pytest.approx(math.sqrt(math.pi / 8.0), abs=1e-7)

    def test_sinc_squared_norm(self):
        # integral over R of sinc^2(x^2) dx = 4 sqrt(pi) / 3
        from spdc_ng.specfun import sinc
        v, _ = integrate_1d(lambda x: sinc(x * x) ** 2,
                            Domain.full_line(osc_scale=1.0))
        assert v == pytest.approx(4.0 * SQRT_PI / 3.0, rel=1e-7)

    def test_damped_oscillation(self):
        # integral over R of exp(-x^2) cos(10 x^2): real part of a complex
        # Gaussian, sqrt(pi) * Re[(1 - 10i)^(-1/2)].
        ref = SQRT_PI * (1.0 + 100.0) ** -0.25 * math.cos(0.5 * math.atan(10.0))
        v, _ = integrate_1d(lambda x: np.exp(-x * x) * np.cos(10.0 * x * x),
                            Domain.full_line(osc_scale=10.0))
        assert v == pytest.approx(ref, rel=1e-8)


class TestErrorHonesty:
    CASES = [
        (lambda x: np.exp(-x * x), Domain.full_line(), SQRT_PI),
        (lambda x: np.exp(-np.abs(x)), Domain.full_line(), 2.0),
        (lambda x: 1.0 / (1.0 + x * x), Domain.full_line(), math.pi),
        (lambda x: np.exp(-x) * np.sin(x), Domain.half_line(0.0), 0.5),
        (lambda x: x * np.exp(-x), Domain.half_line(0.0), 1.0),
        (lambda x: np.sin(x * x), Domain.half_line(0.0, osc_scale=1.0),
         math.sqrt(math.pi / 8.0)),
        (lambda x: np.cos(3.0 * x * x), Domain.full_line(osc_scale=3.0),
         math.sqrt(math.pi / 6.0)),
        (lambda x: x ** 4 * np.exp(-x * x), Domain.full_line(),
         0.75 * SQRT_PI),
        (lambda x: np.cos(x) * np.exp(-x * x), Domain.full_line(),
         SQRT_PI * math.exp(-0.25)),
        (lambda x: x * x / (1.0 + x ** 6), Domain.full_line(), math.pi / 3.0),
    ]

    def test_estimates_cover_true_error(self):
        honest = 0
        for f, dom, ref in self.CASES:
            v, e = integrate_1d(f, dom)
            assert v == pytest.approx(ref, rel=1e-6)
            if abs(v - ref) <= max(e, 1e-13):
                honest += 1
        assert honest >= len(self.CASES) - 1


class TestFailurePaths:
    def test_exhausted_budget_raises_with_partial_result(self):
        with pytest.raises(QuadratureError, match="max_subdivisions") as info:
            integrate_1d(lambda x: 1.0 / np.sqrt(np.abs(x - 1.0 / 3.0)),
                         Domain.finite(0.0, 1.0),
                         QuadTolerance(max_subdivisions=10))
        assert math.isfinite(info.value.value)
        assert math.isfinite(info.value.err_estimate)


class TestValidation:
    def test_tolerance_positive(self):
        with pytest.raises(ValueError):
            QuadTolerance(abs_tol=-1e-8)

    def test_subdivision_floor(self):
        with pytest.raises(ValueError):
            QuadTolerance(max_subdivisions=3)

    def test_finite_domain_order(self):
        with pytest.raises(ValueError):
            Domain.finite(2.0, 1.0)

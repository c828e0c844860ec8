"""Unit tests for covariances and the entanglement criteria."""

import math

import numpy as np
import pytest

from spdc_ng import moments
from spdc_ng.distributions import Params, make_density
from spdc_ng.moments import (Cov2, conditional_variances, covariance_closed,
                             covariance_numeric, epr_product,
                             find_epr_crossings,
                             gaussian_conditional_variances,
                             gaussian_epr_product, mancini_boundary,
                             mancini_product, schmidt_number)
from spdc_ng.quadrature import QuadTolerance
from spdc_ng.specfun import shape_constants

TOL = QuadTolerance()


class TestCov2:
    def test_matrix_and_det(self):
        c = Cov2(var1=2.0, var2=2.0, cov=-0.5)
        np.testing.assert_allclose(c.matrix, [[2.0, -0.5], [-0.5, 2.0]])
        assert c.det == pytest.approx(3.75)

    def test_validation(self):
        with pytest.raises(ValueError):
            Cov2(var1=-1.0, var2=1.0, cov=0.0)
        with pytest.raises(ValueError):
            Cov2(var1=1.0, var2=1.0, cov=1.5)


class TestCovariance:
    @pytest.mark.parametrize("plane", ("far_field", "near_field"))
    @pytest.mark.parametrize("p", (0.1, 0.5, 1.0, 2.0, 5.0))
    def test_closed_vs_numeric(self, plane, p):
        j = make_density(plane, "spdc", Params(p=p), TOL)
        num = covariance_numeric(j, TOL)
        ref = covariance_closed(plane, Params(p=p), TOL)
        assert num.var1 == pytest.approx(ref.var1, abs=1e-5 * max(1, ref.var1))
        assert num.cov == pytest.approx(ref.cov, abs=1e-5 * max(1, abs(ref.cov)))

    def test_far_field_forms(self):
        c = covariance_closed("far_field", Params(p=2.0))
        assert c.var1 == pytest.approx(0.25 * (1 + 3 / 4))
        assert c.cov == pytest.approx(0.25 * (1 - 3 / 4))


class TestConditionalVariances:
    def test_small_p_limits(self):
        # var_q -> 1 quickly; var_x / P^2 -> 4 A2 / A1 with an O(P) deficit
        # from the slowly decaying conditional tails, so check the trend.
        sc = shape_constants(TOL)
        limit = 4.0 * sc.a2 / sc.a1
        cv = conditional_variances(Params(p=0.01), TOL)
        assert cv.var_q_cond == pytest.approx(1.0, abs=1e-3)
        d1 = limit - cv.var_x_norm
        d2 = limit - conditional_variances(Params(p=0.02), TOL).var_x_norm
        assert 0 < d1 < 0.03
        assert d2 / d1 == pytest.approx(2.0, abs=0.1)

    def test_gaussian_forms(self):
        var_q, var_x = gaussian_conditional_variances(0.72, Params(p=1.5))
        ap2 = 0.72 * 2.25
        assert var_q == pytest.approx(1.0 / (1.0 + ap2))
        assert var_x == pytest.approx(ap2 / (1.0 + ap2))
        with pytest.raises(ValueError):
            gaussian_conditional_variances(-1.0, Params(p=1.0))


class TestEpr:
    def test_flags(self):
        small = epr_product(Params(p=0.1), TOL)
        assert small.product < 0.25 and small.entangled_flag
        mid = epr_product(Params(p=1.0), TOL)
        assert mid.product > 0.25 and mid.nongaussian_witness_flag

    def test_product_near_crossing(self):
        assert epr_product(Params(p=0.556), TOL).product == pytest.approx(
            0.25, abs=5e-3)

    def test_crossings_are_roots(self):
        for root in find_epr_crossings(TOL):
            assert abs(epr_product(Params(p=root), TOL).product - 0.25) <= 1e-7

    def test_crossings_need_a_sign_change(self, monkeypatch):
        # The Gaussian product stays below 1/4 off P = 1/sqrt(alpha) = 1.49,
        # so the bracket [0.1, 1] holds no root.
        monkeypatch.setattr(moments, "epr_product",
                            lambda params, tol=None: gaussian_epr_product(0.45, params))
        with pytest.raises(ValueError):
            find_epr_crossings(TOL)

    def test_gaussian_bound_and_schmidt_identity(self):
        for alpha in (0.45, 0.72, 1.0):
            for p in np.geomspace(0.05, 5.0, 8):
                r = gaussian_epr_product(alpha, Params(p=p))
                assert r.product <= 0.25 + 1e-12
                k = schmidt_number(1.0, 1.0 / (math.sqrt(alpha) * p))
                assert r.product == pytest.approx(1.0 / (4.0 * k), abs=1e-12)


class TestSchmidt:
    def test_symmetric_and_minimal(self):
        assert schmidt_number(1.0, 1.0) == 1.0
        assert schmidt_number(2.0, 0.5) == schmidt_number(0.5, 2.0)
        with pytest.raises(ValueError):
            schmidt_number(0.0, 1.0)


class TestMancini:
    def test_quadratic_scaling(self):
        m1 = mancini_product(Params(p=0.7), "spdc", tol=TOL)
        m2 = mancini_product(Params(p=1.4), "spdc", tol=TOL)
        assert m2 == pytest.approx(4.0 * m1, rel=1e-12)

    def test_matches_sum_difference_variances(self):
        # product of var(q1+q2) and var(x1-x2) from the joint factors
        p = Params(p=1.0)
        ff = covariance_numeric(make_density("far_field", "spdc", p, TOL), TOL)
        nf = covariance_numeric(make_density("near_field", "spdc", p, TOL),
                                TOL)
        sum_q = 2.0 * (ff.var1 + ff.cov)
        diff_x = 2.0 * (nf.var1 - nf.cov)
        assert sum_q * diff_x == pytest.approx(
            mancini_product(p, "spdc", tol=TOL), rel=1e-6)

    def test_gaussian_model(self):
        assert mancini_product(Params(p=2.0), "gaussian", alpha=0.5) == \
            pytest.approx(2.0)
        with pytest.raises(ValueError):
            mancini_product(Params(p=1.0), "gaussian")

    def test_boundary_is_unit_product(self):
        pb = mancini_boundary(TOL)
        assert mancini_product(Params(p=pb), "spdc", tol=TOL) == \
            pytest.approx(1.0, abs=1e-12)

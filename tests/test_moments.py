"""Unit tests for covariances and the entanglement criteria."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spdc_ng import moments, quadrature
from spdc_ng.distributions import Params, make_density
from spdc_ng.moments import (Cov2, conditional_variances, covariance_closed,
                             covariance_numeric, epr_product,
                             find_epr_crossings,
                             gaussian_conditional_variances,
                             gaussian_epr_product, mancini_boundary,
                             mancini_product, schmidt_number)
from spdc_ng.quadrature import (Domain, QuadratureError, QuadTolerance,
                                integrate_1d)
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
        num = covariance_numeric(j)
        ref = covariance_closed(plane, Params(p=p))
        assert num.var1 == pytest.approx(ref.var1, abs=1e-5 * max(1, ref.var1))
        assert num.cov == pytest.approx(ref.cov, abs=1e-5 * max(1, abs(ref.cov)))

    def test_far_field_forms(self):
        c = covariance_closed("far_field", Params(p=2.0))
        assert c.var1 == pytest.approx(0.25 * (1 + 3 / 4))
        assert c.cov == pytest.approx(0.25 * (1 - 3 / 4))


def _s2_v_closed(joint):
    """The kernel variance (3/4)/c (sinc) or (A2/A1)/c (sint)."""
    sc = shape_constants(joint.tol)
    ratio = sc.sinc_moment_ratio if joint.plane == "far_field" \
        else sc.a2 / sc.a1
    return ratio / joint.kernel_domain.osc_scale


def _kernel_core(joint, tol):
    """(value, err) of the second moment of the kernel over the oscillatory
    core, as a full-line integral's core takes it."""
    xc = math.sqrt(32.0 * math.pi / joint.kernel_domain.osc_scale)
    return integrate_1d(lambda t: t * t * joint.kernel(t),
                        Domain.finite(-xc, xc), tol)


class TestKernelVariance:
    """s2_v of an spdc joint: its kernel's second moment over the
    oscillatory core, plus the scale-free tails in closed form."""

    @pytest.mark.parametrize("plane", ("far_field", "near_field"))
    @pytest.mark.parametrize("p", (0.0034, 1.0, 99.0))
    def test_core_only_and_bit_identical(self, monkeypatch, plane, p):
        # One finite integral over [-x_c, x_c], whose value and error are
        # bit for bit the core of the full-line integral, and no tail blocks.
        j = make_density(plane, "spdc", Params(p=p), TOL)
        cores = []
        run_core = quadrature._adaptive_finite

        def core_spy(*args, **kwargs):
            cores.append(run_core(*args, **kwargs))
            return cores[-1]

        monkeypatch.setattr(quadrature, "_adaptive_finite", core_spy)
        integrate_1d(lambda t: t * t * j.kernel(t), j.kernel_domain, TOL)
        full_line_core = cores.pop()

        domains, tails = [], []
        run = moments.integrate_1d

        def spy(g, domain, *args, **kwargs):
            domains.append(domain)
            return run(g, domain, *args, **kwargs)

        monkeypatch.setattr(moments, "integrate_1d", spy)
        monkeypatch.setattr(quadrature, "_tail_blocks",
                            lambda *args: tails.append(args))
        _, s2_v, _ = moments._factor_variances(j)
        xc = math.sqrt(32.0 * math.pi / j.kernel_domain.osc_scale)
        assert tails == [] and domains == [Domain.finite(-xc, xc)]
        assert cores == [full_line_core]
        assert s2_v == pytest.approx(_s2_v_closed(j), rel=1e-5)

    @settings(max_examples=40, deadline=None)
    @given(plane=st.sampled_from(("far_field", "near_field")),
           log_p=st.floats(-3.0, 2.0))
    def test_closed_form_within_estimate(self, plane, log_p):
        # Wherever the core's stopping test is relative, s2_v is the closed
        # form to roundoff.  Everywhere else it lies within its own error
        # estimate, except in the abs-held near field below P = 0.0034,
        # where _factor_variances may raise instead.
        p = 10.0 ** log_p
        j = make_density(plane, "spdc", Params(p=p), TOL)
        try:
            _, s2_v, err = moments._factor_variances(j)
        except QuadratureError as exc:
            assert plane == "near_field" and p < 0.0034, exc
            assert "kernel variance" in str(exc)
            return
        closed = _s2_v_closed(j)
        core, _ = _kernel_core(j, TOL)
        if TOL.rel_tol * abs(core) > TOL.abs_tol:
            assert abs(s2_v - closed) <= 1e-12 * closed
        if plane == "far_field" or p >= 0.0034:
            assert abs(s2_v - closed) <= err

    ABS_HELD = (("near_field", 0.001, TOL),
                ("near_field", 0.003, TOL),
                ("near_field", 0.0034, QuadTolerance(1e-8, 1e-6)),
                ("near_field", 0.0062, QuadTolerance(1e-8, 1e-6)),
                ("far_field", 99.0, QuadTolerance(1e-8, 1e-6)))

    @pytest.mark.parametrize("plane, p, tol", ABS_HELD)
    def test_found_region_is_abs_held(self, plane, p, tol):
        j = make_density(plane, "spdc", Params(p=p), tol)
        assert tol.rel_tol * abs(_kernel_core(j, tol)[0]) <= tol.abs_tol

    @pytest.mark.parametrize("plane, p, tol", ABS_HELD)
    def test_abs_held_core_within_estimate(self, plane, p, tol):
        # The abs-held core's estimate is 3 to 11 times below its error:
        # 9.1% high with an estimate of 2.9% (near field, P = 0.001), 2.1%
        # low with 0.20% (P = 0.003); at the looser tolerance 9.1% high with
        # 2.9% (near field, P = 0.0034), 8.8% high with 2.5% (P = 0.0062)
        # and 1.7% high with 0.18% (far field, P = 99).  The closed form
        # lies outside the estimate, so the kernel variance raises.
        j = make_density(plane, "spdc", Params(p=p), tol)
        with pytest.raises(QuadratureError, match="kernel variance"):
            moments._factor_variances(j)


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


class TestAlphaCheck:
    """A Gaussian model's alpha is positive and finite wherever it enters."""

    USES = {
        "make_density": lambda a: make_density("far_field", "gaussian",
                                               Params(p=1.0), TOL, alpha=a),
        "conditional_variances": lambda a: gaussian_conditional_variances(
            a, Params(p=1.0)),
        "mancini_product": lambda a: mancini_product(Params(p=1.0),
                                                     "gaussian", alpha=a),
    }

    @pytest.mark.parametrize("alpha", (0.0, -1.0, math.inf, math.nan))
    @pytest.mark.parametrize("use", sorted(USES))
    def test_rejected(self, use, alpha):
        with pytest.raises(ValueError, match="positive finite alpha"):
            self.USES[use](alpha)


class TestMancini:
    def test_quadratic_scaling(self):
        m1 = mancini_product(Params(p=0.7), "spdc")
        m2 = mancini_product(Params(p=1.4), "spdc")
        assert m2 == pytest.approx(4.0 * m1, rel=1e-12)

    def test_matches_sum_difference_variances(self):
        # product of var(q1+q2) and var(x1-x2) from the joint factors
        p = Params(p=1.0)
        ff = covariance_numeric(make_density("far_field", "spdc", p, TOL))
        nf = covariance_numeric(make_density("near_field", "spdc", p, TOL))
        sum_q = 2.0 * (ff.var1 + ff.cov)
        diff_x = 2.0 * (nf.var1 - nf.cov)
        assert sum_q * diff_x == pytest.approx(
            mancini_product(p, "spdc"), rel=1e-6)

    def test_gaussian_model(self):
        assert mancini_product(Params(p=2.0), "gaussian", alpha=0.5) == \
            pytest.approx(2.0)
        with pytest.raises(ValueError):
            mancini_product(Params(p=1.0), "gaussian")

    def test_boundary_is_unit_product(self):
        pb = mancini_boundary()
        assert mancini_product(Params(p=pb), "spdc") == \
            pytest.approx(1.0, abs=1e-12)

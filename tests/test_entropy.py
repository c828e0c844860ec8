"""Unit tests for the entropy and non-Gaussianity layer."""

import dataclasses
import math
import os
import pathlib
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import spdc_ng
from spdc_ng.distributions import (Density1D, Params, conditional_of,
                                   gaussian_equivalent, make_density,
                                   marginal_of)
from spdc_ng import moments
from spdc_ng.entropy import (_entropy_with_err, conditional_gaussian_mismatch,
                             differential_entropy, gaussian_entropy_closed,
                             marginal_negentropy_limits, negentropy, ng_report)
from spdc_ng.moments import (_LN2, _factor_variances, _pdf_integrals,
                             conditional_variances, covariance_closed,
                             moments_1d)
from spdc_ng.quadrature import _CORE_PHASE, Domain, QuadTolerance, integrate_1d
from spdc_ng.specfun import _xlogx

TOL = QuadTolerance()
PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def _scaled_copy(spec, a):
    """The density of X / a when X ~ spec (a 1-D form)."""
    dom = spec.domain
    return Density1D(spec.form, lambda x: a * spec.pdf(a * x),
                     dataclasses.replace(
                         dom, osc_scale=(dom.osc_scale or 0.0) * a * a or None,
                         core_extent=dom.core_extent / a),
                     tuple(s / a for s in spec.seeds), fixed=spec.fixed)


class TestGaussianBaseline:
    @pytest.mark.parametrize("plane", ("far_field", "near_field"))
    def test_zero_negentropy_all_forms(self, plane):
        j = make_density(plane, "gaussian", Params(p=0.8), TOL,
                         alpha=0.72)
        for spec in (j, conditional_of(j, 0.3), marginal_of(j)):
            assert abs(negentropy(spec).value) < 1e-5

    def test_closed_entropy_matches_matched_joint(self):
        for plane in ("far_field", "near_field"):
            j = make_density(plane, "spdc", Params(p=1.3), TOL)
            h = differential_entropy(gaussian_equivalent(j))
            assert h == pytest.approx(
                gaussian_entropy_closed(plane, Params(p=1.3)), abs=1e-5)


class TestNegentropyProperties:
    def test_nonnegative(self):
        for plane in ("far_field", "near_field"):
            j = make_density(plane, "spdc", Params(p=0.9), TOL)
            for spec in (j, conditional_of(j, 0.0), marginal_of(j)):
                assert negentropy(spec).value > -1e-8

    def test_scale_invariance(self):
        j = make_density("far_field", "spdc", Params(p=0.7), TOL)
        cond = conditional_of(j, 0.0)
        base = negentropy(cond).value
        for a in (0.3, 2.0, 7.0):
            assert negentropy(_scaled_copy(cond, a)).value == \
                pytest.approx(base, abs=1e-6)

    def test_joint_reduces_to_kernel_factor(self):
        # The far-field u-factor is Gaussian, so the joint negentropy is
        # carried entirely by the normalized v-factor.
        j = make_density("far_field", "spdc", Params(p=1.0), TOL)
        vspec = Density1D(
            "marginal", lambda v: j.kernel(v) / j.zk,
            Domain.full_line(osc_scale=j.kernel_domain.osc_scale), (0.0,))
        assert negentropy(j).value == pytest.approx(
            negentropy(vspec).value, abs=1e-6)

    def test_fields_consistent(self):
        n = negentropy(make_density("near_field", "spdc", Params(p=1.0), TOL))
        assert n.value == pytest.approx(n.h_gaussian - n.h_actual, abs=1e-12)
        assert n.err_estimate >= 0


class TestNgReport:
    def test_residual_definition(self):
        r = ng_report(Params(p=0.5), TOL)
        assert r.decomposition_residual == pytest.approx(
            r.ng_total - r.ng_cond - r.ng_marg, abs=1e-12)

    def test_total_is_p_invariant(self):
        r1 = ng_report(Params(p=0.5), TOL)
        r2 = ng_report(Params(p=4.0), TOL)
        assert r1.ng_total == pytest.approx(0.37938, abs=2e-4)
        assert r2.ng_total == pytest.approx(r1.ng_total, abs=2e-4)

    def test_joint_parts(self):
        r = ng_report(Params(p=1.0), TOL)
        assert r.n_ff_joint == pytest.approx(0.153352, abs=2e-5)
        assert r.n_nf_joint == pytest.approx(0.226026, abs=2e-5)

    @pytest.mark.parametrize("p", (0.3, 3.0))
    def test_slice_variances_equal_conditional_variances(self, p):
        r = ng_report(Params(p=p), TOL)
        cv = conditional_variances(Params(p=p), TOL)
        assert (r.var_q_cond, r.var_x_cond) == (cv.var_q_cond, cv.var_x_cond)


def _each_once(nodes, spec, tail_only=False):
    """Whether the kernel saw each of its recorded nodes once, counting
    only those past the slice's oscillatory core if ``tail_only``.  The
    kernel's argument is v = (x - c) / sqrt(2)."""
    v = np.concatenate(nodes)
    if tail_only:
        v = v[np.abs(v) > math.sqrt(_CORE_PHASE / spec.domain.osc_scale / 2.0)]
    return len(v) > 0 and len(np.unique(v)) == len(v)


def _row_integrals(spec):
    """The integrals of x p, x^2 p and p ln p over a 1-D form, each alone."""
    return [integrate_1d(f, spec.domain, TOL, seed_points=spec.seeds)
            for f in (lambda x: x * spec.pdf(x),
                      lambda x: x * x * spec.pdf(x),
                      lambda x: _xlogx(spec.pdf(x)))]


def _recorded_slice(kernel_nodes, plane, p, c):
    """A slice whose kernel records its nodes, and the integrals of
    ``_row_integrals`` over an unrecorded copy of it."""
    joint = make_density(plane, "spdc", Params(p=p), TOL)
    _, record = kernel_nodes
    return (conditional_of(record(joint), c),
            _row_integrals(conditional_of(joint, c)))


class TestSharedSlicePass:
    """A slice's weight, variance and entropy integrals share its kept
    slice values: each is bit for bit its own integral, and each kernel
    node past the core is evaluated once.  Core nodes may repeat where the
    passes' bisections part, as the store keys whole node arrays."""

    @pytest.mark.parametrize("p", (0.0034, 0.01, 1.0, 99.0))
    @pytest.mark.parametrize("plane", ("far_field", "near_field"))
    def test_origin_slice(self, kernel_nodes, plane, p):
        cond, (_, (m2, _), (v, err)) = _recorded_slice(kernel_nodes, plane,
                                                        p, 0.0)
        mean, var, entropy = _pdf_integrals(cond, entropy=True)
        assert (mean, var, entropy) == (0.0, m2, (-v / _LN2, err / _LN2))
        assert var == moments_1d(cond)[1]
        assert entropy == _entropy_with_err(cond)
        assert _each_once(kernel_nodes[0], cond, tail_only=True)

    def test_offset_slice_rows(self, kernel_nodes):
        cond, ((m1, _), (m2, _), (v, err)) = _recorded_slice(
            kernel_nodes, "near_field", 1.0, 0.4)
        mean, var, entropy = _pdf_integrals(cond, entropy=True)
        assert (mean, var, entropy) == (m1, m2 - m1 * m1,
                                        (-v / _LN2, err / _LN2))
        assert _each_once(kernel_nodes[0], cond)


class TestOnePassPerDensity:
    """negentropy and moments_1d of a P = 1 conditional make one
    integrate_1d call per integral, each bit for bit its own integral, and
    the kernel sees each node once across the weight pass and theirs."""

    @staticmethod
    def _calls(monkeypatch):
        calls = []
        run = moments.integrate_1d

        def spy(*args, **kwargs):
            calls.append(args[1])
            return run(*args, **kwargs)

        monkeypatch.setattr(moments, "integrate_1d", spy)
        return calls

    @pytest.mark.parametrize("c", (0.0, 0.4))
    @pytest.mark.parametrize("plane", ("far_field", "near_field"))
    def test_negentropy(self, monkeypatch, kernel_nodes, plane, c):
        cond, ((m1, _), (m2, _), (v, err)) = _recorded_slice(
            kernel_nodes, plane, 1.0, c)
        var = m2 - m1 * m1 if c else m2
        calls = self._calls(monkeypatch)
        n = negentropy(cond)
        assert calls == [cond.domain] * (3 if c else 2)
        assert (n.h_actual, n.err_estimate) == (-v / _LN2, err / _LN2)
        assert n.h_gaussian == 0.5 * math.log2(2.0 * math.pi * math.e * var)
        assert _each_once(kernel_nodes[0], cond)

    @pytest.mark.parametrize("c", (0.0, 0.4))
    @pytest.mark.parametrize("plane", ("far_field", "near_field"))
    def test_moments(self, monkeypatch, kernel_nodes, plane, c):
        cond, ((m1, _), (m2, _), _) = _recorded_slice(kernel_nodes, plane,
                                                      1.0, c)
        calls = self._calls(monkeypatch)
        mean, var = moments_1d(cond)
        assert calls == [cond.domain] * (2 if c else 1)
        assert (mean, var) == ((m1, m2 - m1 * m1) if c else (0.0, m2))
        assert _each_once(kernel_nodes[0], cond)


class TestMarginalLimits:
    def test_values(self):
        n_small, n_large = marginal_negentropy_limits(TOL)
        assert n_small == pytest.approx(0.1533518, abs=2e-5)
        assert n_large == pytest.approx(0.2260258, abs=2e-5)

    def test_marginals_approach_their_limits(self):
        n_small, n_large = marginal_negentropy_limits(TOL)
        ff = make_density("far_field", "spdc", Params(p=0.02), TOL)
        nf = make_density("near_field", "spdc", Params(p=9.0), TOL)
        assert negentropy(marginal_of(ff)).value == \
            pytest.approx(n_small, abs=2e-3)
        assert negentropy(marginal_of(nf)).value == \
            pytest.approx(n_large, abs=1e-2)


class TestJointAtScaleFreeLimit:
    """A joint's negentropy is scale-free: the far-field one is the small-P
    marginal limit n_small and the near-field one the large-P limit n_large
    at every P.  Its err_estimate is that of the log-integral shape constant
    plus that of the kernel variance s2_v."""

    @pytest.mark.parametrize("p", (0.0034, 0.01, 1.0, 30.0))
    def test_estimate_covers_gap_to_limit(self, p):
        n = negentropy(make_density("near_field", "spdc", Params(p=p), TOL))
        _, n_large = marginal_negentropy_limits(TOL)
        assert abs(n.value - n_large) <= n.err_estimate

    @pytest.mark.parametrize("plane", ("far_field", "near_field"))
    @pytest.mark.parametrize("p", (0.0034, 0.01, 1.0, 30.0))
    def test_gap_to_limit_is_the_kernel_variance(self, plane, p):
        # The whole gap is half the log2 of s2_v over its closed form:
        # 3.6e-6 bits in the near field below P = 0.0062, from the core of
        # s2_v, and roundoff elsewhere.
        params = Params(p=p)
        j = make_density(plane, "spdc", params, TOL)
        n = negentropy(j)
        limit = marginal_negentropy_limits(TOL)[plane == "near_field"]
        cov = covariance_closed(plane, params)
        s2_v = _factor_variances(j)[1]
        excess = 0.5 * math.log2(s2_v / (cov.var1 - cov.cov))
        assert abs(n.value - limit - excess) <= n.err_estimate


class TestConditionalMismatch:
    def test_vanishes_at_small_p(self):
        m = conditional_gaussian_mismatch("far_field", Params(p=0.05), TOL)
        assert abs(m) < 5e-3

    def test_finite_at_moderate_p(self):
        m = conditional_gaussian_mismatch("near_field", Params(p=1.0), TOL)
        assert np.isfinite(m)


def test_benchmark_tracer_names_negentropy_spans_by_form():
    # The benchmark's tracer wraps every public function and names each
    # negentropy span after the density's ``form``.
    script = textwrap.dedent(f"""
        import sys
        sys.path.insert(0, {str(PERFBENCH)!r})
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        from spdc_ng import distributions as d, entropy
        from spdc_ng.quadrature import QuadTolerance
        tol = QuadTolerance(abs_tol=1e-8, rel_tol=1e-6)
        j = d.make_density("far_field", "spdc", d.Params(p=1.0), tol)
        for spec in (j, d.marginal_of(j), d.conditional_of(j, 0.0)):
            entropy.negentropy(spec)
        print(*[s[0] for s in tracer.spans
                if s[0].startswith("entropy.negentropy")])
    """)
    src = os.path.dirname(os.path.dirname(spdc_ng.__file__))
    res = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": src,
                                         "PYTHONDONTWRITEBYTECODE": "1"})
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == ["entropy.negentropy.joint",
                                  "entropy.negentropy.marginal",
                                  "entropy.negentropy.conditional"]

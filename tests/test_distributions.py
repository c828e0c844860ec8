"""Unit tests for the two-photon density constructors."""

import dataclasses
import math
import os
import re
import subprocess
import sys
import threading
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spdc_ng
from spdc_ng import quadrature, specfun
from spdc_ng import distributions
from spdc_ng import MarginalCrossCheckError
from spdc_ng.distributions import (DegenerateSliceError, Density1D, Joint,
                                   Params, _convolve_valid,
                                   _MarginalTable, _next_fast_len,
                                   _UniformSpline, conditional_of,
                                   gaussian_equivalent, make_density,
                                   marginal_of)
from spdc_ng.entropy import differential_entropy, negentropy
from spdc_ng.moments import _factor_variances, covariance_closed, moments_1d
from spdc_ng.quadrature import Domain, QuadTolerance, integrate_1d
from spdc_ng.specfun import _xlogx, shape_constants

TOL = QuadTolerance()
# The log-integral shape constants i_ff, i_nf and the moment A1, as the
# oracles of tests/test_oracles.py pin them (to 5e-13).
I_FF_REF, I_NF_REF = -0.364836201865, -0.691580771301
A1_REF = 1.40076660621066


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            Params(p=0.0)
        with pytest.raises(ValueError):
            Params(p=1.0, sigma=0.5)

    @pytest.mark.parametrize("p, sigma, name", ((math.inf, 1.0, "p"),
                                                (1.0, math.inf, "sigma")))
    def test_non_finite_rejected(self, p, sigma, name):
        with pytest.raises(ValueError, match=f"^{name} must .* finite"):
            Params(p=p, sigma=sigma)

    @pytest.mark.parametrize("plane", ("far_field", "near_field"))
    @pytest.mark.parametrize("p", (1e200, 1e-200))
    def test_phase_scale_out_of_range_names_p(self, plane, p):
        # P^2/2 (far field) or 1/(2 P^2) (near field) overflows to inf or
        # underflows to 0 long before P does.
        phase = "P^2/2" if plane == "far_field" else "1/(2 P^2)"
        with pytest.raises(ValueError, match=re.escape(
                f"p = {p!r} is out of range: the {plane.replace('_', ' ')} "
                f"kernel's phase scale {phase} must be positive and finite")):
            make_density(plane, "spdc", Params(p=p))

    @pytest.mark.parametrize("plane", ("far_field", "near_field"))
    @pytest.mark.parametrize("p", (1e200, 1e-200))
    def test_gaussian_scale_out_of_range_names_p(self, plane, p):
        # alpha P^2 (far field) or 1/(alpha P^2) (near field) reaches inf
        # or 0.  Far field P = 1e200 built a kernel of width 0 whose
        # marginal negentropy read 0.0; the other three divided by zero.
        scale = "alpha P^2" if plane == "far_field" else "1/(alpha P^2)"
        with pytest.raises(ValueError, match=re.escape(
                f"p = {p!r} is out of range: the {plane.replace('_', ' ')} "
                f"kernel's scale {scale} must be positive and finite")):
            make_density(plane, "gaussian", Params(p=p), alpha=0.5)

    def test_from_physical_round_trip(self):
        pr = Params.from_physical(crystal_length=5e-3, pump_wavenumber=1.5e7,
                                  beam_waist=3e-4, plane_z=0.0)
        z0 = 1.5e7 * (3e-4) ** 2 / 2.0
        assert pr.p == pytest.approx(math.sqrt(5e-3 / (2 * z0)))
        assert pr.sigma == 1.0


class TestNormalization:
    @pytest.mark.parametrize("plane", ("far_field", "near_field"))
    @pytest.mark.parametrize("p", (0.05, 0.5, 1.0, 2.0, 5.0))
    @pytest.mark.parametrize("sigma", (1.0, 2.0))
    def test_joint_normalized(self, plane, p, sigma):
        j = make_density(plane, "spdc", Params(p=p, sigma=sigma), TOL)
        zu, _ = integrate_1d(j.g, Domain.full_line(), TOL)
        zv, _ = integrate_1d(j.kernel, j.kernel_domain, TOL)
        assert j.norm * zu * zv == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("plane", ("far_field", "near_field"))
    @pytest.mark.parametrize("model, alpha", (("spdc", None),
                                              ("gaussian", 0.72)))
    @pytest.mark.parametrize("p", (0.0034, 1.0, 30.0))
    def test_factor_norms_match_quadrature(self, plane, model, alpha, p):
        # The closed forms sqrt(pi) sigma and b1/sqrt(c), a1/sqrt(c) or
        # sqrt(pi/c) are the integrals the factor domains would give.  The
        # spdc kernel's algebraic tail leaves its quadrature within its own
        # error estimate of the exact b1 or a1, not within 1e-12.
        j = make_density(plane, model, Params(p=p, sigma=2.0), TOL,
                         alpha=alpha)
        zu, _ = integrate_1d(j.g, Domain.full_line(), TOL)
        zv, zv_err = integrate_1d(j.kernel, j.kernel_domain, TOL)
        assert j.zg == pytest.approx(zu, rel=1e-12)
        if model == "spdc":
            assert abs(j.zk - zv) <= zv_err
        else:
            assert j.zk == pytest.approx(zv, rel=1e-12)

    @pytest.mark.parametrize("plane", ("far_field", "near_field"))
    @pytest.mark.parametrize("model, alpha", (("spdc", None),
                                              ("gaussian", 0.72)))
    @pytest.mark.parametrize("p", (0.0034, 1.0, 30.0))
    def test_joint_entropy_matches_quadrature(self, plane, model, alpha, p):
        # The closed-form joint entropy is the sum of the two normalized
        # factor entropies.  A direct quadrature of the two factors lies
        # within its own error estimate of it; for the spdc kernel the
        # closed form also agrees to 1e-10 with the entropy the oracle
        # log-integrals give (a Gaussian kernel's entropy is exact).
        j = make_density(plane, model, Params(p=p, sigma=2.0), TOL,
                         alpha=alpha)
        h_bits = err_bits = 0.0
        for f, dom, z in ((j.g, Domain.full_line(), j.zg),
                          (j.kernel, j.kernel_domain, j.zk)):
            v, e = integrate_1d(lambda t, f=f, z=z: _xlogx(f(t) / z), dom, TOL)
            h_bits -= v / math.log(2.0)
            err_bits += e / math.log(2.0)
        h = differential_entropy(j)
        assert abs(h - h_bits) <= err_bits
        err = negentropy(j).err_estimate
        if model == "spdc":
            z, i = ((4.0 * math.sqrt(math.pi) / 3.0, 2.0 * I_FF_REF)
                    if plane == "far_field" else (A1_REF, I_NF_REF))
            h_ref = (math.log2(math.sqrt(math.pi * math.e) * j.g_width)
                     + math.log2(z) - i / (z * math.log(2.0))
                     + math.log2(j.k_width))
            assert abs(h - h_ref) <= min(1e-10, err + 1e-12)
        else:
            assert err == 0.0 and abs(h - h_bits) <= 1e-12

    def test_far_norm_closed_form(self):
        for p in (0.3, 1.0, 2.5):
            j = make_density("far_field", "spdc", Params(p=p), TOL)
            assert j.norm == pytest.approx(3.0 * p / (4.0 * math.sqrt(2.0)
                                                      * math.pi), rel=1e-7)

    def test_near_norm_closed_form(self):
        sc = shape_constants(TOL)
        for p, sigma in ((0.3, 1.0), (1.3, 1.0), (0.8, 2.0)):
            j = make_density("near_field", "spdc", Params(p=p, sigma=sigma),
                             TOL)
            ref = 1.0 / (math.sqrt(2.0 * math.pi) * sc.a1 * sigma * p)
            assert j.norm == pytest.approx(ref, rel=1e-7)

    @pytest.mark.parametrize("plane", ("far_field", "near_field"))
    def test_marginal_and_conditional_normalized(self, plane):
        j = make_density(plane, "spdc", Params(p=1.0), TOL)
        for spec in (marginal_of(j), conditional_of(j, 0.4)):
            v, _ = integrate_1d(spec.pdf, spec.domain, TOL,
                                seed_points=spec.seeds)
            assert v == pytest.approx(1.0, abs=1e-6)


class TestFarFieldSigma:
    """Far-field factors do not involve sigma: every far-field value has
    the bits it has at sigma = 1."""

    @staticmethod
    def _far_field_values(p, sigma):
        params = Params(p=p, sigma=sigma)
        j = make_density("far_field", "spdc", params, TOL)
        cond = conditional_of(j)
        return (j.norm, negentropy(j), negentropy(cond),
                negentropy(marginal_of(j, origin=cond)), moments_1d(cond),
                covariance_closed("far_field", params))

    @pytest.mark.parametrize("p", (0.05, 1.0, 20.0))
    @settings(max_examples=5, deadline=None)
    @given(sigma=st.floats(1.0, 1e3))
    def test_values_do_not_depend_on_sigma(self, p, sigma):
        assert (self._far_field_values(p, sigma)
                == self._far_field_values(p, 1.0))


class TestStructure:
    @pytest.mark.parametrize("plane", ("far_field", "near_field"))
    def test_exchange_symmetry(self, plane):
        j = make_density(plane, "spdc", Params(p=0.7), TOL)
        for (a, b) in ((0.3, -1.1), (2.0, 0.5)):
            assert j(a, b) == pytest.approx(j(b, a), rel=1e-14)

    @pytest.mark.parametrize("plane", ("far_field", "near_field"))
    def test_factorization_identity(self, plane):
        j = make_density(plane, "spdc", Params(p=1.0), TOL)
        marg = marginal_of(j)
        for (x1, x2) in ((0.3, 0.4), (1.1, -0.6)):
            cond = conditional_of(j, x2)
            assert cond(x1) * marg(x2) == pytest.approx(j(x1, x2), rel=1e-9)

    def test_marginal_table_matches_direct_quadrature(self):
        # Spot values across bulk and power-law tail (near field, P = 3).
        from scipy.integrate import quad
        from scipy.special import sici
        p = 3.0
        j = make_density("near_field", "spdc", Params(p=p), TOL)
        m = marginal_of(j)

        def sint2(y):
            si, _ = sici(y)
            return (1.0 - 2.0 / math.pi * si) ** 2

        for x2 in (0.0, 2.0, 10.0, 35.0):
            z = math.sqrt(2.0) * x2
            ref, _ = quad(lambda w: math.exp(-w * w)
                          * sint2((w - z) ** 2 / (2 * p * p)),
                          -8, 8, limit=2000, epsabs=1e-14, epsrel=1e-12)
            ref *= j.norm * math.sqrt(2.0)
            assert m(x2) == pytest.approx(ref, rel=1e-6)

    def test_degenerate_slice_raises(self):
        j = make_density("far_field", "gaussian", Params(p=1.0), TOL,
                         alpha=0.72)
        with pytest.raises(DegenerateSliceError):
            conditional_of(j, 60.0)

    @pytest.mark.parametrize("value", (math.nan, math.inf, -math.inf))
    def test_non_finite_slice_value_rejected(self, kernel_points, value):
        # Checked before any work: no kernel point and no RuntimeWarning.
        j = make_density("far_field", "spdc", Params(p=1.0), TOL)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(
                    f"slice value {value!r} must be finite")):
                conditional_of(j, value)
        assert kernel_points[0] == 0

    def test_bad_labels_rejected(self):
        with pytest.raises(ValueError):
            make_density("mid_field", "spdc", Params(p=1.0))
        with pytest.raises(ValueError):
            make_density("far_field", "quantum", Params(p=1.0))

    def test_densities_are_frozen(self):
        j = make_density("far_field", "spdc", Params(p=1.0), TOL)
        for density in (j, marginal_of(j), conditional_of(j, 0.4)):
            for field in dataclasses.fields(density):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(density, field.name, None)

    def test_types_and_forms(self):
        j = make_density("near_field", "spdc", Params(p=1.0), TOL)
        marg, cond = marginal_of(j), conditional_of(j, 0.4)
        assert isinstance(j, Joint) and j.form == "joint"
        assert isinstance(marg, Density1D) and marg.form == "marginal"
        assert isinstance(cond, Density1D) and cond.form == "conditional_at"
        assert marg.parent is j and cond.parent is j and cond.fixed == 0.4
        with pytest.raises(ValueError):
            Density1D("joint", cond.pdf, cond.domain)
        for build in (marginal_of, conditional_of, gaussian_equivalent):
            with pytest.raises(ValueError):
                build(cond)


class TestSliceStore:
    """A conditional keeps its slice values under each 1-D float64 array it
    is evaluated on, from its weight pass on; its pdf reads them back and
    evaluates every other input afresh."""

    @staticmethod
    def _weighed_slice(monkeypatch, plane, fixed):
        """A slice at P = 1, with the node arrays its weight pass saw."""
        nodes = []
        run = distributions.integrate_1d

        def spy(f, *args, **kwargs):
            def seen(x):
                nodes.append(x.copy())
                return f(x)
            return run(seen, *args, **kwargs)

        monkeypatch.setattr(distributions, "integrate_1d", spy)
        j = make_density(plane, "spdc", Params(p=1.0), TOL)
        return j, conditional_of(j, fixed), nodes

    @staticmethod
    def _fresh_pdf(j, cond, x):
        """slice_unnorm(x) / s, with conditional_of's own arithmetic."""
        x = np.asarray(x, float)
        c = cond.fixed
        u, v = (x + c) / math.sqrt(2.0), (x - c) / math.sqrt(2.0)
        return j.g(u) * j.kernel(v) / cond.weight[0]

    @pytest.mark.parametrize("plane", ("far_field", "near_field"))
    @pytest.mark.parametrize("fixed", (0.0, 0.4))
    def test_pdf_keeps_its_bits_and_shape(self, monkeypatch, plane, fixed):
        j, cond, nodes = self._weighed_slice(monkeypatch, plane, fixed)
        node = nodes[len(nodes) // 2]
        for x in (node, np.linspace(-3.0, 3.0, 101), np.array(0.3), 0.3,
                  node[:len(node) // 2 * 2].reshape(2, -1)):
            got = cond.pdf(x)
            want = self._fresh_pdf(j, cond, x)
            assert np.shape(got) == np.shape(x)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    @pytest.mark.parametrize("plane", ("far_field", "near_field"))
    def test_fresh_array_costs_the_kernel_once(self, monkeypatch,
                                               kernel_points, plane):
        points = kernel_points
        _, cond, nodes = self._weighed_slice(monkeypatch, plane, 0.0)
        points[0] = 0
        cond.pdf(nodes[0])
        assert points[0] == 0
        # A fresh 1-D array is stored on its first call, read on its second.
        fresh = np.linspace(-3.0, 3.0, 101)
        first = cond.pdf(fresh)
        assert points[0] == fresh.size
        assert cond.pdf(fresh).tobytes() == first.tobytes()
        assert points[0] == fresh.size

    @pytest.mark.parametrize("plane", ("far_field", "near_field"))
    def test_other_inputs_are_not_stored(self, monkeypatch, kernel_points,
                                         plane):
        points = kernel_points
        _, cond, nodes = self._weighed_slice(monkeypatch, plane, 0.0)
        for x in (np.array(0.3), 0.3, nodes[0][:20].reshape(2, -1)):
            points[0] = 0
            cond.pdf(x)
            cond.pdf(x)
            assert points[0] == 2 * np.size(x)

    def test_stored_arrays_are_read_only(self, monkeypatch):
        # The weight integral reads the stored arrays themselves.
        values = []
        run = distributions.integrate_1d

        def spy(f, *args, **kwargs):
            def seen(x):
                values.append(f(x))
                return values[-1]
            return run(seen, *args, **kwargs)

        monkeypatch.setattr(distributions, "integrate_1d", spy)
        conditional_of(make_density("near_field", "spdc", Params(p=1.0), TOL),
                       0.4)
        assert values and not any(y.flags.writeable for y in values)

    def test_threads_share_one_slice(self, monkeypatch):
        _, cond, nodes = self._weighed_slice(monkeypatch, "near_field", 0.4)
        inputs = nodes[::4] + [np.linspace(-3.0, 3.0, 101)]
        alone = [cond.pdf(x).tobytes() for x in inputs]
        start = threading.Barrier(4, timeout=60.0)

        def read():
            start.wait()
            return [[cond.pdf(x).tobytes() for x in inputs]
                    for _ in range(5)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                runs = [f.result(timeout=60.0)
                        for f in [pool.submit(read) for _ in range(4)]]
        finally:
            sys.setswitchinterval(interval)
        assert all(run == alone for thread in runs for run in thread)

    @pytest.mark.parametrize("plane", ("far_field", "near_field"))
    def test_origin_moments_evaluate_no_kernel(self, kernel_points, plane):
        # At P = 1 the variance pass asks for exactly the weight pass's node
        # arrays: 2,808 kernel points on each plane before.
        points = kernel_points
        cond = conditional_of(make_density(plane, "spdc", Params(p=1.0)), 0.0)
        points[0] = 0
        moments_1d(cond)
        assert points[0] == 0


def _oscillatory_calls(monkeypatch):
    """A list that collects (integrand, domain) of every oscillatory
    integral the library starts."""
    calls = []
    run = quadrature._integrate_oscillatory

    def spy(f, domain, *args, **kwargs):
        calls.append((f, domain))
        return run(f, domain, *args, **kwargs)

    monkeypatch.setattr(quadrature, "_integrate_oscillatory", spy)
    return calls


def _mirror_points(domain):
    """Points from deep in the core out to where the last tail round ends."""
    xc = max(math.sqrt(32.0 * math.pi / domain.osc_scale), domain.core_extent)
    return xc * np.geomspace(1e-3, 40.0, 2001)


def _bitwise_even(f, x):
    return np.array_equal(np.asarray(f(-x)).view(np.int64),
                          np.asarray(f(x)).view(np.int64))


class TestEvenDeclarations:
    """Each domain declared ``even`` carries an integrand with
    f(-x) == f(x), bit for bit except where a marginal table's FFT
    roundoff enters."""

    PLANE_P = [(plane, p) for plane in ("far_field", "near_field")
               for p in (0.0034, 1.0, 99.0)]

    @pytest.mark.parametrize("plane, p", PLANE_P)
    def test_kernel_variance_and_origin_slice(self, monkeypatch, plane, p):
        j = make_density(plane, "spdc", Params(p=p), TOL)
        calls = _oscillatory_calls(monkeypatch)
        _factor_variances(j)      # its core only: not oscillatory
        cond = conditional_of(j, 0.0)
        negentropy(cond)          # the slice's entropy and variance
        assert len(calls) == 3
        for f, dom in calls:
            assert dom.even and _bitwise_even(f, _mirror_points(dom))
        assert cond.domain.even

    @pytest.mark.parametrize("plane", ("far_field", "near_field"))
    def test_offset_slice_is_not_even(self, monkeypatch, plane):
        j = make_density(plane, "spdc", Params(p=1.0), TOL)
        calls = _oscillatory_calls(monkeypatch)
        assert not conditional_of(j, 0.4).domain.even
        assert not calls[0][1].even

    @pytest.mark.parametrize("plane, p", PLANE_P)
    def test_marginal_and_its_cross_check(self, monkeypatch, plane, p):
        j = make_density(plane, "spdc", Params(p=p), TOL)
        calls = _oscillatory_calls(monkeypatch)
        marg = marginal_of(j)
        # The origin slice's weight, the cross-check at x2 = 0, is the one
        # integral; the mass leg integrates nothing.  Before, a second call
        # integrated the slice at x2 = 0.7 g_width, which is not even.
        (f0, dom0), = calls
        assert dom0.even and dom0.centre == 0.0
        assert _bitwise_even(f0, _mirror_points(dom0))
        assert marg.domain.even
        x = _mirror_points(marg.domain)
        mirrored = marg(-x)
        assert np.abs(mirrored - marg(x)).max() <= 1e-13 * mirrored.max()

    def test_near_field_log_integral(self, monkeypatch):
        # The log-integrals declare no oscillatory (or even) domain: each
        # integrates only its head, the first four lobes, on a finite
        # domain in x = sqrt(y) seeded at the lobes' zeros.
        calls = _oscillatory_calls(monkeypatch)
        heads = []
        run = specfun.integrate_1d

        def spy(f, domain, tol, seed_points=()):
            heads.append((domain, np.asarray(seed_points)))
            return run(f, domain, tol, seed_points=seed_points)

        monkeypatch.setattr(specfun, "integrate_1d", spy)
        specfun._compute(TOL)
        assert calls == []
        (dom_ff, seeds_ff), (dom_nf, seeds_nf) = heads    # i_ff, i_nf
        assert (dom_ff.kind, dom_ff.a) == (dom_nf.kind, dom_nf.a) == \
            ("finite", 0.0)
        assert dom_ff.b == pytest.approx(math.sqrt(4.0 * math.pi), rel=1e-15)
        np.testing.assert_allclose(seeds_ff ** 2, math.pi * np.arange(1, 4),
                                   rtol=1e-15)
        ends = np.append(seeds_nf, dom_nf.b) ** 2
        assert np.all(np.abs(specfun.sint(ends)) < 1e-15)
        k = np.arange(1, 5)
        assert np.all((ends > (k - 0.5) * math.pi) & (ends < k * math.pi))


def _entropy_tail_setup(plane, p):
    """A spdc marginal, its entropy integrand p ln p, and the scale and
    start of that integral's right tail, as integrate_1d splits it."""
    marg = marginal_of(make_density(plane, "spdc", Params(p=p), TOL))
    dom = marg.domain
    xc = max(math.sqrt(quadrature._CORE_PHASE / dom.osc_scale), dom.core_extent)
    return marg, (lambda x: _xlogx(marg.pdf(x))), dom.osc_scale, \
        dom.osc_scale * xc * xc


class TestMarginalEntropyTail:
    """Past its table's reach a marginal is the fallback A / xi2^4, and its
    entropy takes the tail blocks there from the closed antiderivative."""

    PLANE_P = [(plane, p) for plane in ("far_field", "near_field")
               for p in (0.01, 1.0, 10.96, 99.0)]

    @pytest.mark.parametrize("plane, p", PLANE_P)
    def test_closed_blocks_keep_the_tail(self, monkeypatch, plane, p):
        marg, f, scale, y_start = _entropy_tail_setup(plane, p)
        blocks = []
        rules = quadrature._block_rules

        def spy(f, scale, y0_first, k, *args):
            blocks.append(len(k))
            return rules(f, scale, y0_first, k, *args)

        monkeypatch.setattr(quadrature, "_block_rules", spy)
        ref, _ = quadrature._tail_blocks(f, scale, y_start, TOL, +1)
        n_ref = sum(blocks)
        blocks.clear()
        got, _ = quadrature._tail_blocks(f, scale, y_start, TOL, +1,
                                         marg.entropy_tail)
        assert sum(blocks) == n_ref
        # Closed-form and K15 partial sums differ by roundoff, which the
        # extrapolation weighs by up to 41 (112 in all): 1.7e-13 at far
        # field P = 10.96, 2e-14 or less at the others.
        assert abs(got - ref) <= 5e-13 * abs(ref)

    # Marginals whose entropy tails reach past their table.
    REACHED = [("far_field", 0.01), ("far_field", 1.0), ("far_field", 10.96),
               ("near_field", 0.0891), ("near_field", 1.0),
               ("near_field", 99.0)]

    @pytest.mark.parametrize("plane, p", REACHED)
    def test_entropy_stops_at_the_reach(self, monkeypatch, plane, p):
        # No node past the pi-block that holds the reach: in z = sqrt(2) xi2
        # that block ends below z^2 = zmax^2 + 2 pi / osc_scale.
        marg = marginal_of(make_density(plane, "spdc", Params(p=p), TOL))
        seen = []
        c_of = _MarginalTable.c_of

        def spy(table, z):
            seen.append((table._zmax, float(np.abs(z).max())))
            return c_of(table, z)

        monkeypatch.setattr(_MarginalTable, "c_of", spy)
        negentropy(marg)
        zmax = seen[0][0]
        z_end = max(z for _, z in seen)
        assert zmax < z_end    # the straddling block reaches past zmax
        assert z_end ** 2 < zmax ** 2 + 2.0 * math.pi / marg.domain.osc_scale

    def test_antiderivative_is_the_fallback(self):
        j = make_density("far_field", "spdc", Params(p=1.0), TOL)
        marg = marginal_of(j)
        x_from, big_f = marg.entropy_tail
        x = x_from * np.geomspace(1.0 + 1e-9, 50.0, 200)
        h = 1e-4 * x
        # F' = m ln m, by central differences, with m the pdf past the reach.
        slope = (big_f(x + h) - big_f(x - h)) / (2.0 * h)
        np.testing.assert_allclose(slope, _xlogx(marg.pdf(x)), rtol=1e-7)
        assert np.all(np.abs(big_f(x)) < np.abs(big_f(x_from)))
        assert abs(big_f(1e12)) < 1e-30


class TestCrossCheck:
    CAUGHT = "marginal table disagrees with direct quadrature: "

    def test_origin_leg_reads_the_slice_weight(self, monkeypatch):
        # marginal_of compares the table at x2 = 0 with norm * s of the
        # origin slice it is given, and the table's mass with 1, so it
        # integrates nothing.  It integrated the slice at x2 = 0.7 g_width,
        # at the joint's tol, before.
        j = make_density("near_field", "spdc", Params(p=1.0), TOL)
        origin = conditional_of(j, 0.0)
        calls = []
        run = distributions.integrate_1d

        def spy(f, domain, tol, **kwargs):
            calls.append((domain.centre, tol))
            return run(f, domain, tol, **kwargs)

        monkeypatch.setattr(distributions, "integrate_1d", spy)
        marg = marginal_of(j, origin=origin)
        assert calls == []
        s, serr = origin.weight
        assert 0.0 < serr < 1e-9 * s
        assert marg(0.0) == pytest.approx(j.norm * s, rel=1e-6)
        # A table mass off by 1e-5 is caught.  This case was a slice weight
        # off by 1e-5 at x2 = 0.7 g_width before.
        mass = _MarginalTable.mass
        monkeypatch.setattr(_MarginalTable, "mass",
                            lambda table: (1.0 + 1e-5) * mass(table))
        with pytest.raises(MarginalCrossCheckError,
                           match=self.CAUGHT + "table mass 1.0000"):
            marginal_of(j, origin=origin)

    # The far field does not involve sigma.
    @pytest.mark.parametrize("plane, sigma", (("far_field", 1.0),
                                              ("near_field", 1.0),
                                              ("near_field", 2.0),
                                              ("near_field", 5.0)))
    def test_mass_of_a_correct_table(self, monkeypatch, plane, sigma):
        # Over every 5th lattice point at sigma = 1 and every 20th at
        # sigma = 2 and 5, |mass - 1| <= 6.0e-8 on both planes, which the
        # cross-check's bound of 1e-6 never approaches.
        masses = []
        for k in (*range(-300, 201, 40), 200):   # P = 10^(k / 100)
            j = make_density(plane, "spdc", Params(p=10.0 ** (k / 100.0),
                                                   sigma=sigma), TOL)
            table, = _tables_built(monkeypatch, lambda: marginal_of(j))
            masses.append(table.mass())
        assert np.abs(np.array(masses) - 1.0).max() <= 1e-7

    @pytest.mark.parametrize("plane", ("far_field", "near_field"))
    def test_shifted_grid_is_caught_at_the_origin(self, monkeypatch, plane):
        # A table read one cell off its grid keeps its mass; only the origin
        # leg sees it, as C(0) reads C(H).
        class Shifted(_UniformSpline):
            def __init__(self, step, i0, y):
                super().__init__(step, i0 + 1, y)

        masses = []
        mass = _MarginalTable.mass

        def recorded(table):
            masses.append(mass(table))
            return masses[-1]

        monkeypatch.setattr(distributions, "_UniformSpline", Shifted)
        monkeypatch.setattr(_MarginalTable, "mass", recorded)
        j = make_density(plane, "spdc", Params(p=1.0), TOL)
        with pytest.raises(MarginalCrossCheckError,
                           match=self.CAUGHT + "origin weight"):
            marginal_of(j)
        assert len(masses) == 1 and abs(masses[0] - 1.0) < 1e-7

    @pytest.mark.parametrize("plane", ("far_field", "near_field"))
    def test_wrong_envelope_is_caught_by_the_mass(self, monkeypatch, plane):
        # The other plane's averaged envelope moves the kernel's deep tail,
        # which the Gaussian hides from the origin leg; the mass sees it.
        class WrongEnvelope(_MarginalTable):
            def _build(self, zmax):
                self.c_env = 0.5 + 2.0 / math.pi ** 2 - self.c_env
                super()._build(zmax)

        monkeypatch.setattr(distributions, "_MarginalTable", WrongEnvelope)
        j = make_density(plane, "spdc", Params(p=1.0), TOL)
        with pytest.raises(MarginalCrossCheckError,
                           match=self.CAUGHT + "table mass"):
            marginal_of(j)

    @pytest.mark.parametrize("c", (0.4, 1.5))
    def test_offset_slice_weight_matches_the_table(self, c):
        # Near field at P = 0.0034 the kernel peak at x1 = c lies far
        # outside an oscillatory core about 0 (about 20 P wide); centred on
        # the peak, the slice weight is the marginal m(c) / norm.
        j = make_density("near_field", "spdc", Params(p=0.0034), TOL)
        s, _ = conditional_of(j, c).weight
        assert s == pytest.approx(marginal_of(j)(c) / j.norm, rel=1e-6)

    @pytest.mark.parametrize("plane", ("far_field", "near_field"))
    def test_scaled_table_is_caught(self, monkeypatch, plane):
        j = make_density(plane, "spdc", Params(p=1.0), TOL)
        c_of = _MarginalTable.c_of
        monkeypatch.setattr(_MarginalTable, "c_of",
                            lambda table, z: (1.0 + 1e-5) * c_of(table, z))
        with pytest.raises(MarginalCrossCheckError,
                           match=self.CAUGHT + "origin weight"):
            marginal_of(j)


class TestMarginalConvolution:
    @pytest.mark.parametrize("na, nb", ((399, 231), (441, 255), (1009, 17)))
    def test_matches_fftconvolve_bitwise(self, na, nb):
        from scipy.signal import fftconvolve
        rng = np.random.default_rng(na * nb)
        a, b = rng.standard_normal(na), rng.standard_normal(nb)
        assert np.array_equal(_convolve_valid(a, b),
                              fftconvolve(a, b, mode="valid"))

    @pytest.mark.parametrize("plane", ("far_field", "near_field"))
    @pytest.mark.parametrize("p", (0.0034, 1.0))
    def test_k_eff_evaluates_kernel_inside_v_c_only(self, plane, p):
        # The table's build evaluates the kernel on the fine nodes of the
        # cells that reach v_c, and _k_eff on the nodes inside it only.
        j = make_density(plane, "spdc", Params(p=p), TOL)
        seen = []

        def spy(x):
            seen.append(np.array(x))
            return j.kernel(x)

        v_c = math.sqrt(_MarginalTable._PHASE_SMOOTH
                        / j.kernel_domain.osc_scale)
        table = _MarginalTable(dataclasses.replace(j, kernel=spy),
                               z_cap=2.0 * v_c + 1.0)
        assert seen and np.abs(np.concatenate(seen)).max() \
            <= v_c + table._spline._step
        v = (2.0 * v_c / 5000.0) * np.arange(-5000, 5001)
        former = np.where(np.abs(v) <= v_c, j.kernel(v),
                          table._k_avg(np.where(np.abs(v) > v_c, v, v_c)))
        masked = _masked_k_eff(table, v)
        seen.clear()
        out = table._k_eff(v)
        assert np.abs(np.concatenate(seen)).max() <= v_c
        assert sum(map(len, seen)) == np.count_nonzero(np.abs(v) <= v_c)
        assert np.array_equal(out.view(np.int64), former.view(np.int64))
        assert np.array_equal(out.view(np.int64), masked.view(np.int64))

    @pytest.mark.parametrize("plane", ("far_field", "near_field"))
    def test_c_of_evaluates_spline_inside_reach_only(self, monkeypatch,
                                                     plane):
        # Lookups beyond the table's reach take the average alone; the
        # values are those of evaluating both everywhere and choosing, and a
        # 0-d lookup gives a 0-d result.
        j = make_density(plane, "spdc", Params(p=1.0), TOL)
        table = _MarginalTable(j, z_cap=10.0)
        spline, seen = table._spline, []

        def spy(x):
            seen.append(np.array(x))
            return spline(x)

        monkeypatch.setattr(table, "_spline", spy)
        z = (3.0 * table._zmax / 5000.0) * np.arange(-5000, 5001)
        inside = np.abs(z) <= table._zmax
        former = np.clip(np.where(inside, spline(np.where(inside, z, 0.0)),
                                  j.zg * table._k_avg(np.where(inside, 1.0, z))),
                         0.0, None)
        out = table.c_of(z)
        assert np.array_equal(np.concatenate(seen), z[inside])
        assert np.array_equal(out.view(np.int64), former.view(np.int64))
        for i in (5000, 9000):       # z = 0, and beyond the reach
            one = table.c_of(z[i])
            assert one.shape == () and one == out[i]

    @pytest.mark.parametrize("plane", ("far_field", "near_field"))
    @pytest.mark.parametrize("p", (0.0034, 0.05, 1.0, 20.0, 99.0))
    def test_cell_moments_match_fine_sum(self, monkeypatch, plane, p):
        # The coarse table from cell moments reads as the node-by-node sum
        # on the fine step, splined on that step, to 1e-9 of max|C|.  Its
        # own nodes are fine nodes too, so there the splines add nothing and
        # what is left is the Taylor remainder and the Gauss-Legendre cells:
        # 9e-13 at order 6, 7e-11 at order 2.
        j = make_density(plane, "spdc", Params(p=p), TOL)
        table, = _tables_built(monkeypatch, lambda: marginal_of(j))
        fine = _fine_table(table, 1.05 * table.z_cap)
        z = np.linspace(-table.z_cap, table.z_cap, 100001)
        scale = np.abs(fine(z)).max()
        assert np.abs(table.c_of(z) - fine(z)).max() <= 1e-9 * scale
        nodes = _nodes(table._spline)
        nodes = nodes[np.abs(nodes) <= table.z_cap]
        assert np.abs(table.c_of(nodes) - fine(nodes)).max() <= 1e-11 * scale

    def test_marginal_lookups_are_thread_safe(self):
        # The table is built before marginal_of returns and never changes,
        # so concurrent lookups read the same bits as one thread alone.
        j = make_density("near_field", "spdc", Params(p=0.05), TOL)
        marg = marginal_of(j)
        x = np.linspace(-40.0, 40.0, 400001)
        alone = marg(x)
        start = threading.Barrier(2, timeout=60.0)

        def lookup():
            start.wait()
            return marg(x)

        with ThreadPoolExecutor(max_workers=2) as pool:
            both = [f.result(timeout=60.0) for f in [pool.submit(lookup)
                                                     for _ in range(2)]]
        for out in both:
            assert np.array_equal(out.view(np.int64), alone.view(np.int64))

    def test_next_fast_len_matches_scipy(self):
        from scipy.fft import next_fast_len
        ns = range(1, 20001)
        assert [_next_fast_len(n) for n in ns] == [next_fast_len(n, True)
                                                   for n in ns]

    @pytest.mark.parametrize("n", (4, 5, 9, 41, 1_000_001))
    def test_spline_matches_cubic_spline_on_random_data(self, n):
        # A dyadic step makes every node and spacing exact, so CubicSpline
        # sees the same uniform grid.  On a general step its spacings differ
        # by ulps of |z|, which noise data amplify to ~1e-10 at 1e6 nodes.
        rng = np.random.default_rng(n)
        _assert_spline_parity(0.125, -(n // 2), rng.standard_normal(n))

    @pytest.mark.parametrize("plane, p", [(plane, p) for plane in
                                          ("far_field", "near_field")
                                          for p in (0.0034, 1.0, 99.0)])
    def test_spline_matches_cubic_spline_on_tables(self, monkeypatch, plane,
                                                   p):
        built = []

        class Recorded(_UniformSpline):
            def __init__(self, step, i0, y):
                super().__init__(step, i0, y)
                built.append((step, i0, y))

        monkeypatch.setattr(distributions, "_UniformSpline", Recorded)
        j = make_density(plane, "spdc", Params(p=p), TOL)
        negentropy(marginal_of(j))
        assert len(built) == 1
        for step, i0, y in built:
            _assert_spline_parity(step, i0, y)

    @pytest.mark.parametrize("plane, p", (("far_field", 0.0034),
                                          ("far_field", 99.0),
                                          ("near_field", 99.0),
                                          ("near_field", 1.0)))
    def test_cell_moments_match_the_masked_path(self, monkeypatch, plane, p):
        # q = 1 (far field at small P, near field at large P and P = 1)
        # takes M_0 = h k_eff(c) alone, and q > 1 (far field at P = 99)
        # cuts its cells by searchsorted; both have the bits of the mask,
        # gather, Vandermonde and scatter path.
        calls = []
        moments = _MarginalTable._cell_moments

        def spy(table, centres, h, q, orders):
            calls.append((table, centres, h, q, orders))
            return moments(table, centres, h, q, orders)

        monkeypatch.setattr(_MarginalTable, "_cell_moments", spy)
        marginal_of(make_density(plane, "spdc", Params(p=p), TOL))
        (table, centres, h, q, orders), = calls
        assert (q == 1) == (p != 99.0 or plane == "near_field")
        ours = moments(table, centres, h, q, orders)
        oracle = _masked_cell_moments(table, centres, h, q, orders)
        assert ours.shape == oracle.shape
        assert np.array_equal(ours.view(np.int64), oracle.view(np.int64))

    def test_far_field_table_at_small_p_is_lean(self, monkeypatch):
        # The far-field table at P = 0.0034, the largest a report builds,
        # keeps its values and slopes alone: 2 arrays of its length, where
        # the FFT's padded length adds under 1%.  numpy reports its
        # allocations to tracemalloc, so both numbers are deterministic;
        # the build peaked at 20.0 MiB with 5 arrays kept.
        j = make_density("far_field", "spdc", Params(p=0.0034), TOL)
        origin = conditional_of(j)
        built = []

        class Traced(_MarginalTable):
            def __init__(self, joint, z_cap):
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                super().__init__(joint, z_cap)
                built.append((self, tracemalloc.get_traced_memory()[1] - base))

        monkeypatch.setattr(distributions, "_MarginalTable", Traced)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            marg = marginal_of(j, origin=origin)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        (table, peak), = built
        spline = table._spline
        n = len(spline._y)
        assert n == 293_159
        assert [k for k, v in vars(spline).items()
                if isinstance(v, np.ndarray)] == ["_y", "_s"]
        assert held <= 1.01 * 2 * 8 * n and marg(0.0) > 0.0
        assert peak <= 14 * 2 ** 20

    def test_import_loads_only_scipy_special(self):
        src = os.path.dirname(os.path.dirname(spdc_ng.__file__))
        res = subprocess.run(
            [sys.executable, "-c",
             "import sys, spdc_ng; print(*{m.split('.')[1] for m in "
             "sys.modules if m.startswith('scipy.')})"],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": src})
        private = {"_lib", "_cyutility", "__config__", "_distributor_init",
                   "version"}
        assert set(res.stdout.split()) - private == {"special"}


def _tables_built(monkeypatch, make):
    """The marginal tables that make() builds."""
    tables = []

    class Recorded(_MarginalTable):
        def __init__(self, joint, z_cap):
            super().__init__(joint, z_cap)
            tables.append(self)

    monkeypatch.setattr(distributions, "_MarginalTable", Recorded)
    make()
    return tables


def _fine_table(table, zmax):
    """A marginal table built node by node on the fine step: the sum
    h * sum_i k_eff(v_i) g(z - v_i) by one FFT convolution, splined on that
    step.  The cell-moment build must reproduce it."""
    j = table.joint
    wg = 7.0 * j.g_width
    vmax = zmax + wg
    v_c = math.sqrt(table._PHASE_SMOOTH / table.osc)
    f_max = 2.0 * table.osc * min(vmax, v_c)   # phase slope of osc v^2
    h = math.pi / (18.0 * f_max + 33.0 / j.g_width + 33.0 / j.k_width + 18.0)
    m = int(math.ceil(wg / h))
    n = int(math.ceil(zmax / h)) + 2
    w = h * np.arange(-m, m + 1)
    gv = j.g(w)
    vk = h * np.arange(-(m + n), m + n + 1)
    kv = table._k_eff(vk)
    conv = _convolve_valid(kv, gv) * h   # length 2n+1, z = j*h
    return _UniformSpline(h, -n, conv)


def _nodes(spline):
    """The nodes z_i = step (i0 + i) of a uniform spline."""
    return spline._step * np.arange(spline._i0, spline._i0 + len(spline._y))


def _assert_spline_parity(step, i0, y):
    """The uniform spline has the bits of the coefficient table
    (``_CoefficientSpline``) at the nodes, the interval midpoints, across
    both end intervals and at random points, and the same integral; and
    equals CubicSpline(z, y) to 1e-12 of max|y| at the first three."""
    from scipy.interpolate import CubicSpline
    ours = _UniformSpline(step, i0, y)
    z = _nodes(ours)
    table = _CoefficientSpline(z, y)
    h = z[1] - z[0]
    edge = h * np.linspace(0.0, 1.0, 9)
    scale = np.abs(y).max()
    rng = np.random.default_rng(len(y))
    points = (z, 0.5 * (z[:-1] + z[1:]), z[0] + edge, z[-1] - edge)
    for x in points + (rng.uniform(z[0], z[-1], 10_001),):
        assert np.array_equal(ours(x).view(np.int64),
                              table(x).view(np.int64))
    assert ours.integral == table.integral
    ref = CubicSpline(z, y)
    for x in points:
        assert np.abs(ours(x) - ref(x)).max() <= 1e-12 * scale


class _CoefficientSpline:
    """The uniform not-a-knot spline as a table of cubic coefficients per
    interval, read by Horner's rule: the form that kept five arrays, and
    the oracle of ``_UniformSpline``'s lookups."""

    def __init__(self, z, y):
        n = len(y)
        h = (z[-1] - z[0]) / (n - 1)
        m = np.diff(y) / h
        s = np.convolve(3.0 * (m[:-1] + m[1:]),
                        distributions._SPLINE_INVERSE)[27:n + 27]
        r, k = distributions._SPLINE_R, min(n, 64)
        mode = r ** np.arange(k)
        far = r ** (n - 1) + 2.0 * r ** (n - 2)
        near = 1.0 + 2.0 * r
        b0 = 0.5 * (5.0 * m[0] + m[1]) - (s[0] + 2.0 * s[1])
        b1 = 0.5 * (m[-2] + 5.0 * m[-1]) - (2.0 * s[-2] + s[-1])
        det = near * near - far * far
        s[:k] += (b0 * near - b1 * far) / det * mode
        s[n - k:] += (b1 * near - b0 * far) / det * mode[::-1]
        t = (s[:-1] + s[1:] - 2.0 * m) / h
        self._z, self._inv_h = z, 1.0 / h
        self._coef = (y[:-1], s[:-1], (m - s[:-1]) / h - t, t / h)
        self.integral = h * (y.sum() - 0.5 * (y[0] + y[-1])) \
            + h * h * (s[0] - s[-1]) / 12.0

    def __call__(self, x):
        z = self._z
        i = np.clip(((x - z[0]) * self._inv_h).astype(np.intp), 0, len(z) - 2)
        t = x - z[i]
        c0, c1, c2, c3 = (c[i] for c in self._coef)
        return c0 + t * (c1 + t * (c2 + t * c3))


def _masked_k_eff(table, v):
    """k_eff by boolean masks, gathers and scatters: the oracle of the
    searchsorted cut."""
    near = np.abs(v) <= table.v_c
    out = np.empty_like(v)
    out[near] = table.joint.kernel(v[near])
    out[~near] = table._k_avg(v[~near])
    return out


def _masked_cell_moments(table, centres, h, q, orders):
    """Cell moments by masks, one Vandermonde product per kind of cell and
    scatters, at every q: the oracle of ``_MarginalTable._cell_moments``."""
    far = np.abs(centres) - 0.5 * (q - 1) * h > table.v_c
    moments = np.empty((orders, len(centres)))
    x, wts = np.polynomial.legendre.leggauss(min(q, 8))
    for sel, nodes, weights, k in (
            (~far, h * (np.arange(q) - 0.5 * (q - 1)), np.full(q, h),
             lambda v: _masked_k_eff(table, v)),
            (far, 0.5 * q * h * x, 0.5 * q * h * wts, table._k_avg)):
        kw = k(centres[sel, None] + nodes) * weights
        moments[:, sel] = (kw @ np.vander(nodes, orders, True)).T
    return moments


class TestFactorBuffers:
    """Joint.g, the spdc kernel and a slice's values come from buffers of
    their own, with the bits of the one-expression forms they replaced
    (the oracles here), for arrays and 0-d inputs alike; read-only inputs
    show that nothing writes into its argument."""

    @pytest.mark.parametrize("plane", ("far_field", "near_field"))
    def test_factors_and_slice_keep_their_bits(self, plane):
        j = make_density(plane, "spdc", Params(p=0.3, sigma=1.5), TOL)
        c = j.kernel_domain.osc_scale
        shape = specfun.sinc if plane == "far_field" else specfun.sint

        def g(u):
            return np.exp(-(np.asarray(u, float) / j.g_width) ** 2)

        def kernel(v):
            return shape(c * np.asarray(v, float) ** 2) ** 2

        rng = np.random.default_rng(5)
        x = rng.standard_normal(20_001) * 5.0 * j.k_width
        x.flags.writeable = False
        assert _bitwise_same(j.g(x), g(x))
        assert _bitwise_same(j.kernel(x), kernel(x))
        # A 0-d input squares by pow, an array by multiplication; 20,000
        # scalars meet a few dozen where the two differ.
        assert all(j.g(v) == g(v) and j.kernel(v) == kernel(v)
                   for v in x.tolist())
        cond = conditional_of(j, 0.4)
        s, _ = cond.weight
        rt2 = math.sqrt(2.0)
        ref = g((x + 0.4) / rt2) * kernel((x - 0.4) / rt2) / s
        assert _bitwise_same(cond.pdf(x), ref)
        assert all(cond(v) == g((v + 0.4) / rt2) * kernel((v - 0.4) / rt2) / s
                   for v in x[:2000].tolist())


def _bitwise_same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.int64),
                                                 b.view(np.int64))


class TestGaussianModel:
    def test_marginal_is_exact_normal(self):
        j = make_density("near_field", "gaussian", Params(p=1.2),
                         TOL, alpha=0.72)
        m = marginal_of(j)
        var = 0.5 * (0.5 * j.g_width ** 2 + 0.5 * j.k_width ** 2)
        x = np.linspace(-4.0, 4.0, 9)
        ref = np.exp(-x * x / (2 * var)) / math.sqrt(2 * math.pi * var)
        np.testing.assert_allclose(m(x), ref, rtol=1e-12)

    def test_conditional_variance_closed_form(self):
        # var(x1 | x2 = 0) = (g^2 k^2) / (g^2 + k^2) in half-width units.
        alpha, p = 0.45, 0.8
        j = make_density("far_field", "gaussian", Params(p=p), TOL,
                         alpha=alpha)
        _, var = moments_1d(conditional_of(j, 0.0))
        assert var == pytest.approx(1.0 / (1.0 + alpha * p * p), rel=1e-8)

    def test_gaussian_equivalent_matches_covariance(self):
        from spdc_ng.moments import covariance_numeric
        for plane in ("far_field", "near_field"):
            j = make_density(plane, "spdc", Params(p=0.9), TOL)
            g = gaussian_equivalent(j)
            cj = covariance_numeric(j)
            cg = covariance_numeric(g)
            assert cg.var1 == pytest.approx(cj.var1, rel=1e-6)
            assert cg.cov == pytest.approx(cj.cov, rel=1e-5, abs=1e-8)

    def test_gaussian_equivalent_of_gaussian_is_itself(self):
        g = make_density("near_field", "gaussian", Params(p=1.0), TOL,
                         alpha=0.72)
        assert gaussian_equivalent(g) is g


def test_star_import_resolves_every_public_name():
    namespace = {}
    exec("from spdc_ng import *", namespace)
    assert all(namespace[name] is getattr(spdc_ng, name)
               for name in spdc_ng.__all__)
    assert {"Joint", "Density1D"} <= set(namespace)
    assert not {"DensitySpec", "eval_density"} & set(vars(spdc_ng))

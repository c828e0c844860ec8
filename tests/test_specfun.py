"""Unit tests for the elementary kernels and shape constants."""

import math

import numpy as np
import pytest

from scipy.special import sici

from spdc_ng import moments
from spdc_ng.quadrature import Domain, QuadTolerance, integrate_1d
from spdc_ng.specfun import (_brentq, _xlogx, matching_alpha, shape_constants,
                             sinc, sine_integral, sint)


def si_taylor(x, terms=60):
    """Reference Si by its everywhere-convergent Maclaurin series."""
    total = 0.0
    for k in range(terms):
        total += (-1) ** k * x ** (2 * k + 1) / ((2 * k + 1) *
                                                 math.factorial(2 * k + 1))
    return total


class TestSineIntegral:
    def test_matches_taylor_series(self):
        for x in (0.05, 0.3, 1.0, 2.0, 3.5):
            assert sine_integral(x) == pytest.approx(si_taylor(x), abs=1e-13)

    def test_known_maximum_at_pi(self):
        # The Wilbraham-Gibbs constant.
        assert sine_integral(math.pi) == pytest.approx(1.8519370519824662,
                                                       abs=1e-12)

    def test_odd(self):
        x = np.linspace(0.1, 20.0, 40)
        np.testing.assert_allclose(sine_integral(-x), -sine_integral(x),
                                   rtol=1e-14)

    def test_limit_at_infinity(self):
        assert sine_integral(1e8) == pytest.approx(math.pi / 2.0, abs=1e-7)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            sine_integral(math.nan)


class TestSinc:
    def test_matches_ratio(self):
        for x in (0.3, 1.7, 4.0, 12.345):
            assert sinc(x) == pytest.approx(math.sin(x) / x, rel=1e-14)

    def test_removable_singularity(self):
        assert sinc(0.0) == 1.0
        assert sinc(1e-9) == pytest.approx(1.0, abs=1e-15)

    def test_even(self):
        x = np.linspace(0.1, 30.0, 50)
        np.testing.assert_allclose(sinc(-x), sinc(x), rtol=1e-14)

    def test_first_zero(self):
        assert abs(sinc(math.pi)) < 1e-15


class TestSint:
    def test_anchors(self):
        assert sint(0.0) == pytest.approx(1.0, abs=1e-15)
        # 1 - (2/pi) Si(pi) at the first zero crossing region
        assert sint(math.pi) == pytest.approx(
            1.0 - 2.0 / math.pi * 1.8519370519824662, abs=1e-12)

    def test_envelope_decay(self):
        # |sint(y)| <= ~(2/pi)/y for large y.
        for y in (50.0, 200.0, 1000.0):
            assert abs(sint(y)) < 1.2 * (2.0 / math.pi) / y

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            sint(-1.0)

    def test_array_shape(self):
        y = np.linspace(0.0, 10.0, 7)
        assert sint(y).shape == (7,)


def _frozen(x):
    """x as a read-only array, so that a kernel writing into it raises."""
    x = np.array(x, float)
    x.flags.writeable = False
    return x


class TestKernelBuffers:
    """The kernels compute in buffers of their own, with the operations and
    the bits of the one-expression forms they replaced (the oracles here),
    and never write into their argument."""

    RNG = np.random.default_rng(7)
    ARGS = (RNG.standard_normal(100_001) * 40.0,
            np.abs(RNG.standard_normal(100_001)) * 1e4,
            np.array([0.0, -0.0, 1e-300, 5e-324, math.pi, 1e15]),
            np.linspace(0.0, 30.0, 3003).reshape(3, 1001))

    @staticmethod
    def _same(a, b):
        a, b = np.asarray(a), np.asarray(b)
        return a.shape == b.shape and np.array_equal(a.view(np.int64),
                                                     b.view(np.int64))

    @pytest.mark.parametrize("i", range(len(ARGS)))
    def test_sinc_and_sint(self, i):
        x = _frozen(self.ARGS[i])
        assert self._same(sinc(x), np.sinc(x / np.pi))
        y = _frozen(np.abs(x))
        assert self._same(sint(y), 1.0 - (2.0 / math.pi) * sici(y)[0])
        for v in (0.0, 0.7, -3.25, 1e-9):
            assert sinc(v) == float(np.sinc(v / np.pi))
            assert sint(abs(v)) == float(1.0 - (2.0 / math.pi)
                                         * sici(abs(v))[0])
            assert type(sinc(v)) is float and type(sint(abs(v))) is float

    @pytest.mark.parametrize("i", range(len(ARGS)))
    def test_xlogx(self, i):
        p = _frozen(sinc(self.ARGS[i]) ** 2)
        ref = np.zeros_like(p)
        mask = p > 1e-300
        ref[mask] = p[mask] * np.log(p[mask])
        assert self._same(_xlogx(p), ref)


class TestMatchingAlpha:
    def test_defining_property(self):
        for level in (1.0 / math.e, 1.0 / math.e ** 2, 0.5):
            a = matching_alpha(level)
            u_star = -math.log(level) / a
            assert math.sin(u_star) / u_star == pytest.approx(level, abs=1e-12)

    def test_reference_values(self):
        assert matching_alpha(1.0 / math.e) == pytest.approx(0.4547, abs=2e-4)
        assert matching_alpha(1.0 / math.e ** 2) == pytest.approx(0.7249, abs=2e-4)

    def test_domain(self):
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                matching_alpha(bad)


def _brackets(seed=11):
    """(f, a, b, xtol) for seeded sinc levels, cubics and exp(-x) - c x^2,
    each with a sign change over [a, b]."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(60):
        level = rng.uniform(0.01, 0.99)
        xtol = (1e-14, 1e-8, 2e-12)[len(out) % 3]
        out.append((lambda u, lv=level: math.sin(u) / u - lv,
                    1e-12, 4.49340945790906, xtol))
        r = rng.uniform(-2.0, 2.0, 3)
        lo, hi = np.sort(rng.uniform(-3.0, 3.0, 2))
        cubic = lambda x, r=r: (x - r[0]) * (x - r[1]) * (x - r[2])
        if np.sign(cubic(lo)) != np.sign(cubic(hi)):
            out.append((cubic, lo, hi, 1e-12))
        c = rng.uniform(0.5, 3.0)
        out.append((lambda x, c=c: math.exp(-x) - c * x * x, 0.0, 5.0, 1e-13))
    return out


class TestBrentq:
    """The private Brent solver against scipy.optimize.brentq, bit for bit."""

    def test_matches_scipy_bitwise(self):
        from scipy.optimize import brentq
        cases = _brackets() + [(lambda x: x - 1.0, 1.0, 3.0, 1e-12),
                               (lambda x: x - 3.0, 1.0, 3.0, 1e-12)]
        assert len(cases) > 150
        for f, a, b, xtol in cases:
            assert _brentq(f, a, b, xtol) == brentq(f, a, b, xtol=xtol)

    def test_root_at_endpoint(self):
        assert _brentq(lambda x: x - 1.0, 1.0, 3.0, 1e-12) == 1.0
        assert _brentq(lambda x: x * x - 9.0, 1.0, 3.0, 1e-12) == 3.0

    def test_same_sign_bracket_rejected(self):
        with pytest.raises(ValueError, match="different signs"):
            _brentq(lambda x: x * x + 1.0, -1.0, 1.0, 1e-12)

    def test_matching_alpha_values(self):
        assert matching_alpha(1.0 / math.e) == 0.4547267104391005
        assert matching_alpha(1.0 / math.e ** 2) == 0.7249159276364936

    def test_epr_crossings_match_scipy(self, monkeypatch):
        from scipy.optimize import brentq
        ours = moments.find_epr_crossings()
        monkeypatch.setattr(moments, "_brentq",
                            lambda f, a, b, xtol: brentq(f, a, b, xtol=xtol))
        assert ours == moments.find_epr_crossings()


class TestShapeConstants:
    def test_values(self):
        sc = shape_constants()
        assert sc.a1 == pytest.approx(1.4007666, abs=1e-5)
        assert sc.a2 == pytest.approx(0.5909355, abs=1e-5)
        assert sc.i_ff == pytest.approx(-0.3648362, abs=1e-5)
        assert sc.i_nf == pytest.approx(-0.6915804, abs=1e-4)

    def test_sinc_moment_ratio_analytic(self):
        assert shape_constants().sinc_moment_ratio == pytest.approx(0.75,
                                                                   abs=1e-6)

    def test_error_estimates_honest(self):
        sc = shape_constants()
        assert abs(sc.a1 - 1.400766606211) <= 10 * sc.errors["a1"] + 1e-12
        assert abs(sc.a2 - 0.5909354838685) <= 10 * sc.errors["a2"] + 1e-12

    def test_moments_are_closed_forms(self):
        sc = shape_constants()
        ln_silver = math.log(1.0 + math.sqrt(2.0))
        assert sc.a1 == (4.0 * math.sqrt(2.0 * math.pi)
                         * (math.pi - 2.0 * ln_silver) / math.pi ** 2)
        assert sc.a2 == (2.0 * math.sqrt(2.0 * math.pi)
                         * (math.pi - math.sqrt(2.0) + 2.0 * ln_silver)
                         / (3.0 * math.pi ** 2))
        assert sc.b1 == 4.0 * math.sqrt(math.pi) / 3.0
        assert sc.sinc_moment_ratio == 0.75
        for name in ("a1", "a2", "b1", "sinc_moment_ratio"):
            assert sc.errors[name] == 0.0
        assert sc.errors["i_ff"] > 0.0 and sc.errors["i_nf"] > 0.0

    @pytest.mark.parametrize("name, f", (
        ("a1", lambda x: sint(x * x) ** 2),
        ("a2", lambda x: x * x * sint(x * x) ** 2),
        ("b1", lambda x: sinc(x * x) ** 2),
        ("b2", lambda x: x * x * sinc(x * x) ** 2)))
    def test_quadrature_within_its_error_of_closed_forms(self, name, f):
        # The algebraic-tail quadrature stays tested as the oracle of the
        # exact moments; b2 = sqrt(pi) = b1 * sinc_moment_ratio.
        sc = shape_constants()
        exact = math.sqrt(math.pi) if name == "b2" else getattr(sc, name)
        value, err = integrate_1d(f, Domain.full_line(osc_scale=1.0),
                                  QuadTolerance())
        assert abs(value - exact) <= err

    def test_memoized(self):
        assert shape_constants() is shape_constants()

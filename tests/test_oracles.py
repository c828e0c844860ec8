"""Independent references for the values the acceptance criteria pin.

None of the references below calls the library's quadrature
(``integrate_1d``, ``marginal_of``, ``conditional_of``, ``shape_constants``):

* the kernel shape constants A1, A2 come from mpmath, summing pi-periods of
  y = x^2 with Levin acceleration, and again from a Gauss-Legendre rule split
  at the zeros of sint with the period-averaged analytic tail.  The library
  takes both from closed forms, which the mpmath sums pin to 1e-12;
* the marginal negentropies come from a discrete convolution of the
  rotated factors (by numpy.fft), a trapezoid entropy and the analytic
  a/z^4 tail;
* the near-field origin-slice negentropy comes from the zero-split
  Gauss-Legendre rule;
* the log-integral shape constants i_ff and i_nf come from a zero-split
  Gauss-Legendre sum in s = sqrt(y) with the period-averaged analytic tail.
  The library uses the same kind of split, in y, so this reference is
  independent in code, and its agreement between 1500 and 6000 zeros checks
  the tail;
* delta_B follows from A1, A2 in closed form;
* the scale-free second-moment tails of the two kernels beyond the
  oscillatory core's split y = 32 pi are M/2 - H: M in closed form, H an
  mpmath sum over the lobes between the kernel's zeros.

Each test compares the library with its reference, and the literal targets
of ``tests/test_acceptance.py`` with the reference they were taken from.
"""

import math
from functools import lru_cache

import numpy as np
import pytest
from scipy.special import sici

from spdc_ng.cli import _sweep_values
from spdc_ng.distributions import Params, make_density, marginal_of
from spdc_ng.entropy import negentropy, ng_report
from spdc_ng import moments, quadrature
from spdc_ng.moments import mancini_boundary
from spdc_ng.quadrature import QuadTolerance
from spdc_ng.specfun import shape_constants

LN2 = math.log(2.0)

# A1 = integral of sint(x^2)^2 and A2 = integral of x^2 sint(x^2)^2 over the
# line, as the mpmath reference below computes them (to ~1e-13).
A1_REF = 1.40076660621066
A2_REF = 0.590935483868504


def _sint(y):
    si, _ = sici(y)
    return 1.0 - (2.0 / math.pi) * si


def _neg_bits(z, m2, ent_nats):
    """Negentropy (bits) of a zero-mean density with mass z, second moment
    m2 and entropy ent_nats."""
    return (0.5 * math.log(2.0 * math.pi * math.e * m2 / z) - ent_nats) / LN2


# --------------------------------------------------------------------------
# Shape constants by mpmath: Levin-accelerated sums over pi-periods in y.
# A1 = int_0^inf sint(y)^2 y^(-1/2) dy,  A2 = int_0^inf sint(y)^2 y^(1/2) dy.

@pytest.fixture(scope="module")
def mp_constants():
    mp = pytest.importorskip("mpmath").mp

    @lru_cache(maxsize=None)
    def period(k):
        def sint2(y):
            return (1 - 2 / mp.pi * mp.si(y)) ** 2

        a, b = k * mp.pi, (k + 1) * mp.pi
        return (mp.quad(lambda y: sint2(y) / mp.sqrt(y), [a, b]),
                mp.quad(lambda y: sint2(y) * mp.sqrt(y), [a, b]))

    def split_sum(which, head, tol=1e-13, min_terms=8, max_terms=80):
        """Direct sum of the first ``head`` periods plus a Levin-u
        extrapolated sum of the rest."""
        total = mp.fsum(period(k)[which] for k in range(head))
        levin = mp.levin(method="levin", variant="u")
        partial, sums = mp.zero, []
        for k in range(head, head + max_terms):
            partial += period(k)[which]
            sums.append(partial)
            value, err = levin.update_psum(sums)
            if len(sums) >= min_terms and err < tol:
                return float(total + value)
        raise RuntimeError(f"Levin sum from period {head} did not converge")

    # 30 digits keep the cancellation in 1 - (2/pi) Si(y) and the Levin
    # transform's amplification well below the 15 digits wanted.
    with mp.workdps(30):
        return {head: (split_sum(0, head), split_sum(1, head))
                for head in (5, 15)}


class TestShapeConstantsMpmath:
    def test_tail_split_independent(self, mp_constants):
        (a1_5, a2_5), (a1_15, a2_15) = mp_constants[5], mp_constants[15]
        assert abs(a1_5 - a1_15) < 1e-11
        assert abs(a2_5 - a2_15) < 1e-11

    def test_reference_literals(self, mp_constants):
        a1, a2 = mp_constants[15]
        assert abs(a1 - A1_REF) < 1e-12
        assert abs(a2 - A2_REF) < 1e-12

    def test_library_within_its_errors(self, mp_constants):
        # The reference itself is good to 1e-12.
        a1, a2 = mp_constants[15]
        sc = shape_constants()
        e_a1, e_a2 = sc.errors["a1"] + 1e-12, sc.errors["a2"] + 1e-12
        assert abs(sc.a1 - a1) <= e_a1
        assert abs(sc.a2 - a2) <= e_a2
        boundary = math.sqrt(a1 / (4.0 * a2))
        rel_err = 0.5 * (e_a1 / sc.a1 + e_a2 / sc.a2)
        assert abs(mancini_boundary() - boundary) <= rel_err * boundary

    def test_closed_forms(self, mp_constants):
        # The library's A1 = 4 sqrt(2 pi) (pi - 2 ln(1 + sqrt 2)) / pi^2 and
        # A2 = 2 sqrt(2 pi) (pi - sqrt 2 + 2 ln(1 + sqrt 2)) / (3 pi^2) agree
        # with the reference to its own accuracy.
        a1, a2 = mp_constants[15]
        sc = shape_constants()
        assert abs(sc.a1 - a1) <= 1e-12
        assert abs(sc.a2 - a2) <= 1e-12

    def test_acceptance_targets(self, mp_constants):
        # Criterion 1 pins a2 at 0.5909 and criterion 10 the Mancini
        # boundary sqrt(A1/(4 A2)) at 0.7698: each is the reference rounded
        # to four places.
        a1, a2 = mp_constants[15]
        assert abs(a2 - 0.5909) <= 5e-5
        assert abs(math.sqrt(a1 / (4.0 * a2)) - 0.7698) <= 5e-5


class TestDeltaBError:
    def test_error_covers_reference(self):
        # At sigma = 1 the state's spectrum is (1/2, sqrt(3 A2 / A1)), and
        # delta_B is the entropy term of the second eigenvalue alone.  A1 and
        # A2 are exact, so delta_B is too and its error column is 0.
        nu = math.sqrt(3.0 * A2_REF / A1_REF)
        ref = (nu + 0.5) * math.log(nu + 0.5) - (nu - 0.5) * math.log(nu - 0.5)
        value, err = _sweep_values("delta_b", 1.0, 1.0, (), QuadTolerance())
        assert err == 0.0
        assert value == pytest.approx(ref, rel=1e-12)


# --------------------------------------------------------------------------
# Marginal negentropy at P = 3 by direct discrete convolution.
#
# In z = sqrt(2) xi2 the marginal is the density of u - v with u ~ g and
# v ~ k, i.e. C(z) = int g(w) k(w - z) dw / (Zg Zk).  Beyond |z| = z_max the
# Gaussian has averaged the kernel's oscillation away and C(z) = a / z^4
# with a = (mean kernel coefficient) / Zk.  The variance is closed form:
# 1/2 + Var(v).

def _marginal_negentropy(plane, p, z_max, h, w_max=7.0):
    """(negentropy in bits, total mass) of the far- or near-field marginal."""
    if plane == "far_field":
        c = 0.5 * p * p

        def k(v):
            return np.sinc(c * v * v / math.pi) ** 2

        # int sinc^2(x^2) dx = 4 sqrt(pi)/3, second-moment ratio 3/4.
        zk = 4.0 * math.sqrt(math.pi) / 3.0 / math.sqrt(c)
        k_mean = 0.5 / c ** 2                     # sin^2 -> 1/2
        var_v = 0.75 / c
    else:
        c = 0.5 / (p * p)

        def k(v):
            return _sint(c * v * v) ** 2

        zk = A1_REF / math.sqrt(c)
        k_mean = 2.0 / (math.pi ** 2 * c ** 2)    # (4/pi^2) cos^2 -> 2/pi^2
        var_v = A2_REF / (A1_REF * c)
    m = int(round(w_max / h))
    n = int(round(z_max / h))
    g = np.exp(-(h * np.arange(-m, m + 1)) ** 2)
    kv = k(h * np.arange(-(m + n), m + n + 1))
    size = 1 << (len(kv) + len(g) - 2).bit_length()
    full = np.fft.irfft(np.fft.rfft(kv, size) * np.fft.rfft(g, size), size)
    pz = full[len(g) - 1:len(kv)] * h / (math.sqrt(math.pi) * zk)
    trap = np.full(pz.size, h)
    trap[0] = trap[-1] = 0.5 * h
    z_end = n * h
    a = k_mean / zk
    tail_mass = a / (3.0 * z_end ** 3)
    tail_ent = tail_mass * (4.0 * math.log(z_end) + 4.0 / 3.0 - math.log(a))
    mass = float(trap @ pz) + 2.0 * tail_mass
    ent = -float(trap @ (pz * np.log(pz))) + 2.0 * tail_ent
    return _neg_bits(1.0, 0.5 + var_v, ent), mass


def _marginal_reference(plane, p, z_max):
    """The reference on a step that resolves the kernel's chirp out to
    z_max + w_max, and the change when that step is halved."""
    c = 0.5 * p * p if plane == "far_field" else 0.5 / (p * p)
    h = min(0.05, 2.0 * math.pi / (4.0 * c * (z_max + 7.0) + 40.0))
    neg, mass = _marginal_negentropy(plane, p, z_max, h)
    neg_half, _ = _marginal_negentropy(plane, p, z_max, 0.5 * h)
    return neg, mass, abs(neg_half - neg)


class TestMarginalNegentropyP3:
    @pytest.fixture(scope="class")
    def reference(self):
        ff = _marginal_reference("far_field", 3.0, 60.0)
        nf = _marginal_reference("near_field", 3.0, 180.0)
        return ff, nf

    def test_reference_converged(self, reference):
        for neg, mass, step_change in reference:
            assert abs(mass - 1.0) < 1e-9
            assert step_change < 1e-8

    def test_library_matches(self, reference):
        (ff, _, _), (nf, _, _) = reference
        r = ng_report(Params(p=3.0))
        assert abs(r.n_ff_marg - ff) < 1e-5
        assert abs(r.n_nf_marg - nf) < 1e-5
        assert abs(r.ng_marg - (ff + nf)) < 1e-5

    def test_acceptance_target(self, reference):
        # Criterion 6 pins ng_marg(3) at 0.1906.
        (ff, _, _), (nf, _, _) = reference
        assert abs(ff + nf - 0.1906) <= 5e-4


class TestMarginalTailEstimate:
    """Where a marginal entropy's tail blocks reach past its table, the
    exact tail is known, and the err_estimate covers the extrapolated
    tail's distance from it.  At these two points the library is more than
    1e-6 bits off the oracle, with an extrapolation error of about 3.5e-7.
    (At far field P ~ 18-20 the tails stop short of the reach.)"""

    @pytest.mark.parametrize("plane, p", (("far_field", 10.96),
                                          ("near_field", 0.0891)))
    def test_estimate_covers_oracle(self, plane, p):
        neg, mass, step_change = _marginal_reference(plane, p, 60.0)
        assert abs(mass - 1.0) < 1e-9 and step_change < 1e-12
        j = make_density(plane, "spdc", Params(p=p))
        got = negentropy(marginal_of(j))
        assert 1e-6 < abs(got.value - neg) <= got.err_estimate


# --------------------------------------------------------------------------
# Near-field origin slice at small P.
#
# With s = xi1/(2P) the slice is w(s) = sint^2(s^2) exp(-2 P^2 s^2).  The
# integrals of w, s^2 w and w ln w are summed over the intervals between
# consecutive zeros s_k = sqrt(y_k) of sint(s^2), each by a Gauss-Legendre
# rule after the map t = 3u^2 - 2u^3, which smooths the t^2 ln t endpoint
# behaviour of w ln w.  At P = 0 the period-averaged asymptotic tail
# sint(y)^2 ~ (4/pi^2) cos^2(y)/y^2 closes the sums.
#
# Cutting the 2/(pi^2 s^2) tail of s^2 sint^2(s^2) with exp(-2 P^2 s^2)
# removes 4 sqrt(2 pi) P / pi^2 from the second moment, so the slice's
# negentropy falls below its P = 0 value by c P + O(P^2) with
# c = 2 sqrt(2 pi) / (pi^2 A2 ln 2).

C_SMALL_P = 2.0 * math.sqrt(2.0 * math.pi) / (math.pi ** 2 * A2_REF * LN2)


def _sint_zeros(n):
    """The first n zeros of sint on y > 0, by Newton from (k + 1/2) pi."""
    y = (np.arange(n) + 0.5) * math.pi
    for _ in range(50):
        step = _sint(y) / (-(2.0 / math.pi) * np.sin(y) / y)
        y = y - step
        if np.max(np.abs(step) / y) < 1e-15:
            return y
    raise RuntimeError("sint zeros did not converge")


def _slice_integrals(p, n_zeros, order=24):
    """Full-line integrals of w, s^2 w and w ln w up to the n-th zero."""
    edges = np.concatenate([[0.0], np.sqrt(_sint_zeros(n_zeros))])
    x, wq = np.polynomial.legendre.leggauss(order)
    u = 0.5 * (x + 1.0)
    a, b = edges[:-1, None], edges[1:, None]
    s = a + (b - a) * (u * u * (3.0 - 2.0 * u))
    wt = (b - a) * (0.5 * wq) * (6.0 * u * (1.0 - u))
    k2 = _sint(s * s) ** 2
    gauss = 2.0 * p * p * s * s
    w = wt * k2 * np.exp(-gauss)
    return (2.0 * w.sum(), 2.0 * (w * s * s).sum(),
            2.0 * (w * (np.log(k2) - gauss)).sum(), edges[-1] ** 2)


def _slice_negentropy(p):
    """(negentropy in bits, Z, M2) of the near-field origin slice."""
    if p == 0.0:
        z, m2, wlnw, y_end = _slice_integrals(0.0, 3000)
        # Tails past y_end of (2/pi^2) y^-2 {y^-1/2, y^1/2} and of
        # (4/pi^2) y^-5/2 cos^2 y (ln(4/pi^2) - 2 ln y + ln cos^2 y), whose
        # period mean has <cos^2 ln cos^2> = 1/2 - ln 2.
        r = y_end ** -1.5
        z += (4.0 / 3.0) / math.pi ** 2 * r
        m2 += 4.0 / math.pi ** 2 / math.sqrt(y_end)
        wlnw += (4.0 / math.pi ** 2) * (
            (math.log(2.0 / math.pi) + 0.5 - LN2) * (2.0 / 3.0) * r
            - (2.0 / 3.0) * r * math.log(y_end) - (4.0 / 9.0) * r)
    else:
        # Run until exp(-2 P^2 y) < 1e-13.
        z, m2, wlnw, _ = _slice_integrals(
            p, int(30.0 / (2.0 * p * p * math.pi)) + 1)
    return _neg_bits(z, m2, math.log(z) - wlnw / z), z, m2


class TestNearFieldConditionalSmallP:
    @pytest.fixture(scope="class")
    def reference(self):
        return _slice_negentropy(0.0), _slice_negentropy(0.01)

    def test_p0_limit_reproduces_shape_constants(self, reference):
        (_, z0, m20), _ = reference
        assert abs(z0 - A1_REF) < 1e-9
        assert abs(m20 - A2_REF) < 1e-9

    def test_second_moment_cut_is_linear(self, reference):
        (_, _, m20), (_, _, m2) = reference
        cut = 4.0 * math.sqrt(2.0 * math.pi) * 0.01 / math.pi ** 2
        assert abs((m20 - m2) / cut - 1.0) < 0.02

    def test_library_matches(self, reference):
        _, (n_cond, _, _) = reference
        r = ng_report(Params(p=0.01))
        assert abs(r.n_nf_cond - n_cond) < 1e-5

    def test_deficit_is_linear_in_p(self, reference):
        (n_limit, _, _), (n_cond, _, _) = reference
        assert C_SMALL_P == pytest.approx(1.24009, abs=1e-5)
        assert abs((n_limit - n_cond) - C_SMALL_P * 0.01) < 1e-3


# --------------------------------------------------------------------------
# Log-integral shape constants by a zero-split Gauss-Legendre sum.
#
# i_ff = int_0^inf sinc(s^2)^2 ln sinc(s^2)^2 ds, and i_nf is the integral
# of sint(s^2)^2 ln sint(s^2)^2 over the line.  Each is summed over the
# intervals between consecutive zeros s_k = sqrt(y_k) of the kernel in s
# (y_k = k pi for sinc, by Newton for sint), by the smoothstep-mapped rule
# of _slice_integrals, and closed beyond the last zero by the
# period-averaged tail: the kernel square is amp cos^2(y)/y^2 there
# (amp = 1 for sinc, 4/pi^2 for sint) and <cos^2 ln cos^2> = 1/2 - ln 2.
# The library sums periods in y with its own rule behind an adaptive head;
# this sum calls none of its code.

I_FF_REF = -0.364836201865
I_NF_REF = -0.691580771301


def _half_line_log_integral(plane, n_zeros, order=32):
    """int_0^inf k2 ln k2 ds of the squared far- or near-field kernel
    k2 = kernel(s^2)^2, split at its first n_zeros zeros."""
    if plane == "far_field":
        y_zeros = math.pi * np.arange(1, n_zeros + 1)
        amp = 1.0

        def k2_of(y):
            return (np.sin(y) / y) ** 2
    else:
        y_zeros = _sint_zeros(n_zeros)
        amp = 4.0 / math.pi ** 2

        def k2_of(y):
            return _sint(y) ** 2
    edges = np.concatenate([[0.0], np.sqrt(y_zeros)])
    x, wq = np.polynomial.legendre.leggauss(order)
    u = 0.5 * (x + 1.0)
    a, b = edges[:-1, None], edges[1:, None]
    s = a + (b - a) * (u * u * (3.0 - 2.0 * u))
    wt = (b - a) * (0.5 * wq) * (6.0 * u * (1.0 - u))
    k2 = k2_of(s * s)
    # Beyond y_end, ds = dy / (2 sqrt y) and the period mean of k2 ln k2 is
    # amp y^-2 (ln(amp)/2 + 1/2 - ln 2 - ln y).
    y_end = y_zeros[-1]
    r = y_end ** -1.5
    mean_log = 0.5 * math.log(amp) + 0.5 - LN2 - math.log(y_end)
    tail = 0.5 * amp * r * ((2.0 / 3.0) * mean_log - 4.0 / 9.0)
    return float((wt * k2 * np.log(k2)).sum()) + tail


@pytest.fixture(scope="module")
def log_integrals():
    """{n_zeros: (i_ff, i_nf)} at order 32."""
    return {n: (_half_line_log_integral("far_field", n),
                2.0 * _half_line_log_integral("near_field", n))
            for n in (1500, 6000)}


class TestLogIntegralConstants:
    def test_zero_count_independent(self, log_integrals):
        for few, many in zip(log_integrals[1500], log_integrals[6000]):
            assert abs(few - many) < 1e-12

    def test_reference_literals(self, log_integrals):
        # Each literal is the reference rounded to twelve places.
        i_ff, i_nf = log_integrals[6000]
        assert abs(i_ff - I_FF_REF) <= 5e-13
        assert abs(i_nf - I_NF_REF) <= 5e-13

    def test_library_at_default_tolerance(self, log_integrals):
        sc = shape_constants()
        for name, ref in zip(("i_ff", "i_nf"), log_integrals[6000]):
            assert abs(getattr(sc, name) - ref) <= 1e-11
            assert abs(getattr(sc, name) - ref) <= sc.errors[name] <= 1e-10

    @pytest.mark.parametrize("abs_tol", (1e-12, 1e-10, 1e-8, 1e-7))
    def test_library_within_its_errors(self, log_integrals, abs_tol):
        sc = shape_constants(QuadTolerance(abs_tol=abs_tol,
                                           rel_tol=100.0 * abs_tol))
        for name, ref in zip(("i_ff", "i_nf"), log_integrals[6000]):
            assert abs(getattr(sc, name) - ref) <= sc.errors[name]


# --------------------------------------------------------------------------
# Tails of the kernels' second moments beyond the oscillatory core's split
# y = x^2 = 32 pi, at unit scale: T = int_{sqrt(32 pi)}^inf x^2 k(x^2)^2 dx
# = M/2 - H.  M is the full-line moment in closed form (sqrt(pi) for sinc,
# A2 for sint) and H the head over [0, sqrt(32 pi)], an mpmath sum of one
# quadrature per lobe between the kernel's zeros.

@pytest.fixture(scope="module")
def mp_kernel_tails():
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp
    with mpmath.workdps(30):
        y_end = 32 * mp.pi

        def head(shape, zeros):
            edges = [mp.zero] + [mp.sqrt(z) for z in zeros if z < y_end]
            return mp.quad(lambda x: x * x * shape(x * x) ** 2,
                           edges + [mp.sqrt(y_end)])

        def sinc(y):
            return mp.sin(y) / y

        def sint(y):
            return 1 - 2 / mp.pi * mp.si(y)

        h_ff = head(sinc, [k * mp.pi for k in range(1, 33)])
        h_nf = head(sint, [mp.findroot(sint, (k - mp.mpf(1) / 2) * mp.pi)
                           for k in range(1, 34)])
        ln_silver = mp.log(1 + mp.sqrt(2))
        a2 = (2 * mp.sqrt(2 * mp.pi) * (mp.pi - mp.sqrt(2) + 2 * ln_silver)
              / (3 * mp.pi ** 2))
        t_ff = mp.sqrt(mp.pi) / 2 - h_ff
        # sin^2 vanishes at 32 pi, so by parts the far-field tail is a
        # Fresnel integral: sqrt(pi) (1/2 - S(8 sqrt 2)).
        fresnel = mp.sqrt(mp.pi) * (mp.mpf(1) / 2 - mp.fresnels(8 * mp.sqrt(2)))
        return {"split": float(y_end), "a2": float(a2),
                "far_field": float(t_ff), "near_field": float(a2 / 2 - h_nf),
                "fresnel_gap": float(abs(t_ff - fresnel))}


class TestKernelTails:
    def test_split_is_the_cores(self, mp_kernel_tails):
        assert quadrature._CORE_PHASE == mp_kernel_tails["split"]

    def test_far_field_closed_form(self, mp_kernel_tails):
        assert mp_kernel_tails["fresnel_gap"] < 1e-25

    @pytest.mark.parametrize("plane", ("far_field", "near_field"))
    def test_library_tails(self, mp_kernel_tails, plane):
        assert abs(moments._KERNEL_TAILS[plane] - mp_kernel_tails[plane]) \
            <= 1e-15
        assert moments._KERNEL_TAIL_ERR <= 1e-15
        assert abs(mp_kernel_tails["a2"] - A2_REF) < 1e-12

"""Unit tests for the adaptive/oscillatory quadrature layer."""

import dataclasses
import heapq
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spdc_ng import quadrature
from spdc_ng.quadrature import (Domain, QuadratureError, QuadTolerance,
                                integrate_1d)
from spdc_ng.specfun import _xlogx, sinc, sint

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

    def test_exponential_full_line(self):
        v, _ = integrate_1d(lambda x: np.exp(-np.abs(x)), Domain.full_line())
        assert v == pytest.approx(2.0, abs=1e-10)

    def test_translation_invariance(self):
        # A narrow bump far from the origin must not be missed.
        for c in (-5.0, 0.0, 7.0):
            v, _ = integrate_1d(lambda x, c=c: np.exp(-(x - c) ** 2),
                                Domain.full_line(), seed_points=(c,))
            assert v == pytest.approx(SQRT_PI, rel=1e-9)


class TestOscillatory:
    def test_fresnel_sin(self):
        v, e = integrate_1d(lambda x: np.sin(x * x),
                            Domain.full_line(osc_scale=1.0))
        assert v == pytest.approx(math.sqrt(math.pi / 2.0), abs=1e-6)

    def test_fresnel_cos(self):
        v, _ = integrate_1d(lambda x: np.cos(x * x),
                            Domain.full_line(osc_scale=1.0))
        assert v == pytest.approx(math.sqrt(math.pi / 2.0), abs=1e-7)

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


def _block_values(f, scale, y0_first, n_blocks, side):
    """K15 and embedded G7 values of ``n_blocks`` blocks from ``y0_first``."""
    k = np.arange(n_blocks)[:, None]
    y0 = y0_first + math.pi * k
    h = math.pi / 2.0
    y = y0 + h * (quadrature._K15_X[None, :] + 1.0)
    x = side * np.sqrt(y / scale)
    vals = np.asarray(f(x.ravel()), dtype=float).reshape(n_blocks, 15)
    vals = vals / (2.0 * np.sqrt(scale * y))
    return (h * (vals * quadrature._K15_W[None, :]).sum(axis=1),
            h * (vals[:, 1::2] * quadrature._K15_G7_W[None, :]).sum(axis=1))


def _all_blocks_tail(f, scale, y_start, tol, side):
    """Reference tail sum without the probe: every round evaluates all
    ``n_blocks`` blocks, as ``_tail_blocks`` did before it probed first."""
    n_blocks = 4096 if tol.abs_tol <= 1e-8 else 1024
    chunks15 = []
    rule_err = 0.0
    y0 = y_start
    converged = False
    for _round in range(8):
        b15, b7 = _block_values(f, scale, y0, n_blocks, side)
        rule_err += float(np.abs(b15 - b7).sum())
        chunks15.append(b15)
        y0 += math.pi * n_blocks
        running = abs(math.fsum(float(c.sum()) for c in chunks15))
        amp_start = float(np.abs(b15[:8]).max())
        amp_end = float(np.abs(b15[-8:]).max())
        if amp_end <= quadrature._TAIL_CUTOFF * running or \
           amp_end * n_blocks <= 0.1 * max(tol.abs_tol, tol.rel_tol * running):
            converged = True
            break
        if amp_end > 0.05 * amp_start:
            break
    b15 = np.concatenate(chunks15)
    partial = np.cumsum(b15)
    tail_amp = float(np.abs(b15[-8:]).max())
    if converged:
        return float(partial[-1]), rule_err + tail_amp
    ks = []
    k = len(b15)
    while k >= 32 and len(ks) < 7:
        ks.append(k)
        k //= 2
    us = [kk ** -0.5 for kk in ks]
    ss = [partial[kk - 1] for kk in ks]
    value, extrap_err = quadrature._extrapolate_to_zero(us, ss)
    err = 4.0 * extrap_err + rule_err + min(tail_amp, quadrature._TAIL_CUTOFF)
    return float(value), err


def _counted(f):
    """``f`` plus a list holding the number of points it was called on and
    the number of calls."""
    seen = [0, 0]

    def g(x):
        seen[0] += np.size(x)
        seen[1] += 1
        return f(x)

    return g, seen


PROBE_POINTS = 64 * 15    # a 64-block probe on the 15 Kronrod nodes


class TestTailProbe:
    Y_START = 32.0 * math.pi    # where integrate_1d's core hands over at scale 1
    ALGEBRAIC = {
        "sinc2": lambda x: sinc(x * x) ** 2,
        "x2_sint2": lambda x: x * x * sint(x * x) ** 2,
        "xlogx_sint2": lambda x: _xlogx(sint(x * x) ** 2),
    }

    @pytest.mark.parametrize("abs_tol", (1e-10, 1e-7))
    @pytest.mark.parametrize("side", (+1, -1))
    @pytest.mark.parametrize("name", sorted(ALGEBRAIC))
    def test_algebraic_tails_are_exact(self, name, side, abs_tol):
        tol = QuadTolerance(abs_tol=abs_tol)
        f, seen = _counted(self.ALGEBRAIC[name])
        got = quadrature._tail_blocks(f, 1.0, self.Y_START, tol, side)
        assert seen[0] > PROBE_POINTS      # the probe did not settle it
        ref = _all_blocks_tail(self.ALGEBRAIC[name], 1.0, self.Y_START, tol,
                               side)
        assert got == ref                  # value and err, bit for bit

    @pytest.mark.parametrize("side", (+1, -1))
    def test_dead_tail_pays_only_the_probe(self, side):
        # exp(-x^2) sinc^2(10 x^2) from x = 3.2, where the Gaussian is still
        # 4e-5: it falls by exp(-pi/10) per block and is dead within the probe.
        scale, tol = 10.0, QuadTolerance()

        def damped(x):
            return np.exp(-x * x) * sinc(scale * x * x) ** 2

        f, seen = _counted(damped)
        value, err = quadrature._tail_blocks(f, scale, 102.4, tol, side)
        assert seen[0] == PROBE_POINTS
        ref, _ = _all_blocks_tail(damped, scale, 102.4, tol, side)
        assert value > 0 and err >= abs(value - ref)

    # A tail the probe must hand on to the full round.  "flat": every block
    # adds c*pi/4, so 64 tiny blocks pass the absolute test, as two tails at
    # P = 0.0034 would, but show no decay.
    UNSETTLED = {
        "flat": lambda x: 7.3e-16 * np.abs(x) * np.cos(x * x) ** 2,
    }

    @pytest.mark.parametrize("name", sorted(UNSETTLED))
    def test_probe_hands_unsettled_tails_to_the_round(self, name):
        tol = QuadTolerance()
        f, seen = _counted(self.UNSETTLED[name])
        got = quadrature._tail_blocks(f, 1.0, self.Y_START, tol, +1)
        assert seen[0] > PROBE_POINTS
        assert got == _all_blocks_tail(self.UNSETTLED[name], 1.0,
                                       self.Y_START, tol, +1)

    # Tails that Gaussian damping kills only past the first 64 blocks.  At
    # 64, "slow" and "sinc2" have decayed more than 20x, but their last
    # blocks times a full round of 4096 still exceed the absolute budget;
    # "slower" has decayed less than 20x.
    DAMPED = {
        "slow": lambda x: 2e-11 * np.abs(x) * np.cos(x * x) ** 2
        * np.exp(-x * x / 40.0),
        "slower": lambda x: 2e-11 * np.abs(x) * np.cos(x * x) ** 2
        * np.exp(-x * x / 400.0),
        "sinc2": lambda x: sinc(x * x) ** 2 * np.exp(-x * x / 100.0),
    }

    @pytest.mark.parametrize("name", sorted(DAMPED))
    def test_tail_stops_at_first_settling_checkpoint(self, name):
        tol = QuadTolerance()
        f, seen = _counted(self.DAMPED[name])
        value, err = quadrature._tail_blocks(f, 1.0, self.Y_START, tol, +1)
        k = _first_settling_checkpoint(self.DAMPED[name], 1.0, self.Y_START,
                                       tol, +1)
        assert 64 < k < 4096 and seen[0] == k * 15
        ref, _ = _all_blocks_tail(self.DAMPED[name], 1.0, self.Y_START, tol,
                                  +1)
        assert abs(value - ref) <= err
        assert abs(value - ref) <= 0.1 * max(tol.abs_tol,
                                             tol.rel_tol * abs(ref))

    @settings(max_examples=40, deadline=None)
    @given(width=st.floats(0.05, 20.0), scale=st.floats(0.1, 30.0),
           amp_exp=st.integers(-13, 0))
    def test_early_stop_is_within_err(self, width, scale, amp_exp):
        # Gaussian damping of width `width` times the tail's start.
        x0 = math.sqrt(self.Y_START / scale)

        def damped(x):
            return 10.0 ** amp_exp * np.abs(x) * np.cos(scale * x * x) ** 2 \
                * np.exp(-(x / (width * x0)) ** 2)

        tol = QuadTolerance()
        value, err = quadrature._tail_blocks(damped, scale, self.Y_START, tol,
                                             +1)
        ref, _ = _all_blocks_tail(damped, scale, self.Y_START, tol, +1)
        assert abs(value - ref) <= err


def _first_settling_checkpoint(f, scale, y_start, tol, side):
    """The first of 64, 128, ... blocks at which a tail's block amplitude
    has decayed 20x since its first 8 blocks and passes the round's
    convergence test; ``n_blocks`` if none before it does."""
    n_blocks = 4096 if tol.abs_tol <= 1e-8 else 1024
    b15, _ = _block_values(f, scale, y_start, n_blocks, side)
    k = 64
    while k < n_blocks:
        amp_start = float(np.abs(b15[:8]).max())
        amp_end = float(np.abs(b15[k - 8:k]).max())
        running = abs(float(b15[:k].sum()))
        if amp_end <= 0.05 * amp_start and (
                amp_end <= quadrature._TAIL_CUTOFF * running or
                amp_end * n_blocks <= 0.1 * max(tol.abs_tol,
                                                tol.rel_tol * running)):
            return k
        k *= 2
    return n_blocks


class TestKronrodRule:
    def test_k15_degree_is_23(self):
        x, w = quadrature._K15_X, quadrature._K15_W
        for d in range(24):
            exact = 2.0 / (d + 1) if d % 2 == 0 else 0.0
            assert abs(float(w @ x ** d) - exact) <= 1e-15, d
        assert abs(float(w @ x ** 24) - 2.0 / 25.0) > 1e-10

    def test_embedded_g7_is_gauss_legendre(self):
        gx, gw = np.polynomial.legendre.leggauss(7)
        assert np.abs(quadrature._K15_X[1::2] - gx).max() <= 1e-15
        assert np.abs(quadrature._K15_G7_W - gw).max() <= 1e-15


class TestEvenFolding:
    EVEN = TestTailProbe.ALGEBRAIC    # all three are even

    @pytest.mark.parametrize("name", sorted(EVEN))
    def test_fold_matches_both_tails_with_one_tail_fewer(self, name):
        xc = math.sqrt(32.0 * math.pi)    # core edge at osc_scale 1
        seen = {}
        got = {}
        for even in (False, True):
            points = []

            def f(x, _points=points):
                _points.append(np.array(x))
                return self.EVEN[name](x)

            got[even] = integrate_1d(f, Domain.full_line(osc_scale=1.0,
                                                         even=even))
            seen[even] = np.concatenate(points)
        assert got[True] == got[False]     # value and err, bit for bit
        left = np.count_nonzero(seen[False] < -xc)
        assert left > 0 and len(seen[False]) - len(seen[True]) == left
        assert not np.any(seen[True] < -xc)

    @pytest.mark.parametrize("kind, a, b", (("half_line", 0.0, math.inf),
                                            ("finite", 0.0, 1.0)))
    def test_only_a_full_line_is_even(self, kind, a, b):
        with pytest.raises(ValueError):
            Domain(kind, a, b, osc_scale=1.0, even=True)


class TestCentre:
    """A full line centred on x0 is integrated in t = x - x0."""

    @pytest.mark.parametrize("x0", (-3.5, 40.0))
    def test_peak_and_seed_about_the_centre(self, x0):
        # sinc^2((x - x0)^2) plus a narrow bump at x0 + 2 that only its seed
        # reveals.  At x0 = 40 the peak lies outside a core about 0,
        # |x| <= sqrt(32 pi).
        w = 3e-3

        def f(x):
            return sinc((x - x0) ** 2) ** 2 + np.exp(-((x - x0 - 2.0) / w) ** 2)

        dom = Domain.full_line(osc_scale=1.0, centre=x0)
        v, err = integrate_1d(f, dom, seed_points=(x0 + 2.0,))
        assert abs(v - (4.0 / 3.0 + w) * SQRT_PI) <= err
        unseeded, _ = integrate_1d(f, dom)
        assert v - unseeded > 0.5 * w * SQRT_PI

    def test_only_a_full_line_is_centred(self):
        with pytest.raises(ValueError):
            Domain("half_line", 0.0, math.inf, centre=1.0)


class TestClosedFormBlocks:
    """Tail blocks past a declared antiderivative's x_from, on p ln p of the
    algebraic tail p = A / x^4, whose antiderivative vanishing at infinity
    is F(x) = (x p / 3)(4/3 - ln p): the shape of a marginal table's
    fallback."""

    A, SCALE = 3.7e-3, 0.9
    EPS = np.finfo(float).eps

    def f(self, x):
        return _xlogx(self.A / x ** 4)

    def antiderivative(self, x):
        p = self.A / x ** 4
        return x * p / 3.0 * (4.0 / 3.0 - np.log(p))

    @pytest.mark.parametrize("side", (+1, -1))
    @pytest.mark.parametrize("y0", (32.0 * math.pi, 500.0, 1e4, 1e5))
    def test_blocks_match_k15(self, y0, side):
        f, seen = _counted(self.f)
        b15, b7, f_end = quadrature._block_rules(
            f, self.SCALE, y0, np.arange(8192), side,
            (1.0, self.antiderivative))
        assert seen == [0, 0] and np.array_equal(b15, b7)
        ref, _ = _block_values(self.f, self.SCALE, y0, 8192, side)
        edges = self.antiderivative(
            np.sqrt((y0 + math.pi * np.arange(8193)) / self.SCALE))
        assert f_end == edges[-1]
        assert abs(b15.sum() - ref.sum()) <= 2e-15 * abs(ref.sum())
        # Each block is a difference of F at its edges, exact up to their
        # rounding: up to 1e-11 of the block where blocks are narrow.
        assert np.all(np.abs(b15 - ref)
                      <= 4.0 * self.EPS * (np.abs(edges[:-1]) + np.abs(edges[1:])))

    def test_blocks_start_at_x_from(self):
        y0 = 32.0 * math.pi
        x_from = math.sqrt((y0 + 10.5 * math.pi) / self.SCALE)
        f, seen = _counted(self.f)
        b15, b7, f_end = quadrature._block_rules(
            f, self.SCALE, y0, np.arange(64), +1, (x_from, self.antiderivative))
        ref15, ref7 = _block_values(self.f, self.SCALE, y0, 64, +1)
        assert seen[0] == 11 * 15 and f_end == self.antiderivative(
            math.sqrt((y0 + 64 * math.pi) / self.SCALE))
        _, _, none = quadrature._block_rules(
            self.f, self.SCALE, y0, np.arange(11), +1,
            (x_from, self.antiderivative))
        assert none is None
        assert np.array_equal(b15[:11], ref15[:11])
        assert np.array_equal(b7[:11], ref7[:11])
        assert np.array_equal(b15[11:], b7[11:])

    @pytest.mark.parametrize("reach", (0, 40, 3000))
    def test_err_covers_exact_tail(self, reach):
        # The exact tail is the K15 sum before x_from minus F there; an
        # extrapolated tail's err_estimate covers its distance from it.  The
        # value moves only by roundoff that the extrapolation amplifies.
        y0, tol = 32.0 * math.pi, QuadTolerance()
        x_from = math.sqrt((y0 + reach * math.pi) / self.SCALE)
        got, err = quadrature._tail_blocks(self.f, self.SCALE, y0, tol, +1,
                                           (x_from, self.antiderivative))
        ref, ref_err = quadrature._tail_blocks(self.f, self.SCALE, y0, tol, +1)
        assert abs(got - ref) <= 1e-13 * abs(ref)
        head = _block_values(self.f, self.SCALE, y0, reach, +1)[0]
        exact = math.fsum(head) - self.antiderivative(x_from)
        assert err >= abs(got - exact) and err >= ref_err
        assert abs(got - exact) <= err - ref_err + 1e-13 * abs(ref)

    def test_tail_short_of_x_from_is_unchanged(self):
        # 8,192 blocks end the tail before the closed form would start.
        y0, tol = 32.0 * math.pi, QuadTolerance()
        x_from = math.sqrt((y0 + 20000 * math.pi) / self.SCALE)
        assert quadrature._tail_blocks(
            self.f, self.SCALE, y0, tol, +1, (x_from, self.antiderivative)) \
            == quadrature._tail_blocks(self.f, self.SCALE, y0, tol, +1)


class TestIntegrandArrays:
    """The engine never writes into a node array it has handed to an
    integrand, nor into an array an integrand returns: an integrand that
    returns read-only arrays integrates, and every node array still holds
    what it held when handed out."""

    DOMAINS = {"finite": Domain.finite(-3.0, 2.0),
               "mapped": Domain.full_line(),
               "oscillatory": Domain.full_line(osc_scale=0.7, centre=0.3),
               "closed_tail": dataclasses.replace(
                   Domain.full_line(osc_scale=0.9, even=True), antiderivative=(
                       20.0, TestClosedFormBlocks().antiderivative))}
    DENSITIES = {"finite": lambda x: np.exp(-x * x),
                 "mapped": lambda x: np.exp(-x * x),
                 "oscillatory": lambda x: sinc(x * x) ** 2,
                 "closed_tail": lambda x: TestClosedFormBlocks.A
                 / (x ** 4 + 1.0)}

    @pytest.mark.parametrize("name", sorted(DOMAINS))
    def test_nodes_and_values_are_left_alone(self, name):
        handed = []

        def f(x):
            handed.append((x, x.copy()))
            out = _xlogx(self.DENSITIES[name](x))
            out.flags.writeable = False
            return out

        value = integrate_1d(f, self.DOMAINS[name])
        assert handed and all(np.array_equal(x, seen) for x, seen in handed)
        assert value == integrate_1d(lambda x: f(x).copy(), self.DOMAINS[name])


class TestRows:
    """An integrand returns one value per node: ``integrate_1d`` integrates
    one integrand and rejects rows (rows, n)."""

    DOMAINS = {"finite": Domain.finite(0.0, 2.0),
               "mapped": Domain.full_line(),
               "oscillatory": Domain.full_line(osc_scale=1.0)}

    @pytest.mark.parametrize("name", sorted(DOMAINS))
    def test_rows_raise(self, name):
        def rows(x):
            return np.stack([np.exp(-x * x), x * x * np.exp(-x * x)])

        with pytest.raises(ValueError):
            integrate_1d(rows, self.DOMAINS[name])

    def test_scalar_integrand_returns_one_pair(self):
        got = integrate_1d(lambda x: x, Domain.finite(0.0, 1.0))
        assert isinstance(got, tuple) and got[0] == pytest.approx(0.5)


def _panel_rule(f, a, b):
    """15-point Gauss value and |G15 - G7| error on [a, b], one call of f."""
    h = 0.5 * (b - a)
    m = 0.5 * (a + b)
    x = np.concatenate([m + h * quadrature._G15_X, m + h * quadrature._G7_X])
    y = np.asarray(f(x), dtype=float)
    v15 = h * float((y[:15] * quadrature._G15_W).sum())
    v7 = h * float((y[15:] * quadrature._G7_W).sum())
    return v15, abs(v15 - v7)


def _sequential_adaptive(f, a, b, tol, seed_points=()):
    """Reference core: the same bisection as ``_adaptive_finite``, with the
    integrand called once per panel, as the library did before it batched
    panels."""
    edges = {a, b}
    for p in seed_points:
        if a < p < b:
            edges.add(float(p))
    edges = sorted(edges)
    pieces = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        pieces.extend(np.linspace(lo, hi, 5))
    pieces = sorted(set(pieces))

    heap = []
    total = 0.0
    toterr = 0.0
    count = 0
    for lo, hi in zip(pieces[:-1], pieces[1:]):
        v, e = _panel_rule(f, lo, hi)
        heapq.heappush(heap, (-e, lo, hi, v))
        total += v
        toterr += e
        count += 1

    while toterr > max(tol.abs_tol, tol.rel_tol * abs(total)):
        if count >= quadrature._MAX_SUBDIVISIONS:
            raise QuadratureError("quadrature did not converge within its "
                                  f"{quadrature._MAX_SUBDIVISIONS}-panel "
                                  "budget", total, toterr)
        negerr, lo, hi, v = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        v1, e1 = _panel_rule(f, lo, mid)
        v2, e2 = _panel_rule(f, mid, hi)
        total += v1 + v2 - v
        toterr += e1 + e2 - (-negerr)
        heapq.heappush(heap, (-e1, lo, mid, v1))
        heapq.heappush(heap, (-e2, mid, hi, v2))
        count += 1

    panels = sorted((lo, v, -ne) for ne, lo, hi, v in heap)
    value = math.fsum(p[1] for p in panels)
    err = math.fsum(p[2] for p in panels)
    return value, err


def _both_cores(monkeypatch, f, domain, tol=None, seed_points=()):
    """integrate_1d of f with the batched core, then with the reference
    core, and the number of integrand calls each made."""
    out = []
    for core in (quadrature._adaptive_finite, _sequential_adaptive):
        monkeypatch.setattr(quadrature, "_adaptive_finite", core)
        g, seen = _counted(f)
        out.append((integrate_1d(g, domain, tol, seed_points), seen[1]))
    return out


class TestBatchedPanels:
    """The batched core refines the same panels in the same order as one
    panel per call, so (value, err) agree bit for bit."""

    XC = math.sqrt(32.0 * math.pi)    # core edge at osc_scale 1

    CASES = {
        "smooth": (lambda x: np.exp(-x * x) * np.cos(3.0 * x),
                   Domain.finite(-4.0, 5.0), ()),
        "kink": (lambda x: np.abs(x - 0.3) * np.exp(x),
                 Domain.finite(0.0, 2.0), (0.3,)),
        "sint2": (lambda x: sint(x * x) ** 2,
                  Domain.full_line(osc_scale=1.0, even=True), ()),
        "sinc2": (lambda x: sinc(x * x) ** 2,
                  Domain.full_line(osc_scale=1.0), ()),
        "xlogx_sint2": (lambda x: _xlogx(sint(x * x) ** 2),
                        Domain.full_line(osc_scale=1.0), ()),
        "xlogx_sinc2": (lambda x: _xlogx(sinc(x * x) ** 2),
                        Domain.full_line(osc_scale=1.0), ()),
        "mapped": (lambda x: 1.0 / (1.0 + x * x), Domain.full_line(), ()),
    }

    @pytest.mark.parametrize("abs_tol", (1e-7, 1e-10, 1e-12))
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_matches_one_panel_per_call(self, monkeypatch, name, abs_tol):
        f, dom, seeds = self.CASES[name]
        tol = QuadTolerance(abs_tol=abs_tol, rel_tol=abs_tol * 100.0)
        (got, calls), (ref, ref_calls) = _both_cores(monkeypatch, f, dom, tol,
                                                     seeds)
        assert got == ref                  # value and err, bit for bit
        assert calls < ref_calls

    def test_core_of_oscillatory_tail_integrand(self):
        # The core that integrate_1d hands sint^2(x^2) at osc_scale 1.
        f = self.CASES["sint2"][0]
        tol = QuadTolerance()
        g, seen = _counted(f)
        got = quadrature._adaptive_finite(g, -self.XC, self.XC, tol)
        h, ref_seen = _counted(f)
        assert got == _sequential_adaptive(h, -self.XC, self.XC, tol)
        assert 0 < seen[1] <= ref_seen[1] // 10

    @pytest.mark.parametrize("seed", range(4))
    def test_seeded_narrow_bumps(self, monkeypatch, seed):
        rng = np.random.default_rng(seed)
        centres = rng.uniform(-20.0, 20.0, 3)
        widths = 10.0 ** rng.uniform(-3.0, -1.0, 3)

        def bumps(x):
            return sum(np.exp(-((x - c) / w) ** 2)
                       for c, w in zip(centres, widths))

        for seeds in ((), tuple(centres)):
            (got, _), (ref, _) = _both_cores(monkeypatch, bumps,
                                             Domain.finite(-25.0, 25.0),
                                             seed_points=seeds)
            assert got == ref

    @settings(max_examples=60, deadline=None)
    @given(c=st.floats(-3.0, 3.0), w=st.floats(1e-3, 2.0),
           amp=st.floats(1e-6, 1e3), abs_exp=st.integers(-13, -6),
           rel_exp=st.integers(-12, -4))
    def test_gaussian_bumps(self, c, w, amp, abs_exp, rel_exp):
        def f(x):
            return amp * np.exp(-((x - c) / w) ** 2) + 0.1 * np.cos(x)

        tol = QuadTolerance(abs_tol=10.0 ** abs_exp, rel_tol=10.0 ** rel_exp)
        results = []
        for core in (quadrature._adaptive_finite, _sequential_adaptive):
            try:
                results.append(core(f, -4.0, 4.0, tol))
            except QuadratureError as exc:
                results.append(("raised", exc.value, exc.err_estimate))
        assert results[0] == results[1]


class TestPanelNodes:
    """A panel evaluates 21 distinct nodes: the Gauss-7 midpoint is the
    Gauss-15 one, and the rules match the 22-node ``_panel_rule``."""

    def test_distinct_nodes(self):
        x = quadrature._PANEL_X
        assert len(x) == len(np.unique(x)) == 21
        assert set(quadrature._G7_X) <= set(x)

    @pytest.mark.parametrize("f", (lambda x: np.exp(-x * x) * np.cos(3.0 * x),
                                   lambda x: np.abs(x - 0.3) * np.exp(x),
                                   lambda x: sint(x * x) ** 2,
                                   lambda x: _xlogx(sinc(x * x) ** 2)))
    def test_rules_match_the_22_node_rule(self, f):
        panels = [(-4.0, -0.5), (-0.5, 0.3), (0.3, 2.0), (2.0, 9.7)]
        g, seen = _counted(f)
        got = quadrature._panel_rules(g, panels)
        assert got == [_panel_rule(f, a, b) for a, b in panels]
        assert seen == [21 * len(panels), 1]


class TestErrorHonesty:
    CASES = [
        (lambda x: np.exp(-x * x), Domain.full_line(), SQRT_PI),
        (lambda x: np.exp(-np.abs(x)), Domain.full_line(), 2.0),
        (lambda x: 1.0 / (1.0 + x * x), Domain.full_line(), math.pi),
        (lambda x: np.exp(-np.abs(x)) * np.sin(np.abs(x)), Domain.full_line(),
         1.0),
        (lambda x: np.abs(x) * np.exp(-np.abs(x)), Domain.full_line(), 2.0),
        (lambda x: np.sin(x * x), Domain.full_line(osc_scale=1.0),
         math.sqrt(math.pi / 2.0)),
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
    def test_exhausted_budget_raises_with_partial_result(self, monkeypatch):
        monkeypatch.setattr(quadrature, "_MAX_SUBDIVISIONS", 10)
        raised = []
        for core in (quadrature._adaptive_finite, _sequential_adaptive):
            monkeypatch.setattr(quadrature, "_adaptive_finite", core)
            with pytest.raises(QuadratureError, match="within its 10-panel budget") as info:
                integrate_1d(lambda x: 1.0 / np.sqrt(np.abs(x - 1.0 / 3.0)),
                             Domain.finite(0.0, 1.0))
            raised.append(info.value)
        got, ref = raised
        assert math.isfinite(got.value)
        assert math.isfinite(got.err_estimate)
        # The batched core gives up where one panel per call does.
        assert got.value == ref.value
        assert got.err_estimate == ref.err_estimate
        assert str(got) == str(ref)

    def test_error_carries_plain_floats(self):
        exc = QuadratureError("no convergence", np.float64(2.5),
                              np.float64(0.004))
        assert type(exc.value) is float and type(exc.err_estimate) is float
        assert str(exc) == "no convergence (partial value 2.5, err 0.004)"


class TestValidation:
    @pytest.mark.parametrize("value", (-1e-8, math.inf, math.nan))
    def test_tolerance_positive(self, value):
        with pytest.raises(ValueError):
            QuadTolerance(abs_tol=value)
        with pytest.raises(ValueError):
            QuadTolerance(rel_tol=value)

    def test_finite_domain_order(self):
        with pytest.raises(ValueError):
            Domain.finite(2.0, 1.0)


class TestDomainChecks:
    """A domain is checked when it is built, not when it is integrated."""

    @pytest.mark.parametrize("kind", ("bogus", "half_line"))
    def test_unknown_kind(self, kind):
        with pytest.raises(ValueError, match="unknown domain kind"):
            Domain(kind, 0.0, 1.0)

    @pytest.mark.parametrize("a, b", ((2.0, 1.0), (0.0, math.inf),
                                      (math.nan, 1.0)))
    def test_finite_bounds(self, a, b):
        with pytest.raises(ValueError, match="finite bounds"):
            Domain("finite", a, b)

    def test_only_a_full_line_oscillates(self):
        with pytest.raises(ValueError, match="oscillatory"):
            Domain("finite", 0.0, 1.0, osc_scale=1.0)

    @pytest.mark.parametrize("scale", (0.0, -1.0, math.nan, math.inf))
    def test_osc_scale_positive_and_finite(self, scale):
        with pytest.raises(ValueError, match="osc_scale"):
            Domain.full_line(osc_scale=scale)

    @pytest.mark.parametrize("extent", (-1.0, math.nan, math.inf))
    def test_core_extent_non_negative_and_finite(self, extent):
        with pytest.raises(ValueError, match="core_extent"):
            Domain.full_line(osc_scale=1.0, core_extent=extent)

    @pytest.mark.parametrize("centre", (math.nan, math.inf, -math.inf))
    def test_centre_finite(self, centre):
        with pytest.raises(ValueError, match="centre must be finite"):
            Domain.full_line(centre=centre)

"""Adaptive 1-D quadrature over a finite interval or the whole line.

The integrands this library meets fall in three families:

* smooth, exponentially damped (Gaussian-weighted kernels),
* algebraically decaying with quadratic-phase oscillation, i.e. functions
  behaving like ``trig(c*x**2)**2 / x**k`` at infinity (squared phase-matching
  kernels and their moments),
* ``p*log(p)`` entropy integrands, with true interior zeros of ``p``.

Finite intervals use an adaptive Gauss pair (7- and 15-point Gauss-Legendre,
21 distinct nodes per panel: the two rules share their midpoint) with
bisection of the worst panel, up to ``_MAX_SUBDIVISIONS`` panels.  The whole
line uses an algebraic map to (-1, 1) by default.  For the oscillatory
family the map alone is hopeless (the oscillations up to any useful cutoff
exceed any panel budget), so :class:`Domain` can carry a quadratic-phase
hint: the line is then a core of panels plus two tails, each summed
period-by-period in the squared variable, with partial sums extrapolated
polynomially in ``K**-0.5`` (``K`` periods), which captures the
half-integer-power decay of the remainders.  Each block is evaluated once,
on the 15 nodes of the nested Gauss-Kronrod 7-15 pair (K15 value,
|K15 - G7| error), where the adaptive panels pay 21 nodes for their Gauss
pair.  Each tail starts with a geometric probe: a tail that extra (e.g.
Gaussian) damping has killed ends at the first of 64, 128, ... blocks that
settles it, once its block amplitude has decayed; every other tail continues
into full rounds with the same blocks and sums as if there were no probe.
The line may declare a ``centre`` x0, and is then integrated in x - x0;
declared ``even`` (about x0), it sums its right tail once and takes it as
the left.  A domain that declares a closed antiderivative beyond some
|x - x0| takes the blocks there from it, with no integrand points and rule
error 0; the probe, rounds and extrapolation run on those block values as on
any others.

The adaptive panels are evaluated in batches: all initial panels in one call
of the integrand, and on bisection the children of the popped panel together
with those of up to ``_LOOKAHEAD - 1`` of the next worst panels (look-ahead;
fewer once their errors cover what the stopping test still asks for), so a
core makes tens of calls where it made one per panel.  The refinement stays
one panel at a time, so for a pointwise integrand the panel set, the pop order
and every bit of the result are those of sequential bisection; the cost is the
look-ahead panels never popped before the stopping test holds, under 1% of a
report's integrand points.

All integrand callables must accept numpy arrays (vectorized evaluation) and
act pointwise: a point's value may not depend on the other points of the call.
The engine never writes into a node array it has handed to an integrand, nor
into an array an integrand returns: an integrand may keep either, or return
a read-only array, and find it unchanged.
The node arrays a call hands its integrand depend only on the domain, the
seed points, the tolerance and the values the integrand has returned so far.
Two integrals over one domain and seed points therefore start on the same
arrays, byte for byte (the initial panels, the first tail blocks), and share
every later array their refinements share: a caller may keep an integrand's
values under the bytes of their nodes and read them back in a later integral
over the same domain, as ``distributions.conditional_of`` does.  That store
relies on every integral over a density, and over the marginals and slices
built from it, running at the one tolerance it was made with (``Joint.tol``).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

__all__ = [
    "QuadTolerance",
    "Domain",
    "QuadratureError",
    "integrate_1d",
]

_G7_X, _G7_W = leggauss(7)
_G15_X, _G15_W = leggauss(15)
# An adaptive panel's 21 distinct nodes: Gauss-15's, then Gauss-7's but their
# midpoint 0, which _PANEL_G7 reads from Gauss-15's node 7.
_PANEL_X = np.concatenate([_G15_X, _G7_X[:3], _G7_X[4:]])
_PANEL_G7 = np.array([15, 16, 17, 7, 18, 19, 20])

_MAX_SUBDIVISIONS = 2000    # panels per adaptive core, initial ones included

# Most panels whose children one call of the integrand evaluates during
# bisection: the popped panel and the next worst ones.  Larger batches save
# few calls and evaluate more panels that are never popped.
_LOOKAHEAD = 8


def _symmetric(upper, sign=1.0):
    """A 15- or 7-entry array symmetric about its middle, from the middle up;
    ``sign`` -1 mirrors with a sign change (nodes)."""
    return np.concatenate([sign * upper[:0:-1], upper])


# Gauss-Kronrod 7-15 pair (QUADPACK QK15; Piessens et al., 1983) on [-1, 1]:
# the 15 Kronrod nodes and weights, and the Gauss-7 weights of the nodes at
# odd indices, which are the 7 Gauss nodes.  Listed from the middle up.
_K15_X = _symmetric(np.array([
    0.0, 0.207784955007898467600689403773245,
    0.405845151377397166906606412076961, 0.586087235467691130294144845693013,
    0.741531185599394439863864773280788, 0.864864423359769072789712788640926,
    0.949107912342758524526189684047851, 0.991455371120812639206854697526329]),
    -1.0)
_K15_W = _symmetric(np.array([
    0.209482141084727828012999174891714, 0.204432940075298892414161999234649,
    0.190350578064785409913256402421014, 0.169004726639267902826583426598550,
    0.140653259715525918745189590510238, 0.104790010322250183839876322541518,
    0.063092092629978553290700663189204, 0.022935322010529224963732008058970]))
_K15_G7_W = _symmetric(np.array([
    0.417959183673469387755102040816327, 0.381830050505118944950369775488975,
    0.279705391489276667901467771423780, 0.129484966168869693270611432679082]))

# A tail block below this fraction of the running tail sum ends the tail.
_TAIL_CUTOFF = 1e-12

# The phase osc_scale * x**2 at which an oscillatory core hands over to the
# tail blocks: 32 periods of the squared variable.  Callers that take the
# tail in closed form split there too.
_CORE_PHASE = 32.0 * math.pi


class QuadratureError(RuntimeError):
    """Raised when an adaptive core exhausts its ``_MAX_SUBDIVISIONS`` panels.

    Carries the partial value and the error estimate reached so far.  The
    estimate is the sum of the panels' |G15 - G7| differences, not a bound:
    near an unresolved singularity it understates the error of the partial
    value (by 5x for 1/sqrt|x - 1/3| on [0, 1] after 10 subdivisions).
    """

    def __init__(self, message, value, err_estimate):
        self.value = float(value)
        self.err_estimate = float(err_estimate)
        super().__init__(f"{message} (partial value {self.value!r}, "
                         f"err {self.err_estimate!r})")


@dataclass(frozen=True)
class QuadTolerance:
    abs_tol: float = 1e-10
    rel_tol: float = 1e-8

    def __post_init__(self):
        if not (0 < self.abs_tol < math.inf and 0 < self.rel_tol < math.inf):
            raise ValueError("tolerances must be positive and finite")


@dataclass(frozen=True)
class Domain:
    """Integration domain finite(a, b) or full_line, checked when built.

    ``centre`` x0, full line only, is where the integrand is centred.  Like
    the hints below, which describe f(x0 + t) as a function of t = x - x0,
    it is a property of the integrand: the line is integrated in t.

    ``osc_scale``, full line only and positive and finite when set, declares
    that the integrand oscillates at infinity with phase ``osc_scale * t**2``
    (period ``pi`` in the squared variable), switching the tails to blocks.

    ``even``, full line only, declares that f(x0 - t) == f(x0 + t).  With an
    oscillatory hint the right tail is then summed once and also taken as
    the left one, which for an exactly even integrand gives the same bits
    as summing both.  Without the hint it has no effect.

    ``antiderivative``, a pair ``(x_from, F)``, declares that for
    |t| >= x_from the integrand has the closed antiderivative F(t)
    (vectorized, and vanishing at infinity).  With an oscillatory hint, tail
    blocks that start beyond x_from take F(t_hi) - F(t_lo) instead of their
    15 nodes, and once a tail reaches them its ``err_estimate`` also covers
    the gap to the exact tail.  Without the hint it has no effect.
    """

    kind: str
    a: float = 0.0
    b: float = 0.0
    osc_scale: float | None = None
    core_extent: float = 0.0
    even: bool = False
    antiderivative: tuple | None = None
    centre: float = 0.0

    def __post_init__(self):
        if self.kind not in ("finite", "full_line"):
            raise ValueError(f"unknown domain kind {self.kind!r}")
        if self.kind == "finite":
            if not -math.inf < self.a < self.b < math.inf:
                raise ValueError("finite domain requires ordered finite bounds a < b")
            if self.even or self.centre or self.osc_scale is not None:
                raise ValueError("only a full line can be even, centred or oscillatory")
        if self.osc_scale is not None and not 0 < self.osc_scale < math.inf:
            raise ValueError("osc_scale must be positive and finite")
        if not 0 <= self.core_extent < math.inf:
            raise ValueError("core_extent must be non-negative and finite")
        if not math.isfinite(self.centre):
            raise ValueError("centre must be finite")

    @staticmethod
    def finite(a, b):
        return Domain("finite", float(a), float(b))

    @staticmethod
    def full_line(osc_scale=None, core_extent=0.0, even=False, centre=0.0):
        return Domain("full_line", -math.inf, math.inf, osc_scale,
                      float(core_extent), bool(even), centre=float(centre))


def _panel_rules(f, panels):
    """15-point Gauss values and |G15 - G7| error estimates on each (a, b) of
    ``panels``, from one call of ``f`` on all their nodes."""
    ab = np.array(panels, dtype=float)
    h = 0.5 * (ab[:, 1] - ab[:, 0])
    x = (0.5 * (ab[:, 0] + ab[:, 1]))[:, None] + h[:, None] * _PANEL_X
    y = np.asarray(f(x.ravel()), dtype=float).reshape(x.shape)
    # Row-wise sums, not `y[:, :15] @ _G15_W`: BLAS orders a matrix product's
    # sums by the batch's shape, so a panel's bits would depend on its batch;
    # a row-wise sum adds each panel's nodes alike in any batch.
    v15 = h * (y[:, :15] * _G15_W).sum(axis=1)
    v7 = h * (y[:, _PANEL_G7] * _G7_W).sum(axis=1)
    return list(zip(v15.tolist(), np.abs(v15 - v7).tolist()))


def _adaptive_finite(f, a, b, tol, seed_points=()):
    """Adaptive bisection on [a, b]; returns (value, err_estimate).

    `seed_points` are interior breakpoints known to host narrow features.
    Panels are refined one at a time, worst first; their rules are
    evaluated in the look-ahead batches the module docstring describes.
    """
    edges = np.unique([a, b, *(p for p in seed_points if a < p < b)])
    # A few initial panels per segment avoid symmetric-cancellation traps:
    # np.linspace(lo, hi, 5) of every segment at once, with its arithmetic.
    lo, hi = edges[:-1, None], edges[1:, None]
    pieces = lo + np.arange(5) * ((hi - lo) / 4)
    pieces[:, -1] = hi[:, 0]
    pieces = np.unique(pieces)
    panels = np.column_stack([pieces[:-1], pieces[1:]]).tolist()

    heap = []
    total = 0.0
    toterr = 0.0
    count = 0
    for (lo, hi), (v, e) in zip(panels, _panel_rules(f, panels)):
        heapq.heappush(heap, (-e, lo, hi, v))
        total += v
        toterr += e
        count += 1

    children = {}    # (lo, hi) of a panel -> the rules of its two halves
    while toterr > max(tol.abs_tol, tol.rel_tol * abs(total)):
        if count >= _MAX_SUBDIVISIONS:
            raise QuadratureError("quadrature did not converge within its "
                                  f"{_MAX_SUBDIVISIONS}-panel budget",
                                  total, toterr)
        negerr, lo, hi, v = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        if (lo, hi) not in children:
            # Look ahead to the worst panels whose children are not known,
            # until their errors cover what the stopping test still asks for.
            batch = [(lo, hi)]
            excess = toterr + negerr - max(tol.abs_tol, tol.rel_tol * abs(total))
            for ne, qlo, qhi, _ in heapq.nsmallest(
                    _LOOKAHEAD - 1, (q for q in heap if q[1:3] not in children)):
                if excess <= 0:
                    break
                batch.append((qlo, qhi))
                excess += ne
            halves = []
            for pa, pb in batch:
                pm = 0.5 * (pa + pb)
                halves += [(pa, pm), (pm, pb)]
            rules = _panel_rules(f, halves)
            children.update(zip(batch, zip(rules[::2], rules[1::2])))
        (v1, e1), (v2, e2) = children.pop((lo, hi))
        total += v1 + v2 - v
        toterr += e1 + e2 - (-negerr)
        heapq.heappush(heap, (-e1, lo, mid, v1))
        heapq.heappush(heap, (-e2, mid, hi, v2))
        count += 1

    # fsum is correctly rounded, so the heap's order does not change its sums.
    value = math.fsum(v for _, _, _, v in heap)
    err = math.fsum(-ne for ne, _, _, _ in heap)
    return value, err


def _integrate_mapped_full(f, tol):
    """Full line via the algebraic map x = t/(1-t^2), t in (-1, 1)."""

    def g(t):
        one = 1.0 - t * t
        x = t / one
        return f(x) * (1.0 + t * t) / (one * one)

    return _adaptive_finite(g, -1.0, 1.0, tol)


def _extrapolate_to_zero(us, ss):
    """Neville polynomial extrapolation of (us, ss) to u = 0.

    Returns (limit, err_estimate) where the error is the change in the last
    extrapolation level.
    """
    tab = list(ss)
    n = len(tab)
    prev = tab[0]
    for j in range(1, n):
        for i in range(n - j):
            ui, uj = us[i], us[i + j]
            tab[i] = (-uj * tab[i] + ui * tab[i + 1]) / (ui - uj)
        prev = tab[0] if j < n - 1 else prev
    # `prev` holds the level-(n-2) result, tab[0] the final one.
    return tab[0], abs(tab[0] - prev)


def _block_rules(f, scale, y0_first, k, side, antiderivative=None):
    """K15 and embedded G7 values of the consecutive tail blocks ``k``,
    counted from ``y0_first`` (see ``_tail_blocks``), and side * F where the
    last block ends if that block is in closed form (else None).  Blocks that
    start beyond the antiderivative's x_from are in closed form,
    F(x_hi) - F(x_lo), with the same G7 value."""
    y0 = y0_first + math.pi * k[:, None]
    n_open = len(k)
    if antiderivative is not None:
        x_from, prim = antiderivative
        n_open = int(np.count_nonzero(np.sqrt(y0[:, 0] / scale) < x_from))
    h = math.pi / 2.0
    y = y0[:n_open] + h * (_K15_X[None, :] + 1.0)
    vals = np.empty_like(y)
    if n_open:
        x = y / scale
        np.sqrt(x, out=x)
        x *= side
        vals = np.asarray(f(x.ravel()), dtype=float).reshape(y.shape)
    # vals times dx/dy = 1 / (2 sqrt(scale y)), into y's buffer: vals and
    # the nodes x belong to the integrand.
    y *= scale
    np.sqrt(y, out=y)
    y *= 2.0
    vals = np.divide(vals, y, out=y)
    b7 = h * (vals[:, 1::2] * _K15_G7_W[None, :]).sum(axis=1)
    vals *= _K15_W[None, :]
    b15 = h * vals.sum(axis=1)
    if n_open == len(k):
        return b15, b7, None
    # One array of edges: each block ends where the next one starts.
    edges = y0_first + math.pi * np.append(k[n_open:], k[-1] + 1)
    big_f = side * prim(side * np.sqrt(edges / scale))
    closed = np.diff(big_f)
    return (np.concatenate([b15, closed]), np.concatenate([b7, closed]),
            float(big_f[-1]))


def _tail_blocks(f, scale, y_start, tol, side, antiderivative=None):
    """Integrate f over the tail |x| in [sqrt(y_start/scale), inf), one side.

    ``side`` is +1 for the right tail, -1 for the left.  Blocks of length pi
    in y = scale*x**2 (one period of the dominant oscillation each) are
    evaluated once, on the 15 nodes of the Gauss-Kronrod 7-15 pair: the
    block's value is the Kronrod-15 sum and its rule error |K15 - G7|, with
    the Gauss-7 sum taken on the 7 embedded nodes.  Partial sums over K
    blocks are then extrapolated in K**-0.5.

    ``antiderivative`` is a domain's ``(x_from, F)``.  A block that starts at
    |x| >= x_from takes F(x_hi) - F(x_lo), with rule error 0, for its 15
    nodes; all such blocks read F at one array of block edges, so their sums
    telescope.  Once the blocks reach x_from the exact tail is known, their
    sum minus F where they end (the K15 sum before x_from minus F there),
    and the ``err_estimate`` adds the returned value's distance from it.

    A geometric probe comes first.  It settles the tail at the first of 64,
    128, ... blocks (below ``n_blocks``) where the tail passes the round's
    convergence test, still budgeted against a full round of ``n_blocks``, and
    its block amplitude has decayed by at least 20x since the first blocks;
    the decay guard keeps a tail whose tiny amplitude is flat from being cut.
    A tail that no checkpoint settles gets the same blocks, sums, rounds and
    extrapolation as without a probe.
    """
    n_blocks = 4096 if tol.abs_tol <= 1e-8 else 1024
    f_end = [None]    # side * F where the blocks end, once in closed form

    def rules(y0_first, k):
        b15, b7, f_end[0] = _block_rules(f, scale, y0_first, k, side,
                                         antiderivative)
        return b15, b7

    def result(value, err, partial):
        """(value, err), err widened to the exact tail once it is known."""
        if f_end[0] is not None:
            err += abs(value - (float(partial[-1]) - f_end[0]))
        return value, err

    def amp(b15):
        """Block amplitude at the start and at the end of a run of blocks."""
        return float(np.abs(b15[:8]).max()), float(np.abs(b15[-8:]).max())

    def settled(amp_end, running):
        return amp_end <= _TAIL_CUTOFF * running or \
            amp_end * n_blocks <= 0.1 * max(tol.abs_tol, tol.rel_tol * running)

    b15, b7 = rules(y_start, np.arange(64))
    while len(b15) < n_blocks:
        amp_start, amp_end = amp(b15)
        if amp_end <= 0.05 * amp_start and settled(amp_end, abs(float(b15.sum()))):
            # Extra damping killed the tail by this checkpoint.  Truncation:
            # the n_blocks blocks of the last amplitude that `settled` budgets.
            partial = np.cumsum(b15)
            return result(float(partial[-1]),
                          float(np.abs(b15 - b7).sum()) + amp_end * n_blocks,
                          partial)
        more15, more7 = rules(y_start, np.arange(len(b15), 2 * len(b15)))
        b15, b7 = np.concatenate([b15, more15]), np.concatenate([b7, more7])

    # Accumulate rounds of blocks until the block amplitude is below the
    # truncation cutoff (integrands with an extra exponential damping need a
    # longer reach than purely algebraic tails) or the round budget is spent.
    chunks15 = []
    rule_err = 0.0
    y0 = y_start
    converged = False
    for n_round in range(8):
        if n_round:
            b15, b7 = rules(y0, np.arange(n_blocks))
        rule_err += float(np.abs(b15 - b7).sum())
        chunks15.append(b15)
        y0 += math.pi * n_blocks
        running = abs(math.fsum(float(c.sum()) for c in chunks15))
        amp_start, amp_end = amp(b15)
        if settled(amp_end, running):
            converged = True
            break
        if amp_end > 0.05 * amp_start:
            # Shallow (algebraic) decay: more blocks gain nothing that the
            # partial-sum extrapolation does not already capture.
            break
    b15 = np.concatenate(chunks15)
    partial = np.cumsum(b15)
    tail_amp = float(np.abs(b15[-8:]).max())

    if converged:
        # Extra damping killed the tail outright; the plain sum is exact up
        # to the rule error and the (sub-cutoff) truncated remainder.
        return result(float(partial[-1]), rule_err + tail_amp, partial)

    ks = []
    k = len(b15)
    while k >= 32 and len(ks) < 7:
        ks.append(k)
        k //= 2
    us = [kk ** -0.5 for kk in ks]
    ss = [partial[kk - 1] for kk in ks]
    value, extrap_err = _extrapolate_to_zero(us, ss)
    # Truncation: blocks whose amplitude already fell below the cutoff
    # contribute nothing more; otherwise the extrapolation difference is the
    # working remainder estimate.
    err = 4.0 * extrap_err + rule_err + min(tail_amp, _TAIL_CUTOFF)
    return result(float(value), err, partial)


def _integrate_oscillatory(f, domain, tol, seed_points=()):
    """Core [-xc, xc] by adaptive panels + both tails by block summation."""
    scale = domain.osc_scale
    # The adaptive core must cover both a sensible number of oscillation
    # periods and any smooth (e.g. Gaussian-bulk) structure the caller
    # declared via core_extent; blocks take over beyond it.
    xc = max(math.sqrt(_CORE_PHASE / scale), domain.core_extent)
    y_start = scale * xc * xc

    core, core_err = _adaptive_finite(f, -xc, xc, tol, seed_points=seed_points)
    right, right_err = _tail_blocks(f, scale, y_start, tol, +1,
                                    domain.antiderivative)
    if domain.even:
        left, left_err = right, right_err
    else:
        left, left_err = _tail_blocks(f, scale, y_start, tol, -1,
                                      domain.antiderivative)
    return core + left + right, core_err + left_err + right_err


def _integrate(f, domain, tol, seed_points):
    if domain.kind == "finite":
        return _adaptive_finite(f, domain.a, domain.b, tol, seed_points=seed_points)
    x0 = domain.centre
    if x0:    # skipped at x0 = 0, so uncentred integrals keep their bits
        f_x, f = f, lambda t: f_x(x0 + t)
        seed_points = [p - x0 for p in seed_points]
    if domain.osc_scale is not None:
        return _integrate_oscillatory(f, domain, tol, seed_points=seed_points)
    return _integrate_mapped_full(f, tol)


def integrate_1d(f, domain, tol=None, seed_points=()):
    """Integrate vectorized ``f``, one value per node, over ``domain``;
    returns ``(value, err_estimate)``.

    Raises :class:`QuadratureError`, carrying the partial value, if an
    adaptive core exhausts its ``_MAX_SUBDIVISIONS`` panels.  ``seed_points``
    mark known narrow features (finite domains and the core of oscillatory
    ones only).
    """
    return _integrate(f, domain, tol or QuadTolerance(), seed_points)

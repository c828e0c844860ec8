"""Elementary kernels of the phase-matching theory.

sinc(x) = sin(x)/x and sint(x) = 1 - (2/pi)*Si(x) are the momentum- and
position-plane phase-matching kernels; they form a Fourier-transform pair for
quadratic arguments.  The universal shape constants are the handful of
improper integrals of their squares that every closed-form variance and
entropy expression is built from.  The moments A1, A2, b1 and b2 are exact
closed forms.  The two log-integrals i_ff and i_nf are summed between the
kernels' zeros: their first lobes by adaptive quadrature, the periods beyond
by a fixed Gauss-Legendre rule each, and the rest by the closed form of the
period-averaged asymptotics.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field

import numpy as np
from scipy.special import sici

from .quadrature import Domain, QuadTolerance, integrate_1d

__all__ = [
    "sinc",
    "sine_integral",
    "sint",
    "matching_alpha",
    "ShapeConstants",
    "shape_constants",
]


_EPS = np.finfo(float).eps    # np.sinc's stand-in for a zero argument


def _check_finite(x):
    if not np.all(np.isfinite(x)):
        raise ValueError("argument must be finite")


def sinc(x):
    """sin(x)/x with the removable singularity at 0. Accepts arrays."""
    x = np.asarray(x, dtype=float)
    _check_finite(x)
    # np.sinc(x / pi) step by step, in two buffers of its own (a 0-d x
    # too): y = pi (x / pi), eps where y is 0, then sin(y) / y.
    y = np.divide(x, np.pi, out=np.empty_like(x))
    y *= np.pi
    np.copyto(y, _EPS, where=y == 0)
    out = np.sin(y)
    out /= y
    return float(out) if out.ndim == 0 else out


def sine_integral(x):
    """Si(x) = integral of sin(t)/t from 0 to x. Odd in x. Accepts arrays."""
    x = np.asarray(x, dtype=float)
    _check_finite(x)
    si, _ = sici(x)
    return float(si) if si.ndim == 0 else si


def sint(x):
    """1 - (2/pi)*Si(x) for x >= 0. Accepts arrays.

    Negative arguments are rejected rather than reflected: the kernels only
    ever evaluate sint at squared (non-negative) arguments.
    """
    x = np.asarray(x, dtype=float)
    _check_finite(x)
    if np.any(x < 0):
        raise ValueError("sint is defined for non-negative arguments only")
    si, _ = sici(x, out=(np.empty_like(x), np.empty_like(x)))
    si *= 2.0 / math.pi
    out = np.subtract(1.0, si, out=si)
    return float(out) if out.ndim == 0 else out


def matching_alpha(level):
    """Decay rate of the Gaussian that meets sinc at a given peak fraction.

    Returns alpha such that exp(-alpha*u) crosses `level` at the same point
    u* where sinc first falls to `level`: alpha = -ln(level)/u*.
    """
    level = float(level)
    if not (0.0 < level < 1.0):
        raise ValueError("level must lie strictly between 0 and 1")
    # sinc decreases from 1 at 0 to its first minimum (< 0) near 4.493, so
    # the first crossing of any level in (0, 1) lies in between.
    u_star = _brentq(lambda u: math.sin(u) / u - level, 1e-12, 4.49340945790906, xtol=1e-14)
    return -math.log(level) / u_star


def _brentq(f, a, b, xtol):
    """A root of f in the sign-changing bracket [a, b] by Brent's method.

    A line-by-line port of ``scipy.optimize.brentq`` (Zeros/brentq.c) at its
    default rtol = 4 eps and maxiter = 100: the same steps, the same
    stopping rule |step| < (xtol + rtol*|x|)/2, and so the same bits.
    Raises ValueError when f(a) and f(b) share a sign.
    """
    rtol, maxiter = 4.0 * np.finfo(float).eps, 100
    xpre, xcur = float(a), float(b)
    fpre, fcur = float(f(xpre)), float(f(xcur))
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and \
           math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = float(f(xcur))
    raise RuntimeError(f"Brent's method failed to converge after {maxiter} "
                       f"iterations, value is {xcur!r}")


def _xlogx(p):
    """p*ln(p) with the p -> 0 limit; p is a non-negative array.  The
    result is a buffer of its own; p is only read."""
    out = np.zeros_like(p)
    mask = p > 1e-300
    np.log(p, out=out, where=mask)
    np.multiply(p, out, out=out, where=mask)
    return out


@dataclass(frozen=True)
class ShapeConstants:
    """Universal constants of the squared kernels.

    a1, a2: zeroth and second moment of sint(x^2)^2 over the full line,
            in closed form (see ``_A1``, ``_A2``).
    i_ff:   half-line integral of sinc(v^2)^2 * ln(sinc(v^2)^2).
    i_nf:   full-line integral of sint(s^2)^2 * ln(sint(s^2)^2).  (The
            full-line convention is the one that reproduces the near-field
            joint-entropy constant +1.434.)
    sinc_moment_ratio: second-moment ratio b2/b1 of the sinc(x^2)^2 weight,
            exactly 3/4.
    b1:     zeroth moment of sinc(x^2)^2 over the full line, 4 sqrt(pi)/3.

    Only i_ff and i_nf are computed numerically, to the tolerance's
    abs_tol; ``errors`` holds their error estimates (head quadrature, body
    rule and asymptotic tail) and 0.0 for the four closed forms.
    """

    a1: float
    a2: float
    i_ff: float
    i_nf: float
    sinc_moment_ratio: float
    b1: float
    errors: dict = field(default_factory=dict, compare=False, repr=False)


# A1 and A2 are int_0^inf sint(y)^2 y^(mu-1) dy at mu = 1/2 and 3/2.  With
# sint(y) = (2/pi) int_1^inf sin(y s)/s ds the y-integral is a Gamma
# integral, and the double integral left over s, t >= 1 factorizes under
# t = r s (for A2 after one integration by parts).
_LN_SILVER = math.log(1.0 + math.sqrt(2.0))
_A1 = 4.0 * math.sqrt(2.0 * math.pi) * (math.pi - 2.0 * _LN_SILVER) / math.pi ** 2
_A2 = (2.0 * math.sqrt(2.0 * math.pi) * (math.pi - math.sqrt(2.0) + 2.0 * _LN_SILVER)
       / (3.0 * math.pi ** 2))
# b1 and b2 are int_0^inf sin(t)^2 t^(mu-1) dt at mu = -3/2 and -1/2:
# 4 sqrt(pi)/3 and sqrt(pi), so b2/b1 = 3/4.
_B1 = 4.0 * math.sqrt(math.pi) / 3.0
_SINC_MOMENT_RATIO = 0.75

_cache: dict = {}
_cache_lock = threading.Lock()


# The log-integrals are J[shape] = int_0^inf xlogx(shape(y)^2) y^(-1/2) dy,
# with i_ff = J[sinc]/2 and i_nf = J[sint] (y = v^2, and i_nf is taken over
# the whole line).  J is summed in three parts split at zeros z_k of the
# kernel: a head over its first _HEAD_LOBES lobes by adaptive quadrature in
# x = sqrt(y), a body of Gauss-Legendre rules on each period [z_k, z_k+1] up
# to z_N, and the closed-form tail of the period-averaged asymptotics beyond.
_HEAD_LOBES = 4
# The body's rule and the lower order whose difference from it is the rule's
# error estimate.  On a period the map t = 3u^2 - 2u^3 turns the t^2 ln t of
# p ln p at the double zeros into u^5 ln u, for which Gauss-Legendre error
# falls as order^-12: about 4e-13 of J at order 20, 4e-14 at 24.
_BODY_ORDERS = (24, 20)


def _smoothstep_rule(order):
    """Gauss-Legendre nodes and weights on [0, 1] after t = 3u^2 - 2u^3."""
    x, w = np.polynomial.legendre.leggauss(order)
    u = 0.5 * (x + 1.0)
    return u * u * (3.0 - 2.0 * u), 3.0 * w * u * (1.0 - u)


_BODY_RULES = tuple(_smoothstep_rule(n) for n in _BODY_ORDERS)


def _sint_zeros(k):
    """The zeros of sint near (k - 1/2) pi, k = 1, 2, ..., by Newton."""
    y = (k - 0.5) * math.pi
    for _ in range(50):
        step = sint(y) / (-(2.0 / math.pi) * np.sin(y) / y)
        y = y - step
        if np.max(np.abs(step) / y) < 1e-15:
            return y
    raise RuntimeError("zeros of sint did not converge")


def _tail_reach(budget):
    """The y at which y^(-7/2) ln y, the size of the first asymptotic term
    the tail leaves out, falls to ``budget``."""
    y = 10.0
    for _ in range(8):
        y = max(math.e, (math.log(y) / budget) ** (2.0 / 7.0))
    return y


def _log_integral(shape, zeros, amp, tol):
    """(J, err) of ``shape`` with zeros ``zeros(k)`` = z_k for k = 1, 2, ...

    Beyond z_N the kernel square is amp cos^2(theta)/y^2 to relative
    O(y^-2), theta advancing by pi per period, and the period mean of
    cos^2 ln cos^2 is 1/2 - ln 2, so the tail is the integral of
    amp y^(-5/2) (ln(amp)/2 + 1/2 - ln 2 - ln y).  What it leaves out, the
    O(y^-2) terms and the averaging of the oscillation against the sloping
    envelope, comes to about -0.6 z_N^(-7/2) ln z_N for both kernels; err
    counts it at z_N^(-7/2) ln z_N, and adds the head's estimate and the
    body's |rule - lower order|.
    """
    # Constants enter the entropies as additive bits, so they are held to
    # abs_tol whatever the relative tolerance: a tenth for the tail, a
    # hundredth for the head.
    n_last = max(math.ceil(_tail_reach(0.1 * tol.abs_tol) / math.pi) + 1,
                 _HEAD_LOBES + 1)
    z = zeros(np.arange(_HEAD_LOBES, n_last + 1, dtype=float))
    head_tol = QuadTolerance(abs_tol=0.01 * tol.abs_tol, rel_tol=0.01 * tol.abs_tol)
    lobes = np.sqrt(zeros(np.arange(1, _HEAD_LOBES, dtype=float)))
    head, head_err = integrate_1d(lambda x: _xlogx(shape(x * x) ** 2),
                                  Domain.finite(0.0, math.sqrt(z[0])),
                                  head_tol, seed_points=lobes)

    a, width = z[:-1, None], np.diff(z)[:, None]
    body = []
    for t, w in _BODY_RULES:
        y = a + width * t
        body.append(float((width * w * _xlogx(shape(y) ** 2) / np.sqrt(y)).sum()))

    y_end = z[-1]
    r = y_end ** -1.5
    mean_log = 0.5 * math.log(amp) + 0.5 - math.log(2.0) - math.log(y_end)
    tail = amp * r * ((2.0 / 3.0) * mean_log - 4.0 / 9.0)
    err = (2.0 * head_err + abs(body[0] - body[1])
           + y_end ** -3.5 * math.log(y_end))
    return 2.0 * head + body[0] + tail, err


def _compute(tol):
    def run(name, shape, zeros, amp):
        try:
            return _log_integral(shape, zeros, amp, tol)
        except Exception as exc:
            raise RuntimeError(f"shape constant {name!r} failed to converge") from exc

    j_ff, e_ff = run("i_ff", sinc, lambda k: k * math.pi, 1.0)
    i_nf, e_nf = run("i_nf", sint, _sint_zeros, 4.0 / math.pi ** 2)
    errors = {"a1": 0.0, "a2": 0.0, "b1": 0.0, "sinc_moment_ratio": 0.0,
              "i_ff": 0.5 * e_ff, "i_nf": e_nf}
    return ShapeConstants(a1=_A1, a2=_A2, i_ff=0.5 * j_ff, i_nf=i_nf,
                          sinc_moment_ratio=_SINC_MOMENT_RATIO, b1=_B1,
                          errors=errors)


def shape_constants(tol=None):
    """The memoized ShapeConstants at the given tolerance."""
    tol = tol or QuadTolerance()
    with _cache_lock:
        if tol not in _cache:
            _cache[tol] = _compute(tol)
        return _cache[tol]

"""Elementary kernels of the phase-matching theory.

sinc(x) = sin(x)/x and sint(x) = 1 - (2/pi)*Si(x) are the momentum- and
position-plane phase-matching kernels; they form a Fourier-transform pair for
quadratic arguments.  The universal shape constants are the handful of
improper integrals of their squares that every closed-form variance and
entropy expression is built from.  The moments A1, A2, b1 and b2 are exact
closed forms; only the two log-integrals i_ff and i_nf are integrated.
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


def _check_finite(x):
    if not np.all(np.isfinite(x)):
        raise ValueError("argument must be finite")


def sinc(x):
    """sin(x)/x with the removable singularity at 0. Accepts arrays."""
    x = np.asarray(x, dtype=float)
    _check_finite(x)
    out = np.sinc(x / np.pi)
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
    si, _ = sici(x)
    out = 1.0 - (2.0 / math.pi) * si
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
    """p*ln(p) with the p -> 0 limit; p is a non-negative array."""
    out = np.zeros_like(p)
    mask = p > 1e-300
    out[mask] = p[mask] * np.log(p[mask])
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

    Only i_ff and i_nf are integrated; ``errors`` holds their quadrature
    error estimates and 0.0 for the four closed forms.
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


def _compute(tol):
    full_osc = Domain.full_line(osc_scale=1.0, even=True)
    half_osc = Domain.half_line(0.0, osc_scale=1.0)

    def run(name, f, dom):
        try:
            return integrate_1d(f, dom, tol)
        except Exception as exc:
            raise RuntimeError(f"shape constant {name!r} failed to converge") from exc

    i_ff, e_ff = run("i_ff", lambda v: _xlogx(sinc(v * v) ** 2), half_osc)
    i_nf, e_nf = run("i_nf", lambda s: _xlogx(sint(s * s) ** 2), full_osc)
    errors = {"a1": 0.0, "a2": 0.0, "b1": 0.0, "sinc_moment_ratio": 0.0,
              "i_ff": e_ff, "i_nf": e_nf}
    return ShapeConstants(a1=_A1, a2=_A2, i_ff=i_ff, i_nf=i_nf,
                          sinc_moment_ratio=_SINC_MOMENT_RATIO, b1=_B1,
                          errors=errors)


def shape_constants(tol=None):
    """The memoized ShapeConstants at the given tolerance."""
    tol = tol or QuadTolerance()
    key = (tol.abs_tol, tol.rel_tol, tol.max_subdivisions)
    with _cache_lock:
        if key not in _cache:
            _cache[key] = _compute(tol)
        return _cache[key]

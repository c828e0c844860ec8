"""Elementary kernels of the phase-matching theory.

sinc(x) = sin(x)/x and sint(x) = 1 - (2/pi)*Si(x) are the momentum- and
position-plane phase-matching kernels; they form a Fourier-transform pair for
quadratic arguments.  The universal shape constants are the handful of
improper integrals of their squares that every closed-form variance and
entropy expression is built from.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq
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
    u_star = brentq(lambda u: math.sin(u) / u - level, 1e-12, 4.49340945790906, xtol=1e-14)
    return -math.log(level) / u_star


def _xlogx(p):
    """p*ln(p) with the p -> 0 limit; p is a non-negative array."""
    out = np.zeros_like(p)
    mask = p > 1e-300
    out[mask] = p[mask] * np.log(p[mask])
    return out


@dataclass(frozen=True)
class ShapeConstants:
    """Quadrature-derived universal constants of the squared kernels.

    a1, a2: zeroth and second moment of sint(x^2)^2 over the full line.
    i_ff:   half-line integral of sinc(v^2)^2 * ln(sinc(v^2)^2).
    i_nf:   full-line integral of sint(s^2)^2 * ln(sint(s^2)^2).  (The
            full-line convention is the one that reproduces the near-field
            joint-entropy constant +1.434.)
    sinc_moment_ratio: second-moment ratio of the sinc(x^2)^2 weight
            (analytically 3/4).
    b1:     zeroth moment of sinc(x^2)^2 over the full line.
    """

    a1: float
    a2: float
    i_ff: float
    i_nf: float
    sinc_moment_ratio: float
    b1: float
    errors: dict = field(default_factory=dict, compare=False, repr=False)


_cache: dict = {}
_cache_lock = threading.Lock()


def _compute(tol):
    full_osc = Domain.full_line(osc_scale=1.0)
    half_osc = Domain.half_line(0.0, osc_scale=1.0)

    def sint2(x):
        return sint(x * x) ** 2

    def sinc2(x):
        return sinc(x * x) ** 2

    results = {}

    def run(name, f, dom):
        try:
            v, e = integrate_1d(f, dom, tol)
        except Exception as exc:
            raise RuntimeError(f"shape constant {name!r} failed to converge") from exc
        results[name] = (v, e)
        return v

    a1 = run("a1", sint2, full_osc)
    a2 = run("a2", lambda x: x * x * sint2(x), full_osc)
    i_ff = run("i_ff", lambda v: _xlogx(sinc2(v)), half_osc)
    i_nf = run("i_nf", lambda s: _xlogx(sint2(s)), full_osc)
    b1 = run("b1", sinc2, full_osc)
    b2 = run("b2", lambda x: x * x * sinc2(x), full_osc)

    ratio = b2 / b1
    errors = {k: results[k][1] for k in results}
    errors["sinc_moment_ratio"] = (results["b2"][1] + ratio * results["b1"][1]) / b1
    return ShapeConstants(a1=a1, a2=a2, i_ff=i_ff, i_nf=i_nf,
                          sinc_moment_ratio=ratio, b1=b1, errors=errors)


def shape_constants(tol=None):
    """The memoized ShapeConstants at the given tolerance."""
    tol = tol or QuadTolerance()
    key = (tol.abs_tol, tol.rel_tol, tol.max_subdivisions, tol.tail_cutoff)
    with _cache_lock:
        if key not in _cache:
            _cache[key] = _compute(tol)
        return _cache[key]

"""Second moments, covariance matrices, and the EPR / Mancini criteria.

All joint densities factorize in the rotated coordinates u, v (see the
distributions module), so every covariance entry reduces to the pair of
1-D second moments E[u^2], E[v^2]:

    var(xi1) = var(xi2) = (E[u^2] + E[v^2]) / 2,
    cov(xi1, xi2)       = (E[u^2] - E[v^2]) / 2.

Closed forms follow from the kernel shape constants: the sinc^2(.^2) weight
has second-moment ratio 3/4, giving the far-field variance
(1/4)(1 + 3/P^2); the sint^2(.^2) weight gives the near-field variance
(1/4)(sigma^2 + 4 A2 P^2 / A1).  Only an spdc kernel's E[v^2] is
integrated, and only over its oscillatory core, the interval integrate_1d's
own core would take; the algebraic tails beyond are scale-free, c^(-3/2)
times a constant of the kernel shape.  The Gaussian factor has
E[u^2] = g_width^2 / 2 and a Gaussian kernel E[v^2] = k_width^2 / 2.  The
covariance_numeric oracle integrates both factors whole.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .distributions import (Density1D, Joint, Params, _check_alpha,
                            conditional_of, make_density)
from .quadrature import (_CORE_PHASE, Domain, QuadratureError, QuadTolerance,
                         integrate_1d)
from .specfun import _A1, _A2, _SINC_MOMENT_RATIO, _brentq, _xlogx

__all__ = [
    "Cov2",
    "EprResult",
    "CondVariances",
    "covariance_numeric",
    "covariance_closed",
    "moments_1d",
    "conditional_variances",
    "gaussian_conditional_variances",
    "schmidt_number",
    "epr_product",
    "gaussian_epr_product",
    "mancini_product",
    "mancini_boundary",
    "find_epr_crossings",
]


@dataclass(frozen=True)
class Cov2:
    """2x2 covariance matrix of a symmetric bivariate density."""

    var1: float
    var2: float
    cov: float

    def __post_init__(self):
        if not (self.var1 > 0 and self.var2 > 0):
            raise ValueError("variances must be positive")
        if abs(self.cov) > math.sqrt(self.var1 * self.var2) + 1e-12:
            raise ValueError("covariance violates Cauchy-Schwarz")

    @property
    def matrix(self):
        return np.array([[self.var1, self.cov], [self.cov, self.var2]])

    @property
    def det(self):
        return self.var1 * self.var2 - self.cov * self.cov


@dataclass(frozen=True)
class EprResult:
    """Conditional-variance product with its two one-sided verdicts."""

    var_x_cond: float
    var_q_cond: float
    product: float
    entangled_flag: bool
    nongaussian_witness_flag: bool

    def __post_init__(self):
        if abs(self.product - self.var_x_cond * self.var_q_cond) > 1e-12:
            raise ValueError("product field inconsistent with its factors")


@dataclass(frozen=True)
class CondVariances:
    """Origin-slice conditional variances, raw and in the scale-free forms
    var_q * P^2 and var_x / P^2 used for parameter sweeps."""

    var_q_cond: float
    var_x_cond: float
    var_q_norm: float
    var_x_norm: float


# The unit-scale tail T = int_{sqrt(Y)}^inf x^2 shape(x^2)^2 dx of each spdc
# kernel beyond the core's split Y = _CORE_PHASE = 32 pi, as M/2 - H: M is
# the full-line second moment (sqrt(pi) for sinc, A2 for sint) and H the
# head over [0, sqrt(Y)], summed in mpmath between the kernel's zeros to 1e-16
# (the far-field tail is also sqrt(pi) (1/2 - S(8 sqrt(2))), S the Fresnel
# sine integral).  _KERNEL_TAIL_ERR bounds the rounding of both.
_KERNEL_TAILS = {"far_field": 0.5 * math.sqrt(math.pi) - 0.8363600653726808,
                 "near_field": 0.5 * _A2 - 0.27525691556757437}
_KERNEL_TAIL_ERR = 1e-16
_LN2 = math.log(2.0)


def _factor_variance(f, dom, z, tol):
    """Variance of f / z by quadrature: f is even on a symmetric domain."""
    m2, _ = integrate_1d(lambda t: t * t * f(t), dom, tol)
    return m2 / z


def _factor_variances(joint):
    """Variances (s2_u, s2_v) of the u and v factors of a joint, and the
    error estimate of s2_v, at the joint's tolerance.

    s2_u = g_width^2 / 2.  An spdc kernel k(v) = shape(c v^2) has its
    second moment integrated over the core |v| <= sqrt(_CORE_PHASE / c)
    only, the interval and tolerance of integrate_1d's oscillatory core, so
    the core's panels and bits are those of a full-line integral; the two
    tails beyond are 2 c^(-3/2) T in closed form.  A QuadratureError naming
    the kernel variance is raised where the closed form of the whole,
    (3/4)/c or (A2/A1)/c, lies outside the error estimate, as it does for a
    core held to abs_tol alone (near field below P = 0.0034 by default).
    Otherwise the core is not replaced by it: below P = 0.0062 the
    near-field core lies 5e-6 relative above it, and
    perfbench/reference.json records that value.  A Gaussian kernel has
    s2_v = k_width^2 / 2 exactly.
    """
    s2_u = 0.5 * joint.g_width ** 2
    if joint.model == "gaussian":
        return s2_u, 0.5 * joint.k_width ** 2, 0.0
    c = joint.kernel_domain.osc_scale
    xc = math.sqrt(_CORE_PHASE / c)
    core, core_err = integrate_1d(lambda t: t * t * joint.kernel(t),
                                  Domain.finite(-xc, xc), joint.tol)
    tails = 2.0 * c ** -1.5
    s2_v = (core + tails * _KERNEL_TAILS[joint.plane]) / joint.zk
    err = (core_err + tails * _KERNEL_TAIL_ERR) / joint.zk
    ratio = _SINC_MOMENT_RATIO if joint.plane == "far_field" else _A2 / _A1
    if abs(s2_v - ratio / c) > err:
        raise QuadratureError("kernel variance s2_v is off its closed form by "
                              "more than its error estimate", s2_v, err)
    return s2_u, s2_v, err


def covariance_numeric(joint):
    """Covariance matrix of a joint density by quadrature of both factors,
    tails included: the oracle of the closed forms and of s2_v's tails."""
    if not isinstance(joint, Joint):
        raise ValueError("covariance_numeric expects a joint density")
    tol = joint.tol
    s2_u = _factor_variance(joint.g, Domain.full_line(), joint.zg, tol)
    s2_v = _factor_variance(joint.kernel, joint.kernel_domain, joint.zk, tol)
    var = 0.5 * (s2_u + s2_v)
    return Cov2(var1=var, var2=var, cov=0.5 * (s2_u - s2_v))


def covariance_closed(plane, params):
    """Closed-form covariance matrix of the spdc joint on the given plane."""
    p = params.p
    if plane == "far_field":
        var = 0.25 * (1.0 + 3.0 / (p * p))
        cov = 0.25 * (1.0 - 3.0 / (p * p))
    elif plane == "near_field":
        t2 = 4.0 * _A2 / _A1 * p * p
        s2 = params.sigma ** 2
        var = 0.25 * (s2 + t2)
        cov = 0.25 * (s2 - t2)
    else:
        raise ValueError(f"unknown plane {plane!r}")
    return Cov2(var1=var, var2=var, cov=cov)


def _pdf_integrals(spec, moments=True, entropy=False):
    """(mean, variance, (entropy, err) in bits) of a 1-D form, from one
    integrate_1d call per integrand x p, x^2 p and p ln p of its pdf, at
    its tolerance; a part not asked for is None.  An origin slice is even:
    its mean is 0 and x p is not integrated.  The entropy takes a table marginal's
    ``entropy_tail`` as its closed tail.  A conditional's pdf keeps its
    values, so the calls share the kernel values of the node arrays they
    have in common (see ``conditional_of``)."""
    def integral(f, dom=spec.domain):
        return integrate_1d(f, dom, spec.tol, seed_points=spec.seeds)

    def x2p(x):
        out = x * x
        out *= spec.pdf(x)
        return out

    mean = var = h = None
    if moments:
        mean = (integral(lambda x: x * spec.pdf(x))[0] if spec.fixed != 0.0
                else 0.0)
        m2, _ = integral(x2p)
        var = m2 - mean * mean
    if entropy:
        dom = spec.domain
        if spec.entropy_tail is not None:
            dom = replace(dom, antiderivative=spec.entropy_tail)
        v, err = integral(lambda x: _xlogx(spec.pdf(x)), dom)
        h = (-v / _LN2, err / _LN2)
    return mean, var, h


def moments_1d(spec):
    """(mean, variance) of a 1-D density.

    Marginals reuse their parent joint's factor variances (exact reduction;
    their mean is zero by symmetry); conditionals integrate their own pdf
    (``_pdf_integrals``).
    """
    if not isinstance(spec, Density1D):
        raise ValueError("moments_1d expects a 1-D form")
    if spec.form == "marginal" and spec.parent is not None:
        s2_u, s2_v, _ = _factor_variances(spec.parent)
        return 0.0, 0.5 * (s2_u + s2_v)
    mean, var, _ = _pdf_integrals(spec)
    return mean, var


def _conditional_variance(plane, params, tol):
    """Variance of the spdc origin slice p(xi1 | xi2 = 0) on one plane."""
    joint = make_density(plane, "spdc", params, tol)
    _, var = moments_1d(conditional_of(joint))
    return var


def conditional_variances(params, tol=None):
    """Variances of the spdc origin slices p(xi1 | xi2 = 0) on both planes.

    For another slice value, take ``moments_1d(conditional_of(joint, c))``.
    """
    tol = tol or QuadTolerance()
    var_q = _conditional_variance("far_field", params, tol)
    var_x = _conditional_variance("near_field", params, tol)
    p2 = params.p ** 2
    return CondVariances(var_q_cond=var_q, var_x_cond=var_x,
                         var_q_norm=var_q * p2, var_x_norm=var_x / p2)


def gaussian_conditional_variances(alpha, params):
    """Origin-slice conditional variances of the Gaussian-alpha model."""
    _check_alpha(alpha)
    ap2 = alpha * params.p ** 2
    s2 = params.sigma ** 2
    var_q = 1.0 / (1.0 + ap2)
    var_x = s2 * ap2 / (s2 + ap2)
    return var_q, var_x


def schmidt_number(sigma_plus, delta_minus):
    """Effective mode count K of a double-Gaussian state with the given
    sum and difference widths: K = (1/4)(s/d + d/s)^2."""
    if not (sigma_plus > 0 and delta_minus > 0):
        raise ValueError("widths must be positive")
    r = sigma_plus / delta_minus
    return 0.25 * (r + 1.0 / r) ** 2


def _epr_from_variances(var_x, var_q):
    product = var_x * var_q
    return EprResult(var_x_cond=var_x, var_q_cond=var_q, product=product,
                     entangled_flag=product < 0.25,
                     nongaussian_witness_flag=product > 0.25)


def epr_product(params, tol=None):
    """EPR conditional-variance product of the spdc model at origin slices."""
    cv = conditional_variances(params, tol)
    return _epr_from_variances(cv.var_x_cond, cv.var_q_cond)


def gaussian_epr_product(alpha, params):
    """EPR product of the Gaussian-alpha model (analytic)."""
    var_q, var_x = gaussian_conditional_variances(alpha, params)
    return _epr_from_variances(var_x, var_q)


def mancini_product(params, model="spdc", alpha=None):
    """Product of the sum-momentum and difference-position variances.

    Values below 1 certify non-separability.  For the spdc model the product
    is 4 (A2/A1) P^2; for the gaussian model it is alpha P^2.
    """
    p2 = params.p ** 2
    if model == "spdc":
        return 4.0 * (_A2 / _A1) * p2
    if model == "gaussian":
        _check_alpha(alpha)
        return alpha * p2
    raise ValueError(f"unknown model {model!r}")


def mancini_boundary():
    """The P at which the spdc sum/difference product reaches 1."""
    return math.sqrt(_A1 / (4.0 * _A2))


def find_epr_crossings(tol=None):
    """The two P values where the spdc EPR product crosses 1/4.

    Brent's method on the brackets [0.1, 1] and [1, 5], to 1e-8 in P.  A
    bracket over which the product does not cross 1/4 raises ValueError.
    """
    tol = tol or QuadTolerance()

    def f(p):
        return epr_product(Params(p=p), tol).product - 0.25

    return tuple(_brentq(f, lo, hi, xtol=1e-8)
                 for lo, hi in ((0.1, 1.0), (1.0, 5.0)))

"""Differential entropy, negentropy, and the non-Gaussianity measures.

All entropies are in bits (log base 2).  A joint density factorizes in the
rotated coordinates u, v with unit Jacobian, so its entropy is a closed form:
log2(sqrt(pi e) g_width) for the Gaussian factor plus log2(k_width) and the
unit-scale shape entropy, from the shape constants, for the kernel.
Negentropy is the entropy of the moment-matched normal minus the density's
own entropy: non-negative, zero exactly for Gaussians, and invariant under
affine changes of coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .distributions import (Joint, conditional_of, gaussian_equivalent,
                            make_density, marginal_of)
from .moments import _LN2, _factor_variances, _pdf_integrals
from .quadrature import QuadTolerance
from .specfun import _A1, _A2, shape_constants

__all__ = [
    "NegentropyValue",
    "NgReport",
    "differential_entropy",
    "gaussian_entropy_closed",
    "negentropy",
    "ng_report",
    "marginal_negentropy_limits",
    "conditional_gaussian_mismatch",
]

_H_UNIT_GAUSS = 0.5 * math.log2(math.pi * math.e)   # of exp(-s^2) / sqrt(pi)


@dataclass(frozen=True)
class NegentropyValue:
    value: float
    h_actual: float
    h_gaussian: float
    err_estimate: float

    def __post_init__(self):
        if abs(self.value - (self.h_gaussian - self.h_actual)) > 1e-12:
            raise ValueError("value field inconsistent with its terms")


@dataclass(frozen=True)
class NgReport:
    """Every negentropy at one P: joint, origin-conditional, and marginal
    forms for both planes, their pairwise sums, and the defect of the
    small-P decomposition ng_total ~ ng_cond + ng_marg.

    var_q_cond and var_x_cond are the variances of the far-field and
    near-field origin slices, the moments the conditional negentropies are
    matched to; they equal conditional_variances(params) bitwise.

    The decomposition becomes exact as P -> 0, but only linearly:
    decomposition_residual = c P + O(P^2) bits with
    c = 2 sqrt(2 pi) / (pi^2 A2 ln 2) = 1.24009.  The near-field origin
    slice sint^2(s^2) exp(-2 P^2 s^2), s = xi1/(2P), loses the
    2/(pi^2 s^2) tail of its second moment beyond s ~ 1/P, which lowers
    n_nf_cond below its P = 0 value by c P.  At P = 0.01 the residual is
    0.0121 against c P = 0.0124.
    """

    p: float
    n_ff_joint: float
    n_nf_joint: float
    ng_total: float
    n_ff_cond: float
    n_nf_cond: float
    ng_cond: float
    n_ff_marg: float
    n_nf_marg: float
    ng_marg: float
    decomposition_residual: float
    var_q_cond: float
    var_x_cond: float


def _shape_entropy(plane, sc):
    """(entropy, err) in bits of the unit-scale kernel shape of a plane,
    sinc(s^2)^2 / b1 or sint(s^2)^2 / a1: log2(z) - i / (z ln 2) with i the
    log-integral (2 i_ff for sinc, by parity), err that of the log-integral
    (z is exact)."""
    if plane == "far_field":
        z, i, e_i = sc.b1, 2.0 * sc.i_ff, 2.0 * sc.errors["i_ff"]
    else:
        z, i, e_i = sc.a1, sc.i_nf, sc.errors["i_nf"]
    h = math.log2(z) - i / (z * _LN2)
    return h, e_i / z / _LN2


def _entropy_with_err(spec):
    """Differential entropy in bits with a propagated error estimate."""
    if isinstance(spec, Joint):
        h_shape, err = (_shape_entropy(spec.plane, shape_constants(spec.tol))
                        if spec.model == "spdc" else (_H_UNIT_GAUSS, 0.0))
        return (_H_UNIT_GAUSS + math.log2(spec.g_width) + h_shape
                + math.log2(spec.k_width), err)
    return _pdf_integrals(spec, moments=False, entropy=True)[2]


def differential_entropy(spec):
    """H = -integral p log2 p of a joint or 1-D density, in bits."""
    h, _ = _entropy_with_err(spec)
    return h


def gaussian_entropy_closed(plane, params):
    """Entropy (bits) of the covariance-matched Gaussian joint density."""
    p = params.p
    if plane == "far_field":
        return math.log2(math.pi * math.e * math.sqrt(3.0) / p)
    if plane == "near_field":
        return math.log2(2.0 * math.pi * math.e * params.sigma
                         * math.sqrt(_A2 / _A1) * p)
    raise ValueError(f"unknown plane {plane!r}")


def _negentropy(spec, moment, moment_err, entropy=None):
    """Negentropy of ``spec`` given its second moments: the factor
    variances (s2_u, s2_v) of a joint, with the error of s2_v, or the
    variance of a 1-D form, with its error.  The moment's error enters the
    estimate through the matched Gaussian's entropy.  ``entropy`` is the
    density's (entropy, err) in bits if the caller has it already."""
    h_actual, err = entropy if entropy is not None else _entropy_with_err(spec)
    if isinstance(spec, Joint):
        s2_u, s2_v = moment
        det = s2_u * s2_v   # = var^2 - cov^2 in the original coordinates
        h_gauss = math.log2(2.0 * math.pi * math.e * math.sqrt(det))
        err += moment_err / (2.0 * s2_v * _LN2)
    else:
        h_gauss = 0.5 * math.log2(2.0 * math.pi * math.e * moment)
        err += moment_err / (2.0 * moment * _LN2)
    return NegentropyValue(value=h_gauss - h_actual, h_actual=h_actual,
                           h_gaussian=h_gauss, err_estimate=err)


def negentropy(spec):
    """Negentropy of a joint or 1-D density, with the matched Gaussian
    sharing the density's own mean and (co)variance; every integral runs at
    the density's tolerance.

    A joint's ``err_estimate`` is the log-integral shape constant's error
    through its closed-form entropy (0 for a Gaussian kernel), plus that of
    its kernel variance s2_v through the matched Gaussian's; a marginal's is
    its entropy integral's plus that of s2_v through its variance; a
    conditional's is its entropy integral's alone.  A conditional's moments
    and entropy share its kept slice values (``moments._pdf_integrals``)."""
    if isinstance(spec, Joint):
        s2_u, s2_v, err = _factor_variances(spec)
        return _negentropy(spec, (s2_u, s2_v), err)
    if spec.form == "marginal" and spec.parent is not None:
        s2_u, s2_v, err = _factor_variances(spec.parent)
        return _negentropy(spec, 0.5 * (s2_u + s2_v), 0.5 * err)
    _, var, h = _pdf_integrals(spec, entropy=True)
    return _negentropy(spec, var, 0.0, h)


def _plane_report(plane, params, tol):
    """(joint, origin-conditional, marginal negentropies, slice variance) of
    the spdc state on one plane.

    Each density is built once and each second moment integrated once: the
    marginal's variance is the mean of its joint's factor variances, and
    its cross-check reads the origin slice's weight and the table's own
    mass, so no other slice is integrated.  The slice's variance and
    entropy share its kept slice values, as in ``negentropy``.
    """
    joint = make_density(plane, "spdc", params, tol)
    cond = conditional_of(joint)
    marg = marginal_of(joint, origin=cond)
    s2_u, s2_v, err_v = _factor_variances(joint)
    _, var_cond, h_cond = _pdf_integrals(cond, entropy=True)
    return (_negentropy(joint, (s2_u, s2_v), err_v).value,
            _negentropy(cond, var_cond, 0.0, h_cond).value,
            _negentropy(marg, 0.5 * (s2_u + s2_v), 0.5 * err_v).value,
            var_cond)


def ng_report(params, tol=None):
    """All nine negentropies at one P (origin slices for the conditionals),
    with the two origin-slice variances.

    The decomposition residual vanishes linearly in P, as c P + O(P^2)
    bits with c = 2 sqrt(2 pi) / (pi^2 A2 ln 2) = 1.24009 (see NgReport).
    """
    tol = tol or QuadTolerance()
    n_ff_joint, n_ff_cond, n_ff_marg, var_q = _plane_report(
        "far_field", params, tol)
    n_nf_joint, n_nf_cond, n_nf_marg, var_x = _plane_report(
        "near_field", params, tol)

    ng_total = n_ff_joint + n_nf_joint
    ng_cond = n_ff_cond + n_nf_cond
    ng_marg = n_ff_marg + n_nf_marg
    return NgReport(p=params.p,
                    n_ff_joint=n_ff_joint, n_nf_joint=n_nf_joint,
                    ng_total=ng_total,
                    n_ff_cond=n_ff_cond, n_nf_cond=n_nf_cond, ng_cond=ng_cond,
                    n_ff_marg=n_ff_marg, n_nf_marg=n_nf_marg, ng_marg=ng_marg,
                    decomposition_residual=ng_total - ng_cond - ng_marg,
                    var_q_cond=var_q, var_x_cond=var_x)


def marginal_negentropy_limits(tol=None):
    """Limiting marginal non-Gaussianities (small P, large P).

    In the small-P limit the far-field marginal degenerates to the pure
    sinc^2(.^2) shape while the near-field one becomes Gaussian; at large P
    the roles swap, with the near-field marginal tending to the pure
    sint^2(.^2) shape.  Both limits are scale-free, so each equals the
    negentropy of its unit-scale shape density.
    """
    tol = tol or QuadTolerance()
    sc = shape_constants(tol)

    h_sinc, _ = _shape_entropy("far_field", sc)
    n_small = 0.5 * math.log2(2.0 * math.pi * math.e * sc.sinc_moment_ratio) - h_sinc

    h_sint, _ = _shape_entropy("near_field", sc)
    n_large = 0.5 * math.log2(2.0 * math.pi * math.e * sc.a2 / sc.a1) - h_sint
    return n_small, n_large


def conditional_gaussian_mismatch(plane, params, tol=None):
    """Entropy excess H[g(xi1|0)] - H[p(xi1|0)] of the covariance-matched
    Gaussian joint's origin conditional over the true origin conditional.

    This is the quantity whose small-P vanishing makes the total
    non-Gaussianity split into conditional plus marginal parts; unlike a
    negentropy, the reference here is NOT moment-matched to the slice.
    """
    tol = tol or QuadTolerance()
    joint = make_density(plane, "spdc", params, tol)
    matched = gaussian_equivalent(joint)
    h_g = differential_entropy(conditional_of(matched))
    h_p = differential_entropy(conditional_of(joint))
    return h_g - h_p

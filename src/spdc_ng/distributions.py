"""Two-photon probability densities in dimensionless coordinates.

Every density handled here factorizes in the rotated coordinates
u = (xi1 + xi2)/sqrt(2), v = (xi1 - xi2)/sqrt(2) into a Gaussian sum-factor
g(u) and a kernel difference-factor k(v):

* far field / spdc:       g(u) = exp(-u^2),        k(v) = sinc^2(P^2 v^2 / 2)
* near field / spdc:      g(u) = exp(-u^2/sigma^2), k(v) = sint^2(v^2 / (2 P^2))
* far field / gaussian:   same g,                  k(v) = exp(-alpha P^2 v^2)
* near field / gaussian:  same g,                  k(v) = exp(-v^2 / (alpha P^2))

which in the original coordinates reproduces the joint densities
exp(-(xi1+xi2)^2/2) * sinc^2(P^2 (xi1-xi2)^2/4) and so on.  The rotation is
orthogonal (unit Jacobian), so normalization and moments reduce to products
of 1-D integrals over u and v.

A ``Joint`` holds one such product; its marginals and conditionals are
``Density1D`` objects built from it by ``marginal_of`` and
``conditional_of``.  Both types are frozen.

Marginals require a genuine convolution, m(xi2) = norm * sqrt(2) *
integral g(w) k(w - sqrt(2) xi2) dw, and sit inside entropy integrands, so
each is tabulated once, at its full reach, when ``marginal_of`` builds it.
The kernel is sampled on a fine step, fine enough that the Gaussian spectrum
kills aliasing from its oscillation, but enters the FFT convolution only
through the moments of cells about g_width/128 wide.  The table has that
coarse step and is read through a uniform-grid not-a-knot cubic spline,
which keeps the table's values and slopes alone.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .quadrature import _CORE_PHASE, Domain, QuadTolerance, integrate_1d
from .specfun import _A1, _A2, _B1, sinc, sint

__all__ = [
    "Params",
    "Joint",
    "Density1D",
    "make_density",
    "marginal_of",
    "conditional_of",
    "gaussian_equivalent",
    "DegenerateSliceError",
    "MarginalCrossCheckError",
]

PLANES = ("far_field", "near_field")
MODELS = ("spdc", "gaussian")


class DegenerateSliceError(ValueError):
    """Conditioning on a value where the marginal vanishes."""


class MarginalCrossCheckError(RuntimeError):
    """A marginal table disagrees with its origin slice or its own mass."""


def _check_alpha(alpha):
    """Raise ValueError unless a Gaussian model's ``alpha`` is positive and
    finite."""
    if alpha is None or not 0 < alpha < math.inf:
        raise ValueError("gaussian model requires a positive finite alpha")


@dataclass(frozen=True)
class Params:
    """Dimensionless geometry: P = sqrt(L/(2 z0)), sigma^2 = 1 + (z/z0)^2."""

    p: float
    sigma: float = 1.0

    def __post_init__(self):
        if not (0 < self.p < math.inf):
            raise ValueError("p must be positive and finite")
        if not (1 <= self.sigma < math.inf):
            raise ValueError("sigma must be >= 1 and finite")

    @classmethod
    def from_physical(cls, crystal_length, pump_wavenumber, beam_waist, plane_z=0.0):
        """The geometry of a crystal of length L, a pump of wavenumber k_p
        and waist w0, and a detection plane at z (SI units), with
        diffraction length z0 = k_p w0^2 / 2."""
        z0 = pump_wavenumber * beam_waist ** 2 / 2.0
        p = math.sqrt(crystal_length / (2.0 * z0))
        sigma = math.sqrt(1.0 + (plane_z / z0) ** 2)
        return cls(p=p, sigma=sigma)


@dataclass(frozen=True)
class Joint:
    """A normalized joint density norm * g(u) * kernel(v) on one plane.

    ``kernel`` is the difference factor k(v) = shape(c v^2), integrated over
    ``kernel_domain``; ``k_width`` is its central feature width and ``zk``
    its full-line integral: b1/sqrt(c) (sinc), a1/sqrt(c) (sint) or
    sqrt(pi/c) (Gaussian).  The Gaussian sum factor g, its integral zg and
    the normalization follow from ``g_width``, the 1/e width of g.
    """

    form: ClassVar[str] = "joint"

    plane: str
    model: str
    params: Params
    tol: QuadTolerance
    kernel: Callable
    kernel_domain: Domain
    g_width: float
    k_width: float
    zk: float

    def g(self, u):
        """The sum factor exp(-(u / g_width)^2), on the full line, in a
        buffer of its own."""
        y = np.asarray(u, float) / self.g_width
        y **= 2    # a 0-d u gives a numpy scalar, squared by pow as before
        y = np.negative(y, out=np.asarray(y))
        return np.exp(y, out=y)

    @property
    def zg(self):
        return math.sqrt(math.pi) * self.g_width

    @property
    def norm(self):
        return 1.0 / (self.zg * self.zk)

    def __call__(self, x1, x2):
        x1 = np.asarray(x1, float)
        x2 = np.asarray(x2, float)
        u = (x1 + x2) / math.sqrt(2.0)
        v = (x1 - x2) / math.sqrt(2.0)
        out = np.asarray(self.norm * self.g(u) * self.kernel(v), float)
        return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class Density1D:
    """A normalized 1-D density: a marginal or a conditional of ``parent``.

    ``pdf`` maps an array of points (any shape, 0-d included) or a float
    to the density there; a conditional's keeps its values at the node
    arrays of every pass over it (see ``conditional_of``).  ``domain``
    suits integrals over ``pdf``: it carries the centre, the oscillation
    hint, the smooth-bulk reach beyond which the tail is pure kernel, and
    whether pdf is even about the centre.  ``seeds`` are known feature
    locations; ``fixed`` is a conditional's conditioning value and
    ``weight`` its slice integral, the joint over the line x2 = fixed
    divided by the joint's norm, with its error.  ``entropy_tail`` is a
    table marginal's ``(x_from, F)``: beyond |x| = x_from, F is the
    antiderivative of pdf ln pdf that vanishes at infinity.
    """

    form: str
    pdf: Callable
    domain: Domain
    seeds: tuple = ()
    parent: Joint | None = None
    fixed: float | None = None
    weight: tuple | None = None
    entropy_tail: tuple | None = None

    def __post_init__(self):
        if self.form not in ("marginal", "conditional_at"):
            raise ValueError(f"unknown 1-D form {self.form!r}")

    @property
    def tol(self):
        """The parent's tolerance, at which every integral over pdf runs."""
        return self.parent.tol if self.parent is not None else QuadTolerance()

    def __call__(self, x):
        out = np.asarray(self.pdf(np.asarray(x, float)), float)
        return float(out) if out.ndim == 0 else out


def _checked_scale(c, p, plane, name):
    """The kernel scale ``c``, checked positive and finite: P^2 overflows
    or underflows it long before P does."""
    if not 0 < c < math.inf:
        raise ValueError(f"p = {p!r} is out of range: the "
                         f"{plane.replace('_', ' ')} kernel's {name} must be "
                         "positive and finite")
    return c


def make_density(plane, model, params, tol=None, *, alpha=None):
    """The normalized joint density of ``model`` on ``plane``; its
    normalization is closed-form, so nothing is integrated.  ``tol`` is the
    tolerance of every integral over the joint and the densities built from
    it."""
    if plane not in PLANES:
        raise ValueError(f"unknown plane {plane!r}")
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}")
    if model == "gaussian":
        _check_alpha(alpha)
    elif alpha is not None:
        raise ValueError("alpha applies to the gaussian model only")
    tol = tol or QuadTolerance()
    p = float(params.p)    # a numpy P would warn where P^2 overflows
    g_width = 1.0 if plane == "far_field" else params.sigma

    if model == "spdc":
        if plane == "far_field":
            c = _checked_scale(0.5 * p * p, p, plane, "phase scale P^2/2")
            shape, z_shape = sinc, _B1
            k_width = math.sqrt(2.0) / p
        else:
            two_p2 = 2.0 * p * p
            c = _checked_scale(1.0 / two_p2 if two_p2 else math.inf, p, plane,
                               "phase scale 1/(2 P^2)")
            shape, z_shape = sint, _A1
            k_width = math.sqrt(2.0) * p

        def kernel(v):
            y = np.asarray(v, float) ** 2
            y *= c
            k = shape(y)
            k **= 2
            return k

        domain = Domain.full_line(osc_scale=c, even=True)
        zk = z_shape / math.sqrt(c)
    else:
        ap2 = float(alpha) * p * p
        if plane == "far_field":
            c = _checked_scale(ap2, p, plane, "scale alpha P^2")
        else:
            c = _checked_scale(1.0 / ap2 if ap2 else math.inf, p, plane,
                               "scale 1/(alpha P^2)")

        def kernel(v):
            return np.exp(-c * np.asarray(v, float) ** 2)

        k_width = 1.0 / math.sqrt(c)
        domain = Domain.full_line()
        zk = math.sqrt(math.pi / c)

    return Joint(plane, model, params, tol, kernel, domain, g_width, k_width,
                 zk)


def _next_fast_len(n):
    """The smallest 2^a 3^b 5^c >= n, a fast length for a real FFT."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _convolve_valid(a, b):
    """The "valid" part of the linear convolution of ``a`` with a shorter ``b``."""
    n = _next_fast_len(len(a) + len(b) - 1)
    spectrum = np.fft.rfft(a, n)
    spectrum *= np.fft.rfft(b, n)
    return np.fft.irfft(spectrum, n)[len(b) - 1:len(a)]


# r = sqrt(3) - 2 is the root inside the unit circle of r^2 + 4r + 1, so
# r^|k| / sqrt(12) inverts the (1, 4, 1) Toeplitz operator on the integers;
# past |k| = 28 its terms fall below 1e-16 of the centre.
_SPLINE_R = math.sqrt(3.0) - 2.0
_SPLINE_INVERSE = _SPLINE_R ** np.abs(np.arange(-28.0, 29.0)) / math.sqrt(12.0)

# A marginal table's cells are g_width / _CELLS_PER_G_WIDTH wide, and g is
# expanded across a cell to order _TAYLOR_ORDER.  The first term left out is
# at most (1/256)^7 max|H_7(t) exp(-t^2)| / 7! = 1.1e-18 of the kernel mass.
_CELLS_PER_G_WIDTH = 128
_TAYLOR_ORDER = 6


class _UniformSpline:
    """Not-a-knot cubic spline through y at the N >= 4 nodes
    z_i = step (i0 + i), i = 0, ..., N - 1; the same interpolant as
    ``CubicSpline(z, y)``, to roundoff.

    The slopes s solve s[i-1] + 4 s[i] + s[i+1] = 3 (y[i+1] - y[i-1]) / h
    between the not-a-knot end rows.  Convolving the right-hand side with
    the operator's inverse satisfies the interior rows; the two decaying
    modes r^i and r^(N-1-i) then fit the end rows by a 2x2 solve.

    The spline keeps y and s alone.  A lookup inside [z_0, z_(N-1)] finds
    its interval by index arithmetic and forms that interval's node, its
    slope m = (y[i+1] - y[i]) / h and its cubic coefficients there, with
    the operations a coefficient table built from y and s would have used,
    so every value has the bits of such a table.
    """

    def __init__(self, step, i0, y):
        n = len(y)
        self._step, self._i0, self._y = step, i0, y
        self._z0 = step * i0
        h = (step * (i0 + n - 1) - self._z0) / (n - 1)
        self._h, self._inv_h = h, 1.0 / h
        m = np.diff(y)
        m /= h
        # The right-hand side starts at node 1 and the inverse at k = -28.
        rhs = m[:-1] + m[1:]
        rhs *= 3.0
        m0, m1, m_2, m_1 = m[0], m[1], m[-2], m[-1]    # all the end rows need
        del m
        s = np.convolve(rhs, _SPLINE_INVERSE)[27:n + 27]
        del rhs
        r, k = _SPLINE_R, min(n, 64)   # |r|^64 < 1e-36: the modes' reach
        mode = r ** np.arange(k)
        far = r ** (n - 1) + 2.0 * r ** (n - 2)   # the other mode's share of an end row
        near = 1.0 + 2.0 * r
        b0 = 0.5 * (5.0 * m0 + m1) - (s[0] + 2.0 * s[1])
        b1 = 0.5 * (m_2 + 5.0 * m_1) - (2.0 * s[-2] + s[-1])
        det = near * near - far * far
        s[:k] += (b0 * near - b1 * far) / det * mode
        s[n - k:] += (b1 * near - b0 * far) / det * mode[::-1]
        self._s = s
        # Exact for a C^1 cubic: the trapezoid sum plus h^2 (s0 - sN) / 12.
        self.integral = h * (y.sum() - 0.5 * (y[0] + y[-1])) \
            + h * h * (s[0] - s[-1]) / 12.0

    def __call__(self, x):
        y, s, h = self._y, self._s, self._h
        i = np.clip(((x - self._z0) * self._inv_h).astype(np.intp), 0,
                    len(y) - 2)
        t = x - self._step * (i + self._i0)
        y0, s0, s1 = y[i], s[i], s[i + 1]
        m = y[i + 1] - y0
        m /= h
        c3 = s0 + s1 - 2.0 * m
        c3 /= h
        c2 = m - s0
        c2 /= h
        c2 -= c3
        c3 /= h
        return y0 + t * (s0 + t * (c2 + t * c3))


class _MarginalTable:
    """The convolution C(z) = integral g(w) k(w - z) dw of a marginal,
    tabulated once and read through a cubic spline.

    The marginal is m(xi2) = norm*sqrt(2)*C(sqrt(2)*xi2).  C is the Riemann
    sum h * sum_i k_eff(v_i) g(z - v_i) on a fine step h that resolves the
    Gaussian, the kernel core and the kernel phase.  The sum is not formed
    node by node.  The fine nodes are grouped into cells of an odd number q
    of nodes, H = q h about g_width / _CELLS_PER_G_WIDTH wide, and each cell
    enters through its moments M_n = h * sum k_eff(c + d) d^n about its
    centre c, n <= _TAYLOR_ORDER.  Expanding g(z - c - d) in d turns the sum
    into sum_n of discrete convolutions of M_n with (-1)^n g^(n) / n!, all
    on the coarse output grid z = j H, where C is splined
    (``_UniformSpline``).  At q = 1 this is the fine sum itself.

    Two asymptotic devices keep the table bounded.  The kernel's deep
    oscillatory tail (phase beyond ~300 rad, |v| > v_c) is replaced by its
    local average c_env / (osc * v^2)^2, exact to O(1/phase^2); cells wholly
    beyond v_c take their moments of that average from a min(q, 8)-point
    Gauss-Legendre rule instead of their q nodes.  The table is built once,
    at its full reach 1.05 ``z_cap``; lookups past it fall back to the
    average at z, Zg * c_env / (osc * z^2)^2, which leaves out the Gaussian
    smoothing: the convolution is larger by the factor
    1 + 10 s^2/z^2 + 105 s^4/z^4 + ..., s^2 = g_width^2/2, so the fallback
    sits about 2% below the spline at the table edge.  The regions they
    serve carry ~1e-4 of the probability mass.  Past the reach the marginal
    is exactly A / xi2^4, which ``entropy_tail`` (the antiderivative of
    m ln m) and ``mass`` take in closed form.  The table is immutable, so
    lookups are thread-safe.
    """

    _PHASE_SMOOTH = 300.0

    def __init__(self, joint, z_cap):
        self.joint = joint
        self.z_cap = z_cap
        # Averaged squared-kernel envelope: sin^2 -> 1/2 for the sinc shape,
        # (2/pi) cos -> 2/pi^2 for the sint shape, each over phase^2.
        self.c_env = 0.5 if joint.plane == "far_field" else 2.0 / math.pi ** 2
        self.osc = joint.kernel_domain.osc_scale
        self.v_c = math.sqrt(self._PHASE_SMOOTH / self.osc)
        self._build(1.05 * z_cap)

    def _k_avg(self, v):
        """c_env / (osc v^2)^2, in a buffer of its own."""
        y = np.square(v)
        y *= self.osc
        y *= y
        return np.divide(self.c_env, y, out=y)

    def _k_eff(self, v):
        """The kernel where |v| <= v_c and the average k_avg beyond, at v
        ascending in C order (any shape)."""
        flat = v.reshape(-1)
        lo = np.searchsorted(flat, -self.v_c, "left")
        hi = np.searchsorted(flat, self.v_c, "right")
        out = np.empty_like(flat)
        out[lo:hi] = self.joint.kernel(flat[lo:hi])
        out[:lo] = self._k_avg(flat[:lo])
        out[hi:] = self._k_avg(flat[hi:])
        return out.reshape(v.shape)

    def _cell_moments(self, centres, h, q, orders):
        """M_n = h * sum k_eff(c + d) d^n over the q fine nodes of each of
        the ascending cells, n < orders; cells wholly beyond v_c integrate
        the average k_avg by Gauss-Legendre instead.  At q = 1 every d is 0
        and the cells are the fine nodes, so M_0 = h k_eff(c)."""
        if q == 1:
            moments = self._k_eff(centres)
            moments *= h
            return moments[None]
        # A cell is near while its innermost node c -+ half lies within v_c.
        half = 0.5 * (q - 1) * h
        lo = np.searchsorted(centres + half, -self.v_c, "left")
        hi = np.searchsorted(centres - half, self.v_c, "right")

        def sums(k, cells, nodes, weights):
            kw = k(cells[:, None] + nodes)
            kw *= weights
            return (kw @ np.vander(nodes, orders, True)).T

        moments = np.empty((orders, len(centres)))
        moments[:, lo:hi] = sums(self._k_eff, centres[lo:hi],
                                 h * (np.arange(q) - 0.5 * (q - 1)),
                                 np.full(q, h))
        x, wts = np.polynomial.legendre.leggauss(min(q, 8))
        far = sums(self._k_avg, np.concatenate([centres[:lo], centres[hi:]]),
                   0.5 * q * h * x, 0.5 * q * h * wts)
        moments[:, :lo], moments[:, hi:] = far[:, :lo], far[:, lo:]
        return moments

    def _build(self, zmax):
        j = self.joint
        gw = j.g_width
        wg = 7.0 * gw
        vmax = zmax + wg
        f_max = 2.0 * self.osc * min(vmax, self.v_c)   # phase slope of osc v^2
        h = math.pi / (18.0 * f_max + 33.0 / gw + 33.0 / j.k_width + 18.0)
        q = 2 * int(gw / (2.0 * _CELLS_PER_G_WIDTH * h)) + 1
        step = q * h
        m = int(math.ceil(wg / step))
        n = int(math.ceil(zmax / step)) + 2
        orders = _TAYLOR_ORDER + 1 if q > 1 else 1   # at q = 1 every d is 0
        moments = self._cell_moments(step * np.arange(-(m + n), m + n + 1),
                                     h, q, orders)
        # Taps (-1)^n g^(n)(w) / n! = H_n(t) g(w) / (g_width^n n!), where
        # t = w / g_width and H_n are the physicists' Hermite polynomials.
        w = step * np.arange(-m, m + 1)
        t, gv = w / gw, j.g(w)
        herm = (np.ones_like(t), 2.0 * t)
        conv = _convolve_valid(moments[0], gv)   # length 2n+1, z = j*step
        for k in range(1, orders):
            conv += _convolve_valid(moments[k], herm[1] * gv
                                    / (gw ** k * math.factorial(k)))
            herm = (herm[1], 2.0 * t * herm[1] - 2.0 * k * herm[0])
        del moments
        self._spline = _UniformSpline(step, -n, conv)
        self._zmax = n * step

    def entropy_tail(self):
        """(x_from, F) of the marginal m(xi2) = norm sqrt(2) C(sqrt(2) xi2):
        beyond |xi2| = x_from = _zmax / sqrt(2), m is the fallback
        A / xi2^4, and F(x) = (x m / 3)(4/3 - ln m) is the antiderivative of
        m ln m there that vanishes at infinity."""
        rt2 = math.sqrt(2.0)
        a = self.joint.norm * rt2 * self.joint.zg * self.c_env \
            / (4.0 * self.osc * self.osc)

        def antiderivative(x):
            m = a / np.square(np.square(x))
            return x * m / 3.0 * (4.0 / 3.0 - np.log(m))

        return self._zmax / rt2, antiderivative

    def mass(self):
        """norm * integral C dz, 1 for a correct table: the spline's over
        the reach, the fallback's 2 Zg c_env / (3 osc^2 z_max^3) beyond."""
        tail = 2.0 * self.joint.zg * self.c_env \
            / (3.0 * self.osc ** 2 * self._zmax ** 3)
        return float(self.joint.norm * (self._spline.integral + tail))

    def c_of(self, z):
        """C at ``z`` (any shape, 0-d included): the spline within the
        table's reach, evaluated only there, and the average beyond it."""
        z = np.asarray(z, float)
        inside = np.abs(z) <= self._zmax
        out = np.empty_like(z)
        out[inside] = self._spline(z[inside])
        out[~inside] = self.joint.zg * self._k_avg(z[~inside])
        return np.clip(out, 0.0, None, out=out)


def marginal_of(joint, *, origin=None):
    """The 1-D marginal p(xi2) of a joint density, tabulated once on a
    convolution grid and cross-checked twice: at xi2 = 0 against the weight
    of the origin slice, integrated at the joint's tolerance, and over the
    whole line against its closed-form mass 1 (``_MarginalTable.mass``).

    ``origin`` is the joint's origin slice ``conditional_of(joint)`` if the
    caller has it; otherwise the cross-check builds it.
    """
    if not isinstance(joint, Joint):
        raise ValueError("marginal_of expects a joint density")
    rt2 = math.sqrt(2.0)

    if joint.model == "gaussian":
        # Gaussian marginals of a Gaussian joint are exactly normal; the
        # convolution table would be pointless (and the algebraic-map
        # integration path probes coordinates far beyond any finite table).
        var_u = 0.5 * joint.g_width ** 2
        var_v = 0.5 * joint.k_width ** 2
        var = 0.5 * (var_u + var_v)

        def pdf(x):
            x = np.asarray(x, float)
            return np.exp(-x * x / (2.0 * var)) / math.sqrt(2.0 * math.pi * var)

        return Density1D("marginal", pdf, Domain.full_line(), (0.0,),
                         parent=joint)

    osc = joint.kernel_domain.osc_scale * 2.0   # tail m ~ k(sqrt(2) xi2)
    if joint.plane == "far_field":
        var_v = 1.5 / joint.params.p ** 2
    else:
        var_v = 2.0 * joint.params.p ** 2 * _A2 / _A1
    var = 0.5 * (0.5 * joint.g_width ** 2 + var_v)
    extent = 11.0 * math.sqrt(var)
    z_cap = math.sqrt(2.0) * 2.0 * max(extent, math.sqrt(_CORE_PHASE / osc))
    table = _MarginalTable(joint, z_cap)

    def pdf(x):
        return joint.norm * rt2 * table.c_of(rt2 * np.asarray(x, float))

    # A grid shifted by a cell shows at xi2 = 0 alone, a wrong tail envelope
    # mostly in the mass; either would corrupt every downstream entropy.
    origin = origin or conditional_of(joint)
    direct, derr = (joint.norm * w for w in origin.weight)
    at, mass = float(pdf(origin.fixed)), table.mass()
    if abs(at - direct) > 1e-6 * max(direct, 1e-12) + 10.0 * derr + 1e-12:
        leg = f"origin weight {direct!r}, table {at!r}"
    elif abs(mass - 1.0) > 1e-6:
        leg = f"table mass {mass!r}, closed form 1"
    else:
        return Density1D("marginal", pdf, Domain.full_line(
            osc_scale=osc, core_extent=extent, even=True), (0.0,),
            parent=joint, entropy_tail=table.entropy_tail())
    raise MarginalCrossCheckError(
        f"marginal table disagrees with direct quadrature: {leg}")


def conditional_of(joint, fixed_value=0.0):
    """The normalized slice p(xi1 | xi2 = fixed_value) of a joint density,
    its weight integrated at the joint's tolerance.

    Its domain is centred on the kernel's peak and phase, xi1 = fixed_value,
    at any slice value; only the origin slice is even.

    The slice keeps its unnormalized values, read-only, under the bytes of
    every 1-D float64 array it is evaluated on, by the weight integral or
    later through ``pdf``; an array seen before costs no kernel evaluation.
    Integrals over the slice's domain at one tolerance share most node
    arrays (see the quadrature module), and every integral over the slice
    runs at the joint's, so its weight, moments and entropy read one
    another's values.  Any other input (0-d, a float, 2-D) is evaluated
    afresh and not kept.  ``pdf`` divides by the weight, so every value has
    the same bits either way.  A key always maps to the same bits and dict
    reads and writes are atomic, so threads may share the pdf.
    """
    if not isinstance(joint, Joint):
        raise ValueError("conditional_of expects a joint density")
    c = float(fixed_value)
    if not math.isfinite(c):
        raise ValueError(f"slice value {fixed_value!r} must be finite")
    # The kernel phase about its peak, (P^2/4)(xi1 - c)^2 in the far field.
    osc = joint.kernel_domain.osc_scale / 2.0 if joint.model == "spdc" else None
    rt2 = math.sqrt(2.0)

    def slice_unnorm(x1):
        x1 = np.asarray(x1, float)
        u = x1 + c
        u /= rt2
        v = x1 - c
        v /= rt2
        out = joint.g(u)
        out *= joint.kernel(v)
        return out

    # Seed the whole Gaussian bulk: at small P the oscillatory core spans
    # thousands of units and a width-one bump between panel nodes would be
    # invisible to the adaptive pass.
    gw = joint.g_width * math.sqrt(2.0)
    seeds = tuple(np.concatenate([-c + gw * np.linspace(-10.0, 10.0, 21), [c]]))
    dom = Domain.full_line(osc_scale=osc, even=c == 0.0, centre=c)
    stored = {}    # slice values of 1-D node arrays, under their bytes

    def kept(x):
        if not (isinstance(x, np.ndarray) and x.ndim == 1
                and x.dtype == np.float64):
            return slice_unnorm(x)
        key = x.tobytes()
        if key not in stored:
            y = slice_unnorm(x)
            y.flags.writeable = False
            stored[key] = y
        return stored[key]

    s, serr = integrate_1d(kept, dom, joint.tol, seed_points=seeds)
    if not (s > 0) or not np.isfinite(s) or s <= 10.0 * serr:
        raise DegenerateSliceError(
            f"marginal vanishes (slice weight {s!r}) at {fixed_value!r}")

    def pdf(x):
        return kept(x) / s

    return Density1D("conditional_at", pdf, dom, seeds, parent=joint, fixed=c,
                     weight=(s, serr))


def gaussian_equivalent(joint):
    """The Gaussian joint density sharing the mean vector and covariance.

    The sum-factor is common to both models, so matching reduces to matching
    the difference-factor variance: alpha = 1/3 in the far field (from the
    sinc-shape second-moment ratio 3/4) and alpha = 4*A2/A1 in the near
    field, independent of P in both cases.  A Gaussian joint is its own
    equivalent; the equivalent keeps the joint's tolerance.
    """
    if not isinstance(joint, Joint):
        raise ValueError("gaussian_equivalent expects a joint density")
    if joint.model == "gaussian":
        return joint
    if joint.plane == "far_field":
        alpha = 1.0 / 3.0
    else:
        alpha = 4.0 * _A2 / _A1
    return make_density(joint.plane, "gaussian", joint.params, joint.tol,
                        alpha=alpha)

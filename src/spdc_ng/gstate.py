"""Gaussian-state non-Gaussianity of the two-photon state.

The covariance-matched two-mode Gaussian state is assembled from the
closed-form position and momentum variances (no x-q cross correlations
under perfect phase matching).  Its symplectic spectrum, purity, and Von
Neumann entropy follow from the standard reduction; because the input
state is pure, the relative-entropy non-Gaussianity delta_b equals the
entropy of the matched Gaussian state.

Convention: the vacuum covariance matrix is diag(1/2, ...) and the vacuum
symplectic eigenvalue is 1/2.  Entropies are in nats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .moments import covariance_closed

__all__ = [
    "TwoModeCov",
    "SymplecticSpectrum",
    "two_mode_cov",
    "symplectic_spectrum",
    "symplectic_spectrum_numeric",
    "purity",
    "von_neumann_entropy",
    "delta_b",
]

# Symplectic form for the quadrature ordering (x1, q1, x2, q2).
_OMEGA = np.array([[0.0, 1.0, 0.0, 0.0],
                   [-1.0, 0.0, 0.0, 0.0],
                   [0.0, 0.0, 0.0, 1.0],
                   [0.0, 0.0, -1.0, 0.0]])


@dataclass(frozen=True)
class TwoModeCov:
    """4x4 covariance matrix over (x1, q1, x2, q2) built from four scalars:
    diagonal blocks diag(a, b), off-diagonal blocks diag(c, d)."""

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        if not (self.a > 0 and self.b > 0):
            raise ValueError("diagonal variances must be positive")
        if abs(self.c) >= self.a or abs(self.d) >= self.b:
            raise ValueError("covariance matrix is not positive definite")

    @property
    def matrix(self):
        a, b, c, d = self.a, self.b, self.c, self.d
        return np.array([[a, 0.0, c, 0.0],
                         [0.0, b, 0.0, d],
                         [c, 0.0, a, 0.0],
                         [0.0, d, 0.0, b]])

    @property
    def det(self):
        return (self.a ** 2 - self.c ** 2) * (self.b ** 2 - self.d ** 2)


@dataclass(frozen=True)
class SymplecticSpectrum:
    """Symplectic eigenvalues, vacuum = 1/2."""

    nu_plus: float
    nu_minus: float

    def __post_init__(self):
        if min(self.nu_plus, self.nu_minus) < 0.5 - 1e-9:
            raise ValueError("symplectic eigenvalue below the vacuum level")


def two_mode_cov(params):
    """Covariance matrix of the two-photon state at the given parameters.

    Entries are the closed-form joint covariances: a, c the position ones
    (near field), b, d the momentum ones (far field).
    """
    x = covariance_closed("near_field", params)
    q = covariance_closed("far_field", params)
    return TwoModeCov(a=x.var1, c=x.cov, b=q.var1, d=q.cov)


def symplectic_spectrum(v: TwoModeCov):
    """Symplectic spectrum by the exact +/- block reduction.

    The x-q decoupled structure diagonalizes into sum and difference modes
    with eigenvalues sqrt((a+c)(b+d)) and sqrt((a-c)(b-d)).
    """
    nu_p = math.sqrt((v.a + v.c) * (v.b + v.d))
    nu_m = math.sqrt((v.a - v.c) * (v.b - v.d))
    return SymplecticSpectrum(nu_plus=nu_p, nu_minus=nu_m)


def symplectic_spectrum_numeric(matrix):
    """Symplectic eigenvalue moduli of an arbitrary 4x4 covariance matrix
    via the dense eigenproblem of i*Omega*V (test oracle for the analytic
    reduction)."""
    m = np.asarray(matrix, dtype=float)
    if m.shape != (4, 4) or not np.allclose(m, m.T, atol=1e-12):
        raise ValueError("expected a symmetric 4x4 matrix")
    if np.linalg.eigvalsh(m).min() <= 0:
        raise ValueError("covariance matrix is not positive definite")
    eig = np.linalg.eigvals(1j * _OMEGA @ m)
    nus = np.sort(np.abs(eig))
    # Eigenvalues come in +/- pairs; take one representative of each.
    return float(nus[2]), float(nus[0])


def purity(spectrum: SymplecticSpectrum):
    """mu = product of 1/(2 nu_i)."""
    return 1.0 / (4.0 * spectrum.nu_plus * spectrum.nu_minus)


def _f(nu):
    if nu <= 0.5 + 1e-15:
        return 0.0
    return (nu + 0.5) * math.log(nu + 0.5) - (nu - 0.5) * math.log(nu - 0.5)


def von_neumann_entropy(spectrum: SymplecticSpectrum):
    """Entropy of the Gaussian state with the given spectrum, in nats."""
    return _f(spectrum.nu_plus) + _f(spectrum.nu_minus)


def delta_b(params):
    """Relative-entropy non-Gaussianity of the (pure) two-photon state, in
    nats.

    Equals the Von Neumann entropy of its covariance-matched Gaussian
    state; independent of P because the symplectic spectrum is.
    """
    return von_neumann_entropy(symplectic_spectrum(two_mode_cov(params)))

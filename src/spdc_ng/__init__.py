"""Spatial two-photon probability densities of SPDC with exact
phase-matching kernels, entanglement criteria, and non-Gaussianity
measures."""

from .quadrature import Domain, QuadratureError, QuadTolerance, integrate_1d
from .specfun import (ShapeConstants, matching_alpha, shape_constants, sinc,
                      sine_integral, sint)
from .distributions import (DegenerateSliceError, Density1D, Joint,
                            MarginalCrossCheckError, Params, conditional_of,
                            gaussian_equivalent, make_density, marginal_of)
from .moments import (CondVariances, Cov2, EprResult, conditional_variances,
                      covariance_closed, covariance_numeric, epr_product,
                      find_epr_crossings, gaussian_conditional_variances,
                      gaussian_epr_product, mancini_boundary, mancini_product,
                      moments_1d, schmidt_number)
from .entropy import (NegentropyValue, NgReport, conditional_gaussian_mismatch,
                      differential_entropy, gaussian_entropy_closed,
                      marginal_negentropy_limits, negentropy, ng_report)
from .gstate import (SymplecticSpectrum, TwoModeCov, delta_b, purity,
                     symplectic_spectrum, symplectic_spectrum_numeric,
                     two_mode_cov, von_neumann_entropy)

__version__ = "0.1.0"

__all__ = [
    "Domain", "QuadratureError", "QuadTolerance", "integrate_1d",
    "ShapeConstants", "matching_alpha", "shape_constants", "sinc",
    "sine_integral", "sint",
    "DegenerateSliceError", "Density1D", "Joint", "MarginalCrossCheckError",
    "Params",
    "conditional_of", "gaussian_equivalent", "make_density", "marginal_of",
    "CondVariances", "Cov2", "EprResult", "conditional_variances",
    "covariance_closed", "covariance_numeric", "epr_product",
    "find_epr_crossings", "gaussian_conditional_variances",
    "gaussian_epr_product", "mancini_boundary", "mancini_product",
    "moments_1d", "schmidt_number",
    "NegentropyValue", "NgReport", "conditional_gaussian_mismatch",
    "differential_entropy", "gaussian_entropy_closed",
    "marginal_negentropy_limits", "negentropy", "ng_report",
    "SymplecticSpectrum", "TwoModeCov", "delta_b", "purity",
    "symplectic_spectrum", "symplectic_spectrum_numeric", "two_mode_cov",
    "von_neumann_entropy",
    "__version__",
]

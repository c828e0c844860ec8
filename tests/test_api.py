"""Guards on the public signatures: one tolerance per computation, and a
quadrature surface of two tolerances and two domain kinds."""

import dataclasses
import inspect

import pytest

import spdc_ng
from spdc_ng import Domain, QuadTolerance, entropy, moments

# Functions of a density take no tolerance: they read the density's own.
DENSITY_FUNCTIONS = {"marginal_of", "conditional_of", "gaussian_equivalent",
                     "covariance_numeric", "moments_1d",
                     "differential_entropy", "negentropy"}
PRIVATE_DENSITY_FUNCTIONS = (moments._factor_variances, moments._pdf_integrals,
                             entropy._entropy_with_err, entropy._negentropy)
# Closed forms in the exact constants A1, A2 and b1 take none either.
CLOSED_FORMS = {"covariance_closed", "two_mode_cov", "delta_b",
                "mancini_product", "mancini_boundary",
                "gaussian_entropy_closed", "gaussian_equivalent"}
# Integration starts here, so these set the tolerance.
TOLERANCE_SETTERS = {"make_density", "conditional_variances", "epr_product",
                     "find_epr_crossings", "ng_report",
                     "conditional_gaussian_mismatch", "shape_constants",
                     "marginal_negentropy_limits"}


def _public_functions():
    return {name: getattr(spdc_ng, name) for name in spdc_ng.__all__
            if inspect.isfunction(getattr(spdc_ng, name))}


def _parameters(fn):
    return inspect.signature(fn).parameters


def test_density_functions_are_the_known_ones():
    # A function of a density is one whose first parameter is one.
    found = {name for name, fn in _public_functions().items()
             if next(iter(_parameters(fn)), None) in ("joint", "spec")}
    assert found == DENSITY_FUNCTIONS


@pytest.mark.parametrize("fn", [
    *(getattr(spdc_ng, name) for name in sorted(DENSITY_FUNCTIONS
                                                | CLOSED_FORMS)),
    *PRIVATE_DENSITY_FUNCTIONS], ids=lambda fn: fn.__name__)
def test_takes_no_tolerance(fn):
    kinds = {p.kind for p in _parameters(fn).values()}
    assert "tol" not in _parameters(fn)
    assert inspect.Parameter.VAR_KEYWORD not in kinds


@pytest.mark.parametrize("name", sorted(TOLERANCE_SETTERS))
def test_params_level_functions_keep_their_tolerance(name):
    assert "tol" in _parameters(getattr(spdc_ng, name))


def test_marginal_origin_is_keyword_only():
    origin = _parameters(spdc_ng.marginal_of)["origin"]
    assert origin.kind is inspect.Parameter.KEYWORD_ONLY


def test_tolerance_is_two_numbers():
    # The panel budget is a module constant, not a tolerance knob.
    assert [f.name for f in dataclasses.fields(QuadTolerance)] == ["abs_tol",
                                                                  "rel_tol"]


def test_domain_factories_are_finite_and_full_line():
    factories = {name for name, attr in vars(Domain).items()
                 if isinstance(attr, staticmethod)}
    assert factories == {"finite", "full_line"}

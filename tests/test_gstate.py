"""Unit tests for the two-mode Gaussian-state layer."""

import math

import numpy as np
import pytest

from spdc_ng.distributions import Params
from spdc_ng.gstate import (SymplecticSpectrum, TwoModeCov, delta_b, purity,
                            symplectic_spectrum, symplectic_spectrum_numeric,
                            two_mode_cov, von_neumann_entropy)
from spdc_ng.quadrature import QuadTolerance
from spdc_ng.specfun import shape_constants

TOL = QuadTolerance()


class TestTwoModeCov:
    def test_entries_closed_form(self):
        sc = shape_constants(TOL)
        p = 1.0
        v = two_mode_cov(Params(p=p))
        t2 = 4.0 * sc.a2 / sc.a1 * p * p
        assert v.a == pytest.approx(0.25 * (1.0 + t2), abs=1e-12)
        assert v.c == pytest.approx(0.25 * (1.0 - t2), abs=1e-12)
        assert v.b == pytest.approx(1.0)
        assert v.d == pytest.approx(-0.5)

    def test_det_is_p_invariant(self):
        sc = shape_constants(TOL)
        ref = 3.0 * sc.a2 / (4.0 * sc.a1)
        for p in (0.1, 1.0, 5.0):
            assert two_mode_cov(Params(p=p)).det == pytest.approx(
                ref, abs=1e-9)

    def test_matrix_layout(self):
        m = TwoModeCov(a=2.0, b=3.0, c=1.0, d=-2.0).matrix
        assert m[0, 2] == 1.0 and m[1, 3] == -2.0 and m[0, 1] == 0.0
        np.testing.assert_allclose(m, m.T)

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            TwoModeCov(a=1.0, b=1.0, c=1.5, d=0.0)


class TestSpectrum:
    @pytest.mark.parametrize("p", (0.1, 1.0, 5.0))
    def test_analytic_matches_numeric(self, p):
        v = two_mode_cov(Params(p=p))
        s = symplectic_spectrum(v)
        nus_num = sorted(symplectic_spectrum_numeric(v.matrix))
        assert sorted((s.nu_plus, s.nu_minus)) == pytest.approx(nus_num,
                                                                abs=1e-9)

    def test_smaller_eigenvalue_is_vacuum(self):
        for p in (0.3, 1.0, 3.0):
            s = symplectic_spectrum(two_mode_cov(Params(p=p)))
            assert s.nu_plus == pytest.approx(0.5, abs=1e-9)
            assert s.nu_minus > 1.0

    def test_vacuum(self):
        nus = symplectic_spectrum_numeric(0.5 * np.eye(4))
        assert nus == pytest.approx((0.5, 0.5), abs=1e-12)
        vac = SymplecticSpectrum(nu_plus=0.5, nu_minus=0.5)
        assert von_neumann_entropy(vac) == 0.0
        assert purity(vac) == pytest.approx(1.0)

    def test_below_vacuum_rejected(self):
        with pytest.raises(ValueError):
            SymplecticSpectrum(nu_plus=0.5, nu_minus=0.3)

    def test_numeric_validates_input(self):
        with pytest.raises(ValueError):
            symplectic_spectrum_numeric(np.zeros((3, 3)))
        with pytest.raises(ValueError):
            symplectic_spectrum_numeric(-np.eye(4))


class TestPurityAndEntropy:
    def test_purity_determinant_identity(self):
        for p in (0.2, 1.0, 4.0):
            v = two_mode_cov(Params(p=p))
            mu = purity(symplectic_spectrum(v))
            assert mu == pytest.approx(1.0 / (4.0 * math.sqrt(v.det)),
                                       abs=1e-9)
            assert mu == pytest.approx(0.4444493, abs=1e-6)

    def test_entropy_monotone_in_nu(self):
        s = [von_neumann_entropy(SymplecticSpectrum(0.5, nu))
             for nu in (0.6, 1.0, 2.0, 5.0)]
        assert all(b > a for a, b in zip(s, s[1:]))


class TestDeltaB:
    def test_p_invariant_value(self):
        ref = delta_b(Params(p=1.0))
        assert ref == pytest.approx(1.0826907, abs=1e-6)
        for p in (0.05, 0.7, 6.0):
            assert delta_b(Params(p=p)) == pytest.approx(ref, abs=1e-6)

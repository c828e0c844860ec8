"""Acceptance checks: one test per release criterion.

Each test prints a single ``criterion N: PASS/FAIL`` verdict line (visible
with ``pytest -s`` or in captured output on failure) and then asserts.
"""

import dataclasses
import math
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import spdc_ng
from spdc_ng.distributions import (Density1D, Params, conditional_of,
                                   make_density, marginal_of)
from spdc_ng.entropy import negentropy, ng_report
from spdc_ng.gstate import (purity, symplectic_spectrum,
                            symplectic_spectrum_numeric, two_mode_cov,
                            von_neumann_entropy)
from spdc_ng.moments import (covariance_closed, covariance_numeric,
                             find_epr_crossings, gaussian_epr_product,
                             mancini_boundary, mancini_product,
                             schmidt_number)
from spdc_ng.quadrature import Domain, QuadTolerance, integrate_1d
from spdc_ng.specfun import shape_constants

TOL = QuadTolerance()
LN2 = math.log(2.0)


def _verdict(num, checks):
    """checks: list of (label, ok) pairs; print the verdict, then assert."""
    bad = [label for label, ok in checks if not ok]
    print(f"criterion {num}: {'FAIL' if bad else 'PASS'}")
    assert not bad, f"criterion {num} failed sub-checks: {bad}"


def _within(x, ref, tol):
    return abs(x - ref) <= tol


def test_criterion_1_shape_constants():
    sc = shape_constants(TOL)
    entropy_const = (0.5 - sc.i_nf / sc.a1) / LN2
    # a2 = 0.590935 by mpmath (tests/test_oracles.py).
    _verdict(1, [
        ("a1 = 1.4008 +/- 0.001", _within(sc.a1, 1.4008, 1e-3)),
        ("a2 = 0.5909 +/- 0.001", _within(sc.a2, 0.5909, 1e-3)),
        ("i_ff = -0.364 +/- 0.002", _within(sc.i_ff, -0.364, 2e-3)),
        ("i_nf entropy constant = 1.434 +/- 0.002",
         _within(entropy_const, 1.434, 2e-3)),
    ])


def test_criterion_2_joint_negentropies():
    grid = (0.05, 0.3, 1.0, 2.0)
    checks, totals = [], []
    for p in grid:
        n_ff = negentropy(make_density("far_field", "spdc", Params(p=p),
                                       TOL)).value
        n_nf = negentropy(make_density("near_field", "spdc", Params(p=p),
                                       TOL)).value
        checks.append((f"ff joint at P={p}", _within(n_ff, 0.15, 0.01)))
        checks.append((f"nf joint at P={p}", _within(n_nf, 0.22, 0.01)))
        totals.append(n_ff + n_nf)
        checks.append((f"total at P={p}", _within(totals[-1], 0.37, 0.01)))
    checks.append(("spread < 0.005", max(totals) - min(totals) < 0.005))
    _verdict(2, checks)


def test_criterion_3_epr_crossings():
    lo, hi = find_epr_crossings(TOL)
    _verdict(3, [
        ("lower crossing 0.56 +/- 0.02", _within(lo, 0.56, 0.02)),
        ("upper crossing 2.58 +/- 0.05", _within(hi, 2.58, 0.05)),
    ])


def test_criterion_4_gaussian_epr_bound():
    checks = []
    for alpha in (0.45, 0.72, 1.0):
        for p in np.geomspace(0.02, 8.0, 20):
            r = gaussian_epr_product(alpha, Params(p=p))
            k = schmidt_number(1.0, 1.0 / (math.sqrt(alpha) * p))
            checks.append((f"bound a={alpha} p={p:.3g}",
                           r.product <= 0.25 + 1e-9))
            checks.append((f"1/(4K) a={alpha} p={p:.3g}",
                           _within(r.product, 1.0 / (4.0 * k), 1e-9)))
    _verdict(4, checks)


def test_criterion_5_delta_b_pipeline():
    vals = {}
    checks = []
    for p in (0.1, 3.0):
        v = two_mode_cov(Params(p=p))
        s = symplectic_spectrum(v)
        nus_num = sorted(symplectic_spectrum_numeric(v.matrix))
        nus_ana = sorted((s.nu_plus, s.nu_minus))
        checks.append((f"spectra agree at P={p}",
                       max(abs(a - b) for a, b in zip(nus_ana, nus_num))
                       < 1e-9))
        vals[p] = (purity(s), von_neumann_entropy(s))
    mu, ent = vals[0.1]
    checks += [
        ("mu = 0.44 +/- 0.01", _within(mu, 0.44, 0.01)),
        ("S = delta_b = 1.08 +/- 0.01 nats", _within(ent, 1.08, 0.01)),
        ("P-invariance 1e-6",
         abs(vals[0.1][1] - vals[3.0][1]) < 1e-6
         and abs(vals[0.1][0] - vals[3.0][0]) < 1e-6),
    ]
    _verdict(5, checks)


def test_criterion_6_marginal_limits():
    # ng_marg(3) = 0.190596 by direct convolution (tests/test_oracles.py).
    targets = {0.01: 0.154, 3.0: 0.1906, 12.0: 0.224}
    checks = []
    for p, ref in targets.items():
        r = ng_report(Params(p=p), TOL)
        checks.append((f"ng_marg({p}) = {ref} +/- 0.005",
                       _within(r.ng_marg, ref, 5e-3)))
    _verdict(6, checks)


def test_criterion_7_decomposition():
    r_small = ng_report(Params(p=0.01), TOL)
    r_large = ng_report(Params(p=2.0), TOL)
    # The decomposition closes linearly as P -> 0: the near-field origin
    # slice loses its second-moment tail beyond s ~ 1/P, so the residual is
    # c P + O(P^2) bits with c = 2 sqrt(2 pi) / (pi^2 A2 ln 2) = 1.24009
    # (tests/test_oracles.py).
    c = 2.0 * math.sqrt(2.0 * math.pi) / (math.pi ** 2
                                          * shape_constants(TOL).a2 * LN2)
    _verdict(7, [
        ("residual = c P +/- 0.001 at P=0.01",
         abs(r_small.decomposition_residual - c * 0.01) < 1e-3),
        ("residual > 0.05 at P=2",
         abs(r_large.decomposition_residual) > 0.05),
    ])


def test_criterion_8_closed_forms():
    checks = []
    for plane in ("far_field", "near_field"):
        for p in (0.1, 0.5, 1.0, 2.0, 5.0):
            num = covariance_numeric(make_density(plane, "spdc", Params(p=p),
                                                  TOL))
            ref = covariance_closed(plane, Params(p=p))
            ok = (abs(num.var1 - ref.var1) < 1e-5 * max(1.0, ref.var1)
                  and abs(num.var2 - ref.var2) < 1e-5 * max(1.0, ref.var2)
                  and abs(num.cov - ref.cov) < 1e-5 * max(1.0, abs(ref.cov)))
            checks.append((f"{plane} P={p}", ok))
    checks.append(("sinc moment ratio 3/4 +/- 1e-6",
                   _within(shape_constants(TOL).sinc_moment_ratio, 0.75,
                           1e-6)))
    _verdict(8, checks)


def _factor_spec(j, which):
    """1-D density of one normalized rotated factor of a joint: the
    marginal of u or of v."""
    f, osc, z = ((j.g, None, j.zg) if which == "plus"
                 else (j.kernel, j.kernel_domain.osc_scale, j.zk))
    return Density1D("marginal", lambda t: f(t) / z,
                     Domain.full_line(osc_scale=osc), (0.0,))


def _scaled_spec(spec, a):
    """The density of X / a when X ~ spec (a 1-D form)."""
    dom = spec.domain
    return Density1D(spec.form, lambda x: a * spec.pdf(a * x),
                     dataclasses.replace(
                         dom, osc_scale=(dom.osc_scale or 0.0) * a * a or None,
                         core_extent=dom.core_extent / a),
                     tuple(s / a for s in spec.seeds))


def test_criterion_9_property_suite():
    checks = []

    # Normalization of joint, marginal, and conditional forms (1e-6).
    for plane in ("far_field", "near_field"):
        j = make_density(plane, "spdc", Params(p=0.7), TOL)
        zu, _ = integrate_1d(j.g, Domain.full_line(), TOL)
        zv, _ = integrate_1d(j.kernel, j.kernel_domain, TOL)
        checks.append((f"{plane} joint normalized",
                       _within(j.norm * zu * zv, 1.0, 1e-6)))
        for spec in (marginal_of(j), conditional_of(j, 0.3)):
            v, _ = integrate_1d(spec.pdf, spec.domain, TOL,
                                seed_points=spec.seeds)
            checks.append((f"{plane} {spec.form} normalized",
                           _within(v, 1.0, 1e-6)))

        # Pointwise factorization: joint = conditional * marginal (1e-9 rel).
        marg = marginal_of(j)
        ok = True
        for x1, x2 in ((0.2, 0.5), (-1.0, 0.8)):
            lhs = conditional_of(j, x2)(x1) * marg(x2)
            rhs = j(x1, x2)
            ok = ok and abs(lhs - rhs) <= 1e-9 * abs(rhs)
        checks.append((f"{plane} factorization identity", ok))

        # Exchange symmetry of the joint.
        checks.append((f"{plane} exchange symmetry",
                       j(0.4, -0.9) == pytest.approx(j(-0.9, 0.4),
                                                     rel=1e-12)))

        # Negentropy non-negativity, scale invariance, additivity.
        n_joint = negentropy(j).value
        cond = conditional_of(j, 0.0)
        n_cond = negentropy(cond).value
        checks.append((f"{plane} negentropy non-negative",
                       n_joint > -1e-8 and n_cond > -1e-8))
        checks.append((f"{plane} scale invariance 1e-6",
                       all(_within(negentropy(_scaled_spec(cond, a)).value,
                                   n_cond, 1e-6) for a in (0.25, 4.0))))
        n_sum = (negentropy(_factor_spec(j, "plus")).value
                 + negentropy(_factor_spec(j, "minus")).value)
        checks.append((f"{plane} additivity on product density 1e-4",
                       _within(n_joint, n_sum, 1e-4)))

        # Zero negentropy for every Gaussian-model form (1e-5).
        g = make_density(plane, "gaussian", Params(p=0.7), TOL,
                         alpha=0.72)
        zero = all(abs(negentropy(s).value) < 1e-5
                   for s in (g, conditional_of(g, 0.2), marginal_of(g)))
        checks.append((f"{plane} gaussian model has zero negentropy", zero))

    # ng_marg < ng_total over the full default sweep grid.
    grid = np.geomspace(0.01, 3.0, 60)
    with ThreadPoolExecutor(max_workers=8) as pool:
        reports = list(pool.map(lambda p: ng_report(Params(p=p), TOL), grid))
    checks.append(("ng_marg < ng_total on sweep grid",
                   all(r.ng_marg < r.ng_total for r in reports)))
    _verdict(9, checks)


def test_criterion_10_mancini():
    m1 = mancini_product(Params(p=0.6), "spdc")
    m2 = mancini_product(Params(p=1.2), "spdc")
    sc = shape_constants(TOL)
    _verdict(10, [
        ("product = 4 (A2/A1) P^2",
         _within(m1, 4.0 * sc.a2 / sc.a1 * 0.36, 1e-9)),
        ("quadratic scaling 1e-9", _within(m2, 4.0 * m1, 1e-9)),
        # sqrt(A1/(4 A2)) = 0.769809 by mpmath (tests/test_oracles.py).
        ("boundary at P = 0.7698 +/- 0.001",
         _within(mancini_boundary(), 0.7698, 1e-3)),
    ])


def test_criterion_11_sweep_determinism(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    cmd = [sys.executable, "-m", "spdc_ng.cli", "sweep", "--quantity",
           "mancini", "--steps", "12", "--alpha", "0.72",
           "--abs-tol", "1e-9", "--rel-tol", "1e-7"]
    env = {**os.environ,
           "PYTHONPATH": os.path.dirname(os.path.dirname(spdc_ng.__file__))}
    r1 = subprocess.run(cmd + ["--out", str(a), "--threads", "2"], env=env)
    r2 = subprocess.run(cmd + ["--out", str(b), "--threads", "6"], env=env)
    _verdict(11, [
        ("both runs succeed", r1.returncode == 0 and r2.returncode == 0),
        ("byte-identical output", a.read_bytes() == b.read_bytes()),
    ])

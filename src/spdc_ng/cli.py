"""Command-line front end: reports, P-sweeps, figure datasets, constants.

Output is CSV (first line ``# spdc-ng v1``, full round-trip float precision,
LF line endings) or JSON.  Sweep grid points are evaluated in parallel with
an ordered single-threaded writer, so repeated runs are byte-identical.

Exit codes: 0 success, 1 usage error, 2 computation failure, 3 partial
sweep failure (failed rows carry an error sentinel and the run continues).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .distributions import (PLANES, Params, _check_alpha, conditional_of,
                            make_density, marginal_of)
from .entropy import marginal_negentropy_limits, negentropy, ng_report
from .gstate import (delta_b, purity, symplectic_spectrum, two_mode_cov,
                     von_neumann_entropy)
from .moments import (_conditional_variance, conditional_variances,
                      gaussian_conditional_variances, mancini_product,
                      moments_1d)
from .quadrature import QuadTolerance
from .specfun import matching_alpha, shape_constants

__all__ = ["main"]

_HEADER = "# spdc-ng v1"
_QUANTITIES = ("epr", "mancini", "ng_total", "ng_cond", "ng_marg",
               "negentropy_ff_cond", "negentropy_nf_cond",
               "negentropy_ff_marg", "negentropy_nf_marg",
               "var_q_norm", "var_x_norm", "delta_b")
# Quantities that accept Gaussian-model comparison columns per alpha.
_ALPHA_AWARE = {"epr", "mancini", "var_q_norm", "var_x_norm"}
# Negentropy quantities: the planes whose values and errors they sum, and
# the form of the spdc density on each.
_NEGENTROPIES = {
    "ng_total": (PLANES, "joint"), "ng_cond": (PLANES, "cond"),
    "ng_marg": (PLANES, "marg"),
    "negentropy_ff_cond": (("far_field",), "cond"),
    "negentropy_nf_cond": (("near_field",), "cond"),
    "negentropy_ff_marg": (("far_field",), "marg"),
    "negentropy_nf_marg": (("near_field",), "marg"),
}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _fmt(x):
    return repr(float(x))


def _alpha_tag(alpha):
    return f"gauss_a{alpha:g}"


def _negentropy_cell(plane, form, params, tol):
    spec = make_density(plane, "spdc", params, tol)
    if form == "cond":
        spec = conditional_of(spec)
    elif form == "marg":
        spec = marginal_of(spec)
    n = negentropy(spec)
    return n.value, n.err_estimate


def _sweep_columns(quantity, alphas):
    cols = [quantity, quantity + "_err"]
    if quantity in _ALPHA_AWARE:
        cols += [f"{quantity}_{_alpha_tag(a)}" for a in alphas]
    return cols


def _sweep_values(quantity, p, sigma, alphas, tol):
    """Values for one grid point, ordered as _sweep_columns."""
    params = Params(p=p, sigma=sigma)
    out = []
    if quantity == "epr":
        cv = conditional_variances(params, tol)
        out += [cv.var_x_cond * cv.var_q_cond, 0.0]
        for a in alphas:
            vq, vx = gaussian_conditional_variances(a, params)
            out.append(vx * vq)
    elif quantity == "mancini":
        out += [mancini_product(params, "spdc"), 0.0]
        for a in alphas:
            out.append(mancini_product(params, "gaussian", alpha=a))
    elif quantity == "var_q_norm":
        var_q = _conditional_variance("far_field", params, tol)
        out += [var_q * params.p ** 2, 0.0]
        for a in alphas:
            vq, _ = gaussian_conditional_variances(a, params)
            out.append(vq * p * p)
    elif quantity == "var_x_norm":
        var_x = _conditional_variance("near_field", params, tol)
        out += [var_x / params.p ** 2, 0.0]
        for a in alphas:
            _, vx = gaussian_conditional_variances(a, params)
            out.append(vx / (p * p))
    elif quantity == "delta_b":
        out += [delta_b(params), 0.0]
    elif quantity in _NEGENTROPIES:
        planes, form = _NEGENTROPIES[quantity]
        cells = [_negentropy_cell(plane, form, params, tol) for plane in planes]
        out += [sum(v for v, _ in cells), sum(e for _, e in cells)]
    else:
        raise ValueError(f"unknown quantity {quantity!r}")
    return out


def _grid(p_min, p_max, steps, log):
    if not (0 < p_min < p_max < math.inf):
        raise _UsageError("need 0 < p-min < p-max, both finite")
    if steps < 2:
        raise _UsageError("need steps >= 2")
    if log:
        return np.geomspace(p_min, p_max, steps)
    return np.linspace(p_min, p_max, steps)


def _write_lines(lines, out_path):
    text = "\n".join(lines) + "\n"
    if out_path is None or out_path == "-":
        sys.stdout.write(text)
    else:
        with open(out_path, "w", newline="") as fh:
            fh.write(text)


def _run_sweep_table(quantities, alphas, grid, tol, args):
    """Evaluate the quantities' columns over the grid in parallel, side by
    side, and write them as ordered CSV.

    Returns 3 if any row failed (error sentinel in the last column), else 0.
    """
    columns = [c for q in quantities for c in _sweep_columns(q, alphas)]

    def worker(p):
        return [v for q in quantities
                for v in _sweep_values(q, p, args.sigma, alphas, tol)]

    def safe(p):
        try:
            return worker(p), ""
        except Exception as exc:  # sentinel row, keep sweeping
            msg = f"{type(exc).__name__}: {exc}".replace(",", ";")
            msg = msg.replace("\n", " ")
            return [math.nan] * len(columns), msg

    with ThreadPoolExecutor(max_workers=_threads_from(args)) as pool:
        rows = list(pool.map(safe, grid))

    lines = [_HEADER, ",".join(["p"] + columns + ["error"])]
    failed = False
    for p, (vals, err) in zip(grid, rows):
        failed = failed or bool(err)
        lines.append(",".join([_fmt(p)] + [_fmt(v) for v in vals] + [err]))
    _write_lines(lines, args.out)
    return 3 if failed else 0


def _threads_from(args):
    if args.threads is not None:
        if args.threads < 1:
            raise _UsageError("--threads must be >= 1")
        return args.threads
    env = os.environ.get("SPDC_NG_THREADS", "")
    if not env:
        return os.cpu_count() or 1
    try:
        n = int(env)
    except ValueError:
        n = 0
    if n < 1:
        raise _UsageError(f"SPDC_NG_THREADS must be an integer >= 1, got {env!r}")
    return n


def _tol_from(args):
    return QuadTolerance(abs_tol=args.abs_tol, rel_tol=args.rel_tol)


# ---------------------------------------------------------------- report


def _report_record(p, sigma, tol):
    params = Params(p=p, sigma=sigma)
    rep = ng_report(params, tol)
    epr = rep.var_x_cond * rep.var_q_cond
    spectrum = symplectic_spectrum(two_mode_cov(params))
    rec = {"p": p, "sigma": sigma}
    for name in ("n_ff_joint", "n_nf_joint", "ng_total", "n_ff_cond",
                 "n_nf_cond", "ng_cond", "n_ff_marg", "n_nf_marg", "ng_marg",
                 "decomposition_residual", "var_q_cond", "var_x_cond"):
        rec[name] = getattr(rep, name)
    rec.update({
        "epr_product": epr,
        "epr_entangled": epr < 0.25,
        "epr_nongaussian_witness": epr > 0.25,
        "mancini_product": mancini_product(params, "spdc"),
        "delta_b": von_neumann_entropy(spectrum),
        "purity": purity(spectrum),
        "units": {"negentropy": "bits", "delta_b": "nats"},
    })
    return rec


def _cmd_report(args):
    tol = _tol_from(args)
    rec = _report_record(args.p, args.sigma, tol)
    if args.format == "json":
        _write_lines([json.dumps(rec, indent=2)], args.out)
    else:
        lines = [_HEADER, "key,value"]
        for k, v in rec.items():
            if k == "units":
                for uk, uv in v.items():
                    lines.append(f"units_{uk},{uv}")
            elif isinstance(v, bool):
                lines.append(f"{k},{str(v).lower()}")
            else:
                lines.append(f"{k},{_fmt(v)}")
        _write_lines(lines, args.out)
    return 0


# ----------------------------------------------------------------- sweep


def _cmd_sweep(args):
    tol = _tol_from(args)
    alphas = tuple(args.alpha or ())
    if alphas and args.quantity not in _ALPHA_AWARE:
        raise _UsageError(f"--alpha does not apply to --quantity "
                          f"{args.quantity}; it applies to "
                          f"{', '.join(sorted(_ALPHA_AWARE))}")
    try:
        for a in alphas:
            _check_alpha(a)
    except ValueError as exc:
        raise _UsageError(f"--alpha: {exc}") from None
    grid = _grid(args.p_min, args.p_max, args.steps, args.log)
    return _run_sweep_table((args.quantity,), alphas, grid, tol, args)


# ---------------------------------------------------------------- figure

_FIG_SECTIONS = {"1a": ("far_field", 0.1), "1b": ("near_field", 0.1),
                 "1c": ("far_field", 2.0), "1d": ("near_field", 2.0)}
_FIG_SWEEPS = {
    # figure_id: (quantities, alphas, p_min, p_max, steps, log)
    "1e": (("var_q_norm",), (0.45, 0.72, 1.0), 0.01, 3.0, 60, True),
    "1f": (("var_x_norm",), (0.45, 0.72, 1.0), 0.01, 3.0, 60, True),
    "2": (("epr",), (0.45, 0.72, 1.0), 0.1, 5.0, 60, True),
    "3c": (("ng_cond",), (), 0.01, 3.0, 60, True),
    "3d": (("ng_marg",), (), 0.01, 3.0, 60, True),
    "mancini": (("mancini",), (0.45, 0.72, 1.0), 0.01, 3.0, 60, True),
    "supp_ngm": (("ng_marg",), (), 3.0, 12.0, 30, True),
    "3a": (("negentropy_ff_cond", "negentropy_nf_cond"), (), 0.01, 3.0, 60,
           True),
    "3b": (("negentropy_ff_marg", "negentropy_nf_marg"), (), 0.01, 3.0, 60,
           True),
}
FIGURE_IDS = tuple(_FIG_SECTIONS) + tuple(_FIG_SWEEPS)


def _figure_section(plane, p, sigma, alphas, tol, out_path):
    """Origin-conditional cross-section: spdc curve plus Gaussian overlays."""
    params = Params(p=p, sigma=sigma)
    spdc = conditional_of(make_density(plane, "spdc", params, tol))
    _, var = moments_1d(spdc)
    xs = np.linspace(-5.0 * math.sqrt(var), 5.0 * math.sqrt(var), 201)
    curves = [np.array([spdc(x) for x in xs])]
    cols = ["coord", "spdc"]
    for a in alphas:
        g = conditional_of(make_density(plane, "gaussian", params, tol,
                                        alpha=a))
        curves.append(np.array([g(x) for x in xs]))
        cols.append(_alpha_tag(a))
    lines = [_HEADER, ",".join(cols)]
    for i, x in enumerate(xs):
        lines.append(",".join([_fmt(x)] + [_fmt(c[i]) for c in curves]))
    _write_lines(lines, out_path)
    return 0


def _cmd_figure(args):
    tol = _tol_from(args)
    fid = args.figure_id
    if fid in _FIG_SECTIONS:
        plane, p_default = _FIG_SECTIONS[fid]
        p = args.p if args.p is not None else p_default
        return _figure_section(plane, p, args.sigma, (0.45, 0.72), tol,
                               args.out)
    if fid in _FIG_SWEEPS:
        quantities, alphas, *grid = _FIG_SWEEPS[fid]
        return _run_sweep_table(quantities, alphas, _grid(*grid), tol, args)
    raise _UsageError(f"unknown figure id {fid!r}")


# ------------------------------------------------------------- constants


def _constants_record(tol):
    sc = shape_constants(tol)
    n_small, n_large = marginal_negentropy_limits(tol)
    params = Params(p=1.0)
    v = two_mode_cov(params)
    nu_minus = symplectic_spectrum(v).nu_minus
    rec = {
        "a1": sc.a1, "a2": sc.a2, "i_ff": sc.i_ff, "i_nf": sc.i_nf,
        "sinc_moment_ratio": sc.sinc_moment_ratio,
        "alpha_1e": matching_alpha(1.0 / math.e),
        "alpha_1e2": matching_alpha(1.0 / math.e ** 2),
        "ng_marg_limit_small_p": n_small,
        "ng_marg_limit_large_p": n_large,
        "nu_minus": nu_minus,
        "det_v": v.det,
        "errors": {k: v for k, v in sorted(sc.errors.items())},
    }
    return rec


def _cmd_constants(args):
    rec = _constants_record(_tol_from(args))
    if args.format == "json":
        _write_lines([json.dumps(rec, indent=2)], args.out)
    else:
        lines = [_HEADER, "key,value"]
        for k, v in rec.items():
            if k == "errors":
                for ek, ev in v.items():
                    lines.append(f"err_{ek},{_fmt(ev)}")
            else:
                lines.append(f"{k},{_fmt(v)}")
        _write_lines(lines, args.out)
    return 0


# ------------------------------------------------------------------ main


def _build_parser():
    parser = _Parser(prog="spdc-ng",
                     description="Spatial two-photon densities, entanglement "
                                 "criteria, and non-Gaussianity measures.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, sweep=False):
        p.add_argument("--sigma", type=float, default=1.0)
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--abs-tol", type=float, default=1e-10)
        p.add_argument("--rel-tol", type=float, default=1e-8)
        if sweep:
            p.add_argument("--threads", type=int, default=None)

    p_rep = sub.add_parser("report", help="all scalar quantities at one P")
    p_rep.add_argument("--p", type=float, required=True)
    p_rep.add_argument("--format", choices=("csv", "json"), default="json")
    common(p_rep)
    p_rep.set_defaults(func=_cmd_report)

    p_sw = sub.add_parser("sweep", help="one quantity over a P grid (CSV)")
    p_sw.add_argument("--quantity", choices=_QUANTITIES, required=True)
    p_sw.add_argument("--p-min", type=float, default=0.01)
    p_sw.add_argument("--p-max", type=float, default=3.0)
    p_sw.add_argument("--steps", type=int, default=60)
    p_sw.add_argument("--log", action="store_true", default=True)
    p_sw.add_argument("--linear", dest="log", action="store_false")
    p_sw.add_argument("--alpha", type=float, action="append")
    common(p_sw, sweep=True)
    p_sw.set_defaults(func=_cmd_sweep)

    p_fig = sub.add_parser("figure", help="dataset behind a named figure (CSV)")
    p_fig.add_argument("figure_id", choices=FIGURE_IDS)
    p_fig.add_argument("--p", type=float, default=None,
                       help="override the preset P of the cross-section panels")
    common(p_fig, sweep=True)
    p_fig.set_defaults(func=_cmd_figure)

    p_con = sub.add_parser("constants", help="kernel shape constants")
    p_con.add_argument("--format", choices=("csv", "json"), default="json")
    common(p_con)
    p_con.set_defaults(func=_cmd_constants)
    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"spdc-ng: error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"spdc-ng: computation failed: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end: reports, P-sweeps, figure datasets, constants.

Output is CSV (first line ``# spdc-ng v1``, full round-trip float precision,
LF line endings) or JSON.  Sweep grid points run in order on one thread, or
on ``--threads N`` worker threads whose rows one writer puts back in grid
order, so the bytes are the same either way and across runs.

Exit codes: 0 success, 1 usage error, 2 computation failure, 3 partial
sweep failure (failed rows carry an error sentinel and the run continues).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .distributions import (PLANES, Params, _check_alpha, conditional_of,
                            make_density, marginal_of)
from .entropy import marginal_negentropy_limits, negentropy, ng_report
from .gstate import (delta_b, purity, symplectic_spectrum, two_mode_cov,
                     von_neumann_entropy)
from .moments import (_conditional_variance, _epr_from_variances, epr_product,
                      gaussian_conditional_variances, gaussian_epr_product,
                      mancini_product, moments_1d)
from .quadrature import QuadTolerance
from .specfun import matching_alpha, shape_constants

__all__ = ["main"]

_HEADER = "# spdc-ng v1"


def _negentropies(form, planes=PLANES):
    """The sweep cell of the summed spdc negentropies of ``form(joint)``
    over ``planes``: (sum of values, sum of error estimates)."""
    def cell(params, tol):
        ns = [negentropy(form(make_density(plane, "spdc", params, tol)))
              for plane in planes]
        return sum(n.value for n in ns), sum(n.err_estimate for n in ns)
    return cell


# quantity: (its value and error at (params, tol), its Gaussian-model column
# at (alpha, params), or None where it has none).  The cells name library
# functions when they run, so a function rebound by a spy or a tracer is the
# one they call.
_SWEEPS = {
    "epr": (lambda params, tol: (epr_product(params, tol).product, 0.0),
            lambda a, params: gaussian_epr_product(a, params).product),
    "mancini": (lambda params, tol: (mancini_product(params, "spdc"), 0.0),
                lambda a, params: mancini_product(params, "gaussian",
                                                  alpha=a)),
    "ng_total": (_negentropies(lambda joint: joint), None),
    "ng_cond": (_negentropies(lambda joint: conditional_of(joint)), None),
    "ng_marg": (_negentropies(lambda joint: marginal_of(joint)), None),
    "negentropy_ff_cond": (_negentropies(lambda joint: conditional_of(joint),
                                         ("far_field",)), None),
    "negentropy_nf_cond": (_negentropies(lambda joint: conditional_of(joint),
                                         ("near_field",)), None),
    "negentropy_ff_marg": (_negentropies(lambda joint: marginal_of(joint),
                                         ("far_field",)), None),
    "negentropy_nf_marg": (_negentropies(lambda joint: marginal_of(joint),
                                         ("near_field",)), None),
    "var_q_norm": (
        lambda params, tol: (_conditional_variance("far_field", params, tol)
                             * params.p ** 2, 0.0),
        lambda a, params: (gaussian_conditional_variances(a, params)[0]
                           * params.p * params.p)),
    "var_x_norm": (
        lambda params, tol: (_conditional_variance("near_field", params, tol)
                             / params.p ** 2, 0.0),
        lambda a, params: (gaussian_conditional_variances(a, params)[1]
                           / (params.p * params.p))),
    "delta_b": (lambda params, tol: (delta_b(params), 0.0), None),
}
_QUANTITIES = tuple(_SWEEPS)
_ALPHA_AWARE = {q for q, (_, gauss) in _SWEEPS.items() if gauss is not None}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _fmt(x):
    return repr(float(x))


def _alpha_tag(alpha):
    return f"gauss_a{alpha:g}"


def _sweep_columns(quantity, alphas):
    cols = [quantity, quantity + "_err"]
    if quantity in _ALPHA_AWARE:
        cols += [f"{quantity}_{_alpha_tag(a)}" for a in alphas]
    return cols


def _sweep_values(quantity, p, sigma, alphas, tol):
    """Values for one grid point, ordered as _sweep_columns."""
    params = Params(p=p, sigma=sigma)
    spdc, gaussian = _SWEEPS[quantity]
    return [*spdc(params, tol),
            *(gaussian(a, params) for a in alphas if gaussian)]


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


def _run_sweep_table(quantities, alphas, grid, tol, args, threads):
    """Evaluate the quantities' columns over the grid, side by side, on
    ``threads`` worker threads, and write them as CSV in grid order.

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

    if threads < 1:
        raise _UsageError("--threads must be >= 1")
    with ThreadPoolExecutor(max_workers=threads) as pool:
        rows = list(pool.map(safe, grid))

    lines = [_HEADER, ",".join(["p"] + columns + ["error"])]
    failed = False
    for p, (vals, err) in zip(grid, rows):
        failed = failed or bool(err)
        lines.append(",".join([_fmt(p)] + [_fmt(v) for v in vals] + [err]))
    _write_lines(lines, args.out)
    return 3 if failed else 0


def _tol_from(args):
    return QuadTolerance(abs_tol=args.abs_tol, rel_tol=args.rel_tol)


def _cell(v):
    if isinstance(v, bool):
        return str(v).lower()
    return v if isinstance(v, str) else _fmt(v)


def _write_record(rec, fmt, out_path):
    """``rec`` as indented JSON, or as ``key,value`` CSV rows in which a
    nested record's keys take its name as a prefix (``err_`` for
    ``errors``)."""
    if fmt == "json":
        _write_lines([json.dumps(rec, indent=2)], out_path)
        return
    lines = [_HEADER, "key,value"]
    for k, v in rec.items():
        if isinstance(v, dict):
            prefix = "err" if k == "errors" else k
            lines += [f"{prefix}_{nk},{_cell(nv)}" for nk, nv in v.items()]
        else:
            lines.append(f"{k},{_cell(v)}")
    _write_lines(lines, out_path)


# ---------------------------------------------------------------- report


def _report_record(p, sigma, tol):
    params = Params(p=p, sigma=sigma)
    rep = ng_report(params, tol)
    epr = _epr_from_variances(rep.var_x_cond, rep.var_q_cond)
    spectrum = symplectic_spectrum(two_mode_cov(params))
    # The report's fields start with p, which is params.p.
    return {"p": p, "sigma": sigma, **dataclasses.asdict(rep),
            "epr_product": epr.product,
            "epr_entangled": epr.entangled_flag,
            "epr_nongaussian_witness": epr.nongaussian_witness_flag,
            "mancini_product": mancini_product(params, "spdc"),
            "delta_b": von_neumann_entropy(spectrum),
            "purity": purity(spectrum),
            "units": {"negentropy": "bits", "delta_b": "nats"}}


def _cmd_report(args):
    _write_record(_report_record(args.p, args.sigma, _tol_from(args)),
                  args.format, args.out)
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
    grid = _grid(args.p_min, args.p_max, args.steps, not args.linear)
    return _run_sweep_table((args.quantity,), alphas, grid, tol, args,
                            args.threads)


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
        if args.threads is not None:
            raise _UsageError(f"--threads does not apply to figure {fid}; it "
                              f"applies to {', '.join(_FIG_SWEEPS)}")
        plane, p_default = _FIG_SECTIONS[fid]
        p = args.p if args.p is not None else p_default
        return _figure_section(plane, p, args.sigma, (0.45, 0.72), tol,
                               args.out)
    if args.p is not None:
        raise _UsageError(f"--p does not apply to figure {fid}; it applies "
                          f"to {', '.join(_FIG_SECTIONS)}")
    quantities, alphas, *grid = _FIG_SWEEPS[fid]
    threads = 1 if args.threads is None else args.threads
    return _run_sweep_table(quantities, alphas, _grid(*grid), tol, args,
                            threads)


# ------------------------------------------------------------- constants


def _constants_record(tol):
    sc = shape_constants(tol)
    n_small, n_large = marginal_negentropy_limits(tol)
    params = Params(p=1.0)
    v = two_mode_cov(params)
    nu_minus = symplectic_spectrum(v).nu_minus
    return {
        "a1": sc.a1, "a2": sc.a2, "i_ff": sc.i_ff, "i_nf": sc.i_nf,
        "sinc_moment_ratio": sc.sinc_moment_ratio,
        "alpha_1e": matching_alpha(1.0 / math.e),
        "alpha_1e2": matching_alpha(1.0 / math.e ** 2),
        "ng_marg_limit_small_p": n_small,
        "ng_marg_limit_large_p": n_large,
        "nu_minus": nu_minus,
        "det_v": v.det,
        "errors": dict(sorted(sc.errors.items())),
    }


def _cmd_constants(args):
    tol = QuadTolerance(abs_tol=args.abs_tol)
    _write_record(_constants_record(tol), args.format, args.out)
    return 0


# ------------------------------------------------------------------ main


def _build_parser():
    parser = _Parser(prog="spdc-ng",
                     description="Spatial two-photon densities, entanglement "
                                 "criteria, and non-Gaussianity measures.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--sigma", type=float, default=1.0)
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--abs-tol", type=float, default=1e-10)
        p.add_argument("--rel-tol", type=float, default=1e-8)

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
    p_sw.add_argument("--linear", action="store_true",
                      help="linear grid (default logarithmic)")
    p_sw.add_argument("--alpha", type=float, action="append")
    p_sw.add_argument("--threads", type=int, default=1)
    common(p_sw)
    p_sw.set_defaults(func=_cmd_sweep)

    p_fig = sub.add_parser("figure", help="dataset behind a named figure (CSV)")
    p_fig.add_argument("figure_id", choices=FIGURE_IDS)
    p_fig.add_argument("--p", type=float, default=None,
                       help="override the preset P of the cross-section panels")
    p_fig.add_argument("--threads", type=int, default=None,
                       help="worker threads of the sweep figures (default 1)")
    common(p_fig)
    p_fig.set_defaults(func=_cmd_figure)

    p_con = sub.add_parser("constants", help="kernel shape constants")
    p_con.add_argument("--format", choices=("csv", "json"), default="json")
    # The record is fixed at P = 1, sigma = 1, and its shape constants are
    # held to abs_tol alone, so it takes no --sigma or --rel-tol.
    p_con.add_argument("--out", default=None, help="output path (default stdout)")
    p_con.add_argument("--abs-tol", type=float, default=1e-10)
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

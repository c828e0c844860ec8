"""The benchmark's workloads: seeded inputs, one op each, output checks.

Each workload is a closed loop with one caller.  Inputs come only from the
seed.  ``batch(size)`` draws the next inputs, stratified over the workload's
range so that every batch covers the whole range whatever the seed;
``execute`` runs one op through the public API (the part that is timed);
``check`` verifies its output against references and returns
``(ops, failed, messages)``: ``failed`` counts ops that raised, exited
non-zero or gave a wrong output.  No op of any workload fails at this commit,
so any failed op marks the run incorrect.

P values come from a fixed lattice, ``LATTICE`` points per decade, so that
``reference.json`` (written by make_reference.py) can hold every value the
checks compare against, and every report that fails at this commit.
``report_span`` draws only from the points whose report succeeds;
``known_failures`` probes two of the others.

Module-level imports are standard library only, so that a worker can time
``import spdc_ng`` from a clean interpreter.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
from pathlib import Path

# mpmath references for the shape constants, each with half a unit of its
# last printed digit.
A1, A1_UNC = 1.40076660621, 5e-12
A2, A2_UNC = 0.5909354839, 5e-11
SINC_MOMENT_RATIO = 0.75            # exact
# ng_total is P-invariant; the library reaches it to ~4e-6 at P = 0.005 and
# to ~3e-8 from P = 0.01 up.
NG_TOTAL, NG_TOTAL_TOL = 0.3793776, 1e-5
# Scale-free marginal limits, and the tolerance a loose ladder rung needs.
N_SMALL, N_LARGE, LIMITS_TOL = 0.153352, 0.226026, 5e-5
NEG_FLOOR = -1e-8
CLOSED_FORM_RTOL = 1e-7
# Against the committed references: ~100x the change a 100x tighter
# tolerance makes (variances <= 4e-9 relative, negentropies <= 1.5e-8 bits).
REF_VAR_RTOL, REF_NG_ATOL = 1e-6, 1e-6

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# P = 10 ** (k / LATTICE).  Dense enough that the reference records the
# report's scattered failures away from small P (about 1 in 100 P values),
# which report_span must not draw.
LATTICE = 100
REFERENCE = Path(__file__).resolve().with_name("reference.json")

# One sweep thread.  With two, the GIL-bound rows overlap only while the
# second vCPU of this shared 2-vCPU box is free, so the sweep's speed swung
# 1.8x between runs (IQR 48% of the median over eight seeds).
THREADS = 1
ALPHAS = ("0.45", "0.72", "1.0")
NEGENTROPIES = ("n_ff_joint", "n_nf_joint", "ng_total", "n_ff_cond",
                "n_nf_cond", "ng_cond", "n_ff_marg", "n_nf_marg", "ng_marg")


def lattice_p(k):
    return 10.0 ** (k / LATTICE)


def lattice_k(p):
    """The lattice index of p, or None if p is not a lattice point."""
    x = math.log10(p) * LATTICE
    k = round(x)
    return k if abs(x - k) < 1e-6 else None


def load_reference():
    with open(REFERENCE) as fh:
        return {int(k): v for k, v in json.load(fh)["points"].items()}


def _cli(argv):
    """spdc_ng.cli.main(argv) in-process, with its stderr captured."""
    from spdc_ng import cli
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, err.getvalue().strip()


def _fresh(path):
    if os.path.exists(path):
        os.remove(path)
    return path


def _vn(nu):
    """Von Neumann entropy term of one symplectic eigenvalue nu > 1/2 (nats)."""
    return (nu + 0.5) * math.log(nu + 0.5) - (nu - 0.5) * math.log(nu - 0.5)


def _close(value, ref, rtol=CLOSED_FORM_RTOL):
    return abs(value - ref) <= rtol * abs(ref)


class ReportSpan:
    """`spdc-ng report --p P` over the lattice points of [1e-3, 1e2] whose
    reference report succeeds: first the smallest of them, the heaviest
    point, then P log-uniform along a seeded golden-ratio sequence, so that
    the ops of any run, however many, cover the range evenly; op = one
    report."""

    name = "report_span"
    batch_size = 6
    trace_size = 6
    K = (-3 * LATTICE, 2 * LATTICE)

    def __init__(self, seed, workdir):
        self.u = random.Random(seed).random()
        self.out = os.path.join(workdir, "report.json")
        self.ref = load_reference()
        self.ks = [k for k in range(self.K[0], self.K[1] + 1)
                   if "report_failure" not in self.ref[k]]
        # The heap the heaviest point's marginal tables grow serves every
        # later op, so peak RSS does not depend on the order of the others.
        self.pending = [self.ks[0]]

    def batch(self, size):
        ks, self.pending = self.pending, []
        while len(ks) < size:
            self.u = (self.u + GOLDEN) % 1.0
            ks.append(self.ks[int(self.u * len(self.ks))])
        return ks

    def execute(self, k):
        return report(lattice_p(k), self.out)

    def check(self, k, raw):
        p = lattice_p(k)
        problems = report_problems(p, raw)
        if not problems:
            problems = reference_problems(raw, self.ref[k])
        return 1, int(bool(problems)), [f"report p={p!r}: {m}" for m in problems]


# P = 1e-3, the domain edge, and P = 0.1175: reports that fail at this commit.
KNOWN_FAILURES = (-3 * LATTICE, -93)


def known_failures(workdir):
    """How many of the reports at KNOWN_FAILURES fail or give a wrong output."""
    out = os.path.join(workdir, "probe.json")
    return sum(bool(report_problems(lattice_p(k),
                                           report(lattice_p(k), out)))
               for k in KNOWN_FAILURES)


def report(p, out):
    """`spdc-ng report --p p --out out`: the record it wrote, or the
    failure as a string."""
    rc, err = _cli(["report", "--p", repr(p), "--out", _fresh(out)])
    if rc != 0:
        return f"exit {rc}: {err}"
    with open(out) as fh:
        return json.load(fh)


def report_problems(p, rec):
    """What is wrong with report(p, ...)'s result, checked on its own."""
    if isinstance(rec, str):
        return [rec]
    out = []
    out += [f"{k} not finite" for k, v in rec.items()
            if isinstance(v, float) and not math.isfinite(v)]
    if rec["p"] != p or rec["sigma"] != 1.0:
        out.append("echoed parameters differ from the request")
    epr = rec["var_x_cond"] * rec["var_q_cond"]
    if rec["epr_product"] != epr:
        out.append("epr_product != var_x_cond * var_q_cond")
    if rec["epr_entangled"] != (epr < 0.25) or \
       rec["epr_nongaussian_witness"] != (epr > 0.25):
        out.append("EPR flags disagree with the product")
    out += [f"{k} = {rec[k]!r} < {NEG_FLOOR}" for k in NEGENTROPIES
            if rec[k] < NEG_FLOOR]
    if abs(rec["ng_total"] - NG_TOTAL) > NG_TOTAL_TOL:
        out.append(f"ng_total = {rec['ng_total']!r}, reference {NG_TOTAL}")
    if rec["decomposition_residual"] != \
       rec["ng_total"] - rec["ng_cond"] - rec["ng_marg"]:
        out.append("decomposition_residual != ng_total - ng_cond - ng_marg")
    if not _close(rec["mancini_product"], 4.0 * (A2 / A1) * p * p):
        out.append("mancini_product differs from 4 (A2/A1) P^2")
    # nu_plus = sigma/2 = 1/2 adds no entropy; nu_minus = sqrt(3 A2/A1).
    nu_minus = math.sqrt(3.0 * A2 / A1)
    if not _close(rec["delta_b"], _vn(nu_minus)):
        out.append("delta_b differs from its closed form")
    if not _close(rec["purity"], 1.0 / (2.0 * nu_minus)):
        out.append("purity differs from its closed form")
    return out


def reference_problems(rec, ref):
    """Differences from the reference values at rec's lattice point."""
    out = [f"{k} = {rec[k]!r}, reference {ref[k]!r}"
           for k in ("var_q_cond", "var_x_cond")
           if not abs(rec[k] - ref[k]) <= REF_VAR_RTOL * abs(ref[k])]
    out += [f"{k} = {rec[k]!r}, reference {v!r}"
            for k, v in ref["report"].items()
            if not abs(rec[k] - v) <= REF_NG_ATOL]
    return out


class SweepEpr:
    """Figure-2 style `spdc-ng sweep --quantity epr` with three Gaussian
    alphas through the CLI's threaded sweep, over four seeded 3-step log
    grids around [0.1, 5] whose points all lie on the lattice.  The grids
    repeat, so each repeat is compared byte for byte with the first output
    of its grid.  Op = one CSV row; latency is per sweep command."""

    name = "sweep_epr"
    batch_size = 4
    trace_size = 2
    steps = 3

    def __init__(self, seed, workdir):
        from spdc_ng.distributions import Params
        from spdc_ng.moments import gaussian_conditional_variances
        rng = random.Random(seed)
        self.grids = []
        top, jitter = round(math.log10(5.0) * LATTICE), round(0.15 * LATTICE)
        for _ in range(self.batch_size):
            lo = -LATTICE + rng.randint(-jitter, jitter)
            hi = top + rng.randint(-jitter, jitter)
            hi += (lo + hi) % 2     # so the middle point is on the lattice
            self.grids.append((lattice_p(lo), lattice_p(hi)))
        self.out = os.path.join(workdir, "sweep.csv")
        self.first = {}
        self.ref = load_reference()
        # Held before any tracing starts, so the checks stay out of the trace.
        self._params = Params
        self._gauss = gaussian_conditional_variances

    def batch(self, size):
        return list(range(size))

    def execute(self, grid):
        lo, hi = self.grids[grid]
        argv = ["sweep", "--quantity", "epr"]
        for a in ALPHAS:
            argv += ["--alpha", a]
        argv += ["--threads", str(THREADS), "--p-min", repr(lo),
                 "--p-max", repr(hi), "--steps", str(self.steps),
                 "--out", _fresh(self.out)]
        rc, err = _cli(argv)
        return rc, err, self.out

    def check(self, grid, raw):
        rc, err, path = raw
        n = self.steps
        if rc != 0:
            return n, n, [f"sweep {grid}: exit {rc}: {err}"]
        with open(path, "rb") as fh:
            data = fh.read()
        lines = data.decode().split("\n")
        header = ",".join(["p", "epr", "epr_err"]
                          + [f"epr_gauss_a{float(a):g}" for a in ALPHAS]
                          + ["error"])
        if lines[:2] != ["# spdc-ng v1", header] or lines[-1] != "" or \
           len(lines) != n + 3:
            return n, n, [f"sweep {grid}: bad layout"]
        first = self.first.setdefault(grid, lines)
        messages = []
        for row, again in zip(lines[2:-1], first[2:-1]):
            problem = self._row_problem(row)
            if problem is None and row != again:
                problem = "differs from the first run of this grid"
            if problem:
                messages.append(f"sweep {grid} row {row.split(',')[0]}: {problem}")
        return n, len(messages), messages

    def _row_problem(self, row):
        cells = row.split(",")
        if cells[-1]:
            return f"error column: {cells[-1]}"
        p, epr = float(cells[0]), float(cells[1])
        k = lattice_k(p)
        if k not in self.ref:
            return "p is not a lattice point with a reference"
        ref = self.ref[k]["var_x_cond"] * self.ref[k]["var_q_cond"]
        if not abs(epr - ref) <= 2 * REF_VAR_RTOL * ref:
            return f"epr = {epr!r}, reference {ref!r}"
        for a, cell in zip(ALPHAS, cells[3:-1]):
            var_q, var_x = self._gauss(float(a), self._params(p=p))
            if cell != repr(var_x * var_q):
                return f"alpha {a} column differs from the Gaussian model"
        return None


class ConstantsTol:
    """Cold `shape_constants(tol)` plus `marginal_negentropy_limits(tol)`
    over a ladder of distinct absolute tolerances in [1e-12, 1e-7] (relative
    tolerance 100x, as in the CLI defaults).  The ladder straddles 1e-8,
    where the tail summation switches block budgets.  Op = one cold set."""

    name = "constants_tol"
    batch_size = 10
    trace_size = 10
    LOG_TOL = (-12.0, -7.0)
    out = None                      # no output file

    def __init__(self, seed, workdir):
        self.rng = random.Random(seed)
        self.seen = {1e-10}         # the default tolerance is warm already

    def batch(self, size):
        lo, hi = self.LOG_TOL
        tols = []
        for i in range(size):
            t = 10.0 ** (lo + (hi - lo) * (i + self.rng.random()) / size)
            while t in self.seen:   # never a warm tolerance
                t = 10.0 ** (lo + (hi - lo) * (i + self.rng.random()) / size)
            self.seen.add(t)
            tols.append(t)
        self.rng.shuffle(tols)
        return tols

    def execute(self, t):
        import spdc_ng
        tol = spdc_ng.QuadTolerance(abs_tol=t, rel_tol=100.0 * t)
        try:
            return (spdc_ng.shape_constants(tol),
                    spdc_ng.marginal_negentropy_limits(tol))
        except Exception as exc:   # a failed op is counted, not fatal
            return exc

    def check(self, t, raw):
        if isinstance(raw, Exception):
            return 1, 1, [f"constants tol={t!r}: {type(raw).__name__}: {raw}"]
        sc, (n_small, n_large) = raw
        problems = []
        for name, value, ref, unc in (
                ("a1", sc.a1, A1, A1_UNC), ("a2", sc.a2, A2, A2_UNC),
                ("sinc_moment_ratio", sc.sinc_moment_ratio,
                 SINC_MOMENT_RATIO, 0.0)):
            if not abs(value - ref) <= sc.errors[name] + unc:
                problems.append(f"{name} = {value!r} is {abs(value - ref):.3g} "
                                f"from {ref}, reported error {sc.errors[name]:.3g}")
        for name, value, ref in (("n_small", n_small, N_SMALL),
                                 ("n_large", n_large, N_LARGE)):
            if not abs(value - ref) <= LIMITS_TOL:
                problems.append(f"{name} = {value!r}, reference {ref}")
        problems = [f"constants tol={t!r}: {m}" for m in problems]
        return 1, int(bool(problems)), problems


WORKLOADS = {w.name: w for w in (ReportSpan, SweepEpr, ConstantsTol)}

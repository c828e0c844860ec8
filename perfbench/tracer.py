"""Spans and counts recorded around spdc_ng's public functions.

The library binds its functions into each other's namespaces with
``from .x import y``, so wrapping a function means replacing every module
attribute that holds it.  :meth:`Tracer.install` does that for each plain
function in the ``__all__`` of the seven layer modules, then verifies that no
``spdc_ng`` namespace still holds an original.

Every wrapped call becomes one span ``(name, start, end, parent, op, ...)``
kept in memory.  Integrands handed to ``integrate_1d`` are wrapped too, but
only counted (points and time) into their quadrature span, since they are
closures and not library functions.  Spans opened in a thread that has no
open span (the sweep's worker threads) take the harness thread's innermost
open span as parent.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import threading
import time

LAYERS = ("quadrature", "specfun", "distributions", "moments", "entropy",
          "gstate", "cli")
KERNELS = ("specfun.sinc", "specfun.sint", "specfun.sine_integral")
_FORMS = {"joint": "joint", "marginal": "marginal",
          "conditional_at": "conditional"}

# Span record fields, by position.
NAME, START, END, PARENT, OP, THREAD, POINTS, OSC, INTEGRAND_NS, \
    INCL_QCALLS, INCL_POINTS, FAILED = range(12)


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = None            # id of the op in progress; None = set-up
        self.counts = {}          # harness-side counts, e.g. cli.out_bytes
        self._local = threading.local()
        self._lock = threading.Lock()
        self._harness_stack = self._stack()   # the creating thread's
        self._originals = {}

    # ---------------------------------------------------------- install

    def install(self):
        """Wrap the public functions of every layer in every namespace."""
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"spdc_ng.{layer}")
            for name in mod.__all__:
                fn = getattr(mod, name)
                if inspect.isfunction(fn) and id(fn) not in wrappers:
                    self._originals[id(fn)] = fn
                    wrappers[id(fn)] = self._wrap(f"{layer}.{name}", fn)
        for mod in self._modules():
            for attr, value in list(vars(mod).items()):
                if self._originals.get(id(value)) is value:
                    setattr(mod, attr, wrappers[id(value)])
        self.check_coverage()

    def _modules(self):
        return [m for n, m in list(sys.modules.items())
                if m is not None and (n == "spdc_ng" or n.startswith("spdc_ng."))]

    def check_coverage(self):
        """Raise if any spdc_ng namespace still holds an unwrapped original."""
        missed = [f"{mod.__name__}.{attr}"
                  for mod in self._modules()
                  for attr, value in vars(mod).items()
                  if self._originals.get(id(value)) is value]
        if missed:
            raise RuntimeError(f"unwrapped library functions: {missed}")
        return len(self._originals)

    # ------------------------------------------------------------ spans

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif self._harness_stack:
            parent = self._harness_stack[-1]
        else:
            parent = -1
        rec = [name, 0, 0, parent, self.op, threading.get_ident(),
               0, False, 0, 0, 0, 0]
        with self._lock:
            index = len(self.spans)
            self.spans.append(rec)
        stack.append(index)
        rec[START] = time.perf_counter_ns()
        return rec

    def _close(self, rec):
        rec[END] = time.perf_counter_ns()
        stack = self._stack()
        stack.pop()
        if stack:
            up = self.spans[stack[-1]]
            up[INCL_QCALLS] += rec[INCL_QCALLS]
            up[INCL_POINTS] += rec[INCL_POINTS]

    def _wrap(self, name, fn):
        tracer = self
        if name == "entropy.negentropy":
            def span_name(args, kwargs):
                spec = args[0] if args else kwargs["spec"]
                return f"{name}.{_FORMS[spec.form]}"
        else:
            def span_name(args, kwargs):
                return name
        is_quad = name == "quadrature.integrate_1d"
        is_kernel = name in KERNELS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = tracer._open(span_name(args, kwargs))
            if is_quad:
                rec[INCL_QCALLS] = 1
                domain = args[1] if len(args) > 1 else kwargs["domain"]
                rec[OSC] = domain.osc_scale is not None
                args = (_counted(args[0], rec),) + args[1:]
            elif is_kernel:
                arg = args[0] if args else kwargs["x"]
                rec[POINTS] = getattr(arg, "size", 1)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                rec[FAILED] = 1
                raise
            finally:
                tracer._close(rec)

        return wrapper

    def add_count(self, name, value):
        self.counts[name] = self.counts.get(name, 0) + value

    def write(self, path):
        """Write every span as one JSON line."""
        keys = ("name", "start_ns", "end_ns", "parent", "op", "thread",
                "points", "osc", "integrand_ns", "incl_quad_calls",
                "incl_points", "failed")
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(dict(zip(keys, rec))) + "\n")


def _counted(f, rec):
    """The integrand f, counting its points and time into span `rec`."""
    def integrand(x):
        t0 = time.perf_counter_ns()
        try:
            return f(x)
        finally:
            rec[INTEGRAND_NS] += time.perf_counter_ns() - t0
            n = getattr(x, "size", 1)
            rec[POINTS] += n
            rec[INCL_POINTS] += n
    return integrand


# ------------------------------------------------------------ metrics


def _union_ns(intervals):
    total, end = 0, None
    for lo, hi in sorted(intervals):
        if end is None or lo > end:
            total += hi - lo
            end = hi
        elif hi > end:
            total += hi - end
            end = hi
    return total


# Metrics summed over the ops' spans and reported per op.
PER_OP = (
    "quadrature.calls", "quadrature.points.osc", "quadrature.points.plain",
    "quadrature.integrand_s", "quadrature.self_s", "quadrature.failed",
    "specfun.kernel_points", "specfun.kernel_s",
    "distributions.make_density.calls", "distributions.make_density.s",
    "distributions.marginal_of.calls", "distributions.marginal_of.s",
    "distributions.conditional_of.calls", "distributions.conditional_of.s",
    "distributions.failed",
    "moments.moments_1d.calls", "moments.moments_1d.s",
    "moments.conditional_variances.s",
    "entropy.negentropy.joint.s", "entropy.negentropy.joint.points",
    "entropy.negentropy.marginal.s", "entropy.negentropy.marginal.points",
    "entropy.negentropy.conditional.s", "entropy.negentropy.conditional.points",
    "gstate.s", "cli.self_s", "cli.out_bytes",
)
# Counts that two traced runs of the same ops must reproduce exactly.
DETERMINISTIC = tuple(k for k in PER_OP
                      if ".calls" in k or "points" in k or k == "cli.out_bytes")


def layer_metrics(tracer, n_ops):
    """Per-op layer metrics from the spans of ops (set-up spans excluded,
    except for the cold-constants time, which is per cold call)."""
    spans = tracer.spans
    s = 1e-9
    sums = dict.fromkeys(PER_OP, 0)

    def add(key, value):
        sums[key] += value

    def parent_name(rec):
        return spans[rec[PARENT]][NAME] if rec[PARENT] >= 0 else ""

    cold = []
    constants_calls = constants_hits = 0
    children = {}
    for i, rec in enumerate(spans):
        name, dur = rec[NAME], rec[END] - rec[START]
        if name == "specfun.shape_constants" and rec[INCL_QCALLS]:
            cold.append(dur)
        if rec[OP] is None:
            continue
        layer = name.split(".")[0]
        top_of_layer = not parent_name(rec).startswith(layer + ".")
        if rec[PARENT] >= 0:
            children.setdefault(rec[PARENT], []).append(rec)
        if name == "quadrature.integrate_1d":
            add("quadrature.calls", 1)
            add("quadrature.points.osc" if rec[OSC] else
                "quadrature.points.plain", rec[POINTS])
            add("quadrature.integrand_s", rec[INTEGRAND_NS] * s)
            if top_of_layer:
                add("quadrature.self_s", (dur - rec[INTEGRAND_NS]) * s)
                add("quadrature.failed", rec[FAILED])
        elif name in KERNELS:
            add("specfun.kernel_points", rec[POINTS])
            add("specfun.kernel_s", dur * s)
        elif name == "specfun.shape_constants":
            constants_calls += 1
            constants_hits += rec[INCL_QCALLS] == 0
        elif name.startswith("entropy.negentropy."):
            add(name + ".s", dur * s)
            add(name + ".points", rec[INCL_POINTS])
        if name in ("distributions.make_density", "distributions.marginal_of",
                    "distributions.conditional_of", "moments.moments_1d"):
            add(name + ".calls", 1)
            add(name + ".s", dur * s)
        if name == "moments.conditional_variances":
            add(name + ".s", dur * s)
        if layer == "distributions" and top_of_layer:
            add("distributions.failed", rec[FAILED])
        if layer == "gstate" and top_of_layer:
            add("gstate.s", dur * s)

    cli_wall = cli_self = threaded = 0
    for i, rec in enumerate(spans):
        if rec[NAME] != "cli.main" or rec[OP] is None:
            continue
        kids = children.get(i, [])
        cli_wall += rec[END] - rec[START]
        cli_self += (rec[END] - rec[START]) - _union_ns(
            [(k[START], k[END]) for k in kids])
        threaded += sum(k[END] - k[START] for k in kids
                        if k[THREAD] != rec[THREAD])
    sums["cli.self_s"] = cli_self * s
    sums.update(tracer.counts)

    out = {key: value / n_ops for key, value in sums.items()}
    out["cli.sweep_concurrency"] = threaded / cli_wall if cli_wall else 0.0
    out["specfun.constants_cold_s"] = (sum(cold) / len(cold) * s) if cold else 0.0
    out["specfun.constants_hit_ratio"] = (constants_hits / constants_calls
                                          if constants_calls else 0.0)
    return out

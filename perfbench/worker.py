"""One measuring process of the benchmark; run.py starts it.

    worker.py setup SRC
        Time ``import spdc_ng`` plus the first default ``shape_constants()``
        in this fresh interpreter.
    worker.py probe SRC WORKDIR
        Count the reports at workloads.KNOWN_FAILURES that still fail.
    worker.py run SRC WORKLOAD SEED WORKDIR (--seconds S | --ops N) [--spans PATH]
        Run a workload in this process: start ops until S seconds have
        passed, or run exactly the first N inputs.  With --spans the library is
        traced and the spans are written to PATH at the end.

Prints one JSON object as its last line.  Only standard-library modules are
imported before ``spdc_ng``, so the import is timed from a clean start.
"""

import argparse
import json
import os
import resource
import time


def _import_spdc_ng(src):
    """Import spdc_ng from SRC, returning the seconds it took."""
    t0 = time.perf_counter()
    import spdc_ng
    took = time.perf_counter() - t0
    origin = os.path.realpath(spdc_ng.__file__)
    if not origin.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"spdc_ng imported from {origin}, not from {src}")
    return took


def setup(src):
    t0 = time.perf_counter()
    import_s = _import_spdc_ng(src)
    import spdc_ng
    spdc_ng.shape_constants()
    return {"setup_s": time.perf_counter() - t0, "import_s": import_s}


def probe(src, workdir):
    _import_spdc_ng(src)
    from workloads import known_failures
    return {"known_failures": known_failures(workdir)}


def run(src, workload, seed, workdir, seconds=None, ops=None, spans=None):
    import_s = _import_spdc_ng(src)
    import spdc_ng
    from tracer import Tracer, layer_metrics
    from workloads import WORKLOADS

    wl = WORKLOADS[workload](seed, workdir)
    tracer = None
    if spans:
        tracer = Tracer()
        tracer.install()
    spdc_ng.shape_constants()           # set-up, as in setup_s

    latencies, attempted, failed, messages = [], 0, 0, []
    started = time.perf_counter()
    for inp in _inputs(wl, ops):
        if not ops and time.perf_counter() - started >= seconds:
            break
        op = len(latencies)
        if tracer:
            tracer.op = op
        t0 = time.perf_counter()
        raw = wl.execute(inp)
        latencies.append(time.perf_counter() - t0)
        if tracer:
            tracer.op = None
            if wl.out and os.path.exists(wl.out):
                tracer.add_count("cli.out_bytes", os.path.getsize(wl.out))
            if workload == "constants_tol":
                _require_cold(tracer, op)
        n, f, msgs = wl.check(inp, raw)
        attempted += n
        failed += f
        messages += msgs

    result = {
        "import_s": import_s,
        "latencies": latencies,
        "attempted": attempted,
        "failed": failed,
        "messages": messages[:20],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer:
        result["wrapped"] = tracer.check_coverage()
        result["layers"] = layer_metrics(tracer, attempted)
        tracer.write(spans)
    return result


def _inputs(wl, ops):
    """The first `ops` inputs, or batch after batch without end."""
    if ops:
        yield from wl.batch(ops)
    else:
        while True:
            yield from wl.batch(wl.batch_size)


def _require_cold(tracer, op):
    """The first shape_constants call of a constants_tol op must compute."""
    from tracer import INCL_QCALLS, NAME, OP
    first = next(r for r in tracer.spans
                 if r[OP] == op and r[NAME] == "specfun.shape_constants")
    if not first[INCL_QCALLS]:
        raise RuntimeError(f"constants_tol op {op} found its constants cached")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "probe", "run"))
    parser.add_argument("src")
    parser.add_argument("args", nargs="*")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--ops", type=int)
    parser.add_argument("--spans")
    args = parser.parse_args()
    if args.mode == "setup":
        result = setup(args.src)
    elif args.mode == "probe":
        workdir, = args.args
        result = probe(args.src, workdir)
    else:
        workload, seed, workdir = args.args
        result = run(args.src, workload, int(seed), workdir,
                     args.seconds, args.ops, args.spans)
    print(json.dumps(result))


if __name__ == "__main__":
    main()

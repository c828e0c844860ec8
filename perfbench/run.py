"""spdc-ng benchmark: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload report_span --seed 1 --seconds 30 --trace 0

Run from the repository root.  The workloads, their checks and the tracing
are in workloads.py, tracer.py and worker.py; BENCHMARK.json at the root
lists the metrics with their units.  Every measurement runs in a fresh child
interpreter (worker.py) with ``src/`` first on its path.

--trace 0  runs the workload untraced for --seconds, then times set-up in
           five fresh interpreters, and reports the end-to-end metrics.
--trace 1  runs the workload's fixed trace batch once untraced and twice
           traced, each in its own interpreter, checks that the two traced
           runs counted exactly the same work, and reports per-op layer
           metrics plus the tracing overhead.  A fourth interpreter counts
           the reports at workloads.KNOWN_FAILURES that still fail.

Human-readable lines go first; the last line of stdout is the JSON result.
Exits non-zero, printing no result, if the package or a worker fails.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import DETERMINISTIC
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_SAMPLES = 5
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def _worker(deadline, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *map(str, args)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {args[:2]} timed out") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {args[:2]} exited {proc.returncode}:\n"
                         f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail_latency(latencies):
    """The highest percentile with at least ten samples beyond it:
    (value, percentile, samples).  Fewer than 11 samples give the maximum."""
    ordered = sorted(latencies)
    n = len(ordered)
    k = n - 10 if n > 10 else n
    return ordered[k - 1], 100.0 * k / n, n


def end_to_end(workload, seed, seconds, deadline):
    run = _worker(deadline, "run", SRC, workload, seed, WORK,
                  "--seconds", seconds)
    run["correct"] = not run["failed"]
    setups = [_worker(deadline, "setup", SRC) for _ in range(SETUP_SAMPLES)]
    lat = run["latencies"]
    tail, pct, n = tail_latency(lat)
    metrics = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "ops_per_s": run["attempted"] / sum(lat),
        "latency_s_p50": statistics.median(lat),
        "latency_s_tail": tail,
        "peak_rss_mb": run["peak_rss_mb"],
    }
    notes = [f"latency_s_tail is p{pct:.1f} of {n} ops",
             f"failed_frac {run['failed'] / run['attempted']:.4g} "
             f"({run['failed']}/{run['attempted']})",
             f"spdc_ng import {statistics.median(s['import_s'] for s in setups):.3f} s"]
    return run, metrics, notes


def per_layer(workload, seed, deadline):
    ops = WORKLOADS[workload].trace_size
    base = _worker(deadline, "run", SRC, workload, seed, WORK, "--ops", ops)
    traced = [_worker(deadline, "run", SRC, workload, seed, WORK, "--ops", ops,
                      "--spans", WORK / f"spans-{i}.jsonl") for i in (1, 2)]
    one, two = (t["layers"] for t in traced)
    differ = [k for k in DETERMINISTIC if one[k] != two[k]]
    metrics = {k: statistics.mean((one[k], two[k])) for k in one}
    n_ops = base["attempted"]
    walls = [sum(r["latencies"]) / n_ops for r in [base] + traced]
    metrics["trace.overhead_s"] = statistics.mean(walls[1:]) - walls[0]
    metrics["spdc_ng.import_s"] = statistics.median(
        r["import_s"] for r in [base] + traced)
    metrics["report.known_failures"] = _worker(
        deadline, "probe", SRC, WORK)["known_failures"]
    run = dict(traced[0])
    run["correct"] = not differ and not any(r["failed"] for r in [base] + traced)
    run["messages"] = sum((r["messages"] for r in [base] + traced), [])
    if differ:
        run["messages"].append(f"traced runs counted different work: {differ}")
    notes = [f"{traced[0]['wrapped']} library functions wrapped; no original "
             f"left in any spdc_ng namespace",
             f"traced runs agree on {len(DETERMINISTIC) - len(differ)}/"
             f"{len(DETERMINISTIC)} work counts",
             f"tracing overhead {metrics['trace.overhead_s']:.4g} s per op "
             f"on {walls[0]:.4g} s untraced",
             f"spans written to {WORK.name}/spans-1.jsonl, spans-2.jsonl"]
    return run, metrics, notes


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    if not (SRC / "spdc_ng" / "__init__.py").is_file():
        print(f"benchmark: no spdc_ng package under {SRC}", file=sys.stderr)
        return 2
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    try:
        if args.trace:
            run, metrics, notes = per_layer(args.workload, args.seed, deadline)
        else:
            run, metrics, notes = end_to_end(args.workload, args.seed,
                                             args.seconds, deadline)
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    if set(metrics) != set(units):
        print(f"benchmark: metrics {sorted(set(metrics) ^ set(units))} do not "
              f"match BENCHMARK.json", file=sys.stderr)
        return 2

    print(f"# {args.workload} seed {args.seed} trace {args.trace}")
    for name in units:
        print(f"{name} = {metrics[name]:.6g} {units[name]}")
    for line in notes + run["messages"]:
        print(f"# {line}")
    print(json.dumps({
        "correct": run["correct"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

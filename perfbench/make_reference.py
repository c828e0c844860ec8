"""Write reference.json: the values the benchmark's checks compare against.

    PYTHONPATH=src python3 perfbench/make_reference.py

For every lattice point P = 10 ** (k / LATTICE) in [1e-3, 1e2] it records
the conditional variances at the CLI's default tolerance and either the
negentropies of `spdc-ng report --p P` or, where that report fails
(non-zero exit or a failed check of workloads.report_problems), the failure,
so that the benchmark counts it as known.  Takes about ten minutes on one core.
"""

import json
import os
import sys
import tempfile

from workloads import (LATTICE, NEGENTROPIES, REFERENCE, lattice_p, report,
                       report_problems)


def point(k, out):
    from spdc_ng import QuadTolerance
    from spdc_ng.distributions import Params
    from spdc_ng.moments import conditional_variances
    p = lattice_p(k)
    cv = conditional_variances(Params(p=p), QuadTolerance())
    ref = {"p": p, "var_q_cond": cv.var_q_cond, "var_x_cond": cv.var_x_cond}
    rec = report(p, out)
    problems = report_problems(p, rec)
    if problems:
        ref["report_failure"] = "; ".join(problems)
    else:
        ref["report"] = {name: rec[name] for name in NEGENTROPIES}
    return ref


def main():
    points = {}
    with tempfile.TemporaryDirectory() as tmp:
        for k in range(-3 * LATTICE, 2 * LATTICE + 1):
            points[str(k)] = point(k, os.path.join(tmp, "report.json"))
            if "report_failure" in points[str(k)]:
                print(f"k={k} p={lattice_p(k):.4g}: "
                      f"{points[str(k)]['report_failure']}", file=sys.stderr)
    with open(REFERENCE, "w") as fh:
        json.dump({"lattice_per_decade": LATTICE, "points": points}, fh,
                  indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()

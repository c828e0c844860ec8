"""Smoke tests: every script under demos/ runs to completion."""

import os
import pathlib
import subprocess
import sys

import pytest

import spdc_ng

DEMOS = sorted((pathlib.Path(__file__).parent.parent / "demos").glob("*.py"))
SRC = os.path.dirname(os.path.dirname(spdc_ng.__file__))


def _run(script, cwd):
    return subprocess.run([sys.executable, str(script)], cwd=cwd,
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": SRC})


@pytest.mark.parametrize("script", DEMOS, ids=lambda d: d.name)
def test_demo_runs(script, tmp_path):
    res = _run(script, tmp_path)
    assert res.returncode == 0, res.stderr
    if script.name == "nongaussianity_decomposition.py":
        # Rows are "P nG_total nG_cond nG_marg residual"; the total is the
        # same at every P.
        rows = [line.split() for line in res.stdout.splitlines()]
        totals = [float(r[1]) for r in rows
                  if len(r) == 5 and r[0][0].isdigit()]
        assert len(totals) == 7
        assert all(abs(t - 0.37938) <= 1e-4 for t in totals)

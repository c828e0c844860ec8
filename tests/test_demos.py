"""Smoke tests: every script under demos/ and every ``spdc-ng`` command in
the README's CLI block runs to completion."""

import os
import pathlib
import shlex
import subprocess
import sys

import pytest

import spdc_ng
from spdc_ng import cli

ROOT = pathlib.Path(__file__).parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
SRC = os.path.dirname(os.path.dirname(spdc_ng.__file__))


def _readme_cli_commands():
    """The argument lists of the ``spdc-ng`` lines in the README's CLI
    block, comments dropped."""
    text = (ROOT / "README.md").read_text()
    block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1]
    lines = block.split("```", 1)[0].splitlines()
    return [shlex.split(line, comments=True)[1:] for line in lines
            if line.startswith("spdc-ng ")]


README_COMMANDS = _readme_cli_commands()


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


def test_readme_shows_every_command():
    assert {argv[0] for argv in README_COMMANDS} == \
        {"report", "sweep", "figure", "constants"}


@pytest.mark.parametrize("argv", README_COMMANDS, ids=" ".join)
def test_readme_cli_command_runs(argv, tmp_path):
    assert cli.main(argv + ["--out", str(tmp_path / "out")]) == 0

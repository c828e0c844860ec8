"""End-to-end tests of the command-line interface."""

import argparse
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import spdc_ng
from spdc_ng import cli, distributions, quadrature, specfun
from spdc_ng.cli import (_FIG_SWEEPS, _grid, _report_record, _sweep_values,
                         main)
from spdc_ng.distributions import (Params, conditional_of, gaussian_equivalent,
                                   make_density, marginal_of)
from spdc_ng.entropy import gaussian_entropy_closed, negentropy
from spdc_ng.gstate import delta_b, two_mode_cov
from spdc_ng.moments import (conditional_variances, covariance_closed,
                             covariance_numeric, epr_product,
                             gaussian_conditional_variances,
                             gaussian_epr_product, mancini_boundary,
                             mancini_product, moments_1d)
from spdc_ng.quadrature import QuadratureError, QuadTolerance
from spdc_ng.specfun import shape_constants

FAST = ["--abs-tol", "1e-8", "--rel-tol", "1e-6"]
FAST_TOL = QuadTolerance(abs_tol=1e-8, rel_tol=1e-6)


def _run(args):
    return main(args)


def _ng(params, form, *planes):
    """The summed negentropies of ``form(joint)`` over ``planes``, and the
    summed error estimates."""
    ns = [negentropy(form(make_density(plane, "spdc", params, FAST_TOL)))
          for plane in planes]
    return [sum(n.value for n in ns), sum(n.err_estimate for n in ns)]


FF, NF = "far_field", "near_field"
# Each sweep quantity's (value and error, Gaussian-model column or None) as
# the library expression it names.
LIBRARY_CELLS = {
    "epr": (lambda pr: [epr_product(pr, FAST_TOL).product, 0.0],
            lambda a, pr: gaussian_epr_product(a, pr).product),
    "mancini": (lambda pr: [mancini_product(pr, "spdc"), 0.0],
                lambda a, pr: mancini_product(pr, "gaussian", alpha=a)),
    "ng_total": (lambda pr: _ng(pr, lambda joint: joint, FF, NF), None),
    "ng_cond": (lambda pr: _ng(pr, conditional_of, FF, NF), None),
    "ng_marg": (lambda pr: _ng(pr, marginal_of, FF, NF), None),
    "negentropy_ff_cond": (lambda pr: _ng(pr, conditional_of, FF), None),
    "negentropy_nf_cond": (lambda pr: _ng(pr, conditional_of, NF), None),
    "negentropy_ff_marg": (lambda pr: _ng(pr, marginal_of, FF), None),
    "negentropy_nf_marg": (lambda pr: _ng(pr, marginal_of, NF), None),
    "var_q_norm": (
        lambda pr: [conditional_variances(pr, FAST_TOL).var_q_norm, 0.0],
        lambda a, pr: gaussian_conditional_variances(a, pr)[0] * pr.p * pr.p),
    "var_x_norm": (
        lambda pr: [conditional_variances(pr, FAST_TOL).var_x_norm, 0.0],
        lambda a, pr: (gaussian_conditional_variances(a, pr)[1]
                       / (pr.p * pr.p))),
    "delta_b": (lambda pr: [delta_b(pr), 0.0], None),
}


class TestExitCodes:
    def test_report_ok(self, tmp_path):
        out = tmp_path / "r.json"
        assert _run(["report", "--p", "1.0", "--out", str(out)] + FAST) == 0

    def test_cross_check_failure_is_named(self, monkeypatch, capsys):
        c_of = distributions._MarginalTable.c_of
        monkeypatch.setattr(distributions._MarginalTable, "c_of",
                            lambda table, z: (1.0 + 1e-5) * c_of(table, z))
        assert _run(["report", "--p", "1.0"] + FAST) == 2
        # The message names the failing leg and gives both of its numbers;
        # it was the prefix alone before.
        err = capsys.readouterr().err
        legs = re.fullmatch(
            "spdc-ng: computation failed: MarginalCrossCheckError: marginal "
            "table disagrees with direct quadrature: origin weight (.+), "
            "table (.+)\n", err)
        assert legs, err
        weight, table = map(float, legs.groups())
        assert table / weight == pytest.approx(1.0 + 1e-5, rel=1e-9)

    def test_unknown_quantity_is_usage_error(self, capsys):
        assert _run(["sweep", "--quantity", "bogus"]) == 1
        assert "error" in capsys.readouterr().err

    def test_bad_threads_is_usage_error(self, capsys):
        assert _run(["sweep", "--quantity", "delta_b", "--steps", "2",
                     "--threads", "0"]) == 1
        assert "--threads must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("args, name", ((["--p", "inf"], "p"),
                                            (["--p", "1", "--sigma", "inf"],
                                             "sigma")))
    def test_non_finite_parameter_is_computation_error(self, capsys, args,
                                                        name):
        assert _run(["report"] + args + FAST) == 2
        assert (f"computation failed: ValueError: {name} must be"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("p", ("1e200", "1e-200"))
    def test_p_out_of_the_kernels_range_names_p(self, capsys, tmp_path, p):
        # The far-field phase scale P^2/2 overflows at 1e200 and underflows
        # at 1e-200; the message names p, not an integration hint.
        message = (f"ValueError: p = {float(p)!r} is out of range: the far "
                   "field kernel's phase scale P^2/2 must be positive and "
                   "finite")
        assert _run(["report", "--p", p] + FAST) == 2
        assert capsys.readouterr().err == \
            f"spdc-ng: computation failed: {message}\n"
        out = tmp_path / "s.csv"
        assert _run(["sweep", "--quantity", "ng_marg", "--p-min", p,
                     "--p-max", f"{2 * float(p)!r}", "--steps", "2",
                     "--threads", "1", "--out", str(out)] + FAST) == 3
        rows = out.read_text().splitlines()[2:]
        assert len(rows) == 2 and rows[0].endswith(message)

    @pytest.mark.parametrize("quantity", sorted(set(cli._QUANTITIES)
                                                - cli._ALPHA_AWARE))
    def test_alpha_on_a_quantity_without_overlays_is_usage_error(
            self, capsys, quantity):
        assert _run(["sweep", "--quantity", quantity, "--alpha", "0.5",
                     "--steps", "2", "--p-min", "1", "--p-max", "2"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == (
            f"spdc-ng: error: --alpha does not apply to --quantity "
            f"{quantity}; it applies to epr, mancini, var_q_norm, "
            "var_x_norm\n")

    @pytest.mark.parametrize("alpha", ("0", "-1", "inf", "nan"))
    @pytest.mark.parametrize("quantity", ("epr", "mancini"))
    def test_bad_alpha_is_usage_error(self, capsys, quantity, alpha):
        assert _run(["sweep", "--quantity", quantity, "--alpha", alpha,
                     "--steps", "2", "--p-min", "1", "--p-max", "2"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == ("spdc-ng: error: --alpha: gaussian "
                                     "model requires a positive finite alpha\n")

    @pytest.mark.parametrize("args, message", (
        (["figure", "2", "--p", "3"],
         "--p does not apply to figure 2; it applies to 1a, 1b, 1c, 1d"),
        (["figure", "1a", "--threads", "1"],
         "--threads does not apply to figure 1a; it applies to 1e, 1f, 2, "
         "3c, 3d, mancini, supp_ngm, 3a, 3b"),
        (["constants", "--sigma", "2"], "unrecognized arguments: --sigma 2"),
        (["constants", "--rel-tol", "1e-6"],
         "unrecognized arguments: --rel-tol 1e-6"),
        (["sweep", "--quantity", "delta_b", "--log"],
         "unrecognized arguments: --log")))
    def test_flag_the_command_does_not_read_is_usage_error(self, capsys, args,
                                                           message):
        assert _run(args) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == f"spdc-ng: error: {message}\n"

    def test_infinite_p_max_is_usage_error(self, capsys):
        assert _run(["sweep", "--quantity", "mancini", "--p-min", "0.1",
                     "--p-max", "inf", "--steps", "3"]) == 1
        assert "both finite" in capsys.readouterr().err

    @pytest.mark.parametrize("abs_tol", ("-1", "inf"))
    def test_negative_tolerance_is_computation_error(self, capsys, abs_tol):
        for command in (["report", "--p", "1.0"], ["constants"]):
            assert _run(command + ["--abs-tol", abs_tol]) == 2
            assert ("computation failed: ValueError"
                    in capsys.readouterr().err)

    def test_invalid_rows_give_partial_failure(self, tmp_path):
        # sigma < 1 is rejected per grid point: sentinel rows, exit 3.
        out = tmp_path / "s.csv"
        code = _run(["sweep", "--quantity", "delta_b", "--sigma", "0.5",
                     "--steps", "3", "--out", str(out)] + FAST)
        assert code == 3
        rows = out.read_text().splitlines()
        assert rows[0] == "# spdc-ng v1"
        assert all(line.split(",")[-1].startswith("ValueError")
                   for line in rows[2:])


class TestReport:
    def test_json_fields(self, tmp_path):
        out = tmp_path / "r.json"
        _run(["report", "--p", "0.2", "--out", str(out)] + FAST)
        rec = json.loads(out.read_text())
        assert rec["epr_entangled"] is True
        assert rec["epr_product"] == pytest.approx(
            rec["var_q_cond"] * rec["var_x_cond"], rel=1e-12)
        assert rec["decomposition_residual"] == pytest.approx(
            rec["ng_total"] - rec["ng_cond"] - rec["ng_marg"], abs=1e-12)
        assert rec["units"] == {"negentropy": "bits", "delta_b": "nats"}

    def test_csv_report_round_trips_json(self, tmp_path):
        csv_map = _assert_csv_matches_json(tmp_path,
                                           ["report", "--p", "1.0"] + FAST)
        assert csv_map["epr_entangled"] == "false"
        assert csv_map["units_negentropy"] == "bits"


def _assert_csv_matches_json(tmp_path, command):
    """Run ``command`` as JSON and as CSV, check that the CSV rows are the
    JSON record's cells in its order, a nested record's keys prefixed by
    its name (``err_`` for ``errors``), and return the CSV rows by key."""
    a, b = tmp_path / "r.json", tmp_path / "r.csv"
    assert _run(command + ["--out", str(a)]) == 0
    assert _run(command + ["--format", "csv", "--out", str(b)]) == 0
    rec = json.loads(a.read_text())
    lines = b.read_text().splitlines()
    assert lines[0] == "# spdc-ng v1" and lines[1] == "key,value"
    cells = []
    for key, value in rec.items():
        if isinstance(value, dict):
            prefix = "err" if key == "errors" else key
            cells += [(f"{prefix}_{k}", v) for k, v in value.items()]
        else:
            cells.append((key, value))
    rows = [line.split(",", 1) for line in lines[2:]]
    assert [k for k, _ in rows] == [k for k, _ in cells]
    for (key, text), (_, value) in zip(rows, cells):
        if isinstance(value, bool):
            assert text == str(value).lower(), key
        elif isinstance(value, str):
            assert text == value, key
        else:
            assert float(text) == value and text == repr(float(value)), key
    return dict(rows)


class TestConstants:
    def test_csv_constants_round_trips_json(self, tmp_path):
        csv_map = _assert_csv_matches_json(tmp_path,
                                           ["constants", "--abs-tol", "1e-8"])
        assert {"err_a1", "err_i_ff", "err_i_nf"} <= set(csv_map)


class TestSweep:
    def test_columns_and_alpha_overlays(self, tmp_path):
        out = tmp_path / "m.csv"
        code = _run(["sweep", "--quantity", "mancini", "--steps", "4",
                     "--alpha", "0.45", "--alpha", "0.72",
                     "--out", str(out)] + FAST)
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[1] == ("p,mancini,mancini_err,mancini_gauss_a0.45,"
                            "mancini_gauss_a0.72,error")
        p, v, _, g45, _, _ = lines[-1].split(",")
        assert float(g45) == pytest.approx(0.45 * float(p) ** 2, rel=1e-12)
        assert float(v) > 0

    def test_quantities_are_the_library_cells(self):
        assert set(cli._QUANTITIES) == set(LIBRARY_CELLS)
        assert cli._ALPHA_AWARE == {
            q for q, (_, gauss) in LIBRARY_CELLS.items() if gauss is not None}

    @pytest.mark.parametrize("quantity", LIBRARY_CELLS)
    def test_cell_is_the_library_call_it_names(self, quantity):
        # Grid values, numpy floats as a sweep passes them.
        grid = np.geomspace(0.01, 3.0, 60)
        spdc, gauss = LIBRARY_CELLS[quantity]
        alphas = (0.45, 0.72) if gauss else ()
        params = Params(p=grid[40])
        expected = spdc(params) + [gauss(a, params) for a in alphas]
        got = _sweep_values(quantity, grid[40], 1.0, alphas, FAST_TOL)
        assert [float(v).hex() for v in got] == \
            [float(v).hex() for v in expected]
        if gauss:
            # The Gaussian columns are closed forms: every grid point.
            column = cli._SWEEPS[quantity][1]
            for params in map(Params, grid):
                assert [float(column(a, params)).hex() for a in alphas] == \
                    [float(gauss(a, params)).hex() for a in alphas]

    def test_one_thread_unless_asked(self, monkeypatch, tmp_path):
        workers = []

        class Pool(cli.ThreadPoolExecutor):
            def __init__(self, max_workers=None, **kwargs):
                workers.append(max_workers)
                super().__init__(max_workers, **kwargs)

        monkeypatch.setattr(cli, "ThreadPoolExecutor", Pool)
        base = ["sweep", "--quantity", "epr", "--alpha", "0.72", "--p-min",
                "0.1", "--p-max", "5", "--steps", "4"] + FAST
        outs = []
        for threads in ([], ["--threads", "1"], ["--threads", "2"]):
            out = tmp_path / f"{len(outs)}.csv"
            assert _run(base + threads + ["--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] == outs[2]
        assert workers == [1, 1, 2]

    def test_deterministic_across_runs_and_threads(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        base = ["sweep", "--quantity", "delta_b", "--steps", "8"] + FAST
        assert _run(base + ["--threads", "1", "--out", str(a)]) == 0
        assert _run(base + ["--threads", "4", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_marginal_sweep_same_bytes_on_two_threads(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        base = ["sweep", "--quantity", "ng_marg", "--p-min", "0.3",
                "--p-max", "3", "--steps", "4"]
        assert _run(base + ["--threads", "1", "--out", str(a)]) == 0
        assert _run(base + ["--threads", "2", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_epr_sweep_same_bytes_on_two_threads(self, tmp_path):
        # Each thread's slices read their own kernel stores.
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        base = ["sweep", "--quantity", "epr", "--p-min", "0.1",
                "--p-max", "5", "--steps", "6"] + FAST
        assert _run(base + ["--threads", "1", "--out", str(a)]) == 0
        assert _run(base + ["--threads", "2", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_linear_grid(self, tmp_path):
        out = tmp_path / "l.csv"
        _run(["sweep", "--quantity", "delta_b", "--linear", "--p-min", "1",
              "--p-max", "2", "--steps", "3", "--out", str(out)] + FAST)
        ps = [float(r.split(",")[0]) for r in out.read_text().splitlines()[2:]]
        assert ps == [1.0, 1.5, 2.0]


class TestFigure:
    def test_cross_section_panel(self, tmp_path):
        out = tmp_path / "f.csv"
        assert _run(["figure", "1a", "--out", str(out)] + FAST) == 0
        lines = out.read_text().splitlines()
        assert lines[1] == "coord,spdc,gauss_a0.45,gauss_a0.72"
        assert len(lines) == 2 + 201
        mid = lines[2 + 100].split(",")
        assert float(mid[0]) == pytest.approx(0.0, abs=1e-12)
        assert float(mid[1]) > float(lines[2].split(",")[1])

    def test_pair_sweep_columns(self, tmp_path):
        # Figure 3a is the two conditional negentropy sweeps on its grid,
        # joined column-wise.
        out = tmp_path / "p.csv"
        assert _run(["figure", "3a", "--threads", "8", "--out", str(out)]
                    + FAST) == 0
        lines = out.read_text().splitlines()
        assert lines[1] == ("p,negentropy_ff_cond,negentropy_ff_cond_err,"
                            "negentropy_nf_cond,negentropy_nf_cond_err,error")
        sweeps = []
        for plane in ("ff", "nf"):
            path = tmp_path / f"{plane}.csv"
            assert _run(["sweep", "--quantity", f"negentropy_{plane}_cond",
                         "--threads", "8", "--out", str(path)] + FAST) == 0
            sweeps.append(path.read_text().splitlines())
        ff, nf = sweeps
        assert len(lines) == len(ff) == len(nf) == 2 + 60
        for row, a, b in zip(lines[2:], ff[2:], nf[2:]):
            a, b = a.split(","), b.split(",")
            assert a[0] == b[0] and a[-1] == b[-1] == ""
            assert row.split(",") == a[:-1] + b[1:]


class TestCentredCrossCheck:
    """Reports whose cross-check once failed on an uncentred direct
    integral at x2 = 0.7 g_width, now a kernel-centred slice weight."""

    @pytest.mark.parametrize("log_p", (-0.93, 0.93, 1.63))
    def test_lattice_report(self, tmp_path, log_p):
        out = tmp_path / "r.json"
        assert _run(["report", "--p", repr(10.0 ** log_p),
                     "--out", str(out)]) == 0
        # ng_total is n_small + n_large at every P.
        assert json.loads(out.read_text())["ng_total"] == \
            pytest.approx(0.3793776, abs=1e-5)

    def test_wide_pump_report(self, tmp_path):
        # Near field, x2 = 3.5: the kernel peak sits far outside a core
        # about 0, which only tail blocks saw.
        out = tmp_path / "r.json"
        assert _run(["report", "--p", "0.01", "--sigma", "5",
                     "--out", str(out)]) == 0

    def test_supp_ngm_figure(self, tmp_path):
        out = tmp_path / "f.csv"
        assert _run(["figure", "supp_ngm", "--threads", "1",
                     "--out", str(out)]) == 0
        rows = out.read_text().splitlines()[2:]
        assert len(rows) == 30
        assert all(row.split(",")[-1] == "" for row in rows)


class TestKernelVarianceFailure:
    """Where the s2_v core is held to abs_tol alone, its error estimate is
    too small, and a report fails on the kernel variance."""

    @pytest.mark.parametrize("args", (["--p", "0.001"],
                                      ["--p", "0.0034"] + FAST))
    def test_report_names_the_kernel_variance(self, capsys, args):
        assert _run(["report"] + args) == 2
        err = capsys.readouterr().err
        assert "kernel variance" in err and "marginal table" not in err

    def test_thinned_lattice(self):
        # Every 10th point of P = 10^(k/100), k = -300...200: the near-field
        # s2_v core is abs-held for k <= -248, and no cross-check fails.
        shape_constants()
        raised = {}
        for k in range(-300, 201, 10):
            try:
                _report_record(10.0 ** (k / 100), 1.0, QuadTolerance())
            except QuadratureError as exc:
                raised[k] = "kernel variance" in str(exc)
        assert raised == dict.fromkeys(range(-300, -247, 10), True)


def _values(option, a, b):
    return [option, a], [option, b]


TOLS = {"--abs-tol": _values("--abs-tol", "1e-10", "1e-6"),
        "--rel-tol": _values("--rel-tol", "1e-8", "1e-6")}
# A cheap valid command of each subcommand, and for each of its options two
# argument lists that must print different bytes.
OPTION_CASES = {
    "report": (["report", "--p", "1"], {
        "--p": _values("--p", "1", "2"),
        "--format": _values("--format", "json", "csv"),
        "--sigma": _values("--sigma", "1", "2"), **TOLS}),
    "sweep": (["sweep", "--quantity", "ng_cond", "--steps", "3",
               "--p-min", "1", "--p-max", "2"], {
        "--quantity": _values("--quantity", "ng_cond", "ng_marg"),
        "--p-min": _values("--p-min", "1", "1.5"),
        "--p-max": _values("--p-max", "2", "3"),
        "--steps": _values("--steps", "3", "4"),
        "--linear": ([], ["--linear"]),
        "--alpha": (["--quantity", "mancini", "--alpha", "0.5"],
                    ["--quantity", "mancini", "--alpha", "0.7"]),
        "--sigma": _values("--sigma", "1", "2"), **TOLS}),
    "figure": (["figure", "1b"], {
        "--p": _values("--p", "0.1", "2"),
        "--sigma": _values("--sigma", "1", "2"), **TOLS}),
    "constants": (["constants"], {
        "--format": _values("--format", "json", "csv"),
        "--abs-tol": TOLS["--abs-tol"]}),
}


def _registered_options():
    """(subcommand, option) for every option the parser registers, but help,
    --out and --threads, which other tests pin to leave the bytes alone."""
    sub = next(a for a in cli._build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return [(name, action.option_strings[-1])
            for name, parser in sub.choices.items()
            for action in parser._actions
            if action.option_strings
            and not isinstance(action, argparse._HelpAction)
            and action.option_strings[-1] not in ("--out", "--threads")]


class TestOptions:
    """Each option of each subcommand changes what the command prints."""

    def test_every_subcommand_is_walked(self):
        assert {c for c, _ in _registered_options()} == set(OPTION_CASES)

    @pytest.mark.parametrize("command, option", _registered_options())
    def test_option_changes_the_output(self, capsys, command, option):
        base, cases = OPTION_CASES[command]
        assert option in cases, f"no case for {command} {option}"
        outputs = []
        for args in cases[option]:
            assert _run(base + args) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] != outputs[1]


class TestInstalledScript:
    def test_console_entry_point(self):
        src = os.path.dirname(os.path.dirname(spdc_ng.__file__))
        res = subprocess.run([sys.executable, "-m", "spdc_ng.cli",
                              "constants", "--format", "json",
                              "--abs-tol", "1e-8"],
                             capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src})
        assert res.returncode == 0
        rec = json.loads(res.stdout)
        assert rec["sinc_moment_ratio"] == pytest.approx(0.75, abs=1e-6)
        assert rec["a1"] == pytest.approx(1.4007666, abs=1e-5)


def _count_calls(monkeypatch, *names):
    """Count calls of the named functions that distributions binds,
    through every spdc_ng namespace that binds them."""
    counts = dict.fromkeys(names, 0)
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "spdc_ng" or n.startswith("spdc_ng."))]
    for name in names:
        orig = getattr(distributions, name)

        def spy(*args, _name=name, _orig=orig, **kwargs):
            counts[_name] += 1
            return _orig(*args, **kwargs)

        for mod in modules:
            if vars(mod).get(name) is orig:
                monkeypatch.setattr(mod, name, spy)
    return counts


def _count_oscillatory_points(monkeypatch):
    """A one-item list that counts the integrand points of every
    oscillatory integral from now on."""
    points = [0]
    run = quadrature._integrate_oscillatory

    def spy(f, *args, **kwargs):
        def counted(x):
            points[0] += np.size(x)
            return f(x)
        return run(counted, *args, **kwargs)

    monkeypatch.setattr(quadrature, "_integrate_oscillatory", spy)
    return points


def _count_integrand_points(monkeypatch):
    """A one-item list that counts the integrand points of every adaptive
    core and every tail from now on."""
    points = [0]

    def counting(run):
        def spy(f, *args, **kwargs):
            def counted(x):
                points[0] += np.size(x)
                return f(x)
            return run(counted, *args, **kwargs)
        return spy

    for name in ("_adaptive_finite", "_tail_blocks"):
        monkeypatch.setattr(quadrature, name,
                            counting(getattr(quadrature, name)))
    return points


class TestConstructionCounts:
    def test_report_builds_each_density_once(self, monkeypatch):
        counts = _count_calls(monkeypatch, "make_density", "conditional_of",
                              "marginal_of")
        _report_record(1.0, 1.0, FAST_TOL)
        # Per plane: the origin slice, which the cross-check reads.  The
        # cross-check's slice at x2 = 0.7 g_width made it 4 before.
        assert counts == {"make_density": 2, "conditional_of": 2,
                          "marginal_of": 2}

    @pytest.mark.parametrize("quantity", ("var_q_norm", "var_x_norm"))
    def test_variance_row_builds_one_joint(self, monkeypatch, quantity):
        counts = _count_calls(monkeypatch, "make_density")
        _sweep_values(quantity, 1.0, 1.0, (0.72,), FAST_TOL)
        assert counts == {"make_density": 1}

    @pytest.mark.parametrize("p", (0.02, 1.0, 20.0))
    def test_report_integral_count(self, monkeypatch, p):
        shape_constants(FAST_TOL)
        counts = _count_calls(monkeypatch, "integrate_1d")
        _report_record(p, 1.0, FAST_TOL)
        # Per plane: the origin slice's weight, variance and entropy, the
        # kernel variance's core and the marginal entropy.  12 with the
        # 0.7 g_width cross-check's slice weight.
        assert counts == {"integrate_1d": 10}

    @pytest.mark.parametrize("p", (0.0034, 0.05, 1.0, 20.0, 99.0))
    def test_report_marginal_table_builds(self, monkeypatch, p):
        # One table per marginal, built once at its full reach.
        shape_constants()
        calls = []
        build = distributions._MarginalTable._build

        def spy(table, zmax):
            calls.append((table.joint.plane, zmax == 1.05 * table.z_cap))
            return build(table, zmax)

        monkeypatch.setattr(distributions._MarginalTable, "_build", spy)
        _report_record(p, 1.0, QuadTolerance())
        assert sorted(calls) == [("far_field", True), ("near_field", True)]

    @pytest.mark.parametrize("p, expected", ((0.0034, 466362), (1.0, 26694),
                                             (99.0, 712122)))
    def test_report_integrand_points(self, monkeypatch, p, expected):
        # Oscillatory integrals fold their left tail onto the right, and
        # tail blocks take 15 points.  The kernel variances integrate their
        # cores alone.  The marginal entropies take every tail block past
        # their table's reach from its closed antiderivative (8,192 blocks
        # each at P = 1 before), and the x2 = 0 cross-check reads the origin
        # slice's weight.  The slice's variance and entropy integrals each
        # count their points here: 904,684 / 283,328 / 1,163,424 points
        # before.  The
        # x2 = 0.7 g_width leg, once an uncentred integral at 100x the
        # report's tolerance, is a kernel-centred slice at the report's
        # tolerance: 656,226 / 35,406 / 914,702 points before.  Adaptive
        # panels evaluate their 21 distinct nodes, not 22 with the midpoint
        # twice: 719,602 / 35,406 / 965,714 points before.  The cross-check
        # checks the table's mass instead of integrating the x2 = 0.7
        # g_width slice: 717,906 / 34,398 / 964,002 points before.
        shape_constants()
        points = _count_integrand_points(monkeypatch)
        _report_record(p, 1.0, QuadTolerance())
        assert points[0] == expected

    @pytest.mark.parametrize("p, expected", ((0.0034, 391678),
                                             (1.0, 27230), (99.0, 360184)))
    def test_report_kernel_points(self, kernel_points, p, expected):
        # A slice's passes read the slice values kept under every node
        # array an earlier pass evaluated: 769,078 / 40,550 / 737,920
        # kernel points before.  No slice is integrated at x2 = 0.7 g_width
        # for the cross-check: 643,222 / 34,934 / 612,064 before.
        shape_constants()
        _report_record(p, 1.0, QuadTolerance())
        assert kernel_points[0] == expected

    def test_figure_2_conditional_variances_kernel_points(self,
                                                          kernel_points):
        # The variance pass evaluates the kernel only at nodes the weight
        # pass did not: 664,242 kernel points before.
        shape_constants()
        *_, p_min, p_max, steps, log = _FIG_SWEEPS["2"]
        for p in _grid(p_min, p_max, steps, log):
            conditional_variances(Params(p=p), QuadTolerance())
        assert kernel_points[0] == 358338

    def test_report_integrates_no_loose_origin_leg(self, monkeypatch):
        # Every integral of a report runs at the report's tolerance.  The
        # cross-check reads the origin slice's weight at x2 = 0 and the
        # table's own mass, so every integral is centred at 0.  Before, it
        # integrated a slice centred at x2 = 0.7 g_width on each plane.
        shape_constants()
        tol = QuadTolerance()
        seen = []
        run = quadrature._integrate

        def spy(f, domain, tol_, seed_points):
            seen.append((domain.centre, tol_))
            return run(f, domain, tol_, seed_points)

        monkeypatch.setattr(quadrature, "_integrate", spy)
        _report_record(1.0, 1.0, tol)
        assert seen and all(t == tol for _, t in seen)
        assert [c for c, _ in seen if c] == []

    @pytest.mark.parametrize("p, expected", ((0.1, 21000), (1.0, 11232),
                                             (5.0, 11226)))
    def test_conditional_variances_integrand_points(self, monkeypatch, p,
                                                    expected):
        # The pump Gaussian kills the origin slices' tails.  Each tail stops
        # at the first of 64, 128, ... blocks that settles it; at P = 0.1
        # and 5 a full round of 4,096 blocks cost 132,720 and 71,052 points.
        # 21,360 / 11,584 / 11,532 points with 22-node panels.
        shape_constants()
        points = _count_oscillatory_points(monkeypatch)
        conditional_variances(Params(p=p), QuadTolerance())
        assert points[0] == expected

    def test_report_adaptive_core_calls(self, monkeypatch):
        # The cores evaluate their initial panels in one call and bisect in
        # look-ahead batches: 1,182 calls of one panel at a time.
        # 35 with the integrated x2 = 0 cross-check, 33 with the x2 = 0.7
        # g_width one.
        shape_constants()
        calls = [0]
        run = quadrature._adaptive_finite

        def spy(f, *args, **kwargs):
            def counted(x):
                calls[0] += 1
                return f(x)
            return run(counted, *args, **kwargs)

        monkeypatch.setattr(quadrature, "_adaptive_finite", spy)
        _report_record(1.0, 1.0, QuadTolerance())
        assert calls[0] == 31

    def test_cold_shape_constants_integrate_two(self, monkeypatch):
        # a1, a2, b1 and the sinc moment ratio are closed forms.  The
        # log-integrals i_ff and i_nf each integrate their first lobes once;
        # their periods beyond are fixed Gauss rules and their tails closed
        # forms, which call no quadrature.
        monkeypatch.setattr(specfun, "_cache", {})
        counts = _count_calls(monkeypatch, "integrate_1d")
        shape_constants(FAST_TOL)
        assert counts == {"integrate_1d": 2}

    @pytest.mark.parametrize("quantity, calls", (("epr", 4),
                                                 ("var_q_norm", 2),
                                                 ("var_x_norm", 2),
                                                 ("ng_cond", 6),
                                                 ("ng_total", 2),
                                                 ("ng_marg", 6)))
    def test_row_integral_count(self, monkeypatch, quantity, calls):
        # A conditional's weight, then one call per moment and entropy.
        # ng_marg made 8 while its cross-check integrated a second slice.
        shape_constants(FAST_TOL)
        counts = _count_calls(monkeypatch, "integrate_1d")
        _sweep_values(quantity, 1.0, 1.0, (0.72,), FAST_TOL)
        assert counts == {"integrate_1d": calls}

    @pytest.mark.parametrize("plane", ("far_field", "near_field"))
    @pytest.mark.parametrize("model, alpha", (("spdc", None),
                                              ("gaussian", 0.72)))
    def test_joint_integrates_nothing(self, monkeypatch, plane, model, alpha):
        monkeypatch.setattr(specfun, "_cache", {})
        counts = _count_calls(monkeypatch, "integrate_1d")
        make_density(plane, model, Params(p=1.0), FAST_TOL,
                     alpha=alpha)
        assert counts == {"integrate_1d": 0}

    def test_origin_slice_mean_is_not_integrated(self, monkeypatch):
        j = make_density("near_field", "spdc", Params(p=1.0),
                         FAST_TOL)
        origin = conditional_of(j, 0.0)
        off = conditional_of(j, 0.4)
        counts = _count_calls(monkeypatch, "integrate_1d")
        mean, _ = moments_1d(origin)
        assert mean == 0.0 and counts == {"integrate_1d": 1}
        mean, _ = moments_1d(off)
        # The offset slice's mean and second moment take a call each.
        assert abs(mean) > 1e-3 and counts == {"integrate_1d": 3}


class TestToleranceScope:
    """A tolerance is set once, where integration starts: closed forms
    compute no shape constants, and every integral over a density runs at
    the density's own tolerance."""

    UNSEEN = QuadTolerance(abs_tol=3e-9, rel_tol=3e-7)

    @staticmethod
    def _count_constant_sets(monkeypatch):
        """A one-item list that counts shape-constant sets computed from an
        empty cache on."""
        monkeypatch.setattr(specfun, "_cache", {})
        computed = [0]
        compute = specfun._compute

        def spy(tol):
            computed[0] += 1
            return compute(tol)

        monkeypatch.setattr(specfun, "_compute", spy)
        return computed

    def test_closed_forms_compute_no_constants(self, monkeypatch):
        computed = self._count_constant_sets(monkeypatch)
        params = Params(p=0.7)
        for plane in ("far_field", "near_field"):
            joint = make_density(plane, "spdc", params, self.UNSEEN)
            gaussian_equivalent(joint)
            covariance_closed(plane, params)
            gaussian_entropy_closed(plane, params)
        two_mode_cov(params)
        delta_b(params)
        mancini_product(params, "spdc")
        mancini_boundary()
        assert computed == [0]

    @pytest.mark.parametrize("command, sets", (
        *((f"sweep --quantity {q} --steps 2 --threads 1", 0)
          for q in ("epr", "mancini", "delta_b", "var_q_norm", "var_x_norm")),
        ("figure 1a", 0),
        ("report --p 1.0", 1),
        ("constants", 1)))
    def test_commands_compute_constants_only_to_read_them(
            self, monkeypatch, tmp_path, command, sets):
        # Only the joint entropies and the constants record read i_ff and
        # i_nf, the shape constants that need quadrature.
        computed = self._count_constant_sets(monkeypatch)
        argv = command.split() + ["--abs-tol", repr(self.UNSEEN.abs_tol),
                                  "--out", str(tmp_path / "out")]
        if command != "constants":    # which holds them to abs_tol alone
            argv += ["--rel-tol", repr(self.UNSEEN.rel_tol)]
        assert _run(argv) == 0
        assert computed == [sets]

    @pytest.mark.parametrize("plane", ("far_field", "near_field"))
    def test_density_integrals_run_at_its_tolerance(self, monkeypatch, plane):
        # The shape constants hold their head integrals to a hundredth of
        # abs_tol by design; they are computed before the spy goes in.
        shape_constants(FAST_TOL)
        joint = make_density(plane, "spdc", Params(p=1.0), FAST_TOL)
        seen = []
        run = quadrature.integrate_1d

        def spy(f, domain, tol=None, **kwargs):
            seen.append(tol)
            return run(f, domain, tol, **kwargs)

        for mod in [m for n, m in list(sys.modules.items())
                    if m is not None and n.startswith("spdc_ng")]:
            if vars(mod).get("integrate_1d") is run:
                monkeypatch.setattr(mod, "integrate_1d", spy)
        origin = conditional_of(joint)
        offset = conditional_of(joint, 0.4)
        marginal = marginal_of(joint, origin=origin)
        for spec in (origin, offset, marginal):
            moments_1d(spec)
            negentropy(spec)
        negentropy(joint)
        covariance_numeric(joint)
        assert len(seen) > 10 and all(t == FAST_TOL for t in seen)

"""Command-line interface: exit codes, output shape, file side effects."""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from jacobimax import cli
from jacobimax.cli import main

ANSI = re.compile(r"\x1b\[[0-9;]*m")


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_reports_all_quantities(capsys):
    code, out, err = run(capsys, ["eval", "--k", "6", "--alpha", "1", "--x", "0.2"])
    assert code == 0
    for label in ("P", "M", "ln M", "S"):
        assert re.search(rf"^{label}\s+=", out, re.M), out
    assert not ANSI.search(out)


def test_eval_outside_oscillation_region_is_reported_not_fatal(capsys):
    code, out, err = run(capsys, ["eval", "--k", "6", "--alpha", "1", "--x", "0.999999"])
    assert code == 0
    assert re.search(r"^S\s+= n/a", out, re.M)


def test_eval_prints_finite_P_up_to_the_float_limit(capsys):
    # ln |P| = 701.4 lies below ln(float max) = 709.78, so P is finite
    code, out, err = run(capsys, ["eval", "--k", "359", "--alpha", "3200", "--x", "1"])
    assert code == 0
    m = re.search(r"^P\s+= (\S+)\s+\(sign \+1, ln \|P\| = (\S+)\)", out, re.M)
    assert m, out
    p, ln_p = float(m.group(1)), float(m.group(2))
    assert 700.0 < ln_p < 709.0
    assert math.isfinite(p) and abs(p - math.exp(ln_p)) <= 1e-12 * math.exp(ln_p)


def test_eval_extreme_parameters(capsys):
    code, out, err = run(capsys, ["eval", "--k", "50", "--alpha", "1e5", "--x", "0.001"])
    assert code == 0
    assert "M =" in out


def test_eval_delta_window(capsys):
    code, out, err = run(capsys, ["eval", "--k", "6", "--alpha", "1", "--x", "0.0", "--window", "delta"])
    assert code == 0


def test_eval_bad_window_text_is_usage_error(capsys):
    code, out, err = run(capsys, ["eval", "--k", "6", "--alpha", "1", "--x", "0.0", "--window", "oval"])
    assert code == 2
    assert err


def test_eval_delta_window_needs_symmetric_weights(capsys):
    code, out, err = run(
        capsys, ["eval", "--k", "6", "--alpha", "1", "--beta", "0.5", "--x", "0.0", "--window", "delta"]
    )
    assert code == 2


def test_eval_custom_window(capsys):
    code, out, err = run(
        capsys, ["eval", "--k", "6", "--alpha", "1", "--x", "0.0", "--window", "custom:-0.5,0.5"]
    )
    assert code == 0


def test_extrema_table_and_global_max(capsys):
    code, out, err = run(capsys, ["extrema", "--k", "5", "--alpha", "1"])
    assert code == 0
    assert "global max:" in out
    assert out.count("max") >= 5


def test_extrema_constant_M_reports_endpoint_maximum(capsys):
    # k = 0, alpha = beta = -1/2 on the full window: M = 1/pi everywhere, so
    # there is no interior extremum and the global max is an endpoint
    code, out, err = run(capsys, ["extrema", "--k", "0", "--alpha", "-0.5"])
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert len(lines) == 2 and lines[0].split()[0] == "index"
    m = re.fullmatch(r"global max: M = (\S+) at x = (\S+) \(endpoint\)", lines[1])
    assert m, lines[1]
    assert abs(float(m.group(1)) - 1.0 / math.pi) <= 1e-14
    assert abs(float(m.group(2))) == 1.0


def test_extrema_with_no_maximum_where_M_vanishes_at_both_ends_is_an_error(capsys):
    code, out, err = run(
        capsys, ["extrema", "--k", "2", "--alpha", "9202.07", "--beta", "8.02157", "--window", "custom:-0.8069,0.7608"]
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: found no maximum of M inside")


def test_extrema_csv_file(capsys, tmp_path):
    path = tmp_path / "ext.csv"
    code, out, err = run(capsys, ["extrema", "--k", "5", "--alpha", "1", "--csv", str(path)])
    assert code == 0
    lines = path.read_text().splitlines()
    assert lines[0] == "index,x,M,ln_M,kind"
    assert len(lines) == 1 + 2 * 5 + 1


def test_verify_single_check_default_grid(capsys, tmp_path):
    out_path = tmp_path / "report.csv"
    code, out, err = run(capsys, ["verify", "--check", "thm4_even_value", "--out", str(out_path)])
    assert code == 0
    assert "PASS" in out
    assert "thm4_even_value" in out
    assert out_path.exists()
    body = out_path.read_text()
    assert body.splitlines()[1].startswith("check_id,")


def test_verify_unknown_check_is_usage_error(capsys):
    code, out, err = run(capsys, ["verify", "--check", "bogus"])
    assert code == 2
    assert err


@pytest.mark.parametrize("jobs", ["0", "-3", "two"])
def test_jobs_below_one_is_usage_error(capsys, tmp_path, jobs):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"checks": ["gamma_ratio"], "k_spec": {"min": 2, "max": 2}, "alpha_spec": [1.0]}))
    commands = (["verify", "--check", "all"], ["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "r.csv")])
    for command in commands:
        code, out, err = run(capsys, command + ["--jobs", jobs])
        assert code == 2 and not out, command
        assert f"argument --jobs: must be a whole number of at least 1, not '{jobs}'" in err, command
    assert not (tmp_path / "r.csv").exists()


def test_verify_with_config_file(capsys, tmp_path):
    cfg = {
        "checks": ["gamma_ratio", "thm1_ratio"],
        "k_spec": {"min": 6, "max": 10, "step": 2},
        "alpha_spec": [1.0, 4.0],
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    code, out, err = run(capsys, ["verify", "--check", "all", "--config", str(cfg_path)])
    assert code == 0
    # the config grid wins, but --check all replaces its check list
    assert "gamma_ratio" in out and "chow_eq1" in out


def test_verify_json_output(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, err = run(
        capsys,
        ["verify", "--check", "thm1_ratio", "--out", str(out_path), "--format", "json", "--jobs", "2"],
    )
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["results"]


def test_verify_malformed_config_is_usage_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, out, err = run(capsys, ["verify", "--check", "all", "--config", str(bad)])
    assert code == 2
    code, out, err = run(capsys, ["verify", "--check", "all", "--config", str(tmp_path / "missing.json")])
    assert code == 2


def test_sweep_requires_output_destination(capsys, tmp_path, monkeypatch):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "checks": ["thm4_even_value"],
        "k_spec": {"min": 2, "max": 4, "step": 2},
        "alpha_spec": [1.0],
    }))
    # the destination is checked before the grid runs
    swept = []
    monkeypatch.setattr(cli._verify, "sweep", lambda *a, **kw: swept.append(a))
    code, out, err = run(capsys, ["sweep", "--config", str(cfg_path)])
    assert code == 2
    assert err
    assert swept == []


def test_sweep_malformed_config_values_are_usage_errors(capsys, tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cases = [{"alpha_spec": [None]}, {"checks": [["a"]], "alpha_spec": [1.0]}, {"alpha_spec": [1.0], "tolerances": {}}]
    for bad in cases:
        cfg_path.write_text(json.dumps({"k_spec": {"min": 2, "max": 2}, **bad}))
        code, out, err = run(capsys, ["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "r.csv")])
        assert code == 2, bad
        assert err.startswith("error:") and "Traceback" not in err, bad


def test_sweep_then_fit_pipeline(capsys, tmp_path):
    report = tmp_path / "sweep.csv"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "checks": ["thm1"],
        "k_spec": {"min": 40, "max": 40},
        "alpha_spec": {"lo": 1.0, "hi": 1000.0, "count": 8},
    }))
    code, out, err = run(capsys, ["sweep", "--config", str(cfg_path), "--out", str(report)])
    assert code == 0
    assert report.exists()

    code, out, err = run(capsys, ["fit", "--in", str(report), "--predictor", "composite"])
    assert code == 0
    m = re.search(r"slope\s*=\s*([-0-9.eE+]+)", out)
    assert m, out
    assert 0.5 < float(m.group(1)) < 1.5

    code, out, err = run(capsys, ["fit", "--in", str(report), "--predictor", "alpha"])
    assert code == 0


def test_fit_on_unusable_report_is_usage_error(capsys, tmp_path):
    report = tmp_path / "tiny.csv"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "checks": ["thm4_even_value"],
        "k_spec": {"min": 2, "max": 2},
        "alpha_spec": [1.0, 2.0],
    }))
    code, out, err = run(capsys, ["sweep", "--config", str(cfg_path), "--out", str(report)])
    assert code == 0
    code, out, err = run(capsys, ["fit", "--in", str(report)])
    assert code == 2


def test_fit_composite_leaves_out_degree_zero_rows(capsys, tmp_path):
    # the composite predictor ln(alpha^(1/3) (1 + alpha/k)^(1/6)) is undefined
    # at k = 0; those rows are left out as alpha <= 0 rows are
    report = tmp_path / "report.csv"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"checks": ["emn_eq2"], "k_spec": {"min": 0, "max": 6}, "alpha_spec": [0.5, 1, 2, 4]}))
    code, out, err = run(capsys, ["sweep", "--config", str(cfg_path), "--out", str(report)])
    assert code == 0
    assert ",0,0.5,0.5," in report.read_text()
    code, out, err = run(capsys, ["fit", "--in", str(report), "--predictor", "composite"])
    assert code == 0, err
    assert re.search(r"^slope\s*=\s*[-0-9.]+$", out, re.M), out


def test_fit_on_a_file_that_is_not_a_csv_report_is_usage_error(capsys, tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"checks": ["thm1"], "k_spec": {"min": 40, "max": 40}, "alpha_spec": [1.0, 2.0]}))
    json_report = tmp_path / "report.json"
    code, out, err = run(capsys, ["sweep", "--config", str(cfg_path), "--out", str(json_report), "--format", "json"])
    assert code == 0
    other = tmp_path / "other.csv"
    other.write_text("a,b\n1,2\n")
    for path in (json_report, other):
        code, out, err = run(capsys, ["fit", "--in", str(path)])
        assert code == 2, path
        assert err.startswith("error:") and "Traceback" not in err, err
        assert "missing columns check_id, k, alpha" in err, err


def test_fit_on_a_report_row_with_too_few_fields_is_usage_error(capsys, tmp_path):
    # the short row is the file's fourth line, after a comment and a full row
    report = tmp_path / "short.csv"
    report.write_text(
        "# generated_at: T\n"
        "check_id,k,alpha,beta,lhs,rhs,margin,pass,status\n"
        "thm1,2,1,1,0.5,1,0.5,true,checked\n"
        "thm1,2,1\n"
    )
    code, out, err = run(capsys, ["fit", "--in", str(report)])
    assert code == 2
    assert err.startswith("error:") and "Traceback" not in err, err
    assert f"{report}, line 4: fewer fields than the header" in err, err


@pytest.mark.parametrize(
    "row, message",
    [
        ("thm1,6,1,1,0.5,1,0.5,true,checked,EXTRA,9", "more fields than the header"),
        ("thm1,7,1,1,0.5,1,0.5,yes,checked", "pass is 'yes', not true or false"),
        ("thm1,7,1,1,0.5,1,0.5,true,whatever", "unknown status 'whatever'"),
        ("thm1,seven,1,1,0.5,1,0.5,true,checked", "invalid literal for int()"),
    ],
    ids=["extra-fields", "pass-yes", "unknown-status", "bad-number"],
)
def test_fit_on_a_malformed_report_row_is_usage_error(capsys, tmp_path, row, message):
    # the bad row is the file's fourth line, after a comment and a full row
    report = tmp_path / "bad.csv"
    report.write_text(
        "# generated_at: T\n"
        "check_id,k,alpha,beta,lhs,rhs,margin,pass,status\n"
        "thm1,2,1,1,0.5,1,0.5,false,skipped_hypothesis\n"
        f"{row}\n"
    )
    code, out, err = run(capsys, ["fit", "--in", str(report)])
    assert code == 2
    assert err.startswith("error:") and "Traceback" not in err, err
    assert f"{report}, line 4: {message}" in err, err


def test_version_flag(capsys):
    # argparse raises SystemExit internally; main converts it to a return code
    code, out, err = run(capsys, ["--version"])
    assert code == 0
    assert "jacobimax" in out


def test_missing_subcommand_is_usage_error(capsys):
    code = main([])
    assert code == 2


def test_main_reuses_one_parser_across_calls(capsys, monkeypatch):
    builds = []
    real_build = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser", lambda: builds.append(1) or real_build())
    argv = ["eval", "--k", "6", "--alpha", "1", "--x", "0.2"]
    first = run(capsys, argv)
    code, out, err = run(capsys, ["eval", "--k", "six", "--alpha", "1", "--x", "0.2"])
    assert code == 2 and "invalid int value" in err and not out
    again = run(capsys, argv)
    assert first[0] == 0 and again == first
    assert builds == []


def test_no_ansi_escapes_when_not_a_tty(capsys, tmp_path):
    out_path = tmp_path / "r.csv"
    code, out, err = run(capsys, ["verify", "--check", "pointwise", "--out", str(out_path)])
    assert not ANSI.search(out)
    assert not ANSI.search(err)


def test_verify_survives_an_overflowing_containment_radius(capsys, tmp_path):
    # the delta window's radius overflows at alpha = 1e300: those rows are
    # numeric failures, and the sweep still reports the alpha = 1 rows; the
    # five exact identity rows are checked there too
    cfg_path = tmp_path / "huge.json"
    cfg_path.write_text(json.dumps({"k_spec": {"min": 3, "max": 3}, "alpha_spec": [1.0, 1e300]}))
    assert main(["verify", "--check", "all", "--config", str(cfg_path)]) == 3
    out = capsys.readouterr()
    assert out.err == ""
    assert "(21 checked, 0 failed, 16 skipped, 9 numeric failures)" in out.out


def test_extrema_on_an_overflowing_delta_window_is_one_error_line(capsys):
    assert main(["extrema", "--k", "3", "--alpha", "1e300", "--window", "delta"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "overflows" in err


def test_extrema_beyond_the_coefficient_limit_is_one_error_line(capsys):
    # alpha + beta above about 5.6e102 overflows the recurrence coefficients
    assert main(["extrema", "--k", "3", "--alpha", "1e300"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: recurrence coefficients overflow") and err.count("\n") == 1
    assert "alpha=1e+300" in err and "5.6e+102" in err


@pytest.mark.parametrize("command", [["extrema"], ["eval", "--x", "0.001"]])
def test_coefficients_that_overflow_to_inf_are_one_error_line(command):
    # at alpha = beta = 1e103 the product in the first coefficient overflows
    # to inf without raising; the command names the triple in one error line,
    # and no numpy warning reaches stderr.  A subprocess, so that stderr holds
    # every warning as a user would see it
    env = dict(os.environ)
    src = Path(__file__).resolve().parents[1] / "src"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    argv = [sys.executable, "-m", "jacobimax", command[0], "--k", "3", "--alpha", "1e103", *command[1:]]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.startswith("error: recurrence coefficients overflow for k=3, alpha=1e+103, beta=1e+103")
    assert done.stderr.count("\n") == 1 and "RuntimeWarning" not in done.stderr


def test_python_dash_m_runs_the_command_line(tmp_path):
    # python -m jacobimax with the source tree on PYTHONPATH, run from
    # elsewhere: the version line, and one extrema table with its exit code
    env = dict(os.environ)
    src = Path(__file__).resolve().parents[1] / "src"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))

    def run_module(*args):
        return subprocess.run(
            [sys.executable, "-m", "jacobimax", *args], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120
        )

    done = run_module("--version")
    assert done.returncode == 0 and done.stdout.startswith("jacobimax "), done.stderr
    done = run_module("extrema", "--k", "3", "--alpha", "1.5", "--beta", "0.5")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert [line.split()[-1] for line in lines[1:-1]] == ["max", "min"] * 3 + ["max"]
    assert lines[-1].startswith("global max: M = ")

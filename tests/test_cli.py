"""Command-line interface: exit codes, output shape, file side effects."""

import json
import re

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


def test_extrema_without_oscillation_band_is_usage_error(capsys):
    # 2k + alpha + beta + 1 = 0: M is constant, so the scan has no sign changes to trust
    code, out, err = run(capsys, ["extrema", "--k", "0", "--alpha", "-0.5"])
    assert code == 2
    assert err.startswith("error:")


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


def test_sweep_requires_output_destination(capsys, tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "checks": ["thm4_even_value"],
        "k_spec": {"min": 2, "max": 4, "step": 2},
        "alpha_spec": [1.0],
    }))
    code, out, err = run(capsys, ["sweep", "--config", str(cfg_path)])
    assert code == 2
    assert err


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

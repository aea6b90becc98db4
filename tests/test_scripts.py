"""The helper scripts under scripts/."""

import dataclasses
import importlib.util
import json
import subprocess
import sys
import types
from pathlib import Path

import pytest

import jacobimax.cli  # output_diff parses cli windows through its package's cli
from jacobimax.verify import VerificationResult

SCRIPTS = Path(__file__).parents[1] / "scripts"
REPO = SCRIPTS.parent
SAME = "0 error, 0 count or kind, 0 maximum, 0 global maximum differ, 0 items in all, 0 of them on a mirror window"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _never(*args):
    raise AssertionError("reached past the argument checks")


def test_output_diff_of_a_checkout_against_itself_reports_nothing():
    # a subprocess, so that the script's own imports are covered
    argv = [sys.executable, str(SCRIPTS / "output_diff.py"), str(REPO), "--limit", "2", "--only"]
    done = subprocess.run(argv + ["extrema-random,scalar-rows,extrema"], capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    shifts = "  largest shift 0 in a minimum's x, 0 in a maximum's x, 0 in ln M; global maximum index differs on 0"
    assert done.stdout.splitlines() == [
        f"extrema: the CLI output differs on 0 of 2 items; in the answers {SAME}",
        shifts,
        "scalar-rows: 0 of 46 rows differ, 0 in status, pass or presence; largest relative move 0 in lhs, 0 in rhs",
        f"extrema-random: the text differs on 0 of 2 items; in the answers {SAME}",
        shifts,
    ]


NOWHERE = REPO / "tests"
FAMILIES = "extrema, sweep-beta-grid, sweep-equal-alpha, scalar-rows, verify-pool, extrema-random, reports"
POOLS = "extrema-cli, verify-sweep, scalar-checks"


@pytest.mark.parametrize(
    "script, argv, message",
    [
        ("output_diff", ["--only", "scalar-rows,no-such"], f"unknown family no-such; the families are {FAMILIES}"),
        ("ab_pools", ["--pools", "extrema-cli,nope"], f"unknown pool nope; the pools are {POOLS}"),
    ]
    + [(script, None, f"error: neither {NOWHERE} nor {NOWHERE / 'src'} holds jacobimax/__init__.py")
       for script in ("ab_pools", "kernel_bench", "output_diff")]
    # a count below 1 is refused, not read as a slice end or an empty best-of
    + [(script, [flag, text], f"argument {flag}: must be a whole number of at least 1, not {text!r}")
       for script, flag, text in (
           ("output_diff", "--limit", "-399"), ("kernel_bench", "--limit", "0"), ("kernel_bench", "--repeats", "0"),
           ("ab_pools", "--repeats", "-2"), ("ab_pools", "--repeats", "two"), ("ab_pools", "--limit", "0"),
       )],
    ids=[
        "unknown-family", "unknown-pool", "ab_pools-no-package", "kernel_bench-no-package", "output_diff-no-package",
        "output_diff-limit", "kernel_bench-limit", "kernel_bench-repeats", "ab_pools-repeats", "ab_pools-repeats-text",
        "ab_pools-limit",
    ],
)
def test_scripts_refuse_bad_arguments_before_any_work(script, argv, message, capsys, monkeypatch):
    mod = _load(script)
    monkeypatch.setattr(mod, "pin_to_fastest_cpu", _never, raising=False)
    monkeypatch.setattr(mod, "load_package", _never)
    with pytest.raises(SystemExit) as exc:
        mod.main([str(REPO)] + argv if argv else [str(NOWHERE)])
    assert exc.value.code == 2
    lines = capsys.readouterr().err.splitlines()
    # argparse prints its usage first; a path that holds no package is one line alone
    assert lines[-1].endswith(message) and (len(lines) == 1) == (argv is None)


def test_output_diff_sizes_a_moved_maximum(capsys, monkeypatch):
    # on item a a maximum moved by 2^-50 in x and 1e-12 in ln M, the global
    # maximum with it; on item b the global maximum is another record
    diff = _load("output_diff")
    rec = jacobimax.ExtremumRecord
    lo, top, twin = rec(0, -0.5, 0.1, -2.3, "min"), rec(1, 0.25, 0.5, -0.7, "max"), rec(2, 0.25, 0.5, -0.7, "max")
    moved = rec(1, 0.25 + 2.0**-50, 0.5, -0.7 + 1e-12, "max")
    # M has a mirror image only where alpha = beta on a symmetric window
    side = types.SimpleNamespace(fresh=lambda: jacobimax)
    cases = [(1.0, 1.0, "delta"), (1.0, 1.0, (-0.5, 0.5)), (1.0, 2.0, "full"), (1.0, 1.0, (-0.5, 0.6))]
    assert [diff.answer(side, ("x", 5, a, b, w))[2] for a, b, w in cases] == [True, True, False, False]
    # an error on either side that the other does not share is a difference
    assert diff.compare("GridTooCoarseError: a", "GridTooCoarseError: b") == (["error"], (0.0, 0.0, 0.0, False))
    got = {"this": ([lo, top], top), "a": ([lo, moved], moved), "b": ([lo, top], twin)}
    monkeypatch.setattr(diff, "answer", lambda side, item: (got[side or item[0]], "", item[0] == "b"))
    assert not diff.diff_answers("extrema-random", [("a",), ("b",)], ["this", None], cli=False)
    assert capsys.readouterr().out.splitlines() == [
        "extrema-random: the text differs on 0 of 2 items; in the answers 0 error, 0 count or kind, 1 maximum,"
        " 2 global maximum differ, 2 items in all, 1 of them on a mirror window",
        "  largest shift 0 in a minimum's x, 8.88e-16 (a) in a maximum's x, 1e-12 (a) in ln M;"
        " global maximum index differs on 1",
    ]


def test_output_diff_sizes_a_moved_row_and_lists_a_status_change(capsys, monkeypatch):
    diff = _load("output_diff")
    row = VerificationResult("thm1", 6, 1.0, 1.0, lhs=0.75, rhs=2.0, margin=1.25, passed=True, status="checked")
    other = VerificationResult("thm1_ratio", 6, 1.0, 1.0, lhs=0.5, rhs=1.0, margin=0.5, passed=True, status="checked")
    rows = {
        "jacobimax_this": [row, dataclasses.replace(other, passed=False, status="numeric_failure")],
        "jacobimax_other": [dataclasses.replace(row, lhs=1.0), other],
    }
    monkeypatch.setattr(diff, "scalar_rows", lambda side, limit: rows[side.pkg.__name__])
    assert diff.main([str(REPO), "--only", "scalar-rows"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "  thm1_ratio (6, 1, 1): checked, pass True -> numeric_failure, pass False",
        "scalar-rows: 2 of 2 rows differ, 1 in status, pass or presence;"
        " largest relative move 0.25 in lhs (thm1 (6, 1, 1)), 0 in rhs",
    ]


def test_ab_pools_of_a_checkout_against_itself(tmp_path):
    # a subprocess, since the script pins its process to one CPU
    out = tmp_path / "BENCH_ab.json"
    argv = [sys.executable, str(SCRIPTS / "ab_pools.py"), str(REPO), "--limit", "2", "--repeats", "1"]
    done = subprocess.run(argv + ["--out", str(out)], capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0].startswith("pinned to CPU ")
    assert [line.split(":")[0] for line in lines[1:]] == ["verify-sweep", "extrema-cli", "scalar-checks"]
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["limit"] == 2 and doc["repeats"] == 1
    for name, res in doc["pools"].items():
        assert res["items"] == 2 and res["summaries_differ"] == 0, name
        assert res["gate"]["ops"] > 0 and res["gate"]["mismatches"] == [], name
        assert "summaries differ on 0;" in lines[1 + list(doc["pools"]).index(name)]


def test_kernel_bench_of_a_checkout_against_itself(tmp_path):
    # a subprocess, since the script pins its process to one CPU
    out = tmp_path / "BENCH_kernels.json"
    argv = [sys.executable, str(SCRIPTS / "kernel_bench.py"), str(REPO), "--limit", "3", "--repeats", "1"]
    done = subprocess.run(argv + ["--out", str(out)], capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0].startswith("pinned to CPU ")
    assert [line.split(":")[0] for line in lines[1:]] == ["monic_recurrence", "recurrence"]
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["items"] == 3 and doc["repeats"] == 1
    monic = doc["entries"]["monic_recurrence"]
    assert monic["calls"] == 3 and monic["point_steps"] > 0 and min(monic["seconds"]) > 0.0
    assert f"{monic['calls']} calls" in lines[1]

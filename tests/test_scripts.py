"""The helper scripts under scripts/."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).parents[1] / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_output_digest_refuses_an_unknown_name_and_lists_the_seven(capsys):
    digest = _load("output_digest")
    with pytest.raises(SystemExit) as exc:
        digest.main(["--only", "scalar-rows,no-such-digest"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "unknown digest no-such-digest" in err
    names = ["extrema", "sweep-beta-grid", "sweep-equal-alpha", "scalar-rows", "verify-pool", "extrema-random", "reports"]
    assert f"the digests are {', '.join(names)}" in err


def test_extrema_diff_of_a_checkout_against_itself_reports_nothing(capsys):
    diff = _load("extrema_diff")
    assert diff.main([str(SCRIPTS.parent), "--limit", "3"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines() == [
        "6 items: 0 error differ, 0 count or kind differ, 0 maximum differ, 0 global maximum differ",
        "largest minimum shift 0",
    ]
    # an error on either side that the other does not share is a difference
    assert diff.compare("GridTooCoarseError: a", "GridTooCoarseError: b") == (["error"], 0.0)


def test_kernel_bench_of_a_checkout_against_itself(tmp_path):
    # a subprocess, since the script pins its process to one CPU
    out = tmp_path / "BENCH_kernels.json"
    argv = [sys.executable, str(SCRIPTS / "kernel_bench.py"), str(SCRIPTS.parent), "--limit", "3", "--repeats", "1"]
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

"""The helper scripts under scripts/."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

import jacobimax.cli  # extrema_diff parses cli windows through its package's cli

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
        "largest maximum shift 0 in x, 0 in ln M",
        "0 items differ, 0 of them on a mirror window; global maximum index differs on 0",
    ]
    # an error on either side that the other does not share is a difference
    assert diff.compare("GridTooCoarseError: a", "GridTooCoarseError: b") == (["error"], (0.0, 0.0, 0.0, False))


def test_extrema_diff_sizes_a_moved_maximum():
    # a maximum moved by 2^-50 in x and 1e-12 in ln M: a bit-level difference,
    # sized; the global maximum moved to another record, and the minimum stayed
    diff = _load("extrema_diff")
    rec = jacobimax.ExtremumRecord
    lo, top, edge = rec(0, -0.5, 0.1, -2.3, "min"), rec(1, 0.25, 0.5, -0.7, "max"), rec(-1, 1.0, 0.4, -0.9, "max")
    moved = rec(1, 0.25 + 2.0**-50, 0.5, -0.7 + 1e-12, "max")
    diffs, (min_shift, x_shift, ln_shift, index_moved) = diff.compare(([lo, top], top), ([lo, moved], edge))
    assert diffs == ["maximum", "global maximum"] and min_shift == 0.0 and index_moved
    # the global maximum's own record moved by 0.75 in x
    assert x_shift == 0.75 and ln_shift == abs(-0.7 - -0.9)
    diffs, (_, x_shift, ln_shift, index_moved) = diff.compare(([lo, top], top), ([lo, moved], moved))
    assert diffs == ["maximum", "global maximum"] and not index_moved
    assert x_shift == 2.0**-50 and ln_shift == abs(-0.7 - (-0.7 + 1e-12))
    # M has a mirror image only where alpha = beta on a symmetric window
    cases = [(1.0, 1.0, "delta"), (1.0, 1.0, (-0.5, 0.5)), (1.0, 2.0, "full"), (1.0, 1.0, (-0.5, 0.6))]
    assert [diff.mirrored(jacobimax, ("x", 5, a, b, w)) for a, b, w in cases] == [True, True, False, False]


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

"""SHA-256 digests of jacobimax's outputs, for showing that a change keeps them.

    python3 scripts/output_digest.py [--only NAME[,NAME...]] [--dump DIR]

Prints seven lines, each a digest and what it covers (--only computes just
the named ones, in this order):

- extrema: exit code, stdout and stderr of cli.main(["extrema", ...]) for
  every item of the extrema-cli pool in perfbench/reference/extrema-cli.json
  (read only for its inputs), in pool order, with every cache of the package
  cleared before each item as in a fresh process;
- sweep-beta-grid and sweep-equal-alpha: render_csv(sweep(cfg),
  timestamp="T") for checks "all", k 0-13 and alpha in {-0.5, -0.3, 0, 0.3,
  ALPHA_FLOOR, 0.5, 0.6, 1, 2.5, 30}, once with beta grid {-0.5, 0.3, 0.5,
  0.6, 1, 2.5} (19,320 rows) and once with beta = alpha (3,220 rows);
- scalar-rows: repr(run_check(cid, Params(k, alpha, alpha))) for every check
  id on every triple of the scalar-checks pool in
  perfbench/reference/scalar-checks.json (read only for its inputs), in pool
  order with the check ids in registry order, every cache cleared before each
  triple.  The pool reaches k = 100 and alpha = 1e4, beyond the sweeps' k 13;
- verify-pool: render_csv(sweep(cfg), timestamp="T") for checks "all" over
  every block of the verify-sweep pool in perfbench/reference/verify-sweep.json
  (read only for its inputs: one k, its alphas, and beta = alpha or a beta
  grid), in pool order, every cache cleared before each block.  The blocks
  reach k = 60 with exponents 0.05-1e3 and unequal pairs;
- extrema-random: for each of RANDOM_ITEMS (k, alpha, beta, window) items
  drawn from a generator seeded with RANDOM_SEED, repr(scan_extrema) and
  repr(global_max), or the exception's class and message, every cache
  cleared before each item.  The draw reaches what the extrema-cli pool
  does not: k 0-300, exponents -0.95 to 1e5 (a quarter of them below
  -1/2), delta windows, and custom windows down to width 1e-6 and up to
  either end of [-1, 1];
- reports: for the sweep-beta-grid and sweep-equal-alpha sweeps (each run
  once for both digests), render_json(report, timestamp="T"), the report's
  counts, n_failed, n_numeric_failures and exit_code(), and the summary
  cli._summarize prints for it.  The JSON metadata carries the Python and
  numpy versions, so this digest compares runs on one machine only.

Run it from a checkout; the package is imported from its src/ directory.
With --dump DIR the raw outputs are also written to DIR/<name>.txt, so two
checkouts' outputs can be compared with diff.
"""

import argparse
import contextlib
import functools
import hashlib
import io
import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import jacobimax  # noqa: E402
from jacobimax import cli, verify  # noqa: E402
from jacobimax.envelope import delta_window  # noqa: E402

POOL = ROOT / "perfbench" / "reference" / "extrema-cli.json"
SCALAR_POOL = ROOT / "perfbench" / "reference" / "scalar-checks.json"
VERIFY_POOL = ROOT / "perfbench" / "reference" / "verify-sweep.json"
K_SPEC = {"min": 0, "max": 13}
ALPHAS = [-0.5, -0.3, 0.0, 0.3, jacobimax.ALPHA_FLOOR, 0.5, 0.6, 1.0, 2.5, 30.0]
BETAS = [-0.5, 0.3, 0.5, 0.6, 1.0, 2.5]
# the beta_mode of each named sweep, over K_SPEC and ALPHAS
SWEEPS = {"sweep-beta-grid": {"grid": BETAS}, "sweep-equal-alpha": "equal_alpha"}
RANDOM_SEED = 20240611
RANDOM_ITEMS = 600


def _clear_caches():
    for name, mod in list(sys.modules.items()):
        if name == "jacobimax" or name.startswith("jacobimax."):
            for obj in vars(mod).values():
                if callable(getattr(obj, "cache_clear", None)) and callable(getattr(obj, "cache_info", None)):
                    obj.cache_clear()


def extrema_outputs() -> str:
    rounds = json.loads(POOL.read_text(encoding="utf-8"))["pool"]
    chunks = []
    for item in (item for stratum in rounds for item in stratum):
        argv = ["extrema", "--k", str(item["k"]), "--alpha", repr(item["alpha"]), "--beta", repr(item["beta"])]
        argv += ["--window", item["window"]]
        _clear_caches()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
        chunks.append(f"$ {' '.join(argv)}\nrc {rc}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}")
    return "".join(chunks)


def sweep_report(k_spec, alphas, beta_mode):
    cfg = verify.SweepConfig.from_dict(
        {"checks": ["all"], "k_spec": k_spec, "alpha_spec": alphas, "beta_mode": beta_mode}
    )
    _clear_caches()
    return verify.sweep(cfg)


@functools.cache
def named_sweep(name: str):
    """The report of the named sweep of SWEEPS, made once for the two digests that read it."""
    return sweep_report(K_SPEC, ALPHAS, SWEEPS[name])


def report_outputs() -> str:
    chunks = []
    for name in SWEEPS:
        rep = named_sweep(name)
        summary = io.StringIO()
        cli._summarize(rep, summary)
        chunks.append(
            f"=== {name}\n{verify.render_json(rep, timestamp='T')}counts {rep.counts!r}\n"
            f"n_failed {rep.n_failed}\nn_numeric_failures {rep.n_numeric_failures}\nexit_code {rep.exit_code()}\n"
            f"--- summary\n{summary.getvalue()}"
        )
    return "".join(chunks)


def verify_pool_csv() -> str:
    rounds = json.loads(VERIFY_POOL.read_text(encoding="utf-8"))["pool"]
    return "".join(
        verify.render_csv(
            sweep_report(
                {"min": item["k"], "max": item["k"]},
                item["alphas"],
                "equal_alpha" if item["betas"] is None else {"grid": item["betas"]},
            ),
            timestamp="T",
        )
        for stratum in rounds
        for item in stratum
    )


def scalar_rows() -> str:
    rounds = json.loads(SCALAR_POOL.read_text(encoding="utf-8"))["pool"]
    lines = []
    for item in (item for stratum in rounds for item in stratum):
        p = jacobimax.Params(item["k"], item["alpha"], item["alpha"])
        _clear_caches()
        lines.extend(repr(verify.run_check(cid, p)) + "\n" for cid in verify.check_ids())
    return "".join(lines)


def _random_exponent(rng) -> float:
    u = rng.random()
    if u < 0.25:
        return float(rng.uniform(-0.95, -0.5))
    if u < 0.6:
        return float(rng.uniform(-0.5, 3.0))
    return float(10.0 ** rng.uniform(0.5, 5.0))


def random_items():
    """The extrema-random draw, as (Params, window name, Window) triples."""
    rng = np.random.default_rng(RANDOM_SEED)
    items = []
    for _ in range(RANDOM_ITEMS):
        k = int(rng.integers(0, 13)) if rng.random() < 0.25 else int(rng.integers(0, 301))
        name = str(rng.choice(["full", "delta", "custom"]))
        if name == "delta":
            alpha = float(10.0 ** rng.uniform(math.log10(0.5), 5.0))
            p = jacobimax.Params(k, alpha, alpha)
        else:
            p = jacobimax.Params(k, _random_exponent(rng), _random_exponent(rng))
        if name == "full":
            w = jacobimax.Window.full()
        elif name == "delta":
            w = delta_window(p)
        else:
            width = float(10.0 ** rng.uniform(-6.0, math.log10(2.0)))
            lo = float(rng.uniform(-1.0, 1.0 - width))
            edge = rng.random()
            # a quarter of the windows reach -1 or 1
            if edge < 0.125:
                w = jacobimax.Window(-1.0, -1.0 + width)
            elif edge < 0.25:
                w = jacobimax.Window(1.0 - width, 1.0)
            else:
                w = jacobimax.Window(lo, lo + width)
        items.append((p, name, w))
    return items


def extrema_random() -> str:
    chunks = []
    for p, name, w in random_items():
        chunks.append(f"{p!r} {name} {w!r}\n")
        _clear_caches()
        try:
            chunks.append(f"{jacobimax.scan_extrema(p, w)!r}\n{jacobimax.global_max(p, w)!r}\n")
        except (jacobimax.GridTooCoarseError, ValueError) as exc:
            chunks.append(f"{type(exc).__name__}: {exc}\n")
    return "".join(chunks)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--dump", type=Path, help="also write each raw output to DIR/<name>.txt")
    ap.add_argument("--only", metavar="NAME[,NAME...]", help="compute only the named digests")
    args = ap.parse_args(argv)
    outputs = {
        "extrema": extrema_outputs,
        "sweep-beta-grid": lambda: verify.render_csv(named_sweep("sweep-beta-grid"), timestamp="T"),
        "sweep-equal-alpha": lambda: verify.render_csv(named_sweep("sweep-equal-alpha"), timestamp="T"),
        "scalar-rows": scalar_rows,
        "verify-pool": verify_pool_csv,
        "extrema-random": extrema_random,
        "reports": report_outputs,
    }
    if args.only is not None:
        wanted = args.only.split(",")
        unknown = [name for name in wanted if name not in outputs]
        if unknown:
            ap.error(f"unknown digest {', '.join(unknown)}; the digests are {', '.join(outputs)}")
        outputs = {name: make for name, make in outputs.items() if name in wanted}
    if args.dump:
        args.dump.mkdir(parents=True, exist_ok=True)
    for name, make in outputs.items():
        text = make()
        if args.dump:
            (args.dump / f"{name}.txt").write_text(text, encoding="utf-8")
        print(f"{hashlib.sha256(text.encode('utf-8')).hexdigest()}  {name}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

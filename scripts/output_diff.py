"""Compare jacobimax's outputs on this checkout with another checkout's, item by item.

    python3 scripts/output_diff.py OTHER_SRC [--only F[,F...]] [--limit N]

OTHER_SRC is the other checkout's src/ directory (or the checkout itself).
Both packages are imported into one process, as scripts/ab_pools.py does,
and run seven output families, every cache cleared before each item (--only
runs the named ones; --limit N takes the first N items of each pool and of
the random draw).  perfbench/reference/ is read for its pools' inputs only.

- extrema: scan_extrema, global_max, and the exit code, stdout and stderr of
  `jacobimax extrema`, on the extrema-cli pool;
- sweep-beta-grid, sweep-equal-alpha: sweep() of checks "all" over k 0-13
  and ten alphas, with six betas (19,320 rows) or beta = alpha (3,220 rows);
- scalar-rows: run_check of every check on the scalar-checks pool's triples;
- verify-pool: sweep() of checks "all" on each block of the verify-sweep pool;
- extrema-random: scan_extrema and global_max on RANDOM_ITEMS draws: k 0-300,
  exponents -0.95 to 1e5, full, delta and custom windows (width 1e-6 to 2,
  a quarter of them reaching -1 or 1);
- reports: the two sweeps' JSON, counts, exit codes and summaries.

Per extrema family it counts the items whose CLI output or text (repr of
Params, Window and answer) differs, and the answers that differ in an error
or in the records' count or kinds (each listed), or in any bit of a maximum
or of global_max's record; it sizes the largest shift of a minimum's x, a
maximum's x and ln M at one, and counts the moves of global_max's index and
the differing items on a mirror window (alpha = beta on a symmetric window,
where M's maxima come in mirror pairs).  Rows are keyed by (check_id, k,
alpha, beta): it counts those that differ in any bit, lists those found on
one side only or with another status or pass, and sizes the largest relative
move of lhs and of rhs.  It exits 0 when every output is the same text on
both sides, 1 when any differs, and 2 on a usage error.
"""

import argparse
import contextlib
import functools
import io
import math
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent
ROOT = SCRIPTS.parent
sys.path.insert(0, str(SCRIPTS))

import numpy as np  # noqa: E402

from ab_pools import checkout_src, load_package, package_caches, pool, whole  # noqa: E402

K_SPEC = {"min": 0, "max": 13}
# the beta_mode of each named sweep
SWEEPS = {"sweep-beta-grid": {"grid": [-0.5, 0.3, 0.5, 0.6, 1.0, 2.5]}, "sweep-equal-alpha": "equal_alpha"}
RANDOM_SEED = 20240611
RANDOM_ITEMS = 600


class Side:
    """One checkout's package, imported as `name`, with its caches; its two sweeps' reports are made once."""

    def __init__(self, src: Path, name: str):
        self.pkg = load_package(src, name)
        self.caches = package_caches(name)

    def fresh(self):
        """The package, every cache cleared."""
        for fn in self.caches:
            fn.cache_clear()
        return self.pkg

    def sweep(self, k_spec, alphas, beta_mode):
        cfg = {"checks": ["all"], "k_spec": k_spec, "alpha_spec": alphas, "beta_mode": beta_mode}
        return self.fresh().verify.sweep(self.pkg.verify.SweepConfig.from_dict(cfg))

    @functools.cache
    def named_sweep(self, name: str):
        """The report of the named sweep of SWEEPS, made once for the families that read it."""
        alphas = [-0.5, -0.3, 0.0, 0.3, self.pkg.ALPHA_FLOOR, 0.5, 0.6, 1.0, 2.5, 30.0]
        return self.sweep(K_SPEC, alphas, SWEEPS[name])


def pool_items(limit=None):
    """The extrema-cli pool, as (label, k, alpha, beta, window) with a cli window."""
    items = enumerate(pool("extrema-cli", limit))
    return [(f"pool {i}", it["k"], it["alpha"], it["beta"], it["window"]) for i, it in items]


def _random_exponent(rng) -> float:
    u = rng.random()
    if u < 0.25:
        return float(rng.uniform(-0.95, -0.5))
    if u < 0.6:
        return float(rng.uniform(-0.5, 3.0))
    return float(10.0 ** rng.uniform(0.5, 5.0))


def random_items(limit=None):
    """The extrema-random draw, as (label, k, alpha, beta, window); window is full, delta or (d_m, d_M)."""
    rng = np.random.default_rng(RANDOM_SEED)
    items = []
    for i in range(RANDOM_ITEMS):
        k = int(rng.integers(0, 13)) if rng.random() < 0.25 else int(rng.integers(0, 301))
        window = str(rng.choice(["full", "delta", "custom"]))
        if window == "delta":
            alpha = beta = float(10.0 ** rng.uniform(math.log10(0.5), 5.0))
        else:
            alpha, beta = _random_exponent(rng), _random_exponent(rng)
        if window == "custom":
            width = float(10.0 ** rng.uniform(-6.0, math.log10(2.0)))
            lo, edge = float(rng.uniform(-1.0, 1.0 - width)), rng.random()
            # a quarter of the windows reach -1 or 1
            window = (-1.0, -1.0 + width) if edge < 0.125 else (1.0 - width, 1.0) if edge < 0.25 else (lo, lo + width)
        items.append((f"random {i}", k, alpha, beta, window))
    return items[:limit]


def answer(side, item):
    """(answer, text, mirror) of one extrema item on one side, from cleared caches.

    The answer is (scan_extrema's records, global_max's record) or the error's class and message, the text
    the repr of Params, Window and answer, and mirror whether M has a mirror image on the window.
    """
    pkg = side.fresh()
    _, k, alpha, beta, window = item
    text, mirror = "", False
    try:
        p = pkg.Params(k, alpha, beta)
        w = pkg.cli._parse_window(window, p) if isinstance(window, str) else pkg.Window(*window)
        text, mirror = f"{p!r} {w!r}\n", p.is_ultraspherical and w.is_symmetric
        got = pkg.scan_extrema(p, w), pkg.global_max(p, w)
    except (pkg.GridTooCoarseError, ValueError) as exc:
        got = f"{type(exc).__name__}: {exc}"
    return got, text + repr(got), mirror


def cli_bytes(side, item):
    """Exit code, stdout and stderr of `jacobimax extrema` on one pool item, from cleared caches."""
    _, k, alpha, beta, window = item
    argv = ["extrema", "--k", str(k), "--alpha", repr(alpha), "--beta", repr(beta), "--window", window]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = side.fresh().cli.main(argv)
    return f"rc {rc}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"


def _bits(r):
    # a record's fields, floats by their hex form
    return (r.index, r.x.hex(), r.M.hex(), r.ln_M.hex(), r.kind)


def compare(this, other):
    """(the kinds of difference, the sizes) of two answers of one item.

    The sizes are the largest shift of a minimum's x, of a maximum's x and of
    a maximum's ln M, global_max's record counting as a maximum, and whether
    global_max's index differs; all 0 unless the kinds are equal.
    """
    if isinstance(this, str) or isinstance(other, str):
        return ([] if this == other else ["error"]), (0.0, 0.0, 0.0, False)
    (recs, gm), (orecs, ogm) = this, other
    if [r.kind for r in recs] != [r.kind for r in orecs]:
        return ["count or kind"], (0.0, 0.0, 0.0, False)
    diffs = []
    if any(_bits(a) != _bits(b) for a, b in zip(recs, orecs) if a.kind == "max"):
        diffs.append("maximum")
    if _bits(gm) != _bits(ogm):
        diffs.append("global maximum")
    tops = [(a, b) for a, b in zip(recs, orecs) if a.kind == "max"] + [(gm, ogm)]
    return diffs, (
        max((abs(a.x - b.x) for a, b in zip(recs, orecs) if a.kind == "min"), default=0.0),
        max(abs(a.x - b.x) for a, b in tops),
        # two equal ln M, two infinities included, shift by 0
        max(0.0 if a.ln_M == b.ln_M else abs(a.ln_M - b.ln_M) for a, b in tops),
        gm.index != ogm.index,
    )


def diff_answers(family, items, sides, cli: bool) -> bool:
    """Print how one extrema family's answers and text (the CLI's bytes, or the answers') differ; whether text does."""
    counts = dict.fromkeys(("error", "count or kind", "maximum", "global maximum"), 0)
    # the largest minimum x, maximum x and maximum ln M shifts, each with its item
    worst = [[0.0, ""] for _ in range(3)]
    texts = differing = on_mirror = index_moved = 0
    for item in items:
        (this, text, mirror), (other, other_text, _) = (answer(side, item) for side in sides)
        if cli:
            text, other_text = (cli_bytes(side, item) for side in sides)
        texts += text != other_text
        diffs, (*shifts, moved) = compare(this, other)
        for diff in diffs:
            counts[diff] += 1
            if diff in ("error", "count or kind"):
                print(f"  {item[0]} k={item[1]} alpha={item[2]!r} beta={item[3]!r} window={item[4]!r}: {diff} differs")
        differing += bool(diffs)
        on_mirror += bool(diffs) and mirror
        index_moved += moved
        for top, shift in zip(worst, shifts):
            if shift > top[0]:
                top[:] = shift, f" ({item[0]})"
    (min_x, min_at), (max_x, max_at), (ln_m, ln_at) = worst
    print(
        f"{family}: {'the CLI output' if cli else 'the text'} differs on {texts} of {len(items)} items; in the answers "
        + ", ".join(f"{v} {name}" for name, v in counts.items())
        + f" differ, {differing} items in all, {on_mirror} of them on a mirror window\n"
        f"  largest shift {min_x:.3g}{min_at} in a minimum's x, {max_x:.3g}{max_at} in a maximum's x,"
        f" {ln_m:.3g}{ln_at} in ln M; global maximum index differs on {index_moved}"
    )
    return texts > 0


def _row_name(key):
    return f"{key[0]} ({key[1]}, {key[2]:.6g}, {key[3]:.6g})"


def _relative(a, b) -> float:
    """|a - b| over the larger magnitude: 0 when they are equal or both nan, inf when they are not comparable."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    rel = abs(a - b) / max(abs(a), abs(b))
    return math.inf if math.isnan(rel) else rel


def diff_rows(name, this, other) -> bool:
    """Print how one family's rows differ, keyed by (check_id, k, alpha, beta); whether any does, order included."""
    mine, theirs = ({(r.check_id, r.k, r.alpha, r.beta): r for r in rows} for rows in (this, other))
    moved = changed = 0
    # the largest relative move of lhs and of rhs, each with its row
    worst = {"lhs": [0.0, ""], "rhs": [0.0, ""]}
    for key in dict.fromkeys([*mine, *theirs]):
        a, b = mine.get(key), theirs.get(key)
        if repr(a) == repr(b):
            continue
        moved += 1
        if a is None or b is None:
            changed += 1
            print(f"  {_row_name(key)}: only on {'this' if b is None else 'the other'} side")
            continue
        if (a.status, a.passed) != (b.status, b.passed):
            changed += 1
            print(f"  {_row_name(key)}: {b.status}, pass {b.passed} -> {a.status}, pass {a.passed}")
        for field, top in worst.items():
            rel = _relative(getattr(a, field), getattr(b, field))
            if rel > top[0]:
                top[:] = rel, f" ({_row_name(key)})"
    reordered = not moved and [*mine] != [*theirs]
    moves = ", ".join(f"{rel:.3g} in {field}{at}" for field, (rel, at) in worst.items())
    print(
        f"{name}: {moved} of {len(this)} rows differ, {changed} in status, pass or presence"
        + (", rows in another order" if reordered else "")
        + f"; largest relative move {moves}"
    )
    return moved > 0 or reordered


def diff_sweep(name):
    return lambda sides, limit: diff_rows(name, *(side.named_sweep(name).rows for side in sides))


def scalar_rows(side, limit):
    rows = []
    for item in pool("scalar-checks", limit):
        p = side.fresh().Params(item["k"], item["alpha"], item["alpha"])
        rows += [side.pkg.verify.run_check(cid, p) for cid in side.pkg.verify.check_ids()]
    return rows


def verify_pool_rows(side, limit):
    rows = []
    for it in pool("verify-sweep", limit):
        beta_mode = "equal_alpha" if it["betas"] is None else {"grid": it["betas"]}
        rows += side.sweep({"min": it["k"], "max": it["k"]}, it["alphas"], beta_mode).rows
    return rows


def diff_reports(sides, limit) -> bool:
    """Print whether the two sweeps' reports are equal as text, JSON apart; whether any part differs."""
    same = []
    for name in SWEEPS:
        texts = []
        for side in sides:
            rep, summary = side.named_sweep(name), io.StringIO()
            side.pkg.cli._summarize(rep, summary)
            rest = f"{rep.counts!r} {rep.n_failed} {rep.n_numeric_failures} {rep.exit_code()}\n{summary.getvalue()}"
            texts.append((side.pkg.verify.render_json(rep, timestamp="T"), rest))
        json_same, rest_same = (a == b for a, b in zip(*texts))
        print(
            f"reports, {name}: the JSON is {'equal' if json_same else 'different'};"
            f" the counts, exit codes and summaries are {'equal' if rest_same else 'different'}"
        )
        same += [json_same, rest_same]
    return not all(same)


FAMILIES = {
    "extrema": lambda sides, limit: diff_answers("extrema", pool_items(limit), sides, cli=True),
    "sweep-beta-grid": diff_sweep("sweep-beta-grid"),
    "sweep-equal-alpha": diff_sweep("sweep-equal-alpha"),
    "scalar-rows": lambda sides, limit: diff_rows("scalar-rows", *(scalar_rows(s, limit) for s in sides)),
    "verify-pool": lambda sides, limit: diff_rows("verify-pool", *(verify_pool_rows(s, limit) for s in sides)),
    "extrema-random": lambda sides, limit: diff_answers("extrema-random", random_items(limit), sides, cli=False),
    "reports": diff_reports,
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("other_src", type=Path, help="the other checkout's src/ directory, or the checkout")
    ap.add_argument("--only", metavar="F[,F...]", help="run only the named families")
    ap.add_argument("--limit", type=whole, help="only the first N items of each pool and of the random draw")
    args = ap.parse_args(argv)
    wanted = FAMILIES if args.only is None else args.only.split(",")
    unknown = [name for name in wanted if name not in FAMILIES]
    if unknown:
        ap.error(f"unknown family {', '.join(unknown)}; the families are {', '.join(FAMILIES)}")
    other = checkout_src(args.other_src)
    sides = [Side(ROOT / "src", "jacobimax_this"), Side(other, "jacobimax_other")]
    differs = False
    for diff in (diff for name, diff in FAMILIES.items() if name in wanted):
        differs |= diff(sides, args.limit)
        sys.stdout.flush()
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())

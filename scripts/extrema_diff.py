"""Compare this checkout's extrema answers with another checkout's, bit for bit.

    python3 scripts/extrema_diff.py OTHER_SRC [--limit N]

OTHER_SRC is the other checkout's src/ directory (or the checkout itself).
Both packages are imported into one process under two module names, as
scripts/ab_pools.py does.  The items are every item of the extrema-cli pool
(perfbench/reference/extrema-cli.json, read only for its inputs) and the
extrema-random draw of scripts/output_digest.py; --limit N takes the first N
of each.  Each side runs scan_extrema and global_max on every item, with
every cache of its package cleared first, and the two answers are compared:

- errors: one side raises and the other does not, or the two raise other
  classes or messages;
- counts or kinds: the two record lists differ in length or in kinds;
- maxima: a maximum's x, M or ln M differs in any bit;
- global maxima: global_max's record differs in any field or bit;
- minima: the largest |x| shift of a minimum, over items with equal kinds.

Beside these bit-level counts it reports sizes, over items with equal kinds:
the largest shift of a maximum's x and the largest |delta ln M| at a maximum,
global_max's record included; how many items' global maximum is another
record (index); and how many differing items have a mirror window, alpha =
beta on a symmetric window, where M's maxima come in mirror pairs.

It prints one line per differing item and a summary, and exits 1 when an
error, a count, a kind, a maximum or a global maximum differs, 0 otherwise.
"""

import argparse
import json
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent
ROOT = SCRIPTS.parent
sys.path.insert(0, str(SCRIPTS))

from ab_pools import load_package, package_caches  # noqa: E402
from output_digest import POOL, random_items  # noqa: E402


def items(limit=None):
    """(label, k, alpha, beta, window) of the pool and of the random draw; window is a cli spec or (d_m, d_M)."""
    pool = [item for stratum in json.loads(POOL.read_text(encoding="utf-8"))["pool"] for item in stratum]
    out = [(f"pool {i}", it["k"], it["alpha"], it["beta"], it["window"]) for i, it in enumerate(pool[:limit])]
    for i, (p, _, w) in enumerate(random_items()[:limit]):
        out.append((f"random {i}", p.k, p.alpha, p.beta, (w.d_m, w.d_M)))
    return out


def params_and_window(pkg, item):
    """The item's Params and Window in one side's package."""
    _, k, alpha, beta, window = item
    p = pkg.Params(k, alpha, beta)
    return p, (pkg.cli._parse_window(window, p) if isinstance(window, str) else pkg.Window(*window))


def answer(pkg, caches, item):
    """(records, global max) of one item on one side, or the error's class and message, from cleared caches."""
    for fn in caches:
        fn.cache_clear()
    try:
        p, w = params_and_window(pkg, item)
        return pkg.scan_extrema(p, w), pkg.global_max(p, w)
    except (pkg.GridTooCoarseError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"


def mirrored(pkg, item) -> bool:
    """Whether M has a mirror image on the item's window: alpha = beta on a symmetric window."""
    try:
        p, w = params_and_window(pkg, item)
    except ValueError:
        return False
    return p.is_ultraspherical and w.is_symmetric


def _bits(r):
    # a record's fields, floats by their hex form
    return (r.index, r.x.hex(), r.M.hex(), r.ln_M.hex(), r.kind)


def _shift(a, b):
    # |a - b|, with two equal values (two infinities included) 0
    return 0.0 if a == b else abs(a - b)


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
        max(_shift(a.x, b.x) for a, b in tops),
        max(_shift(a.ln_M, b.ln_M) for a, b in tops),
        gm.index != ogm.index,
    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("other_src", type=Path, help="the other checkout's src/ directory, or the checkout")
    ap.add_argument("--limit", type=int, help="only the first N items of the pool and of the random draw")
    args = ap.parse_args(argv)
    other = args.other_src.resolve()
    if not (other / "jacobimax").is_dir():
        other = other / "src"
    sides = []
    for src, name in ((ROOT / "src", "jacobimax_this"), (other, "jacobimax_other")):
        sides.append((load_package(src, name), package_caches(name)))
    counts = {"error": 0, "count or kind": 0, "maximum": 0, "global maximum": 0}
    # the largest minimum x, maximum x and maximum ln M shifts, each with its item
    worst = [[0.0, None] for _ in range(3)]
    n = differing = on_mirror = index_moved = 0
    for item in items(args.limit):
        n += 1
        diffs, (*shifts, moved) = compare(*(answer(pkg, caches, item) for pkg, caches in sides))
        for diff in diffs:
            counts[diff] += 1
            print(f"{item[0]} k={item[1]} alpha={item[2]!r} beta={item[3]!r} window={item[4]!r}: {diff} differs")
        if diffs:
            differing += 1
            on_mirror += mirrored(sides[0][0], item)
        index_moved += moved
        for top, shift in zip(worst, shifts):
            if shift > top[0]:
                top[:] = shift, item[0]

    def size(top):
        return f"{top[0]:.3g}" + (f" ({top[1]})" if top[1] else "")

    print(f"{n} items: " + ", ".join(f"{v} {name} differ" for name, v in counts.items()))
    print(f"largest minimum shift {size(worst[0])}")
    print(f"largest maximum shift {size(worst[1])} in x, {size(worst[2])} in ln M")
    print(f"{differing} items differ, {on_mirror} of them on a mirror window; global maximum index differs on {index_moved}")
    return 1 if any(counts.values()) else 0


if __name__ == "__main__":
    sys.exit(main())

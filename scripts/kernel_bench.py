"""Time the recurrence kernels of this checkout against another checkout's on recorded calls.

    python3 scripts/kernel_bench.py OTHER_SRC [--limit N] [--repeats 3] [--out BENCH_kernels.json]

OTHER_SRC is the other checkout's src/ directory (or the checkout itself).
Both packages are imported into one process under two module names, as
scripts/ab_pools.py does.  The extrema-cli pool (perfbench/reference/
extrema-cli.json, read only for its inputs; --limit N takes its first N
items) runs through perfbench's own runner on this checkout, every cache of
the package cleared before each item, while wrappers on _kernels.recurrence
and _kernels.monic_recurrence record the arguments of every call.  Each
recorded call is then replayed through the same-named kernel of both
checkouts, in an order that alternates from one call and repeat to the
next, and each side's time for a call is the best of --repeats.  The process
pins itself to its fastest CPU first, as ab_pools.py does.

Per kernel entry it prints the calls, the point-steps (points times degree,
as perfbench's tracer counts them), both sides' summed seconds and
point-steps per second, and the ratio this / other of the seconds; the same
figures go to the JSON file --out.
"""

import argparse
import json
import platform
import sys
import tempfile
import time
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent
ROOT = SCRIPTS.parent
sys.path.insert(0, str(SCRIPTS))

import numpy as np  # noqa: E402

from ab_pools import checkout_src, load_package, package_caches, pin_to_fastest_cpu, pool, whole, wl  # noqa: E402

ENTRIES = ("monic_recurrence", "recurrence")


def record_calls(pkg, caches, pool, workdir: Path):
    """(entry, args) of every kernel call the pool's items make on pkg, each item from cleared caches."""
    calls = []
    kernels = pkg._kernels
    originals = {name: getattr(kernels, name) for name in ENTRIES}

    def recorder(name):
        fn = originals[name]

        def wrapped(x, b, a, ln_start, k):
            calls.append((name, (x.copy(), b.copy(), a.copy(), ln_start, k)))
            return fn(x, b, a, ln_start, k)

        return wrapped

    w = wl.WORKLOADS["extrema-cli"]
    ctx = wl.Context(pkg, workdir)
    try:
        for name in ENTRIES:
            setattr(kernels, name, recorder(name))
        for item in pool:
            for fn in caches:
                fn.cache_clear()
            w.run(ctx, item)
    finally:
        for name, fn in originals.items():
            setattr(kernels, name, fn)
    return calls


def replay(calls, kernel_modules, repeats: int):
    """Per entry: calls, point-steps and each side's summed best-of-repeats seconds."""
    out = {name: {"calls": 0, "point_steps": 0, "seconds": [0.0] * len(kernel_modules)} for name in ENTRIES}
    for i, (name, args) in enumerate(calls):
        entry = out[name]
        entry["calls"] += 1
        entry["point_steps"] += args[0].shape[0] * args[4]
        fns = [getattr(mod, name) for mod in kernel_modules]
        best = [np.inf] * len(fns)
        for r in range(repeats):
            order = range(len(fns)) if (i + r) % 2 == 0 else reversed(range(len(fns)))
            for s in order:
                t0 = time.perf_counter()
                fns[s](*args)
                best[s] = min(best[s], time.perf_counter() - t0)
        for s, t in enumerate(best):
            entry["seconds"][s] += t
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("other_src", type=Path, help="the other checkout's src/ directory, or the checkout")
    ap.add_argument("--limit", type=whole, help="only the first N items of the extrema-cli pool")
    ap.add_argument("--repeats", type=whole, default=3, help="runs per call and side; the best counts")
    ap.add_argument("--out", type=Path, default=ROOT / "BENCH_kernels.json", help="JSON results file")
    args = ap.parse_args(argv)
    other = checkout_src(args.other_src)
    cpu, cpu_probe_ms = pin_to_fastest_cpu()
    print(f"pinned to CPU {cpu} (probe ms per CPU: {cpu_probe_ms})", flush=True)
    items = pool("extrema-cli", args.limit)
    this = load_package(ROOT / "src", "jacobimax_this")
    that = load_package(other, "jacobimax_other")
    with tempfile.TemporaryDirectory(prefix="kernel_bench-") as tmp:
        calls = record_calls(this, package_caches("jacobimax_this"), items, Path(tmp))
    entries = replay(calls, [this._kernels, that._kernels], args.repeats)
    results = {
        "this": str(ROOT / "src"),
        "other": str(other),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "items": len(items),
        "repeats": args.repeats,
        "cpu": cpu,
        "cpu_probe_ms": cpu_probe_ms,
        "entries": {},
    }
    for name, e in entries.items():
        secs = e["seconds"]
        rates = [e["point_steps"] / s if s else 0.0 for s in secs]
        ratio = secs[0] / secs[1] if secs[1] else None
        results["entries"][name] = {**e, "point_steps_per_s": rates, "ratio": ratio}
        print(
            f"{name}: {e['calls']} calls, {e['point_steps'] / 1e6:.2f}M point-steps;"
            f" this {secs[0]:.4f} s ({rates[0] / 1e6:.1f}M/s), other {secs[1]:.4f} s ({rates[1] / 1e6:.1f}M/s)"
            + (f", this/other {ratio:.3f}" if ratio is not None else ""),
            flush=True,
        )
    args.out.write_text(json.dumps(results, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

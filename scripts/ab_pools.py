"""In-process A/B timing of this checkout's jacobimax against another checkout's.

    python3 scripts/ab_pools.py OTHER_SRC [--pools P[,P...]] [--repeats 3] [--out BENCH_ab.json]

OTHER_SRC is the other checkout's src/ directory (or the checkout itself).
Both packages are imported into one process under two module names, which
works because the package uses only relative imports.  Every item of each
perfbench pool (perfbench/reference/<pool>.json, read only for its inputs) is
run through perfbench's own workload runners on both packages, with every
cache of the package cleared first and the order of the two alternating from
one repeat and one item to the next; each side's time for an item is the best
of --repeats.  Timing both in one process, item by item, keeps a drift in CPU
speed on a shared host out of the ratios.  The process pins itself to its
fastest CPU first, as perfbench does, so the scheduler cannot move it between
CPUs of different speed from one item's run on one side to its run on the
other; the CPU goes to the JSON file as "cpu".

Per pool it prints the ratios this / other of the summed item times, of the
item-time medians and of the 90th percentiles, and the number of items whose
summaries (perfbench's summarize of the output) differ between the two.  An
exact difference need not be a wrong answer, so each of this side's summaries
is also judged the way perfbench judges a run: by the workload's own check
against the recorded reference, with perfbench/tolerances.json.  The gate
counts the operations that fail (and how many of those fail at the reference
too) and lists every mismatch, which perfbench would report as a wrong output.
The same figures, the differing items and the mismatches go to the JSON file
--out.
"""

import argparse
import importlib
import importlib.util
import json
import platform
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import numpy as np  # noqa: E402

import workloads as wl  # noqa: E402
from run import pin_to_fastest_cpu  # noqa: E402


def load_package(src: Path, name: str):
    """jacobimax from src/jacobimax, imported as the module `name`."""
    spec = importlib.util.spec_from_file_location(
        name, src / "jacobimax" / "__init__.py", submodule_search_locations=[str(src / "jacobimax")]
    )
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[name] = pkg
    spec.loader.exec_module(pkg)
    for sub in ("cli", "verify"):
        importlib.import_module(f"{name}.{sub}")
    return pkg


def package_caches(name: str):
    """Every functools cache in the package imported as `name`."""
    seen = {}
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == name or mod_name.startswith(name + "."):
            for obj in vars(mod).values():
                if callable(getattr(obj, "cache_clear", None)) and callable(getattr(obj, "cache_info", None)):
                    seen[id(obj)] = obj
    return list(seen.values())


def run_once(w, side, item):
    """(seconds, summary) of one item on one side, every cache of its package cleared first."""
    ctx, caches = side
    for fn in caches:
        fn.cache_clear()
    t0 = time.perf_counter()
    try:
        raw = w.run(ctx, item)
    except Exception as exc:  # a failing item is compared by its summary, not raised
        raw = {"exc": f"{type(exc).__name__}: {exc}"}
    dt = time.perf_counter() - t0
    if "exc" not in raw:
        raw = w.collect(ctx, item, raw)
    return dt, w.summarize(raw)


def ab_pool(w, sides, repeats: int, tol: dict):
    """Best-of-repeats times of every pool item on both sides, the items whose summaries differ, and this side's gate.

    The gate is perfbench's check of this side's summaries against the
    recorded references: operations, failed operations, the failures the
    reference shares, and every mismatch.
    """
    doc = json.loads((PERFBENCH / "reference" / f"{w.name}.json").read_text())
    pool = [item for stratum in doc["pool"] for item in stratum]
    refs = [ref for stratum in doc["reference"] for ref in stratum]
    if w.name == "verify-sweep":
        # both sides share one work directory
        for item in [w.warmup] + pool:
            sides[0][0].config_path(item).write_text(json.dumps(wl.verify_config(item)), encoding="utf-8")
    for side in sides:
        run_once(w, side, w.warmup)
    best = np.full((len(pool), 2), np.inf)
    differ = []
    gate = {"ops": 0, "failed": 0, "failed_at_reference": 0, "mismatches": []}
    for i, item in enumerate(pool):
        summaries = [None, None]
        for r in range(repeats):
            for s in ((0, 1) if (i + r) % 2 == 0 else (1, 0)):
                dt, summary = run_once(w, sides[s], item)
                best[i, s] = min(best[i, s], dt)
                if summaries[s] is None:
                    summaries[s] = summary
        if json.dumps(summaries[0], sort_keys=True) != json.dumps(summaries[1], sort_keys=True):
            differ.append(w.describe(item))
        v = w.check(item, refs[i], summaries[0], tol)
        gate["ops"] += v.ops
        gate["failed"] += v.failed
        gate["failed_at_reference"] += len(v.known)
        gate["mismatches"] += [f"{w.describe(item)}: {msg}" for msg in v.mismatches]
    return best, differ, gate


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("other_src", type=Path, help="the other checkout's src/ directory, or the checkout")
    ap.add_argument("--pools", default="verify-sweep,extrema-cli,scalar-checks", help="comma-separated workloads")
    ap.add_argument("--repeats", type=int, default=3, help="runs per item and side; the best counts")
    ap.add_argument("--out", type=Path, default=ROOT / "BENCH_ab.json", help="JSON results file")
    args = ap.parse_args(argv)
    other = args.other_src.resolve()
    cpu, cpu_probe_ms = pin_to_fastest_cpu()
    print(f"pinned to CPU {cpu} (probe ms per CPU: {cpu_probe_ms})", flush=True)
    if not (other / "jacobimax").is_dir():
        other = other / "src"
    with tempfile.TemporaryDirectory(prefix="ab_pools-") as tmp:
        sides = []
        for src, name in ((ROOT / "src", "jacobimax_this"), (other, "jacobimax_other")):
            sides.append((wl.Context(load_package(src, name), Path(tmp)), package_caches(name)))
        results = {
            "this": str(ROOT / "src"),
            "other": str(other),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "repeats": args.repeats,
            "cpu": cpu,
            "cpu_probe_ms": cpu_probe_ms,
            "pools": {},
        }
        tol = json.loads((PERFBENCH / "tolerances.json").read_text(encoding="utf-8"))
        for name in args.pools.split(","):
            best, differ, gate = ab_pool(wl.WORKLOADS[name], sides, args.repeats, tol)
            sums = best.sum(axis=0)
            p50 = np.percentile(best, 50, axis=0)
            p90 = np.percentile(best, 90, axis=0)
            res = {
                "items": len(best),
                "sum_s": sums.tolist(),
                "p50_ms": (1e3 * p50).tolist(),
                "p90_ms": (1e3 * p90).tolist(),
                "sum_ratio": sums[0] / sums[1],
                "p50_ratio": p50[0] / p50[1],
                "p90_ratio": p90[0] / p90[1],
                "summaries_differ": len(differ),
                "differing_items": differ,
                "gate": gate,
            }
            results["pools"][name] = res
            print(
                f"{name}: {res['items']} items, this/other sum {sums[0]:.3f}/{sums[1]:.3f} s = {res['sum_ratio']:.3f},"
                f" p50 {res['p50_ratio']:.3f}, p90 {res['p90_ratio']:.3f}; summaries differ on {len(differ)};"
                f" gate: {gate['failed']} of {gate['ops']} operations failed ({gate['failed_at_reference']} also at"
                f" the reference), {len(gate['mismatches'])} mismatches",
                flush=True,
            )
            for line in gate["mismatches"]:
                print(f"  MISMATCH: {line}", flush=True)
    args.out.write_text(json.dumps(results, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

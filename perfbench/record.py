"""Draw each workload's input pool and record the reference outputs.

    python3 perfbench/record.py [WORKLOAD ...]

Writes perfbench/reference/<workload>.json: the pool split into strata of
equal size by item time, and for every item the summarised output of the
current checkout.  The committed files were recorded from the commit that
introduced the benchmark, and run.py checks later commits against them;
re-record only when an output format changes on purpose, on a quiet machine.
"""

import json
import shutil
import sys

import run
import workloads as wl


def record(name):
    jm = run.import_package()
    import jacobimax.verify  # noqa: F401

    w = wl.WORKLOADS[name]
    tol = json.loads((run.HERE / "tolerances.json").read_text(encoding="utf-8"))
    workdir = run.ROOT / ".perfbench_work" / f"record-{name}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        ctx = wl.Context(jm, workdir)
        caches = run.package_caches()
        timed = []
        for item in [w.warmup] + wl.make_pool(w):
            if name == "verify-sweep":
                ctx.config_path(item).write_text(json.dumps(wl.verify_config(item)), encoding="utf-8")
            dt, raw = run.run_item(w, ctx, item, caches)
            timed.append((dt, item, wl.mark_valid(w, item, w.summarize(raw), tol)))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    # strata of equal size by item time, so that every round costs about the same
    timed = sorted(timed[1:], key=lambda t: t[0])
    size = len(timed) // w.strata
    groups = [timed[s * size : (s + 1) * size] for s in range(w.strata)]
    doc = {
        "workload": name,
        "pool_seed": wl.POOL_SEED,
        "pool": [[item for _, item, _ in g] for g in groups],
        "reference": [[ref for _, _, ref in g] for g in groups],
        "recorded_ms": [[round(1e3 * dt, 2) for dt, _, _ in g] for g in groups],
    }
    path = run.HERE / "reference" / f"{name}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(doc, separators=(",", ":")) + "\n", encoding="utf-8")
    print(f"wrote {path.relative_to(run.ROOT)}")


if __name__ == "__main__":
    for name in sys.argv[1:] or sorted(wl.WORKLOADS):
        record(name)

"""Benchmark for jacobimax: three closed-loop workloads, one client thread.

    python3 perfbench/run.py --workload extrema-cli --seed 1 --seconds 30 --trace 0

Run from a checkout of the repository; the package is imported from its
src/ directory.  Every input is drawn from the seed before timing starts, and
every library cache starts each item empty, as a fresh `jacobimax` process
would.  The seed picks a fixed number of rounds, one item per stratum.  With
--trace 0 the run cycles over them for about --seconds, going through every
round at least once, and prints the end-to-end metrics; with --trace 1 it runs
each item once plain and once traced, and prints the per-layer metrics.  After
the timed region, each distinct item's output is checked once against the
recorded reference outputs (see record.py), so attempted and failed repeat for
one seed.  The last stdout line is a JSON object
{correct, attempted, failed, metrics}; the exit code is 1 when any output is
wrong and 2 when the package cannot be imported.
"""

import argparse
import hashlib
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 7
MAX_ROUNDS = 1000
# rounds a seed picks for a timed run and for a traced run; fixed, so the
# items checked, and with them attempted and failed, repeat for one seed
CHECK_ROUNDS = 8
TRACE_ROUNDS = 3
# times are reported in reference seconds: seconds on a machine where
# speed_probe() takes PROBE_REF_S
PROBE_REF_S = 2e-3

sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import workloads as wl  # noqa: E402

PROBE_X = np.linspace(-0.9, 0.9, 256)


def clock():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def import_package():
    """Import jacobimax from this checkout's src/, or exit 2 without a result."""
    sys.path.insert(0, str(SRC))
    try:
        import jacobimax
        import jacobimax.cli
    except ImportError as exc:
        print(f"perfbench: cannot import jacobimax from {SRC}: {exc}", file=sys.stderr)
        raise SystemExit(2)
    if not Path(jacobimax.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"perfbench: jacobimax imported from {jacobimax.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)
    return jacobimax


def package_caches():
    """Every functools cache in the package, found by attribute so renames need no edit."""
    seen = {}
    for name, mod in sorted(sys.modules.items()):
        if name == "jacobimax" or name.startswith("jacobimax."):
            for attr, obj in vars(mod).items():
                if callable(getattr(obj, "cache_clear", None)) and callable(getattr(obj, "cache_info", None)):
                    seen.setdefault(id(obj), (f"{name}.{attr}", obj))
    return dict(seen.values())


def clear_caches(caches):
    for fn in caches.values():
        fn.cache_clear()


def os_threads():
    """Threads of this process, as the kernel counts them (None off Linux)."""
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("Threads:"):
                return int(line.split()[1])
    except OSError:
        pass
    return None


def env_stamp(jm, args, digest, nproc, cpu, cpu_probe_ms, threads):
    return {
        "cpus_used": sorted(os.sched_getaffinity(0)),
        "cpu": cpu,
        "cpu_probe_ms": cpu_probe_ms,
        "os_threads": threads,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "using_numba": bool(jm._kernels.USING_NUMBA),
        "nproc": nproc,
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs_sha256": digest,
    }


def measure_setup(workload, workdir):
    """Median over fresh processes of the time to import and finish one warm-up call.

    Each time is scaled to reference seconds by the median of speed probes
    taken just before the process starts.
    """
    probe = HERE / "setup_probe.py"
    times = []
    for _ in range(SETUP_REPEATS):
        scale = PROBE_REF_S / statistics.median(speed_probe() for _ in range(5))
        t0 = clock()
        proc = subprocess.run(
            [sys.executable, str(probe), workload, str(workdir)],
            capture_output=True,
            text=True,
            timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
        times.append((float(proc.stdout.strip().splitlines()[-1]) - t0, scale))
    raw = statistics.median(t for t, _ in times)
    return statistics.median(t * scale for t, scale in times), raw


def run_item(w, ctx, item, caches):
    """One closed-loop item: empty caches, then the timed call. Returns (seconds, raw output)."""
    clear_caches(caches)
    t0 = time.perf_counter()
    try:
        raw = w.run(ctx, item)
    except Exception as exc:  # a bug in the package must not stop the run; it is reported
        raw = {"exc": f"{type(exc).__name__}: {exc}"}
    dt = time.perf_counter() - t0
    if "exc" not in raw:
        raw = w.collect(ctx, item, raw)
    return dt, raw


def percentile(values, q):
    return float(np.percentile(np.asarray(values), q))


def speed_probe():
    """Seconds two fixed, package-independent computations take right now.

    One is pure Python arithmetic, one a numpy recurrence over 256 points:
    the two kinds of work every workload mixes.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(25000):
        acc += i & 7
    oracle.ln_abs_p(120, 0.5, 1.5, PROBE_X)
    return time.perf_counter() - t0


def pin_to_fastest_cpu():
    """Pin this thread (and the threads and processes it starts) to its fastest CPU.

    On a shared host the CPUs this process may use can differ in speed by
    more than half, and the scheduler moves a process between them; staying
    on one CPU removes that jump from the measurement.  The price is that the
    package's work runs on that one CPU: a change that spreads work over
    several cores cannot show a gain here.  Returns the CPU and the median
    probe time of each CPU, in ms.
    """
    cpus = sorted(os.sched_getaffinity(0))
    medians = {}
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        medians[cpu] = statistics.median(speed_probe() for _ in range(100))
    best = min(medians, key=medians.get)
    os.sched_setaffinity(0, {best})
    return best, {cpu: round(1e3 * t, 4) for cpu, t in medians.items()}


def timed_loop(w, ctx, pool, rounds, seconds, caches):
    """Cycle over the rounds until about `seconds` have passed, each at least once.

    Returns per round the item latencies and the speed probes taken before
    each item and after the last, and each distinct item's first output.
    """
    per_round = []
    outputs = {}
    t_start = time.perf_counter()
    for rnd in itertools.islice(itertools.cycle(rounds), MAX_ROUNDS):
        latencies, probes = [], []
        for s, j in rnd:
            probes.append(speed_probe())
            dt, raw = run_item(w, ctx, pool[s][j], caches)
            latencies.append(dt)
            outputs.setdefault((s, j), raw)
        probes.append(speed_probe())
        per_round.append((latencies, probes))
        elapsed = time.perf_counter() - t_start
        # stop at the round boundary nearest to the requested length
        if len(per_round) >= len(rounds) and elapsed + 0.5 * elapsed / len(per_round) >= seconds:
            break
    return per_round, outputs


def round_metrics(per_round):
    """Throughput and latency percentiles, in reference seconds.

    The machine's speed drifts by tens of percent within a minute when it is
    shared.  For throughput, each round's time is scaled by PROBE_REF_S over
    the median of the speed probes taken between its items, and every round
    holds one item of each cost stratum, so rounds measure the same work at
    the same scale; the median over rounds keeps a slow spell from moving it.
    The percentiles are taken over every item of the run, as a single round
    has too few items for a steady p90, and each item is scaled by the mean
    of the probes just before and just after it: a slow spell of a few
    seconds moves the long items that p90 rests on.
    """
    ips, scaled = [], []
    for lat, probes in per_round:
        ips.append(len(lat) * statistics.median(probes) / (PROBE_REF_S * sum(lat)))
        scaled += [dt * PROBE_REF_S / (0.5 * (p0 + p1)) for dt, p0, p1 in zip(lat, probes, probes[1:])]
    return {
        "items_per_s": (statistics.median(ips), "1/s"),
        "item_ms_p50": (1e3 * percentile(scaled, 50), "ms"),
        "item_ms_p90": (1e3 * percentile(scaled, 90), "ms"),
    }


def traced_loop(w, ctx, pool, rounds, caches):
    import spans

    tracer = spans.Tracer()
    cache_stats = {}
    plain_s = traced_s = 0.0
    outputs, traced_outputs = {}, {}
    for item_id, (s, j) in enumerate(sj for rnd in rounds for sj in rnd):
        item = pool[s][j]
        dt, raw = run_item(w, ctx, item, caches)
        plain_s += dt
        outputs.setdefault((s, j), raw)
        tracer.item = item_id
        clear_caches(caches)
        tracer.install()
        try:
            dt, raw = run_item(w, ctx, item, {})
        finally:
            tracer.uninstall()
        traced_s += dt
        traced_outputs.setdefault((s, j), raw)
        for name, fn in caches.items():
            info = fn.cache_info()
            h, m = cache_stats.get(name, (0, 0))
            cache_stats[name] = (h + info.hits, m + info.misses)
    return tracer, cache_stats, plain_s, traced_s, outputs, traced_outputs


def layer_metrics(tracer, cache_stats, plain_s, traced_s, check_ids):
    def ratio(a, b):
        return a / b if b else 0.0

    def hit_ratio(suffix):
        for name, (h, m) in cache_stats.items():
            if name.endswith(suffix):
                return ratio(h, h + m)
        return 0.0

    k_calls, k_busy = tracer.calls["kernels"], tracer.busy_s["kernels"]
    scans, scan_s, _ = tracer.name_total("extrema.scan_extrema")
    identity_calls, identity_s, _ = tracer.name_total("envelope.identity_checks")
    m = {
        "kernels.calls": (k_calls, "count"),
        "kernels.point_steps": (tracer.kernel_point_steps, "count"),
        "kernels.points_per_call": (ratio(tracer.kernel_points, k_calls), "count"),
        "kernels.busy_s": (k_busy, "s"),
        "kernels.point_steps_per_s": (ratio(tracer.kernel_point_steps, k_busy), "1/s"),
        "kernels.share": (ratio(k_busy, traced_s), "ratio"),
        "jacobi.eval_calls": (tracer.calls["jacobi"], "count"),
        "jacobi.self_s": (tracer.self_s["jacobi"], "s"),
        "jacobi.coeff_cache_hit_ratio": (hit_ratio("._recurrence_coeffs"), "ratio"),
        "scaled.ops": (tracer.calls["scaled"], "count"),
        "scaled.self_s": (tracer.self_s["scaled"], "s"),
        "gammafn.calls": (tracer.calls["gammafn"], "count"),
        "gammafn.busy_s": (tracer.busy_s["gammafn"], "s"),
        "envelope.identity_calls": (identity_calls, "count"),
        "envelope.identity_s": (identity_s, "s"),
        "envelope.geometry_calls": (tracer.name_total("envelope.geometry")[0], "count"),
        "extrema.scan_calls": (scans, "count"),
        "extrema.scan_s": (scan_s, "s"),
        "extrema.self_s": (tracer.self_s["extrema"], "s"),
        "extrema.kernel_calls_per_scan": (ratio(tracer.scan_kernel_calls, scans), "count"),
        "extrema.point_steps_per_scan": (ratio(tracer.scan_point_steps, scans), "count"),
        "extrema.grid_too_coarse": (tracer.scan_errors["GridTooCoarseError"], "count"),
        "bounds.calls": (tracer.calls["bounds"], "count"),
        "bounds.busy_s": (tracer.busy_s["bounds"], "s"),
        "verify.rows": (sum(tracer.row_status.values()), "count"),
        "verify.rows_skipped": (tracer.row_status["skipped_hypothesis"], "count"),
        "verify.rows_numeric_failure": (tracer.row_status["numeric_failure"], "count"),
        "verify.scan_cache_hit_ratio": (hit_ratio("._cached_scan"), "ratio"),
        # the registry runners are private, so all of verify's per-row work
        # is self time of run_check
        "verify.run_check_self_s": (tracer.name_total("verify.run_check")[2], "s"),
        "verify.render_write_s": (tracer.name_total("verify.write_report")[1], "s"),
    }
    for cid in check_ids:
        m[f"verify.row_ms.{cid}"] = (1e3 * ratio(tracer.row_s[cid], tracer.row_calls[cid]), "ms")
    m["cli.self_s"] = (tracer.self_s["cli"], "s")
    m["trace.overhead_frac"] = (ratio(traced_s - plain_s, plain_s), "ratio")
    return m


def check_outputs(w, pool, refs, outputs, tol):
    """Compare each distinct item's output with its reference, once per item."""
    attempted = failed = answered = 0
    mismatches = []
    known = []
    for (s, j), raw in sorted(outputs.items()):
        item, ref = pool[s][j], refs[s][j]
        got = w.summarize(raw)
        v = w.check(item, ref, got, tol)
        attempted += v.ops
        failed += v.failed
        answered += v.answered
        mismatches += [f"{w.describe(item)}: {msg}" for msg in v.mismatches]
        known += [f"{w.describe(item)}: {msg}" for msg in v.known]
    return attempted, failed, answered, mismatches, known


def timed_run(w, ctx, pool, rounds, args, caches, workdir):
    """End-to-end metrics, with setup measured first in fresh processes."""
    setup_s, setup_raw_s = measure_setup(w.name, workdir)
    run_item(w, ctx, w.warmup, caches)
    per_round, outputs = timed_loop(w, ctx, pool, rounds, args.seconds, caches)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = round_metrics(per_round)
    metrics["setup_s"] = (setup_s, "s")
    metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
    OUT.mkdir(exist_ok=True)
    (OUT / f"samples-{w.name}-seed{args.seed}.json").write_text(json.dumps(per_round), encoding="utf-8")
    latencies = [dt for lat, _ in per_round for dt in lat]
    probes = sorted(p for _, round_probes in per_round for p in round_probes)
    beyond = len(latencies) - int(0.9 * len(latencies))
    lines = [
        f"# items: {len(latencies)} in {len(per_round)} rounds of {w.strata}, cycling over the seed's"
        f" {len(rounds)}; items_per_s is the median over"
        f" rounds, and p90 has {beyond} of the {len(latencies)} samples at or beyond it",
        f"# raw wall clock: {len(latencies) / sum(latencies):.4f} items/s, p50 {1e3 * percentile(latencies, 50):.2f} ms,"
        f" p90 {1e3 * percentile(latencies, 90):.2f} ms, setup {setup_raw_s:.4f} s",
        f"# speed probe ms: min {1e3 * probes[0]:.3f}, median {1e3 * statistics.median(probes):.3f},"
        f" max {1e3 * probes[-1]:.3f} (reference {1e3 * PROBE_REF_S:g})",
        f"# setup_s: median of {SETUP_REPEATS} fresh processes",
    ]
    return metrics, lines, outputs, []


def traced_run(w, ctx, pool, rounds, args, caches, jm, refs, tol):
    """Per-layer metrics from a fixed number of rounds, each item plain then traced."""
    run_item(w, ctx, w.warmup, caches)
    tracer, cache_stats, plain_s, traced_s, outputs, traced_outputs = traced_loop(w, ctx, pool, rounds, caches)
    metrics = layer_metrics(tracer, cache_stats, plain_s, traced_s, jm.verify.check_ids())
    OUT.mkdir(exist_ok=True)
    trace_file = OUT / f"trace-{w.name}-seed{args.seed}.npz"
    tracer.save(trace_file)
    lines = [f"# spans: {tracer.n_spans()} written to {trace_file.relative_to(ROOT)}"]
    traced_mismatches = [f"traced: {m}" for m in check_outputs(w, pool, refs, traced_outputs, tol)[3]]
    return metrics, lines, outputs, traced_mismatches


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    jm = import_package()
    import jacobimax.verify  # noqa: F401

    nproc = len(os.sched_getaffinity(0))
    cpu, cpu_probe_ms = pin_to_fastest_cpu()
    threads = {"start": os_threads()}

    w = wl.WORKLOADS[args.workload]
    ref_doc = json.loads((HERE / "reference" / f"{w.name}.json").read_text(encoding="utf-8"))
    tol = json.loads((HERE / "tolerances.json").read_text(encoding="utf-8"))
    pool, refs = ref_doc["pool"], ref_doc["reference"]

    rounds = wl.rounds_for_seed(w, [len(p) for p in pool], args.seed, TRACE_ROUNDS if args.trace else CHECK_ROUNDS)
    stream = [pool[s][j] for rnd in rounds for s, j in rnd]
    digest = hashlib.sha256(json.dumps(stream, sort_keys=True).encode()).hexdigest()

    workdir = ROOT / ".perfbench_work" / f"{w.name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        ctx = wl.Context(jm, workdir)
        if w.name == "verify-sweep":
            for item in [w.warmup] + [pool[s][j] for s, j in {sj for rnd in rounds for sj in rnd}]:
                ctx.config_path(item).write_text(json.dumps(wl.verify_config(item)), encoding="utf-8")
        caches = package_caches()
        if args.trace:
            metrics, lines, outputs, mismatches = traced_run(w, ctx, pool, rounds, args, caches, jm, refs, tol)
        else:
            metrics, lines, outputs, mismatches = timed_run(w, ctx, pool, rounds, args, caches, workdir)
        # threads the package left behind would share the pinned CPU with the
        # speed probe and so skew the scaled times; the stamp shows them
        threads["end"] = os_threads()
        attempted, failed, answered, wrong, known = check_outputs(w, pool, refs, outputs, tol)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    mismatches = wrong + mismatches
    error_frac = failed / attempted if attempted else 0.0
    print(f"# env: {json.dumps(env_stamp(jm, args, digest, nproc, cpu, cpu_probe_ms, threads), sort_keys=True)}")
    for line in lines:
        print(line)
    print(f"# error_frac: {error_frac:.6g} ({failed} of {attempted} operations failed; {answered} answered beyond the reference)")
    for line in sorted(set(known)):
        print(f"# failed (also at the reference): {line}")
    for line in mismatches:
        print(f"# MISMATCH: {line}")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value!r} {unit}")
    result = {
        "correct": not mismatches,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not mismatches else 1


if __name__ == "__main__":
    raise SystemExit(main())

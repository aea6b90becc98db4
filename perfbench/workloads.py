"""The three workloads: how their inputs are drawn, run, summarised and checked.

Every workload draws its items from a fixed pool whose reference outputs were
recorded once (see record.py).  record.py also timed every item and split the
pool into strata of equal size by that time.  A run's seed takes one item per
stratum per round, spread evenly over each stratum's cost range, so every seed
runs a different set of items with the same mix of costs.
"""

import contextlib
import io
import json
import math
import random
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import oracle

POOL_SEED = 20061017

CHECKED = "checked"
NUMERIC_FAILURE = "numeric_failure"

# the checks that do not scan, run on every scalar-checks item
SCALAR_CHECKS = (
    "ode_residual",
    "deriv_fd",
    "pointwise",
    "identity_B1_delta",
    "identity_B1_one",
    "identity_D_delta",
    "identity_D_quadratic",
    "identity_A0_delta",
    "gamma_ratio",
    "thm4_even_value",
    "thm1_ratio",
)

# rows whose lhs is a located global maximum M, with the window it is taken on
GLOBAL_MAX_CHECKS = {
    "chow_eq1": "full",
    "emn_eq2": "full",
    "krasikov_eq3": "full",
    "thm1": "full",
    "lemma_glav": "full",
    "odd_230": "delta",
    "odd_29": "delta",
}


def _round6(v):
    return float(f"{v:.6g}")


def _log_uniform_k(rng, i, n, hi):
    # item i of n takes its degree from the i-th of n equal-probability bins
    # of a log-uniform degree on [2, hi], so the pool covers the range evenly
    u = (i + rng.random()) / n
    return min(hi, int(2.0 * (hi / 2.0 + 0.5) ** u))


def _log_uniform(rng, lo, hi):
    return _round6(10.0 ** rng.uniform(math.log10(lo), math.log10(hi)))


def _extrema_exponent(rng):
    # alpha + 1/2 log-uniform on [1e-3, 1e5]: eight decades, each equally
    # likely.  The alpha = beta band where the full-window scan raises
    # GridTooCoarseError, alpha + 1/2 in about [0.005, 0.05], is one decade of
    # the eight, so about 1 in 16 items (half the pairs are symmetric) fall in it
    return _round6(-0.5 + 10.0 ** rng.uniform(-3.0, 5.0))


def _draw_extrema(rng, i, n):
    k = _log_uniform_k(rng, i, n, 400)
    alpha = _extrema_exponent(rng)
    beta = alpha if rng.random() < 0.5 else _extrema_exponent(rng)
    r = rng.random()
    if alpha == beta and alpha >= 0.5 and r < 0.35:
        window = "delta"
    elif r > 0.85:
        d_m = -round(rng.uniform(0.2, 1.0), 4)
        d_M = round(rng.uniform(0.2, 1.0), 4)
        window = f"custom:{d_m!r},{d_M!r}"
    else:
        window = "full"
    return {"k": k, "alpha": alpha, "beta": beta, "window": window}


_VERIFY_SHAPES = ("one_alpha", "two_alphas", "beta_grid")


def _draw_verify(rng, i, n):
    shape = _VERIFY_SHAPES[i % len(_VERIFY_SHAPES)]
    k = _log_uniform_k(rng, i // len(_VERIFY_SHAPES), n // len(_VERIFY_SHAPES), 60)
    alphas = [_log_uniform(rng, 0.05, 1e3)]
    betas = None
    if shape == "two_alphas":
        while len(alphas) < 2:
            a = _log_uniform(rng, 0.05, 1e3)
            if a != alphas[0]:
                alphas = sorted(alphas + [a])
    elif shape == "beta_grid":
        betas = sorted({_log_uniform(rng, 0.05, 1e3) for _ in range(2)})
    return {"k": k, "alphas": alphas, "betas": betas}


def _draw_scalar(rng, i, n):
    k = _log_uniform_k(rng, i, n, 100)
    return {"k": k, "alpha": max(_log_uniform(rng, 0.6, 1e4), 0.6)}


# ---------------------------------------------------------------- running


class Context:
    """What an item needs at run time: the imported package and a work dir."""

    def __init__(self, jm, workdir: Path):
        self.jm = jm
        self.workdir = workdir

    def config_path(self, item) -> Path:
        return self.workdir / f"block-{item_key(item)}.json"


def item_key(item) -> str:
    return json.dumps(item, sort_keys=True, separators=(",", ":"))


def _extrema_argv(item):
    return [
        "extrema",
        "--k", str(item["k"]),
        "--alpha", repr(item["alpha"]),
        "--beta", repr(item["beta"]),
        "--window", item["window"],
    ]


def _call_cli(ctx, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = ctx.jm.cli.main(argv)
    return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _run_extrema(ctx, item):
    return _call_cli(ctx, _extrema_argv(item))


def verify_config(item) -> dict:
    cfg = {"k_spec": {"min": item["k"], "max": item["k"]}, "alpha_spec": item["alphas"]}
    cfg["beta_mode"] = "equal_alpha" if item["betas"] is None else {"grid": item["betas"]}
    return cfg


def _run_verify(ctx, item):
    out = ctx.workdir / "report.csv"
    argv = ["verify", "--check", "all", "--config", str(ctx.config_path(item)), "--out", str(out)]
    return _call_cli(ctx, argv)


def _collect_verify(ctx, item, raw):
    out = ctx.workdir / "report.csv"
    if out.exists():
        raw["csv"] = out.read_text(encoding="utf-8")
        out.unlink()
    return raw


def _run_scalar(ctx, item):
    verify = ctx.jm.verify
    p = ctx.jm.Params(item["k"], item["alpha"], item["alpha"])
    return {"rows": [verify.run_check(cid, p) for cid in SCALAR_CHECKS]}


def _collect_scalar(ctx, item, raw):
    raw["rows"] = [
        [r.check_id, r.k, r.alpha, r.beta, r.lhs, r.rhs, bool(r.passed), r.status] for r in raw["rows"]
    ]
    return raw


def _no_collect(ctx, item, raw):
    return raw


# ---------------------------------------------------------------- summaries

_GM_RE = re.compile(r"global max: M = (\S+) at x = (\S+) \((endpoint|index (-?\d+))\)")


def _parse_extrema(raw):
    """The CLI's table rows (index, x, M, ln M, kind) and its global-max line."""
    records = []
    gm = None
    for line in raw["stdout"].splitlines():
        parts = line.split()
        if len(parts) == 5 and re.fullmatch(r"-?\d+", parts[0]):
            records.append((int(parts[0]), float(parts[1]), float(parts[2]), float(parts[3]), parts[4]))
            continue
        m = _GM_RE.search(line)
        if m:
            index = -1 if m.group(3) == "endpoint" else int(m.group(4))
            gm = (float(m.group(1)), float(m.group(2)), index)
    return records, gm


def summarize_extrema(raw):
    if raw.get("exc"):
        return {"rc": None, "error": raw["exc"]}
    if raw["rc"] != 0:
        return {"rc": raw["rc"], "error": raw["stderr"].strip().splitlines()[-1] if raw["stderr"].strip() else ""}
    records, gm = _parse_extrema(raw)
    if gm is None:
        return {"rc": -1, "error": "no global max line"}
    m, _, index = gm
    # the global-max line prints M, which underflows to 0 far outside double
    # range; the table's ln M column then stands in
    if m > 0.0:
        gm_ln = math.log(m)
    elif 0 <= index < len(records):
        gm_ln = records[index][3]
    else:
        gm_ln = -math.inf
    n = len(records)
    picks = sorted({round(i * (n - 1) / 7) for i in range(8)}) if n else []
    return {
        "rc": 0,
        "n": n,
        "n_max": sum(1 for r in records if r[4] == "max"),
        "first_kind": records[0][4] if records else None,
        "gm": list(gm),
        "gm_ln": gm_ln,
        "sum_x": math.fsum(r[1] for r in records),
        "probes": [[r[0], r[1], r[2], r[4]] for r in (records[i] for i in picks)],
    }


def _parse_csv_rows(text):
    rows = []
    header = None
    for line in text.splitlines():
        if line.startswith("#") or not line.strip():
            continue
        fields = line.split(",")
        if header is None:
            header = fields
            continue
        rec = dict(zip(header, fields))
        rows.append(
            [
                rec["check_id"],
                int(rec["k"]),
                float(rec["alpha"]),
                float(rec["beta"]),
                float(rec["lhs"]),
                float(rec["rhs"]),
                rec["pass"] == "true",
                rec["status"],
            ]
        )
    return rows


def summarize_verify(raw):
    if raw.get("exc"):
        return {"rc": None, "error": raw["exc"], "rows": []}
    if raw["rc"] == 2 or "csv" not in raw:
        return {"rc": raw["rc"], "error": raw["stderr"].strip(), "rows": []}
    return {"rc": raw["rc"], "rows": _parse_csv_rows(raw["csv"])}


def summarize_scalar(raw):
    if raw.get("exc"):
        return {"rc": None, "error": raw["exc"], "rows": []}
    return {"rc": 0, "rows": raw["rows"]}


# ---------------------------------------------------------------- checking


def _close(a, b, rel, abs_):
    if a is None or b is None:
        return a is b
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    if a == b:
        return True
    return abs(a - b) <= rel * max(abs(a), abs(b)) + abs_


def _delta_d(k, alpha):
    if alpha == 0.5:
        return 1.0
    num = (2.0 * k + 1.0) * (2.0 * k + 4.0 * alpha + 1.0) - 3.0
    den = (2.0 * k + 2.0 * alpha - 1.0) * (2.0 * k + 2.0 * alpha + 3.0)
    return math.sqrt(num / den)


def _window_bounds(window, k, alpha):
    if window == "full":
        return -1.0, 1.0
    if window == "delta":
        d = _delta_d(k, alpha)
        return -d, d
    lo, hi = window[len("custom:"):].split(",")
    return float(lo), float(hi)


def reaches_dense_max(k, alpha, beta, window, ln_m, tol):
    """A reported global max must reach M sampled by the independent oracle."""
    if not math.isfinite(ln_m):
        return False
    d_m, d_M = _window_bounds(window, k, alpha)
    return ln_m >= oracle.dense_max_ln_m(k, alpha, beta, d_m, d_M) - tol["grid_ln"]


def valid_extrema(item, got, tol):
    return got["rc"] == 0 and reaches_dense_max(
        item["k"], item["alpha"], item["beta"], item["window"], got["gm_ln"], tol
    )


def valid_rows(rows, tol):
    """Per row: False only for a global-max row below the dense-grid maximum."""
    flags = []
    for cid, k, alpha, beta, lhs, _, _, status in rows:
        ok = True
        if status == CHECKED and cid in GLOBAL_MAX_CHECKS:
            ln_m = math.log(lhs) if lhs > 0.0 else -math.inf
            ok = reaches_dense_max(k, alpha, beta, GLOBAL_MAX_CHECKS[cid], ln_m, tol)
        flags.append(ok)
    return flags


@dataclass
class Verdict:
    """Outcome of checking one item's output against its reference."""

    ops: int
    failed: int
    mismatches: list
    answered: int = 0  # operations the reference got wrong and this run answered
    known: list = field(default_factory=list)  # failures the reference shares


def _extrema_diff(ref, got, tol):
    if ref["rc"] != 0 or got["rc"] != 0:
        return [f"exit {got['rc']}, reference exit {ref['rc']}"]
    bad = [f"{key} {got[key]!r} != reference {ref[key]!r}" for key in ("n", "n_max", "first_kind") if ref[key] != got[key]]
    (rm, rx, ri), (gm, gx, gi) = ref["gm"], got["gm"]
    if ri != gi or not _close(rm, gm, tol["value_rel"], 0.0) or not _close(rx, gx, 0.0, tol["x_abs"]):
        bad.append(f"global max {got['gm']} != reference {ref['gm']}")
    if not _close(ref["sum_x"], got["sum_x"], 0.0, tol["x_abs"] * max(ref["n"], 1)):
        bad.append("sum of extremum positions differs")
    if not bad:
        got_probes = {p[0]: p for p in got["probes"]}
        for i, x, m, kind in ref["probes"]:
            g = got_probes.get(i)
            if g is None or g[3] != kind or not _close(x, g[1], 0.0, tol["x_abs"]):
                bad.append(f"extremum {i} differs")
            elif kind == "max" and not _close(m, g[2], tol["value_rel"], 0.0):
                bad.append(f"maximum {i} value differs")
    return bad


def check_extrema(item, ref, got, tol):
    if not (ref["rc"] == 0 and ref["valid"]):
        # the reference raised or answered below the dense-grid maximum
        if valid_extrema(item, got, tol):
            return Verdict(1, 0, [], answered=1)
        if got["rc"] != 0 or not _extrema_diff(ref, got, tol):
            return Verdict(1, 1, [], known=[got.get("error") or "global max below the dense-grid maximum"])
        return Verdict(1, 1, ["answer below the dense-grid maximum"])
    bad = _extrema_diff(ref, got, tol)
    if not bad and not valid_extrema(item, got, tol):
        bad.append("global max below the dense-grid maximum")
    return Verdict(1, 1 if bad else 0, bad)


def _row_key(row):
    return (row[0], row[1], repr(row[2]), repr(row[3]))


def _same_row(ref, row, tol):
    cid, rhs = row[0], row[5]
    lhs_abs = tol["residual_frac_of_rhs"] * abs(rhs) if cid in tol["residual_checks"] else tol["value_abs"]
    return (
        row[7] == ref[7]
        and row[6] == ref[6]
        and _close(ref[4], row[4], tol["value_rel"], lhs_abs)
        and _close(ref[5], rhs, tol["value_rel"], tol["value_abs"])
    )


def check_rows(ref_rows, ref_valid, got_rows, tol):
    """Compare report rows with the reference, row by row."""
    got = {_row_key(r): r for r in got_rows}
    v = Verdict(len(ref_rows), 0, [])
    if len(got) != len(got_rows) or set(got) != {_row_key(r) for r in ref_rows}:
        v.failed = len(ref_rows)
        v.mismatches.append(f"row set differs ({len(got_rows)} rows, reference {len(ref_rows)})")
        return v
    rows = [got[_row_key(r)] for r in ref_rows]
    for ref, good_ref, row, valid in zip(ref_rows, ref_valid, rows, valid_rows(rows, tol)):
        what = f"{row[0]} k={row[1]} alpha={row[2]!r} beta={row[3]!r}"
        if ref[7] == NUMERIC_FAILURE or not good_ref:
            # the reference failed this row; it may fail again or be answered
            if row[7] == CHECKED and valid and not _same_row(ref, row, tol):
                v.answered += 1
            elif row[7] == NUMERIC_FAILURE or _same_row(ref, row, tol):
                v.failed += 1
                v.known.append(f"{what}: {row[7] if row[7] == NUMERIC_FAILURE else 'below the dense-grid maximum'}")
            else:
                v.failed += 1
                v.mismatches.append(f"{what}: answered below the dense-grid maximum")
        elif row[7] == NUMERIC_FAILURE or not _same_row(ref, row, tol) or not valid:
            v.failed += 1
            v.mismatches.append(f"{what}: {row[4:]} != reference {ref[4:]}")
    return v


def check_verify(item, ref, got, tol):
    if got["rc"] not in (0, 1, 3) and ref["rc"] in (0, 1, 3):
        return Verdict(len(ref["rows"]), len(ref["rows"]), [f"exit {got['rc']}: {got.get('error')}"])
    return check_rows(ref["rows"], ref["valid"], got["rows"], tol)


def check_scalar(item, ref, got, tol):
    if got["rc"] != 0:
        return Verdict(len(ref["rows"]), len(ref["rows"]), [f"raised: {got.get('error')}"])
    return check_rows(ref["rows"], ref["valid"], got["rows"], tol)


def mark_valid(w, item, summary, tol):
    """Attach the dense-grid verdict that check() reads from a reference."""
    if w.name == "extrema-cli":
        summary["valid"] = valid_extrema(item, summary, tol)
    else:
        summary["valid"] = valid_rows(summary["rows"], tol)
    return summary


# ---------------------------------------------------------------- registry


@dataclass(frozen=True)
class Workload:
    name: str
    pool_size: int
    strata: int  # equal-size groups of the pool by recorded item time
    draw: Callable
    run: Callable
    collect: Callable
    summarize: Callable
    check: Callable
    warmup: dict

    def describe(self, item) -> str:
        if self.name == "verify-sweep":
            return f"k={item['k']} alphas={item['alphas']} betas={item['betas'] or 'equal_alpha'}"
        beta = item.get("beta", item["alpha"])
        window = item.get("window", "")
        return f"k={item['k']} alpha={item['alpha']!r} beta={beta!r} {window}".rstrip()


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "extrema-cli",
            pool_size=400,
            strata=20,
            draw=_draw_extrema,
            run=_run_extrema,
            collect=_no_collect,
            summarize=summarize_extrema,
            check=check_extrema,
            warmup={"k": 8, "alpha": 1.5, "beta": 0.5, "window": "full"},
        ),
        Workload(
            "verify-sweep",
            pool_size=252,
            strata=12,
            draw=_draw_verify,
            run=_run_verify,
            collect=_collect_verify,
            summarize=summarize_verify,
            check=check_verify,
            warmup={"k": 4, "alphas": [1.0], "betas": None},
        ),
        Workload(
            "scalar-checks",
            pool_size=320,
            strata=20,
            draw=_draw_scalar,
            run=_run_scalar,
            collect=_collect_scalar,
            summarize=summarize_scalar,
            check=check_scalar,
            warmup={"k": 4, "alpha": 1.0},
        ),
    )
}


def make_pool(w: Workload):
    """The workload's input pool, drawn from POOL_SEED."""
    rng = random.Random(f"{POOL_SEED}-{w.name}")
    return [w.draw(rng, i, w.pool_size) for i in range(w.pool_size)]


def rounds_for_seed(w: Workload, n_strata_items, seed: int, n_rounds: int):
    """Pool indices (stratum, slot) for each round, drawn from the run seed.

    A stratum's slots are in order of recorded item time.  They are cut into
    n_rounds equal slices, and the seed picks one slot from each slice and
    deals them to the rounds in random order.  So every run samples the whole
    cost range of every stratum evenly, and runs with different seeds differ
    in their items but hardly in their mix of costs.
    """
    if n_rounds > min(n_strata_items):
        raise ValueError(f"{n_rounds} rounds need at least {n_rounds} items in every stratum")
    rng = random.Random(f"{seed}-{w.name}")
    picks = []
    for n in n_strata_items:
        cuts = [n * r // n_rounds for r in range(n_rounds + 1)]
        slots = [rng.randrange(lo, hi) for lo, hi in zip(cuts, cuts[1:])]
        rng.shuffle(slots)
        picks.append(slots)
    rounds = []
    for r in range(n_rounds):
        rnd = [(s, slots[r]) for s, slots in enumerate(picks)]
        rng.shuffle(rnd)
        rounds.append(rnd)
    return rounds

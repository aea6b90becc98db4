"""Acceptance suite: every headline claim checked at its stated tolerance.

Each test covers one criterion, prints one pass/fail line, and fails loudly
if any parameter point misses.  Grids with stated runtime targets are timed
after a warmup pass so JIT compilation is not billed to the criterion.
"""

import math
import time

import numpy as np
import pytest

from jacobimax.bounds import v_factors
from jacobimax.envelope import delta_squared, identity_checks
from jacobimax.extrema import global_max, scan_extrema
from jacobimax.jacobi import ALPHA_FLOOR, Params, Window, weighted_M
from jacobimax.verify import SweepConfig, render_csv, run_check, sweep

TWO_OVER_PI = 2.0 / math.pi

EVEN_GRID_ALPHAS = [0.51, 0.6, 1.0, 2.0, 5.0, 10.0, 100.0, 1000.0]


@pytest.fixture(scope="module")
def warm():
    # trigger kernel compilation and touch each scan flavor once
    scan_extrema(Params(8, 1.0, 1.0), Window.full())
    run_check("thm4_delta_peak_at_zero", Params(4, 1.0, 1.0))
    weighted_M(Params(8, 1.0, 1.0), 0.25, Window.full())
    return True


@pytest.fixture(scope="module")
def even_grid(warm):
    """All even degrees 2..200 crossed with the origin-value alpha grid."""
    value_rows, peak_rows, containment_rows = {}, {}, {}
    t_origin = 0.0
    for k in range(2, 201, 2):
        for a in EVEN_GRID_ALPHAS:
            p = Params(k, a, a)
            t0 = time.perf_counter()
            value_rows[(k, a)] = run_check("thm4_even_value", p)
            peak_rows[(k, a)] = run_check("thm4_delta_peak_at_zero", p)
            t_origin += time.perf_counter() - t0
            containment_rows[(k, a)] = run_check("thm4_containment", p)
    return value_rows, peak_rows, containment_rows, t_origin


def test_a01_flat_weight_plateau(record_criterion, warm):
    t0 = time.perf_counter()
    worst = 0.0
    for k in range(1, 65):
        p = Params(k, -0.5, -0.5)
        recs = scan_extrema(p, Window.full())
        for r in recs:
            if r.kind == "max":
                worst = max(worst, abs(r.M - TWO_OVER_PI))
        worst = max(worst, abs(global_max(p, Window.full()).M - TWO_OVER_PI))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 2.0
    record_criterion(
        "A01 flat-weight-plateau",
        ok,
        f"k=1..64, max |M - 2/pi| = {worst:.3e}, {elapsed:.2f}s",
    )


def test_a02_unit_weight_ceiling(record_criterion, warm):
    t0 = time.perf_counter()
    strict = True
    gap_200 = math.nan
    for k in range(1, 201):
        gm = global_max(Params(k, 0.0, 0.0), Window.full())
        strict = strict and gm.M < TWO_OVER_PI
        if k == 200:
            gap_200 = TWO_OVER_PI - gm.M
    elapsed = time.perf_counter() - t0
    ok = strict and gap_200 > 0.0 and elapsed < 10.0
    record_criterion(
        "A02 unit-weight-ceiling",
        ok,
        f"k=1..200 all below 2/pi, gap at k=200 = {gap_200:.6e}, {elapsed:.2f}s",
    )


def test_a03_even_origin_value(record_criterion, even_grid):
    value_rows, peak_rows, _, elapsed = even_grid
    bad = []
    worst_margin = math.inf
    for key, row in value_rows.items():
        peak = peak_rows[key]
        if not (row.status == "checked" and row.passed and row.margin > 0.0):
            bad.append(("value", key))
        if not (peak.status == "checked" and peak.passed):
            bad.append(("peak", key))
        worst_margin = min(worst_margin, row.margin)
    witness = value_rows[(2, 1.0)]
    # exact closed form sqrt(14/15) * 21/32 = 0.63399773..., quoted elsewhere
    # rounded to five decimals as 0.634000
    witness_ok = abs(witness.lhs - 0.634000) < 5e-6 and abs(witness.rhs - 0.645462) < 5e-7
    ok = not bad and witness_ok and elapsed < 60.0
    record_criterion(
        "A03 even-origin-value",
        ok,
        f"800 points, min margin = {worst_margin:.3e}, witness ({witness.lhs:.6f} < {witness.rhs:.6f}), "
        f"grid time {elapsed:.1f}s" + (f", failures: {bad[:3]}" if bad else ""),
    )


def test_a04_radius_containment(record_criterion, even_grid):
    _, _, containment_rows, _ = even_grid
    bad = [key for key, row in containment_rows.items() if not (row.status == "checked" and row.passed)]
    worst = min(row.margin for row in containment_rows.values())
    record_criterion(
        "A04 radius-containment",
        not bad,
        f"800 points, all full-window maxima inside the radius, min margin = {worst:.3e}"
        + (f", failures: {bad[:3]}" if bad else ""),
    )


def test_a05_band_containment(record_criterion, warm):
    alphas = [0.6036, 1.0, 2.0, 5.0, 20.0]
    bad = []
    worst = math.inf
    n = 0
    for k in [6, 7, 20, 51, 100]:
        for i, a in enumerate(alphas):
            for b in alphas[: i + 1]:
                row = run_check("thm3_containment", Params(k, a, b))
                n += 1
                if not (row.status == "checked" and row.passed):
                    bad.append((k, a, b))
                else:
                    worst = min(worst, row.margin)
    record_criterion(
        "A05 band-containment",
        not bad,
        f"{n} parameter points, min band margin = {worst:.3e}" + (f", failures: {bad[:3]}" if bad else ""),
    )


def test_a06_cube_root_bounds(record_criterion, warm):
    ks = [6, 12, 50, 100, 200, 400, 7, 13, 51, 101, 201, 399]
    alphas = np.geomspace(ALPHA_FLOOR, 1e4, 20)
    bad = []
    worst_ratio_slack = math.inf
    for k in ks:
        for a in alphas:
            p = Params(k, float(a), float(a))
            for cid in ("thm1", "lemma_glav", "thm1_ratio"):
                row = run_check(cid, p)
                if not (row.status == "checked" and row.passed):
                    bad.append((cid, k, float(a)))
                elif cid == "thm1_ratio":
                    worst_ratio_slack = min(worst_ratio_slack, row.margin)
    record_criterion(
        "A06 cube-root-bounds",
        not bad,
        f"{len(ks) * len(alphas)} points x 3 checks, ratio ceiling slack >= {worst_ratio_slack:.3e}"
        + (f", failures: {bad[:3]}" if bad else ""),
    )


def test_a07_exact_identities(record_criterion, warm):
    rng = np.random.default_rng(20260816)
    bad = []
    for _ in range(200):
        k = int(rng.integers(1, 101))
        alpha = float(rng.uniform(0.5 + 1e-9, 50.0))
        rows = identity_checks(k, alpha)
        for r in rows:
            if not r.ok:
                bad.append((k, alpha, r.name))
    spot = {r.name: r for r in identity_checks(2, 1.0)}
    spot_ok = (
        abs(spot["b1_at_delta"].computed - 70.0 / 3375.0) < 1e-16
        and spot["d_scaled_at_delta"].computed == -630.0
        and spot["d_scaled_quadratic_at_zero"].computed == -7434.0
    )
    record_criterion(
        "A07 exact-identities",
        not bad and spot_ok,
        "200 random parameter draws, all identity rows within 1e-9; spot values exact"
        + (f", failures: {bad[:3]}" if bad else ""),
    )


def test_a08_center_unimodality(record_criterion, warm):
    alphas = [0.6, 1.0, 3.0, 10.0]
    bad = []
    n = 0
    for k in [6, 11, 20, 51]:
        for i, a in enumerate(alphas):
            for b in alphas[: i + 1]:
                row = run_check("thm5_unimodal", Params(k, a, b))
                n += 1
                if not (row.status == "checked" and row.passed):
                    bad.append((k, a, b))
    record_criterion(
        "A08 center-unimodality",
        not bad,
        f"{n} parameter points, maxima heights fall then rise about the center"
        + (f", failures: {bad[:3]}" if bad else ""),
    )


def test_a09_derivative_and_ode(record_criterion, warm):
    fd_cases = [(5, 2.0, 2.0), (20, 0.7, 0.6), (50, 10.0, 10.0)]
    ode_cases = fd_cases + [(50, 1e5, 1e5)]
    bad = []
    for k, a, b in fd_cases:
        row = run_check("deriv_fd", Params(k, a, b))
        if not (row.status == "checked" and row.passed and row.rhs == 1e-6):
            bad.append(("deriv", k, a, b, row.lhs))
    worst_resid = 0.0
    for k, a, b in ode_cases:
        row = run_check("ode_residual", Params(k, a, b))
        if not (row.status == "checked" and row.passed and row.rhs == 1e-8):
            bad.append(("ode", k, a, b, row.lhs))
        else:
            worst_resid = max(worst_resid, row.lhs)
    record_criterion(
        "A09 derivative-and-ode",
        not bad,
        f"analytic derivative within 1e-6 of differences; max ODE residual = {worst_resid:.3e}"
        + (f", failures: {bad[:3]}" if bad else ""),
    )


def test_a10_extreme_exponents(record_criterion, warm):
    p = Params(50, 1e5, 1e5)
    gm = global_max(p, Window.full())
    d = math.sqrt(delta_squared(p.k, p.alpha))
    value = run_check("thm4_even_value", p)
    containment = run_check("thm4_containment", p)
    finite = (
        math.isfinite(gm.M)
        and math.isfinite(gm.ln_M)
        and math.isfinite(d)
        and math.isfinite(value.margin)
        and math.isfinite(containment.margin)
    )
    ok = finite and value.passed and containment.passed
    record_criterion(
        "A10 extreme-exponents",
        ok,
        f"k=50, alpha=beta=1e5: global max = {gm.M:.6e}, radius = {d:.12f}, "
        f"value margin = {value.margin:.3e}, containment margin = {containment.margin:.3e}",
    )


def test_a11_odd_degree_caps(record_criterion, warm):
    bad = []
    n = 0
    for k in [3, 5, 9, 21, 51, 99]:
        for a in np.geomspace(0.51, 100.0, 8):
            row = run_check("odd_230", Params(k, float(a), float(a)))
            n += 1
            if not (row.status == "checked" and row.passed):
                bad.append(("230", k, float(a)))
    for k in [7, 9, 21, 51, 99]:
        for a in np.geomspace(ALPHA_FLOOR, 100.0, 8):
            row = run_check("odd_29", Params(k, float(a), float(a)))
            n += 1
            if not (row.status == "checked" and row.passed):
                bad.append(("29", k, float(a)))
    v1_first = v_factors(3, 0.5)[1]
    v1_floor = v_factors(7, ALPHA_FLOOR)[1]
    factors_ok = v1_first < 115.0 and v1_floor < 14.5
    record_criterion(
        "A11 odd-degree-caps",
        not bad and factors_ok,
        f"{n} points under the odd-degree caps; reduction factors {v1_first:.4f} < 115, {v1_floor:.4f} < 14.5"
        + (f", failures: {bad[:3]}" if bad else ""),
    )


def test_a12_report_determinism(record_criterion, warm):
    cfg = SweepConfig.from_dict({
        "checks": ["thm4_even_value", "thm1_ratio", "gamma_ratio"],
        "k_spec": {"min": 2, "max": 20, "step": 3},
        "alpha_spec": [1.0, 2.5],
    })
    serial = sweep(cfg, jobs=1)
    threaded = sweep(cfg, jobs=4)
    ts = "2000-01-01T00:00:00Z"
    same_rows = serial.rows == threaded.rows
    same_bytes = render_csv(serial, timestamp=ts) == render_csv(threaded, timestamp=ts)
    body_stable = (
        render_csv(serial, timestamp="2001-01-01T00:00:00Z").splitlines()[1:]
        == render_csv(serial, timestamp="2002-02-02T00:00:00Z").splitlines()[1:]
    )
    ok = same_rows and same_bytes and body_stable
    record_criterion(
        "A12 report-determinism",
        ok,
        f"{len(serial.rows)} rows, threaded run byte-identical to serial, body independent of timestamp",
    )

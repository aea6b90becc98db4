"""Check registry semantics, sweep determinism, report formats, exponent fits."""

import concurrent.futures
import dataclasses
import json
import math
import os
import platform
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import jacobimax
import jacobimax._kernels as _kernels
import jacobimax.envelope as envelope
import jacobimax.extrema as extrema
import jacobimax.verify as verify
from jacobimax.bounds import BoundId, HypothesisError, _hypothesis_failure, gamma_ratio_log_gap, pointwise_bound
from jacobimax.envelope import IDENTITY_REL, delta_window, geometry, turning_point
from jacobimax.extrema import GridTooCoarseError, global_max, scan_extrema, structure_checks
from jacobimax.jacobi import ALPHA_FLOOR, Params, Window, ode_residuals, weighted_M
from jacobimax.scaled import ScaledReal
from jacobimax.verify import (
    CHECKED,
    NUMERIC_FAILURE,
    SKIPPED,
    ConfigError,
    Report,
    SweepConfig,
    VerificationResult,
    check_ids,
    fit_exponent,
    parse_report_csv,
    render_csv,
    render_json,
    run_check,
    sweep,
    write_report,
)

EXPECTED_IDS = {
    "chow_eq1", "emn_eq2", "krasikov_eq3", "thm1", "lemma_glav", "thm1_ratio",
    "thm4_even_value", "thm4_delta_peak_at_zero", "thm4_containment",
    "thm3_containment", "thm5_unimodal", "lmonult_decreasing", "odd_230",
    "odd_29", "identity_B1_delta", "identity_B1_one", "identity_D_delta",
    "identity_D_quadratic", "identity_A0_delta", "pointwise", "gamma_ratio",
    "ode_residual", "deriv_fd",
}


def test_registry_ids():
    ids = check_ids()
    assert set(ids) == EXPECTED_IDS
    assert len(ids) == 23
    # registration order is stable and deduplicated
    assert len(set(ids)) == len(ids)
    assert ids[0] == "chow_eq1"


def test_run_check_flat_weight_case():
    r = run_check("chow_eq1", Params(0, 0.0, 0.0))
    assert r.status == CHECKED and r.passed
    np.testing.assert_allclose(r.lhs, 0.5, rtol=1e-10)
    np.testing.assert_allclose(r.rhs, 2.0 / math.pi, rtol=1e-13)


def test_run_check_even_value_case():
    r = run_check("thm4_even_value", Params(2, 1.0, 1.0))
    assert r.status == CHECKED and r.passed
    np.testing.assert_allclose(r.lhs, 0.6339977326457887, rtol=1e-10)
    np.testing.assert_allclose(r.rhs, 0.6454617136504645, rtol=1e-13)
    np.testing.assert_allclose(r.margin, r.rhs - r.lhs, rtol=0.0, atol=0.0)


def test_run_check_skips_out_of_hypothesis():
    r = run_check("chow_eq1", Params(6, 1.0, 1.0))
    assert r.status == SKIPPED and not r.passed
    assert math.isnan(r.lhs) and math.isnan(r.rhs) and math.isnan(r.margin)
    r = run_check("odd_230", Params(6, 1.0, 1.0))
    assert r.status == SKIPPED


def test_bound_gated_checks_share_the_bound_hypothesis():
    gated = {
        "chow_eq1": BoundId.CHOW_EQ1, "emn_eq2": BoundId.EMN_EQ2, "krasikov_eq3": BoundId.KRASIKOV_EQ3,
        "thm1": BoundId.THM1, "lemma_glav": BoundId.LEMMA_GLAV, "odd_230": BoundId.ODD_230,
        "odd_29": BoundId.ODD_29, "thm3_containment": BoundId.KRASIKOV_EQ3, "pointwise": BoundId.EMN_EQ2,
    }
    exponents = (-0.5, 0.0, 0.3, ALPHA_FLOOR, 0.5, 0.6, 1.0)
    for cid, bid in gated.items():
        hypothesis = verify._REGISTRY[cid].hypothesis
        for k in range(9):
            for a in exponents:
                for b in exponents:
                    p = Params(k, a, b)
                    assert (hypothesis(p) is None) == (_hypothesis_failure(bid, p) is None), (cid, p)


def test_run_check_unknown_id():
    with pytest.raises(ConfigError):
        run_check("no_such_check", Params(2, 1.0, 1.0))


def test_runner_hypothesis_error_becomes_skip(monkeypatch):
    defn = verify._REGISTRY["thm1"]
    def boom(p):
        raise HypothesisError("window degenerate")
    monkeypatch.setitem(verify._REGISTRY, "thm1", defn._replace(runner=boom))
    r = run_check("thm1", Params(10, 1.0, 1.0))
    assert r.status == SKIPPED


def test_runner_numeric_error_becomes_numeric_failure(monkeypatch):
    defn = verify._REGISTRY["thm1"]
    def boom(p):
        raise GridTooCoarseError("lost a bracket")
    monkeypatch.setitem(verify._REGISTRY, "thm1", defn._replace(runner=boom))
    r = run_check("thm1", Params(10, 1.0, 1.0))
    assert r.status == NUMERIC_FAILURE and not r.passed
    rep = Report(rows=(r,), config_echo={})
    assert rep.exit_code() == 3


@pytest.mark.parametrize("error", [ValueError, RuntimeError])
def test_runner_programming_error_propagates(error, monkeypatch):
    # only the library's numeric errors become numeric_failure rows; a bug
    # raising anything else surfaces
    defn = verify._REGISTRY["thm1"]
    def boom(p):
        raise error("a bug")
    monkeypatch.setitem(verify._REGISTRY, "thm1", defn._replace(runner=boom))
    with pytest.raises(error, match="a bug"):
        run_check("thm1", Params(10, 1.0, 1.0))


def test_pointwise_vacuous_bound_is_a_skip():
    # the bound's denominator is <= 0 at every sample point of these triples
    for p in (Params(0, -0.3, -0.5), Params(0, -0.5, -0.5)):
        assert verify._REGISTRY["pointwise"].hypothesis(p) is None
        r = run_check("pointwise", p)
        assert r.status == SKIPPED and not r.passed, p


def test_pointwise_samples_match_weighted_M_bitwise():
    w = Window.full()
    for p in (Params(2, 1.0, 1.0), Params(40, 300.0, 300.0), Params(500, 1e5, 1e5), Params(17, 2.5, 0.3)):
        samples = verify._pointwise_samples(p)
        assert len(samples) > 60
        for x, lhs, rhs in samples:
            assert lhs.hex() == weighted_M(p, x, w).value.hex(), (p, x)
            assert rhs.hex() == pointwise_bound(p, x).hex(), (p, x)
        worst = min(samples, key=lambda t: t[2] - t[1])
        r = run_check("pointwise", p)
        assert (r.lhs, r.rhs) == (worst[1], worst[2])


def test_gamma_ratio_row_is_the_smallest_gap_on_its_grid():
    r = run_check("gamma_ratio", Params(3, 1.0, 1.0))
    assert r.rhs == min(gamma_ratio_log_gap(x) for x in [0.0, *np.geomspace(1e-2, 1e8, 41)])
    assert r.status == CHECKED and r.passed and r.lhs == 0.0


def test_sampling_rows_make_one_kernel_call_per_polynomial(monkeypatch):
    # every polynomial a triple's three sampling rows need (y, y' and y'', up
    # to degree k) is one kernel call, shared through the per-triple memo;
    # ode_residuals makes one call per polynomial too, and one Newton step of
    # the extrema scan one for y and one for y'
    calls = []
    recurrence = _kernels.recurrence

    def counting(x, b, a, ln_start, k):
        calls.append(k)
        return recurrence(x, b, a, ln_start, k)

    monkeypatch.setattr(_kernels, "recurrence", counting)
    for p in (Params(1, 0.7, 0.7), Params(2, 1.0, 1.0), Params(60, 40.0, 40.0), Params(300, 1e5, 1e5)):
        polys = [p.k - j for j in range(min(3, p.k + 1))]
        verify._sampling_parts.cache_clear()
        calls.clear()
        for cid in ("ode_residual", "deriv_fd", "pointwise"):
            r = run_check(cid, p)
            assert r.status == CHECKED, (cid, p)
        assert calls == polys, (p, calls)
        calls.clear()
        ode_residuals(p, np.linspace(-0.9, 0.9, 7))
        assert calls == polys, (p, calls)

    located = []
    locate = extrema._locate

    def counting_locate(*args):
        calls.clear()
        out = locate(*args)
        located.append(list(calls))
        return out

    monkeypatch.setattr(extrema, "_NEWTON_STEPS", 1)
    monkeypatch.setattr(extrema, "_locate", counting_locate)
    extrema._cached_scan.cache_clear()
    try:
        extrema.scan_extrema(Params(40, 3.0, 3.0), Window.full())
    finally:
        extrema._cached_scan.cache_clear()
    assert located == [[40, 39]]


def test_sampling_rows_construct_no_scaled_real(monkeypatch):
    # the sampling rows compute on the kernel's (significand, ln offset)
    # arrays, never on per-point ScaledReal objects
    made = []
    post_init = ScaledReal.__post_init__

    def counting(self):
        made.append(self)
        post_init(self)

    monkeypatch.setattr(ScaledReal, "__post_init__", counting)
    ScaledReal(1, 0.0)
    assert len(made) == 1  # the counter sees every construction
    cases = (Params(1, 0.7, 0.7), Params(2, 1.0, 1.0), Params(60, 40.0, 40.0), Params(300, 1e5, 1e5), Params(17, 2.5, 0.3))
    for p in cases:
        for cid in ("ode_residual", "deriv_fd", "pointwise"):
            made.clear()
            r = run_check(cid, p)
            assert r.status == CHECKED, (cid, p)
            assert not made, (cid, p, len(made))


def test_deriv_fd_centres_match_generator_uniform_bitwise():
    # the centres keep the bits of a fresh generator's draws for every band
    for p in (Params(1, 0.7, 0.7), Params(9, -0.4, 3.0), Params(40, 30.0, 30.0), Params(300, 1e5, 1e5)):
        band = 0.85 * turning_point(p)
        expected = np.random.default_rng(72026).uniform(-band, band, 50)
        assert verify._deriv_fd_points(p)[1].tobytes() == expected.tobytes(), p


_STRUCTURAL_ROWS = {
    "thm3_containment": ("full", "eta_containment"),
    "thm4_containment": ("full", "delta_containment"),
    "thm5_unimodal": ("full", "unimodal_about_x0"),
    "lmonult_decreasing": ("delta", "nonneg_maxima_decreasing"),
}


def _structure_comparison(cid, p):
    window, claim = _STRUCTURAL_ROWS[cid]
    w = Window.full() if window == "full" else delta_window(p)
    return getattr(structure_checks(scan_extrema(p, w), geometry(p)), claim)


def test_structural_rows_report_structure_checks_bitwise():
    seen = Counter()
    for k in (2, 6, 9, 14):
        for alpha in (0.6, 2.5, 40.0, 700.0):
            for beta in (0.55, 1.5, 30.0, alpha):
                p = Params(k, alpha, beta)
                for cid in _STRUCTURAL_ROWS:
                    row = run_check(cid, p)
                    seen[cid, row.status] += 1
                    if row.status == SKIPPED:
                        continue
                    window, claim = _STRUCTURAL_ROWS[cid]
                    w = Window.full() if window == "full" else delta_window(p)
                    try:
                        # the records the row reads: its window's scan without tie bits
                        c = getattr(structure_checks(extrema._window_records(p, w, False), geometry(p)), claim)
                    except GridTooCoarseError:
                        assert row.status == NUMERIC_FAILURE, (cid, p)
                        continue
                    assert row.status == CHECKED, (cid, p)
                    assert (row.lhs, row.rhs, row.margin, row.passed) == (c.lhs, c.rhs, c.margin, c.holds), (cid, p)
    for cid in _STRUCTURAL_ROWS:
        assert seen[cid, CHECKED] >= 10, (cid, seen)


def test_structural_rows_without_their_landmark_are_numeric_failures(monkeypatch):
    # outside the hypotheses a landmark can be absent: beta < -1/2 leaves no
    # eta band, and beta <= 1/2 no x0; the runner then raises UndefinedRowError
    for cid, p in (("thm3_containment", Params(6, 1.0, -0.9)), ("thm5_unimodal", Params(6, 1.0, 0.3))):
        assert _structure_comparison(cid, p) is None
        defn = verify._REGISTRY[cid]
        monkeypatch.setitem(verify._REGISTRY, cid, defn._replace(hypothesis=verify._HYP_NONE))
        assert run_check(cid, p).status == NUMERIC_FAILURE


def test_deriv_fd_far_outside_double_range():
    # with very unequal exponents the stencil band lies where |P_k| is about
    # e^-4800, far below the smallest double; the row compares log-scaled values
    for p in (Params(77, 15184.16, 2.156), Params(34, 362415.0, 3.434)):
        r = run_check("deriv_fd", p)
        assert r.status == CHECKED and r.passed, r
        assert r.lhs < 1e-6, r


def test_pointwise_ln_M_matches_mpmath():
    # ln M at pointwise sample points against the classical polynomial at 50
    # digits, divided by the explicit norm h_k
    mpmath = pytest.importorskip("mpmath")
    w = Window.full()
    with mpmath.workdps(50):
        for k in (50, 200, 500):
            for alpha in (1.0, 1e3, 1e5):
                p = Params(k, alpha, alpha)
                a = mpmath.mpf(alpha)
                ln_h = (
                    (2 * a + 1) * mpmath.log(2)
                    - mpmath.log(2 * k + 2 * a + 1)
                    + 2 * mpmath.loggamma(k + a + 1)
                    - mpmath.loggamma(k + 2 * a + 1)
                    - mpmath.loggamma(k + 1)
                )
                for x, _, _ in verify._pointwise_samples(p)[::12]:
                    u = mpmath.mpf(x)
                    y = mpmath.jacobi(k, a, a, u)
                    ln_ref = (a + 0.5) * mpmath.log((1 - u) * (1 + u)) + 2 * mpmath.log(abs(y)) - ln_h
                    assert abs(weighted_M(p, x, w).ln_value - float(ln_ref)) <= 1e-8, (p, x)


def test_identity_rows_of_a_triple_share_one_exact_table(monkeypatch):
    calls = []
    identity_checks = verify.identity_checks

    def counting(k, alpha):
        calls.append((k, alpha))
        return identity_checks(k, alpha)

    monkeypatch.setattr(verify, "identity_checks", counting)
    verify._identity_rows.cache_clear()
    ids = [cid for cid in check_ids() if cid.startswith("identity_")]
    assert len(ids) == 5
    for p in (Params(7, 2.5, 2.5), Params(30, 1e3, 1e3)):
        for cid in ids:
            assert run_check(cid, p).status == CHECKED, (cid, p)
    assert calls == [(7, 2.5), (30, 1e3)]
    verify._identity_rows.cache_clear()


def test_identity_rows_compare_against_the_envelope_constant():
    ids = [cid for cid in check_ids() if cid.startswith("identity_") and cid != "identity_A0_delta"]
    assert len(ids) == 4
    for p in (Params(2, 1.0, 1.0), Params(7, 2.5, 2.5), Params(30, 1e3, 1e3)):
        for cid in ids:
            r = run_check(cid, p)
            assert r.status == CHECKED and r.rhs.hex() == IDENTITY_REL.hex(), (cid, p)


def test_public_exports_resolve():
    for module in (jacobimax, verify, envelope):
        for name in module.__all__:
            assert hasattr(module, name), (module.__name__, name)


def _base_config(**over):
    d = {
        "checks": ["thm4_even_value"],
        "k_spec": {"min": 2, "max": 8, "step": 2},
        "alpha_spec": [1.0, 2.0],
        "beta_mode": "equal_alpha",
    }
    d.update(over)
    return d


def test_sweep_config_expansion_and_grid():
    cfg = SweepConfig.from_dict(_base_config())
    grid = cfg.parameter_grid()
    assert len(grid) == 4 * 2
    assert grid[0] == Params(2, 1.0, 1.0)
    all_cfg = SweepConfig.from_dict(_base_config(checks=["all"]))
    assert set(all_cfg.checks) == EXPECTED_IDS


@pytest.mark.parametrize(
    "patch",
    [
        {"checks": []},
        {"checks": ["nope"]},
        {"checks": "thm1"},
        {"k_spec": {"max": 5}},
        {"k_spec": {"min": 5, "max": 2}},
        {"k_spec": {"min": 2, "max": 8, "step": 0}},
        {"k_spec": {"min": 2.5, "max": 8}},
        {"k_spec": {"min": 2, "max": 8, "parity": "prime"}},
        {"k_spec": {"min": 2, "max": 2, "parity": "odd"}},
        {"alpha_spec": []},
        {"alpha_spec": {"lo": 0.0, "hi": 2.0, "count": 5}},
        {"alpha_spec": {"lo": 2.0, "hi": 1.0, "count": 5}},
        {"alpha_spec": {"lo": 1.0, "hi": 2.0, "count": 0}},
        {"alpha_spec": [-2.0]},
        {"beta_mode": "mirror"},
        {"beta_mode": {"grid": []}},
        {"beta_mode": {"grid": [-3.0]}},
        {"tolerances": {"identity_rel": "tight"}},
        {"tolerances": {"bogus": 1.0}},
        {"output": {"format": "csv"}},
        {"output": {"path": "x.csv", "format": "yaml"}},
        {"bogus_field": 1},
        # the scan's refinement width is a constant, not a tolerance
        {"tolerances": {"extremum_abs": 1e-13}},
        # so is the identity tolerance: the field is gone
        {"tolerances": {"identity_rel": 1e-9}},
        # exponents must be JSON numbers, check ids strings, output.path a nonempty string
        {"alpha_spec": [None]},
        {"alpha_spec": [True]},
        {"alpha_spec": ["1.5"]},
        {"alpha_spec": {"lo": None, "hi": 2.0, "count": 3}},
        {"beta_mode": {"grid": [[1]]}},
        {"checks": [["a"]]},
        {"output": {"path": 3}},
        {"output": {"path": ""}},
        # a huge JSON int or an infinite value is not a usable exponent; bools are not counts
        {"alpha_spec": [10**400]},
        {"beta_mode": {"grid": [math.inf]}},
        {"k_spec": {"min": True, "max": 3}},
        {"alpha_spec": {"lo": 1.0, "hi": 2.0, "count": True}},
        # "all" stands alone, and no check id is listed twice
        {"checks": ["all", "bogus"]},
        {"checks": ["all", "thm1"]},
        {"checks": ["thm1", "thm1"]},
        # every object refuses a key it does not know, at every level
        {"k_spec": {"min": 6, "max": 8, "stpe": 2}},
        {"alpha_spec": {"lo": 1.0, "hi": 2.0, "count": 3, "cnt": 5}},
        {"beta_mode": {"grid": [1.0], "mode": "cross"}},
        {"output": {"path": "x.csv", "fromat": "json"}},
    ],
)
def test_sweep_config_rejects_bad_input(patch):
    with pytest.raises(ConfigError):
        SweepConfig.from_dict(_base_config(**patch))


def test_sweep_config_rejects_non_object():
    with pytest.raises(ConfigError):
        SweepConfig.from_dict(["not", "a", "dict"])


@pytest.mark.parametrize(
    "patch",
    [
        {"k_spec": {"min": 0, "max": 300000}},
        # one degree, so that a check that builds the grid makes 10**6 points, not 4 * 10**6
        {"k_spec": {"min": 2, "max": 2}, "alpha_spec": {"lo": 1.0, "hi": 100.0, "count": 10**6}},
    ],
)
def test_sweep_config_refuses_oversized_grid_without_building_it(patch, monkeypatch):
    # the grid is counted from the specs and refused before a point or an
    # alpha value of it is made
    def built(*args, **kwargs):
        raise AssertionError("the grid was built")

    monkeypatch.setattr(verify, "Params", built)
    monkeypatch.setattr(verify.np, "geomspace", built)
    with pytest.raises(ConfigError, match="parameter points"):
        SweepConfig.from_dict(_base_config(**patch))


def test_sweep_config_grid_limit_is_inclusive():
    # 50,000 degrees times 2 alphas is exactly the limit; one degree more is over it
    assert verify._MAX_GRID_POINTS == 100_000
    cfg = SweepConfig.from_dict(_base_config(k_spec={"min": 0, "max": 49_999}))
    assert len(cfg.ks) * len(cfg.alphas) == verify._MAX_GRID_POINTS
    with pytest.raises(ConfigError, match="100002 parameter points"):
        SweepConfig.from_dict(_base_config(k_spec={"min": 0, "max": 50_000}))
    # parity and step are counted too: 25,001 even degrees of 0..50,000 times 4 betas
    with pytest.raises(ConfigError, match="100004 parameter points"):
        SweepConfig.from_dict(_base_config(k_spec={"min": 0, "max": 50_000, "parity": "even"}, beta_mode={"grid": [0, 1]}))


def test_sweep_log_range_alpha():
    cfg = SweepConfig.from_dict(_base_config(alpha_spec={"lo": 1.0, "hi": 100.0, "count": 3}))
    alphas = sorted({p.alpha for p in cfg.parameter_grid()})
    np.testing.assert_allclose(alphas, [1.0, 10.0, 100.0], rtol=1e-12)


def test_sweep_rows_sorted_and_counted():
    cfg = SweepConfig.from_dict(_base_config(checks=["thm4_even_value", "gamma_ratio"]))
    rep = sweep(cfg)
    keys = [(r.check_id, r.k, r.alpha, r.beta) for r in rep.rows]
    assert keys == sorted(keys)
    assert rep.counts["thm4_even_value"]["checked"] == 8
    assert rep.counts["thm4_even_value"]["passed"] == 8
    assert rep.exit_code() == 0


def test_sweep_parallel_matches_serial():
    cfg = SweepConfig.from_dict(_base_config(checks=["thm4_even_value", "thm1_ratio", "gamma_ratio"]))
    serial = sweep(cfg, jobs=1)
    parallel = sweep(cfg, jobs=4)
    assert serial.rows == parallel.rows
    ts = "2026-01-01T00:00:00Z"
    assert render_csv(serial, timestamp=ts) == render_csv(parallel, timestamp=ts)


def test_sweep_thread_pool_has_at_most_one_thread_per_cpu(monkeypatch):
    # however large jobs is, the pool asks for no more threads than CPUs;
    # the stand-in pool records its size and runs the work serially, so
    # this test starts no thread
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", SerialPool)
    cfg = SweepConfig.from_dict(_base_config(checks=["thm4_even_value", "gamma_ratio"]))
    serial = sweep(cfg).rows
    for cpus, jobs, want in ((3, 100_000, 3), (3, 2, 2), (None, 100_000, 1)):
        monkeypatch.setattr(verify.os, "cpu_count", lambda: cpus)
        assert sweep(cfg, jobs=jobs).rows == serial
        assert sizes[-1] == want, (cpus, jobs, sizes)


def test_report_totals_match_its_rows():
    # checked, passed, failed, skipped and numeric-failure rows all counted once
    cfg = SweepConfig.from_dict(_base_config(checks=["thm4_even_value", "thm1", "gamma_ratio"], k_spec={"min": 0, "max": 5}))
    rows = sweep(cfg).rows
    broken = VerificationResult("thm1", 3, 0.5, 0.5, math.nan, math.nan, math.nan, False, NUMERIC_FAILURE)
    failed = dataclasses.replace(rows[0], status=CHECKED, passed=False)
    rows += (broken, failed)
    rep = Report(rows=rows, config_echo={})
    status = Counter(r.status for r in rows)
    assert status[SKIPPED] and status[CHECKED]
    for key in (CHECKED, SKIPPED, NUMERIC_FAILURE):
        assert rep.total(key) == status[key], key
    assert rep.total("passed") == sum(r.status == CHECKED and r.passed for r in rows)
    assert rep.n_failed == sum(r.status == CHECKED and not r.passed for r in rows) >= 1
    assert rep.n_numeric_failures == 1 and rep.exit_code() == 1


def test_render_csv_shape():
    cfg = SweepConfig.from_dict(_base_config())
    rep = sweep(cfg)
    text = render_csv(rep, timestamp="2026-01-01T00:00:00Z")
    lines = text.splitlines()
    assert lines[0] == "# generated_at: 2026-01-01T00:00:00Z"
    assert lines[1] == "check_id,k,alpha,beta,lhs,rhs,margin,pass,status"
    assert len(lines) == 2 + len(rep.rows)
    first = lines[2].split(",")
    assert first[0] == "thm4_even_value"
    assert first[7] in ("true", "false")
    # bodies are timestamp-independent
    other = render_csv(rep, timestamp="1999-01-01T00:00:00Z")
    assert text.splitlines()[1:] == other.splitlines()[1:]


def test_render_json_structure():
    cfg = SweepConfig.from_dict(_base_config(checks=["chow_eq1"]))
    rep = sweep(cfg)
    doc = json.loads(render_json(rep, timestamp="2026-01-01T00:00:00Z"))
    assert doc["metadata"]["generated_at"] == "2026-01-01T00:00:00Z"
    assert doc["metadata"]["tool_version"]
    assert doc["metadata"]["config_echo"]["checks"] == ["chow_eq1"]
    assert set(doc["metadata"]["counts"]) == {"chow_eq1"}
    # the whole grid is out of hypothesis here, so NaN fields serialize as null
    assert all(row["lhs"] is None for row in doc["results"])
    assert all(row["status"] == "skipped_hypothesis" for row in doc["results"])


def test_render_json_records_python_and_numpy_versions():
    rep = sweep(SweepConfig.from_dict(_base_config(checks=["gamma_ratio"])))
    meta = json.loads(render_json(rep, timestamp="T"))["metadata"]
    assert meta["python"] == platform.python_version()
    assert meta["numpy"] == np.__version__
    # the CSV body does not carry them
    assert render_csv(rep, timestamp="T").splitlines()[1] == "check_id,k,alpha,beta,lhs,rhs,margin,pass,status"


def test_write_and_parse_roundtrip(tmp_path):
    cfg = SweepConfig.from_dict(_base_config(checks=["thm4_even_value", "chow_eq1"]))
    rep = sweep(cfg)
    path = tmp_path / "report.csv"
    write_report(rep, str(path))
    back = parse_report_csv(str(path))
    assert len(back) == len(rep.rows)
    for got, want in zip(back, rep.rows):
        assert got.check_id == want.check_id
        assert got.k == want.k and got.alpha == want.alpha and got.beta == want.beta
        assert got.passed == want.passed and got.status == want.status
        for a, b in [(got.lhs, want.lhs), (got.rhs, want.rhs), (got.margin, want.margin)]:
            assert (math.isnan(a) and math.isnan(b)) or a == b


def test_write_report_json(tmp_path):
    cfg = SweepConfig.from_dict(_base_config())
    rep = sweep(cfg)
    path = tmp_path / "report.json"
    write_report(rep, str(path), fmt="json")
    doc = json.loads(path.read_text())
    assert len(doc["results"]) == len(rep.rows)


def _fit_row(k, alpha, lhs):
    return VerificationResult("thm1", k, alpha, alpha, lhs, lhs + 1.0, 1.0, True, CHECKED)


def test_fit_exponent_recovers_pure_power():
    rows = [_fit_row(10, a, a ** (1.0 / 3.0)) for a in np.geomspace(1.0, 1e4, 12)]
    fit = fit_exponent(rows, predictor="alpha")
    np.testing.assert_allclose(fit.slope, 1.0 / 3.0, rtol=1e-12)
    assert fit.stderr < 1e-12


def test_fit_exponent_composite_predictor():
    rows = []
    for k in [6, 12, 50]:
        for a in np.geomspace(1.0, 1e3, 6):
            lhs = a ** (1.0 / 3.0) * (1.0 + a / k) ** (1.0 / 6.0)
            rows.append(_fit_row(k, float(a), lhs))
    fit = fit_exponent(rows, predictor="alpha_composite")
    np.testing.assert_allclose(fit.slope, 1.0, rtol=1e-12)
    assert fit.stderr < 1e-12


def test_fit_exponent_ignores_unusable_rows():
    rows = [_fit_row(10, a, a ** (1.0 / 3.0)) for a in np.geomspace(1.0, 1e4, 8)]
    rows.append(VerificationResult("thm1", 10, 5.0, 5.0, float("nan"), float("nan"), float("nan"), False, SKIPPED))
    rows.append(_fit_row(10, 3.0, -1.0))
    fit = fit_exponent(rows)
    np.testing.assert_allclose(fit.slope, 1.0 / 3.0, rtol=1e-12)


def test_fit_exponent_composite_leaves_out_degree_zero_rows():
    rows = [_fit_row(k, a, a ** (1.0 / 3.0) * (1.0 + a / k) ** (1.0 / 6.0)) for k in (6, 12) for a in (1.0, 10.0, 100.0)]
    fit = fit_exponent(rows + [_fit_row(0, 2.0, 1.0)], predictor="alpha_composite")
    assert fit == fit_exponent(rows, predictor="alpha_composite")


def test_parse_report_csv_names_missing_columns(tmp_path):
    path = tmp_path / "report.csv"
    path.write_text("# generated_at: T\ncheck_id,k,alpha,beta,lhs,rhs\nthm1,2,1,1,0.5,1\n")
    with pytest.raises(ConfigError, match="missing columns margin, pass, status"):
        parse_report_csv(str(path))


def test_fit_exponent_guards():
    with pytest.raises(ConfigError):
        fit_exponent([_fit_row(10, 2.0, 1.0)] * 4)
    with pytest.raises(ConfigError):
        fit_exponent([_fit_row(10, 2.0, 1.0)] * 6)
    with pytest.raises(ConfigError):
        fit_exponent([_fit_row(10, a, 1.0) for a in [1.0, 2.0, 3.0, 4.0, 5.0]], predictor="volume")


def test_runs_load_no_random_masked_or_thread_pool_module():
    # an extrema run, every check at one triple and a serial sweep import
    # neither numpy.random nor numpy.ma nor concurrent.futures; a fresh
    # interpreter, since the test session has imported them already
    script = """
import contextlib, io, json, sys
from jacobimax import cli, verify
from jacobimax.jacobi import Params
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["extrema", "--k", "30", "--alpha", "2.5", "--beta", "2.5", "--window", "full"]) == 0
rows = [verify.run_check(cid, Params(6, 1.5, 1.5)) for cid in verify.check_ids()]
cfg = verify.SweepConfig.from_dict(
    {"checks": ["all"], "k_spec": {"min": 2, "max": 4}, "alpha_spec": [1.0], "beta_mode": "equal_alpha"}
)
report = verify.sweep(cfg, jobs=1)
loaded = [m for m in ("numpy.random", "numpy.ma", "concurrent.futures") if m in sys.modules]
print(json.dumps({"statuses": {r.check_id: r.status for r in rows}, "rows": len(report.rows), "loaded": loaded}))
"""
    src = str(Path(jacobimax.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    got = json.loads(out.stdout)
    assert set(got["statuses"]) == EXPECTED_IDS
    assert got["statuses"]["deriv_fd"] == CHECKED and got["rows"] == 3 * len(EXPECTED_IDS)
    assert got["loaded"] == []


def test_lost_zeros_make_a_bound_row_a_numeric_failure():
    # the full-window scan finds one of the seven zeros of P_k here; the row
    # read "checked, passed" with lhs 0 while the scan went unchecked
    r = run_check("thm1", Params(7, 1e8, 1e8))
    assert r.status == NUMERIC_FAILURE and not r.passed


def test_nan_comparison_is_a_numeric_failure(monkeypatch):
    # a nan side compares nothing; no row computes one on its own, so a
    # stand-in ratio returns it
    monkeypatch.setattr(verify._bounds, "theorem1_ratio", lambda k, alpha: math.nan)
    r = run_check("thm1_ratio", Params(7, 1e100, 1e100))
    assert r.status == NUMERIC_FAILURE and not r.passed


@pytest.mark.parametrize("alpha", [1e77, 1e100, 1e150])
def test_theorem1_ratio_row_is_checked_at_huge_alpha(alpha):
    # unscaled, (2a+1)^2 r^2 and the denominator both overflow from alpha ~ 1e77
    r = run_check("thm1_ratio", Params(7, alpha, alpha))
    assert r.status == CHECKED and r.passed
    assert abs(r.lhs - 2.0 ** (1.0 / 6.0)) <= 1e-15


def test_identity_rows_survive_float_overflow():
    # one row's float (the r^4 variant, growing like alpha^6) overflows here;
    # it reads -inf, and the exact comparisons of every row stand
    r = run_check("identity_B1_delta", Params(3, 1e76, 1e76))
    assert r.status == CHECKED and r.passed and r.lhs == 0.0


def test_exponents_below_minus_half_sample_but_skip_the_bounds_that_need_more():
    # pointwise's hypothesis fails, so the sampling rows' kernel calls carry no pointwise samples
    verify._sampling_parts.cache_clear()
    p = Params(5, -0.7, -0.7)
    assert _hypothesis_failure(BoundId.EMN_EQ2, p) == "needs alpha >= -1/2 and beta >= -1/2"
    for cid in ("ode_residual", "deriv_fd"):
        r = run_check(cid, p)
        assert r.status == CHECKED and r.passed, cid
    for cid in ("pointwise", "emn_eq2"):
        assert run_check(cid, p).status == SKIPPED, cid


def test_sweep_config_keeps_no_dict_of_its_caller():
    # from_dict parses and copies once; later edits to the dict it was given
    # reach neither the grid nor the echo
    d = _base_config(alpha_spec=[1.0, 2.0], beta_mode={"grid": [0.5]}, output={"path": "r.csv"})
    cfg = SweepConfig.from_dict(d)
    before = (cfg.parameter_grid(), cfg.to_dict())
    d["k_spec"]["max"] = 40
    d["alpha_spec"].append(3.0)
    d["beta_mode"]["grid"][0] = 7.0
    d["output"]["path"] = "elsewhere.csv"
    assert (cfg.parameter_grid(), cfg.to_dict()) == before
    echo = cfg.to_dict()
    echo["k_spec"]["max"] = 40
    assert cfg.to_dict() == before[1]


def _scanned_windows(monkeypatch):
    """Every window the extrema scan takes from now on, as (k, alpha, beta, d_m, d_M); the scan memo starts empty."""
    scanned = []
    scan = extrema._scan

    def counting(p, windows, ties):
        scanned.extend((p.k, p.alpha, p.beta, w.d_m, w.d_M) for w in windows)
        return scan(p, windows, ties)

    monkeypatch.setattr(extrema, "_scan", counting)
    extrema._cached_scan.cache_clear()
    return scanned


def _config(checks, k_spec, alphas):
    return SweepConfig.from_dict({"checks": checks, "k_spec": k_spec, "alpha_spec": alphas})


def test_sweep_scans_only_the_windows_its_checks_read(monkeypatch):
    scanned = _scanned_windows(monkeypatch)
    try:
        # odd k and alpha = beta > 1/2: odd_230 reads the delta window alone
        verify.sweep(_config(["odd_230"], {"min": 3, "max": 9, "step": 2}, [0.8, 3.0, 40.0]))
        assert len(scanned) == 12 and all((d_m, d_M) != (-1.0, 1.0) for *_, d_m, d_M in scanned)
        assert len(set(scanned)) == len(scanned)
        scanned.clear()
        extrema._cached_scan.cache_clear()
        # emn_eq2 reads the full window alone
        verify.sweep(_config(["emn_eq2"], {"min": 2, "max": 5}, [0.8, 3.0, 40.0]))
        assert len(scanned) == 12 and all((d_m, d_M) == (-1.0, 1.0) for *_, d_m, d_M in scanned)
        assert len(set(scanned)) == len(scanned)
        scanned.clear()
        extrema._cached_scan.cache_clear()
        # at alpha = beta = 1/2 the delta window is the full window: one scan
        verify.sweep(_config(["emn_eq2", "thm4_delta_peak_at_zero"], {"min": 2, "max": 2}, [0.5]))
        assert scanned == [(2, 0.5, 0.5, -1.0, 1.0)]
    finally:
        extrema._cached_scan.cache_clear()


def test_sweep_scans_a_raising_window_once(monkeypatch):
    # at (6, 1e5, 1e5) the full window raises GridTooCoarseError; its seven
    # rows read the memoized error, and the two delta rows the delta scan
    scanned = _scanned_windows(monkeypatch)
    p = Params(6, 1e5, 1e5)
    try:
        rep = verify.sweep(_config(["all"], {"min": 6, "max": 6}, [1e5]))
    finally:
        extrema._cached_scan.cache_clear()
    delta = delta_window(p)
    assert sorted(scanned) == sorted([(6, 1e5, 1e5, -1.0, 1.0), (6, 1e5, 1e5, delta.d_m, delta.d_M)])
    status = {r.check_id: r.status for r in rep.rows}
    full_rows = ["emn_eq2", "krasikov_eq3", "thm1", "lemma_glav"]
    full_rows += ["thm4_containment", "thm3_containment", "thm5_unimodal"]
    assert all(status[cid] == NUMERIC_FAILURE for cid in full_rows), status
    assert status["thm4_delta_peak_at_zero"] == status["lmonult_decreasing"] == CHECKED
    # a row alone scans its window as the sweep did, and fails as it did
    for cid in full_rows:
        assert run_check(cid, p).status == NUMERIC_FAILURE


def test_sweep_scans_leave_the_tie_bits_to_their_callers(monkeypatch):
    # on a mirror triple the sweep scans the full and delta windows without
    # bisecting a bracket; scan_extrema and global_max, asked later in the
    # same process, still give the bits of a fresh memo, and the sweep's rows
    # do not depend on what was asked before it
    p = Params(40, 3.0, 3.0)
    windows = [Window.full(), delta_window(p)]
    cfg = _config(["all"], {"min": 40, "max": 40}, [3.0])
    fresh = []
    for w in windows:
        extrema._cached_scan.cache_clear()
        fresh.append((repr(scan_extrema(p, w)), repr(global_max(p, w))))
    refined = []
    refine = extrema._refine

    def counting(*args):
        refined.append(args)
        return refine(*args)

    monkeypatch.setattr(extrema, "_refine", counting)
    extrema._cached_scan.cache_clear()
    try:
        rows = sweep(cfg).rows
        assert refined == []
        assert [(repr(scan_extrema(p, w)), repr(global_max(p, w))) for w in windows] == fresh
        # both windows' q brackets bisect for the callers that keep tie bits
        assert len(refined) == 2
        assert sweep(cfg).rows == rows and len(refined) == 2
        extrema._cached_scan.cache_clear()
        global_max(p, windows[1])
        assert sweep(cfg).rows == rows
    finally:
        extrema._cached_scan.cache_clear()
    # rows that read either window's scan are checked
    assert {r.check_id for r in rows if r.status == CHECKED} >= {"thm1", "thm4_containment", "thm4_delta_peak_at_zero"}


def _close(a, b, rel, abs_):
    # perfbench's row comparison: equal, both nan, or within rel and abs_
    return a == b or (math.isnan(a) and math.isnan(b)) or abs(a - b) <= rel * max(abs(a), abs(b)) + abs_


def test_rows_from_tie_free_scans_agree_with_rows_from_tie_exact_scans(monkeypatch):
    # the sweep's rows read scans without mirror-tie bits; read from scans
    # with them, every row keeps its status and pass, and lhs and rhs move
    # within the benchmark's row tolerances
    tol = json.loads((Path(__file__).parents[1] / "perfbench" / "tolerances.json").read_text())
    rel, abs_ = tol["value_rel"], tol["value_abs"]
    moved = checked = 0
    for k_spec, alphas in (({"min": 0, "max": 30}, [0.6, 2.5, 40.0, 700.0]), ({"min": 300, "max": 300}, [1e5])):
        cfg = _config(["all"], k_spec, alphas)
        extrema._cached_scan.cache_clear()
        free = sweep(cfg).rows
        with monkeypatch.context() as m:
            for name in ("_scan_windows", "_window_records", "_global_max"):
                tie_free = getattr(verify, name)
                m.setattr(verify, name, lambda p, w, ties, *rest, fn=tie_free: fn(p, w, True, *rest))
            extrema._cached_scan.cache_clear()
            exact = sweep(cfg).rows
        extrema._cached_scan.cache_clear()
        assert len(free) == len(exact)
        for a, b in zip(free, exact):
            key = (a.check_id, a.k, a.alpha, a.beta)
            assert key == (b.check_id, b.k, b.alpha, b.beta)
            assert (a.status, a.passed) == (b.status, b.passed), key
            assert _close(a.lhs, b.lhs, rel, abs_) and _close(a.rhs, b.rhs, rel, abs_), (key, a, b)
            moved += a.lhs != b.lhs
            checked += a.status == CHECKED and verify._REGISTRY[a.check_id].window is not None
    # the two scans differ on mirror windows, and most scanning rows are checked
    assert moved > 1000 and checked > 900, (moved, checked)


def test_delta_peak_row_takes_the_origin_among_tied_maxima():
    # at alpha = beta = 1/2 the delta window is the full one, and M = (2/pi)
    # sin^2((k+1) theta): every interior maximum ties the origin's up to
    # rounding, and global_max's tie rule, smaller |x| first, takes the origin
    top_elsewhere = 0
    for k in range(2, 61, 2):
        p = Params(k, 0.5, 0.5)
        row = run_check("thm4_delta_peak_at_zero", p)
        assert row.status == CHECKED and row.passed and row.lhs < 1e-15, (k, row)
        # ranked by the rounded ln M alone, another maximum comes first
        top_elsewhere += abs(extrema._global_max(p, delta_window(p), False).x) > 0.1
    assert top_elsewhere >= 20
    # away from 1/2 no two maxima tie and the row keeps the exact rule's bits
    for alpha in (0.51, 0.6, 2.5, 1e3):
        for k in range(2, 61, 2):
            p = Params(k, alpha, alpha)
            row = run_check("thm4_delta_peak_at_zero", p)
            assert row.status == CHECKED and row.passed, (p, row)
            assert row.lhs == abs(extrema._global_max(p, delta_window(p), False).x), p


def _package_caches():
    # every functools cache of the package, found by attribute as perfbench finds them
    seen = {}
    for name, mod in list(sys.modules.items()):
        if name == "jacobimax" or name.startswith("jacobimax."):
            for obj in vars(mod).values():
                if callable(getattr(obj, "cache_clear", None)) and callable(getattr(obj, "cache_info", None)):
                    seen[id(obj)] = obj
    return list(seen.values())


def test_cleared_caches_repeat_every_kernel_call(monkeypatch, tmp_path):
    # perfbench and ab_pools start every item as in a fresh process by
    # clearing the package's functools caches; a memo kept elsewhere would
    # let a second run of one verify-sweep pool item skip kernel calls
    from jacobimax import cli

    doc = json.loads((Path(__file__).parents[1] / "perfbench" / "reference" / "verify-sweep.json").read_text())
    # an item whose triples scan both windows
    items = [item for stratum in doc["pool"] for item in stratum]
    item = next(i for i in items if i["betas"] is None and len(i["alphas"]) == 2 and min(i["alphas"]) > 0.5)
    cfg = {"k_spec": {"min": item["k"], "max": item["k"]}, "alpha_spec": item["alphas"], "beta_mode": "equal_alpha"}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    calls = []

    def counting(name):
        kernel = getattr(_kernels, name)

        def wrapper(x, b, a, ln_start, k):
            calls.append((name, k, len(x)))
            return kernel(x, b, a, ln_start, k)

        monkeypatch.setattr(_kernels, name, wrapper)

    # the scan grids' monic calls and every orthonormal call
    counting("monic_recurrence")
    counting("recurrence")
    runs = []
    for _ in range(2):
        for fn in _package_caches():
            fn.cache_clear()
        calls.clear()
        argv = ["verify", "--check", "all", "--config", str(cfg_path), "--out", str(tmp_path / "report.csv")]
        assert cli.main(argv) in (0, 1, 3)
        runs.append(list(calls))
    assert runs[0] and runs[0] == runs[1]
    assert {name for name, _, _ in runs[0]} == {"monic_recurrence", "recurrence"}


def test_cleared_caches_repeat_every_log_gamma_call(monkeypatch):
    # the norm memo is a functools cache like the others: once every cache
    # of the package is cleared, a second run of one scalar-checks pool item
    # makes the first run's log_gamma calls again
    from jacobimax import bounds, gammafn, jacobi

    doc = json.loads((Path(__file__).parents[1] / "perfbench" / "reference" / "scalar-checks.json").read_text())
    item = next(i for stratum in doc["pool"] for i in stratum if i["k"] % 2 == 0 and i["k"] >= 4)
    p = Params(item["k"], item["alpha"], item["alpha"])
    calls = []
    log_gamma = gammafn.log_gamma

    def counting(x):
        calls.append(x)
        return log_gamma(x)

    for mod in (gammafn, jacobi, bounds):
        monkeypatch.setattr(mod, "log_gamma", counting)
    scalar = [cid for cid in check_ids() if verify._REGISTRY[cid].window is None]
    runs = []
    for _ in range(2):
        for fn in _package_caches():
            fn.cache_clear()
        calls.clear()
        assert all(run_check(cid, p).status == "checked" for cid in scalar)
        runs.append(list(calls))
    assert len(scalar) == 11 and runs[0] and runs[0] == runs[1]


def test_sweep_where_windows_overflow_gives_the_rows_of_run_check():
    # at alpha = beta = 1e200 the delta window cannot be built and the
    # full-window scan overflows; the sweep leaves both to the rows, which
    # are the numeric_failure rows run_check gives alone
    rep = verify.sweep(_config(["all"], {"min": 2, "max": 3}, [1e200]))
    extrema._cached_scan.cache_clear()
    assert all(run_check(r.check_id, Params(r.k, r.alpha, r.beta)) == r for r in rep.rows)
    status = {(r.check_id, r.k): r.status for r in rep.rows}
    assert status["thm4_containment", 2] == status["lmonult_decreasing", 3] == NUMERIC_FAILURE

"""Orthonormal Jacobi evaluation against closed forms and external oracles."""

import math
import re

import numpy as np
import pytest
import scipy.special

from jacobimax import _kernels, jacobi
from jacobimax.gammafn import log_gamma
from jacobimax.jacobi import (
    ALPHA_FLOOR,
    Params,
    Window,
    _deriv_ln_prefactor,
    _recurrence_coeffs,
    eval_derivatives_parts,
    eval_orthonormal,
    eval_orthonormal_deriv,
    eval_orthonormal_deriv_parts,
    eval_orthonormal_parts,
    eval_value_and_deriv_monic,
    eval_value_and_deriv_parts,
    log_norm,
    ode_residual,
    ode_residuals,
    value_at_zero_even,
    weighted_M,
    weighted_ln_parts,
)
from jacobimax.scaled import ScaledReal
from jacobimax.verify import NUMERIC_FAILURE, run_check


def test_alpha_floor_closed_form():
    assert ALPHA_FLOOR == (1.0 + math.sqrt(2.0)) / 4.0


@pytest.mark.parametrize(
    "k, alpha, beta, h",
    [
        (0, 0.0, 0.0, 2.0),
        (1, 0.0, 0.0, 2.0 / 3.0),
        (2, 1.0, 1.0, 6.0 / 7.0),
    ],
)
def test_log_norm_closed_form_values(k, alpha, beta, h):
    np.testing.assert_allclose(math.exp(log_norm(Params(k, alpha, beta))), h, rtol=1e-14)


def test_matches_scipy_jacobi_oracle():
    rng = np.random.default_rng(52)
    for _ in range(60):
        k = int(rng.integers(0, 25))
        alpha = float(rng.uniform(-0.4, 6.0))
        beta = float(rng.uniform(-0.4, 6.0))
        x = float(rng.uniform(-0.999, 0.999))
        p = Params(k, alpha, beta)
        # scipy returns the classical (unnormalized) polynomial
        want = scipy.special.eval_jacobi(k, alpha, beta, x) * math.exp(-0.5 * log_norm(p))
        got = eval_orthonormal(p, x).to_float()
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("alpha, beta", [(0.0, 0.0), (1.5, 0.5), (-0.5, -0.5), (3.0, 1.0)])
def test_orthonormality_under_gauss_jacobi(alpha, beta):
    # Gauss-Jacobi absorbs the weight, so the rule is exact for m + n < 2 * nodes
    kmax = 12
    nodes, weights = scipy.special.roots_jacobi(2 * kmax + 8, alpha, beta)
    table = []
    for k in range(kmax + 1):
        sig, off = eval_orthonormal_parts(Params(k, alpha, beta), nodes)
        table.append(sig * np.exp(off))
    for m in range(kmax + 1):
        for n in range(m, kmax + 1):
            inner = float(np.sum(weights * table[m] * table[n]))
            expect = 1.0 if m == n else 0.0
            np.testing.assert_allclose(inner, expect, atol=5e-13)


def test_parameter_swap_reflection_symmetry():
    rng = np.random.default_rng(53)
    for _ in range(40):
        k = int(rng.integers(0, 30))
        alpha = float(rng.uniform(-0.4, 4.0))
        beta = float(rng.uniform(-0.4, 4.0))
        x = float(rng.uniform(-0.99, 0.99))
        a = eval_orthonormal(Params(k, alpha, beta), x)
        b = eval_orthonormal(Params(k, beta, alpha), -x)
        np.testing.assert_allclose(a.to_float(), (-1.0) ** k * b.to_float(), rtol=1e-11, atol=1e-13)


def test_ultraspherical_parity():
    rng = np.random.default_rng(54)
    for k in [0, 1, 4, 7, 16, 33]:
        alpha = float(rng.uniform(-0.4, 8.0))
        x = float(rng.uniform(0.01, 0.99))
        p = Params(k, alpha, alpha)
        lhs = eval_orthonormal(p, -x)
        rhs = eval_orthonormal(p, x)
        assert lhs.sign == (-1) ** k * rhs.sign
        np.testing.assert_allclose(lhs.ln_mag, rhs.ln_mag, rtol=0.0, atol=1e-11)


def test_value_at_zero_even_matches_recurrence():
    for k in [0, 2, 4, 10, 40, 120]:
        for alpha in [0.0, 0.51, 1.0, 5.0, 100.0, 1e5]:
            closed = value_at_zero_even(k, alpha)
            rec = eval_orthonormal(Params(k, alpha, alpha), 0.0)
            assert closed.sign == rec.sign
            # atol on ln corresponds to relative error in the value itself
            np.testing.assert_allclose(closed.ln_mag, rec.ln_mag, rtol=0.0, atol=1e-9)


def test_value_at_zero_even_witness():
    v = value_at_zero_even(2, 1.0)
    assert v.sign == -1
    np.testing.assert_allclose(v.to_float() ** 2, 21.0 / 32.0, rtol=1e-13)


def test_value_at_zero_even_rejects_odd_degree():
    with pytest.raises(ValueError):
        value_at_zero_even(3, 1.0)


def test_derivative_matches_central_difference():
    rng = np.random.default_rng(55)
    for k, alpha, beta in [(5, 2.0, 2.0), (12, 0.7, 0.3), (30, 4.0, 1.0)]:
        p = Params(k, alpha, beta)
        for _ in range(12):
            x = float(rng.uniform(-0.8, 0.8))
            h = 1e-6
            fd = (eval_orthonormal(p, x + h).to_float() - eval_orthonormal(p, x - h).to_float()) / (2 * h)
            an = eval_orthonormal_deriv(p, x).to_float()
            scale = max(abs(an), abs(eval_orthonormal(p, x).to_float()), 1.0)
            assert abs(an - fd) / scale < 5e-9


def test_ode_residual_small_on_grids():
    rng = np.random.default_rng(56)
    cases = [(5, 2.0, 2.0), (20, 0.7, 0.6), (50, 10.0, 10.0), (50, 1e5, 1e5)]
    for k, alpha, beta in cases:
        p = Params(k, alpha, beta)
        # keep nodes inside the oscillatory band where the terms are O(1)
        lim = 0.8 / math.sqrt(1.0 + (alpha + beta) / (2.0 * k))
        for x in rng.uniform(-lim, lim, size=25):
            assert abs(ode_residual(p, float(x))) <= 1e-8


def test_weighted_endpoint_chebyshev_is_finite():
    w = Window(-1.0, 1.0)
    for k in [1, 4, 9]:
        p = Params(k, -0.5, -0.5)
        mv = weighted_M(p, 1.0, w)
        np.testing.assert_allclose(mv.value, 2.0 / math.pi, rtol=1e-12)


def test_weighted_endpoint_vanishes_for_positive_exponent():
    mv = weighted_M(Params(4, 0.0, 0.0), 1.0, Window(-1.0, 1.0))
    assert mv.value == 0.0
    assert mv.ln_value == -math.inf
    mv = weighted_M(Params(4, 0.3, 0.8), -1.0, Window(-1.0, 1.0))
    assert mv.value == 0.0


def test_weighted_endpoint_divergent_exponent_rejected():
    with pytest.raises(ValueError):
        weighted_M(Params(4, -0.75, 0.0), 1.0, Window(-1.0, 1.0))
    with pytest.raises(ValueError):
        weighted_M(Params(4, 0.0, -0.75), -1.0, Window(-1.0, 1.0))


def test_weighted_ln_parts_consistent_with_pointwise():
    p = Params(8, 1.5, 0.7)
    w = Window(-1.0, 1.0)
    xs = np.linspace(-0.95, 0.95, 21)
    lp = weighted_ln_parts(p, xs, w)
    for x, ln in zip(xs, lp):
        np.testing.assert_allclose(weighted_M(p, float(x), w).ln_value, ln, rtol=0.0, atol=1e-12)


def test_weighted_extreme_parameters_stay_finite():
    p = Params(50, 1e5, 1e5)
    w = Window(-1.0, 1.0)
    mv = weighted_M(p, 0.001, w)
    assert math.isfinite(mv.ln_value)
    assert math.isfinite(mv.value)
    assert mv.value > 0.0


@pytest.mark.parametrize(
    "k, alpha, beta",
    [(-1, 0.0, 0.0), (2, -1.0, 0.0), (2, 0.0, -1.5), (2, math.inf, 0.0), (2, 0.0, math.nan)],
)
def test_params_validation(k, alpha, beta):
    with pytest.raises(ValueError):
        Params(k, alpha, beta)


def test_params_applicability_flags():
    assert Params(6, 1.0, 1.0).is_ultraspherical
    assert not Params(6, 1.0, 0.5).is_ultraspherical
    assert Params(6, 0.4, 0.4).is_ultraspherical


@pytest.mark.parametrize("d_m, d_M", [(1.0, -1.0), (-2.0, 1.0), (0.5, 0.5), (-1.0, 1.5)])
def test_window_validation(d_m, d_M):
    with pytest.raises(ValueError):
        Window(d_m, d_M)


def test_window_constructors_and_predicates():
    full = Window.full()
    assert full.is_full and full.is_symmetric
    assert full.width == 2.0
    sym = Window.symmetric(0.25)
    assert sym.d_m == -0.25 and sym.d_M == 0.25
    assert sym.is_symmetric and not sym.is_full
    skew = Window(-0.1, 0.9)
    assert not skew.is_symmetric


def test_recurrence_coefficients_cached_and_write_protected():
    a1 = _recurrence_coeffs(5, 1.0, 0.5)
    a2 = _recurrence_coeffs(5, 1.0, 0.5)
    assert a1 is a2
    b_arr, a_arr, _ = a1
    for arr in (b_arr, a_arr):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_recurrence_coefficients_name_the_triple_where_they_overflow():
    # (alpha + beta + 2)^2 (alpha + beta + 3) overflows above cbrt(DBL_MAX) =
    # 5.6e102, and (alpha + beta + 2)^2 alone raises above 1.341e154: the
    # error names the triple and the limit either way, a triple just below
    # the limit still returns its arrays, and a verify row that reaches it is
    # a numeric failure
    with pytest.raises(OverflowError, match=r"k=3, alpha=1e\+300, beta=1\.0: alpha \+ beta must stay below about 5\.6e\+102"):
        _recurrence_coeffs(3, 1e300, 1.0)
    with pytest.raises(OverflowError, match="beta=7e\\+153"):
        _recurrence_coeffs(1, 7e153, 7e153)
    b, a, _ = _recurrence_coeffs(1, 2.8e102, 2.8e102)
    assert b[0] == 0.0 and a[0] > 0.0
    assert run_check("pointwise", Params(3, 1e300, 1.0)).status == NUMERIC_FAILURE


@pytest.mark.parametrize("k, alpha", [(3, 3e102), (3, 1e120), (400, 2.8e102)])
def test_recurrence_coefficients_that_would_overflow_silently_raise(k, alpha, recwarn):
    # at (3, 3e102) the product in a[0] overflows to inf and a[0] would read
    # 0; at (3, 1e120) a[1:] would read inf too, with numpy warnings; at
    # (400, 2.8e102), below the first coefficient's limit, a[1:] overflows
    # at larger m.  Each raises the triple's error, and warns of nothing
    triple = re.escape(f"k={k}, alpha={alpha!r}, beta={alpha!r}: alpha + beta must stay below")
    with pytest.raises(OverflowError, match=triple):
        _recurrence_coeffs(k, alpha, alpha)
    assert not recwarn.list


def _plain_recurrence(x, b, a, ln_start, k, rescaled=None):
    # the per-step loop the numpy kernel must reproduce bit for bit: one fresh
    # array per step and the full rescaling mask after every step; the steps
    # that rescale some point are appended to `rescaled` when it is given
    off = np.full(x.shape[0], ln_start)
    if k == 0:
        return np.ones(x.shape[0]), np.zeros(x.shape[0]), off
    pm = np.ones(x.shape[0])
    pc = (x - b[0]) / a[0]
    for m in range(1, k):
        pm, pc = pc, ((x - b[m]) * pc - a[m - 1] * pm) / a[m]
        mag = np.maximum(np.abs(pc), np.abs(pm))
        bad = (mag > _kernels._HI) | ((mag > 0.0) & (mag < _kernels._LO))
        if bad.any():
            if rescaled is not None:
                rescaled.append(m)
            e = np.floor(np.log2(mag[bad])).astype(np.int64)
            sc = np.ldexp(1.0, -e)
            pc[bad] *= sc
            pm[bad] *= sc
            off[bad] += e * math.log(2.0)
    return pc, pm, off


def test_numpy_kernel_matches_plain_loop_bitwise():
    rng = np.random.default_rng(58)
    edge = np.array([-1.0, 0.0, 1.0, 1e-17, -1e-17])
    cases = [
        (0, 1.0, 1.0), (1, 0.0, 0.0), (2, -0.5, -0.5), (37, 5.0, 1e3), (150, 3e4, 3e4),
        (250, 2.5, 2.5), (300, -0.99, 0.5), (400, 0.0, 0.0), (400, 1e6, 1e6), (50, 1e5, -0.9),
    ]
    for k, alpha, beta in cases:
        b_arr, a_arr, ln_start = _recurrence_coeffs(k, alpha, beta)
        for x in (edge, rng.uniform(-1.0, 1.0, size=300), np.cos(np.linspace(0.0, math.pi, 257)), edge[:1], edge[:0]):
            ref = _plain_recurrence(x, b_arr, a_arr, ln_start, k)
            got = _kernels.recurrence(x, b_arr, a_arr, ln_start, k)
            assert [g.tobytes() for g in got] == [r.tobytes() for r in ref], (k, alpha, beta)
    # random degrees and exponents up to 1e7, with points crowding both ends
    x = np.concatenate([edge, rng.uniform(-1.0, 1.0, 40), 1.0 - np.geomspace(1e-16, 0.1, 12), np.geomspace(1e-16, 0.1, 12) - 1.0])
    for _ in range(40):
        k = int(rng.integers(1, 500))
        alpha, beta = np.exp(rng.uniform(math.log(1e-3), math.log(1e7), 2)) - 0.5
        b_arr, a_arr, ln_start = _recurrence_coeffs(k, float(alpha), float(beta))
        ref = _plain_recurrence(x, b_arr, a_arr, ln_start, k)
        got = _kernels.recurrence(x, b_arr, a_arr, ln_start, k)
        assert [g.tobytes() for g in got] == [r.tobytes() for r in ref], (k, alpha, beta)


def _assert_plain_bits(rows):
    # the kernel on each row (x, b, a, ln_start, k) against the plain loop
    for i, r in enumerate(rows):
        got = _kernels.recurrence(*r)
        ref = _plain_recurrence(*r)
        assert [g.tobytes() for g in got] == [f.tobytes() for f in ref], (i, r[4])


def test_symmetric_rows_match_plain_loop_bitwise():
    # alpha = beta gives b[m] = +0.0 or -0.0 throughout, for the shifted
    # families too; x = +-1e-200 puts a pair with |pc| < 1e-150 and
    # |pm| = O(1) at every odd step, a rescaling candidate that is not scaled
    x = np.array([-0.0, 0.0, 1.0, -1.0, 1e-17, -1e-17, 1e-200, -1e-200, 0.3, -0.7])
    for k, alpha in ((2, 0.0), (41, 0.0), (60, -0.3), (400, 0.0), (250, 2.5), (300, 1e3), (400, 1e5), (500, 1e7)):
        _assert_plain_bits([(x, *_recurrence_coeffs(k - j, alpha + j, alpha + j), k - j) for j in range(3)])
    # a nan point is never rescaled, and the other points are rescaled as without it
    nan = np.concatenate([x, [np.nan]])
    _assert_plain_bits([(nan, *_recurrence_coeffs(400, 1e3, 1e3), 400), (nan, *_recurrence_coeffs(41, 0.0, 0.0), 41)])


def test_rescaling_matches_plain_loop_in_edge_pairs():
    # an exactly zero pair (mag = 0) is never scaled: pc = 0 at x = b[0],
    # and step 1 underflows a[0] * 1 / a[1] to 0
    x = np.array([0.5, 0.25, -0.75])
    b = np.array([0.5, 0.0, 0.0, 0.1])
    a = np.array([1e-200, 1e200, 1.0, 1.0])
    steps = []
    val, prev, _ = _plain_recurrence(x, b, a, 0.0, 4, steps)
    assert val[0] == prev[0] == 0.0
    _assert_plain_bits([(x, b, a, 0.0, 4)])
    # a pair that falls below 1e-150 together is scaled up: at x = 0.5 step 3
    # gives pm = -5e-161 and pc = 1e-160, while x = 0.25 stays in range
    x = np.array([0.5, 0.25])
    b = np.array([0.5, 0.0, 0.0, 0.0, 0.0])
    a = np.array([1e-100, 1.0, 1e60, 1e120, 1.0])
    steps = []
    _plain_recurrence(x, b, a, 0.0, 5, steps)
    assert steps[:1] == [3]
    _assert_plain_bits([(x, b, a, 0.0, 5)])
    # before step 1's test pm is the untested (x - b[0]) / a[0]: here it is
    # 5e159 at x = 0.5 while that point's pc is 2.5, and the other point's
    # pc underflows, so step 1 rescales both
    x = np.array([0.5, 1e-300])
    b = np.array([0.0, 0.0, 0.0])
    a = np.array([1e-160, 1e159, 1.0])
    steps = []
    _plain_recurrence(x, b, a, 0.0, 3, steps)
    assert steps[:1] == [1]
    _assert_plain_bits([(x, b, a, 0.0, 3)])


def test_rows_ending_after_a_rescale_match_plain_loop_bitwise():
    # rows of one family end one step before, on and after a step that
    # rescales some point
    rng = np.random.default_rng(64)
    x = np.concatenate([[-1.0, 1.0, 0.0, -0.0, 1e-17], rng.uniform(-1.0, 1.0, 30)])
    for k, alpha, beta in ((500, 1e7, 1e7), (400, 1e3, 1e3), (400, 2.5, 1e6), (300, 1e5, -0.499)):
        b_arr, a_arr, ln_start = _recurrence_coeffs(k, alpha, beta)
        steps = []
        _plain_recurrence(x, b_arr, a_arr, ln_start, k, steps)
        assert steps, (k, alpha, beta)
        m = steps[len(steps) // 2]
        rows = [(x[: 35 - 3 * i], b_arr, a_arr, ln_start, d) for i, d in enumerate((k, m + 1, m, m - 1, steps[0]))]
        _assert_plain_bits(rows)


def test_row_rescaled_on_its_last_step_matches_plain_loop_bitwise():
    # a degree-2 row whose last pair lies near 1e150, one point above it, so
    # its one step rescales, with step 1's pm tested too
    x = np.array([0.0, 0.5, -0.95, 1.0, -1.0, 0.3])
    row = (x, np.array([0.0, 0.0]), np.array([1.0, 0.8e-150]), 0.0, 2)
    steps = []
    val = _plain_recurrence(*row, steps)[0]
    assert steps == [1] and 1e149 < np.max(np.abs(val)) < 1e151
    _assert_plain_bits([row])


def _range_tests(monkeypatch, row):
    # the kernel's range tests on one row: each takes one _kernels._min
    calls = []
    reduce_min = _kernels._min
    monkeypatch.setattr(_kernels, "_min", lambda *args: calls.append(1) or reduce_min(*args))
    _kernels.recurrence(*row)
    monkeypatch.undo()
    return len(calls)


def test_row_leaving_the_range_on_the_first_step_the_bound_allows(monkeypatch):
    # one point whose pair (c, -c) after step 1 grows by exactly the growth
    # factor (|x| + max|b| + max a) / min a = 8 on step 2, in exact powers of
    # two, and c is the float just above 1e150 / 8: step 2 leaves the range
    # by one ulp.  Unpadded, the log bound computes that step 2 stays in
    # range; with the slack the kernel tests, and rescales, at step 2
    c = float(np.nextafter(_kernels._HI / 8.0, np.inf))
    row = (np.array([0.0]), np.array([-c, 4.0, -4.0]), np.array([1.0, 4.0, 1.0]), 0.0, 3)
    steps = []
    _plain_recurrence(*row, steps)
    assert steps == [2]
    unpadded = _kernels._log_growth(*row[:3], 3) - _kernels._SLACK
    assert math.log(_kernels._HI / c) / unpadded >= 1.0
    assert _range_tests(monkeypatch, row) == 2
    _assert_plain_bits([row])


def test_range_test_reads_the_pair_not_its_last_member(monkeypatch):
    # step 1 makes P_2(0.5) exactly 0 while P_1(0.5) = 1: the pair's
    # magnitude, 1, is in range, so the growth bound spaces the next test
    # past the row's end and the kernel tests once
    k = 10
    row = (np.array([0.5]), np.zeros(k), np.concatenate([[0.5], np.ones(k - 1)]), 0.0, k)
    steps = []
    _plain_recurrence(*row, steps)
    assert steps == []
    val, prev, _ = _plain_recurrence(*row[:4], 2)
    assert val[0] == 0.0 and prev[0] == 1.0
    assert _range_tests(monkeypatch, row) == 1
    _assert_plain_bits([row])


def test_untested_first_pair_above_the_range_is_rescaled_on_step_one():
    # step 1's pm, (x - b[0]) / a[0] = 5e159, is above 1e150 while every
    # |pc| lies inside the range: the pair is rescaled on step 1, and step 2
    # does not overflow
    x = np.array([0.5])
    for k in (3, 40):
        row = (x, np.zeros(k), np.concatenate([[1e-160, 1e159], np.ones(k - 2)]), 0.0, k)
        steps = []
        _plain_recurrence(*row, steps)
        assert steps[:1] == [1]
        _assert_plain_bits([row])


def test_centred_rows_keep_the_sign_of_zero():
    # a diagonal of +0.0 (alpha = beta >= 0) skips the subtract, since
    # x - (+0.0) is x bit for bit; x - (-0.0) turns x = -0.0 into +0.0, so a
    # -0.0 diagonal (alpha = beta < 0), even in one entry, keeps it
    x = np.array([-0.0, 0.0, 0.5, -0.25, 1e-200, -1e-200])
    for k in (2, 3, 5, 14, 17):
        a = _recurrence_coeffs(k, 2.5, 2.5)[1]
        plus = np.zeros(k)
        minus = np.concatenate([[0.0], np.full(k - 1, -0.0)])
        last = np.concatenate([np.zeros(k - 1), [-0.0]])
        rows = [(x, b, a, 0.0, k) for b in (plus, minus, last)]
        rows += [(x, *_recurrence_coeffs(k, alpha, alpha), k) for alpha in (0.0, 2.5, -0.3, -0.499)]
        _assert_plain_bits(rows)
    # the sign of zero reaches the output: P_5(-0.0) is -0.0 on the +0.0
    # diagonal and +0.0 on the -0.0 one
    a = _recurrence_coeffs(5, 2.5, 2.5)[1]
    signs = [np.signbit(_plain_recurrence(x[:1], b, a, 0.0, 5)[0][0]) for b in (np.zeros(5), minus[:5])]
    assert signs == [True, False]


def test_nan_point_tests_the_range_on_every_step(monkeypatch):
    # a nan pair is never in range, so no growth bound skips a step; the
    # finite points are rescaled as without it
    b, a, ln_start = _recurrence_coeffs(60, 1e3, 1e3)
    x = np.array([0.3, np.nan, -0.9])
    assert _range_tests(monkeypatch, (x[::2], b, a, ln_start, 60)) < 59
    assert _range_tests(monkeypatch, (x, b, a, ln_start, 60)) == 59
    _assert_plain_bits([(x, b, a, ln_start, 60), (x[1:2], b, a, ln_start, 14)])


def test_small_degree_grid_call_tests_the_range_once(monkeypatch):
    # the 960-node scan grid of (14, 50, 50) (the 192 and 768 nodes of its
    # two angle-uniform grids): the range test after step 1 passes, and the
    # growth bound skips every later step
    x = np.cos(np.concatenate([np.linspace(0.0, math.pi, 194)[1:-1], np.linspace(0.0, math.pi, 770)[1:-1]]))
    row = (x, *_recurrence_coeffs(14, 50.0, 50.0), 14)
    assert _range_tests(monkeypatch, row) == 1
    _assert_plain_bits([row])


def _plain_monic(x, b, c, ln_start, k, rescaled=None, every_step=False):
    # the division-free recurrence as a plain per-step loop with the
    # orthonormal form's rescaling (_plain_recurrence): the pair is rescaled
    # into [1, 2) after each step that leaves it outside [1e-150, 1e150], or,
    # with every_step, after every step, which keeps the significands of
    # unbounded-range arithmetic wherever neither member of the pair falls
    # below about 1e-300 of the other
    off = np.full(x.shape[0], ln_start)
    if k == 0:
        return np.ones(x.shape[0]), np.zeros(x.shape[0]), off
    pm = np.ones(x.shape[0])
    pc = x - b[0]
    for m in range(1, k):
        pm, pc = pc, (x - b[m]) * pc - c[m - 1] * pm
        mag = np.maximum(np.abs(pc), np.abs(pm))
        bad = mag > 0.0
        if not every_step:
            bad &= (mag > _kernels._HI) | (mag < _kernels._LO)
        if bad.any():
            if rescaled is not None:
                rescaled.append(m)
            e = np.floor(np.log2(mag[bad])).astype(np.int64)
            sc = np.ldexp(1.0, -e)
            pc[bad] *= sc
            pm[bad] *= sc
            off[bad] += e * math.log(2.0)
    return pc, pm, off


def _monic_row(x, k, alpha, beta):
    # the monic kernel's row for a family: c = a^2 and ln P_0 - sum ln a[m]
    b, a, ln_p0 = _recurrence_coeffs(k, alpha, beta)
    return x, b, a * a, ln_p0 - float(np.log(a[:k]).sum()), k


_MONIC_CASES = [
    (0, 1.0, 1.0), (1, 0.0, 0.0), (2, -0.5, -0.5), (37, 5.0, 1e3), (150, 3e4, 3e4), (250, 2.5, 2.5),
    (300, -0.999, -0.999), (400, -0.99999, 0.5), (267, -0.897, 0.224), (400, 0.0, 0.0), (400, 1e5, 1e5),
    (500, 1e7, 1e7), (50, 1e5, -0.9), (120, 3.0, 1e6), (41, -0.3, -0.3),
]


def _binary_parts(val, off, ln_start):
    # (significands, total binary exponents) of values val * exp(off) whose
    # offsets are ln_start plus whole multiples of ln 2
    e = np.rint((off - ln_start) / math.log(2.0)).astype(np.int64)
    sig, ex = np.frexp(val)
    return sig, np.where(sig == 0.0, 0, ex + e)


def _assert_monic_bits(row, ref, at=slice(None)):
    # the monic kernel against a plain loop's (val, prev, off) at the points
    # `at`: the same significands and signs bit for bit, and the same total
    # binary exponents; the kernel's offset is ln_start + E ln 2 for an
    # integer E, formed once
    got = _kernels.monic_recurrence(*row)
    ln_start = row[3]
    e = np.rint((got[2] - ln_start) / math.log(2.0)).astype(np.int64)
    assert got[2].tobytes() == (ln_start + e * math.log(2.0)).tobytes(), row[4]
    for g, r in zip(got[:2], ref[:2]):
        gs, ge = _binary_parts(g, got[2], ln_start)
        rs, re = _binary_parts(r, ref[2], ln_start)
        assert gs[at].tobytes() == rs[at].tobytes(), row[4]
        assert ge[at].tobytes() == re[at].tobytes(), row[4]
    return got


def test_monic_kernel_matches_plain_monic_loop_bitwise():
    # the kernel renormalizes the pair on its own schedule, so its values
    # differ from the plain loop's by powers of two, its offsets by their
    # rounding, and nothing else: except at x = 1e-200 on a centred family,
    # where p_{k-1} of odd degree is about 1e-200 times the pair; the plain
    # loop lets the pair drift down to 1e-150 before it rescales, so that
    # member becomes subnormal and loses bits, and there the kernel keeps the
    # bits of the loop that rescales after every step
    rng = np.random.default_rng(70)
    edge = np.array([-1.0, 0.0, -0.0, 1.0, 1e-17, -1e-17, 1e-200])
    x = np.concatenate(
        [
            edge,
            rng.uniform(-1.0, 1.0, 200),
            1.0 - np.geomspace(1e-16, 0.1, 12),
            np.geomspace(1e-16, 0.1, 12) - 1.0,
        ]
    )
    lossy = []
    for k, alpha, beta in _MONIC_CASES:
        for xs in (x, edge[:1], edge[:0]):
            row = _monic_row(xs, k, alpha, beta)
            exact = _plain_monic(*row, every_step=True)
            _assert_monic_bits(row, exact)
            ref = _plain_monic(*row)
            keeps = np.ones(xs.size, dtype=bool)
            for r, e in zip(ref[:2], exact[:2]):
                keeps &= _binary_parts(r, ref[2], row[3])[0] == _binary_parts(e, exact[2], row[3])[0]
            _assert_monic_bits(row, ref, keeps)
            lossy += [(k, alpha, float(v)) for v in xs[~keeps]]
    assert lossy == [(k, a, 1e-200) for k, a in ((150, 3e4), (400, 0.0), (400, 1e5), (500, 1e7))]


def test_monic_kernel_agrees_with_orthonormal_kernel():
    # P_k = val * exp(off) and P_{k-1} = a[k-1] * prev * exp(off) against the
    # orthonormal kernel, relative to the pair's magnitude: within the
    # rounding of the log offset (of size |ln P_0|, 3.5e5 at beta = 1e6)
    # inside [-0.99, 0.99], and within 1e-7 nearer to +-1, where both forms
    # lose digits for exponents near -1 (a few 1e-9 against mpmath at
    # (300, -0.999, -0.999), x = 1 - 1e-16)
    rng = np.random.default_rng(71)
    x = np.concatenate(
        [
            [-1.0, 0.0, 1.0],
            rng.uniform(-1.0, 1.0, 200),
            1.0 - np.geomspace(1e-16, 0.1, 40),
            np.geomspace(1e-16, 0.1, 40) - 1.0,
        ]
    )
    for k, alpha, beta in _MONIC_CASES:
        b, a, ln_p0 = _recurrence_coeffs(k, alpha, beta)
        val, prev, off = _kernels.recurrence(x, b, a, ln_p0, k)
        row = _monic_row(x, k, alpha, beta)
        mval, mprev, moff = _kernels.monic_recurrence(*row)
        if (k, alpha) == (500, 1e7):
            # the monic row rescales too
            steps = []
            _plain_monic(*row, steps)
            assert steps, (k, alpha, beta)
        scale = np.exp(moff - off)
        top = np.maximum(np.abs(val), np.abs(prev))
        err = np.maximum(np.abs(mval * scale - val), np.abs((a[k - 1] if k else 0.0) * mprev * scale - prev)) / top
        inner = np.abs(x) <= 0.99
        assert err[inner].max() <= 1e-12 + 1e-15 * abs(ln_p0), (k, alpha, beta, err[inner].max())
        assert err.max() <= 1e-7, (k, alpha, beta, err.max())


def test_monic_row_leaving_the_range_on_the_first_step_the_bound_allows():
    # at x = 1 the pair starts at (1, 1 - b[0]) = (1, top), with top the
    # float just above 1e150 / 8, and step 1 maps it to (top, (1 - b[1]) top
    # - c[0]) = (top, 8 top): growth by the bound 1 + |b[1]| + c[0] up to
    # c[0] = 2^-80, out of range by one ulp.  Unpadded, the log bound
    # computes that step 1 stays in range; with the slack the schedule
    # renormalizes before it
    top = float(np.nextafter(_kernels._HI / 8.0, np.inf))
    b, c = np.array([-top, -7.0]), np.array([2.0**-80, 1.0])
    assert (1.0 - b[0], (1.0 - b[1]) * (1.0 - b[0]) - c[0]) == (top, 8.0 * top) and 8.0 * top > _kernels._HI
    assert math.log1p(top) + math.log(8.0 + c[0]) <= math.log(_kernels._HI)
    assert _kernels._renormalizations(b, c, 2) == [1]
    row = (np.array([1.0, 0.5, -1.0]), b, c, 0.0, 2)
    _assert_monic_bits(row, _plain_monic(*row))
    # the schedules of two scan-grid families: (14, 50, 50) is never
    # renormalized, (400, 1e5, 1e5) nine times
    for (k, alpha), steps in (((14, 50.0), 0), ((400, 1e5), 9)):
        row = _monic_row(np.array([0.0]), k, alpha, alpha)
        assert len(_kernels._renormalizations(*row[1:3], k)) == steps


def test_monic_row_whose_steps_exceed_the_range_stays_finite():
    # every c[m-1] = 1e200 lets step m grow the pair by 1e200, and every
    # c[m-1] = 1e-200 lets it shrink by 2e200, each beyond the 1e300 band
    # alone: the schedule renormalizes before every step, and the values,
    # which unscaled overflow or underflow within two steps, stay finite
    # with the plain loop's bits
    x = np.array([0.0, 0.5, -0.25, 1.0, -1.0, 1e-17])
    for c in (1e200, 1e-200):
        row = (x, np.zeros(8), np.full(8, c), 0.0, 8)
        assert _kernels._renormalizations(*row[1:3], 8) == list(range(1, 8))
        got = _assert_monic_bits(row, _plain_monic(*row))
        assert np.isfinite(got).all() and (got[0] != 0.0).any()
        pm, pc = np.ones(x.size), x.copy()
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            for _ in range(1, 8):
                pm, pc = pc, x * pc - c * pm
        assert not (np.isfinite(pc) & (np.abs(pc) > 1e-300)).all()


def test_monic_pair_flags_the_zeros_of_p_k(monkeypatch):
    # at the Gauss-Jacobi nodes and their neighbouring floats P_k is at
    # rounding level, where the two forms' values differ relatively by far
    # more than elsewhere; every such point is flagged for the orthonormal
    # kernel, and the points away from the zeros are not
    for k, alpha, beta in [(40, 3.0, 3.0), (267, -0.897, 0.224), (200, 1e3, 1e3), (120, 3.0, 1e6), (1, 0.5, 2.0)]:
        p = Params(k, alpha, beta)
        with np.errstate(over="ignore"):
            nodes = scipy.special.roots_jacobi(k, alpha, beta)[0]
        zeros = np.concatenate([np.nextafter(nodes, -2.0), nodes, np.nextafter(nodes, 2.0)])
        x = np.concatenate([zeros, np.linspace(-0.95, 0.95, 9)])
        *got, near = eval_value_and_deriv_monic(p, x)
        ref = eval_value_and_deriv_parts(p, x)
        assert near.tobytes() == np.arange(zeros.size).tobytes(), p
        # the flag is needed: the monic values differ at some zero
        assert got[0][: zeros.size].tobytes() != ref[0][: zeros.size].tobytes(), p
        assert not np.array_equal(got[0][zeros.size :], ref[0][zeros.size :]) or k == 1, p
        g, r = (np.array(v)[:, zeros.size :] for v in (got, ref))
        np.testing.assert_allclose(g[0] * np.exp(g[2] - r[2]), r[0], rtol=1e-8, atol=0.0)
        # without the guard no zero whose monic value is not 0 is flagged
        with monkeypatch.context() as m:
            m.setattr(jacobi, "_PAIR_GUARD", 0.0)
            bare = eval_value_and_deriv_monic(p, zeros)[4]
        assert bare.tobytes() == np.flatnonzero(got[0][: zeros.size] == 0.0).tobytes(), p


def _batch_invariance_cases():
    rng = np.random.default_rng(61)
    cases = [(500, 1e5, 1e5), (500, 1e7, 1e7), (400, 0.0, 0.0), (300, 1e7, -0.9), (120, 3.0, 1e6), (2, -0.5, -0.5)]
    for _ in range(4):
        alpha, beta = np.exp(rng.uniform(math.log(1e-3), math.log(1e7), 2)) - 0.5
        cases.append((int(rng.integers(1, 500)), float(alpha), float(beta)))
    return cases


def test_kernel_batch_invariance_bitwise():
    # a point's value must not depend on the batch it is evaluated in, for
    # the batched check rows to keep the bits of one call per point
    rng = np.random.default_rng(62)
    edge = np.array([-1.0, 1.0, 0.0, 1e-17, -1e-17])
    x = np.concatenate([edge, rng.uniform(-1.0, 1.0, 20), 1.0 - np.geomspace(1e-16, 0.1, 5), rng.uniform(-0.01, 0.01, 5)])
    for k, alpha, beta in _batch_invariance_cases():
        p = Params(k, alpha, beta)
        for parts in (eval_orthonormal_parts, eval_orthonormal_deriv_parts):
            val, off = parts(p, x)
            for i, xi in enumerate(x):
                v1, o1 = parts(p, x[i : i + 1])
                assert v1.tobytes() == val[i : i + 1].tobytes(), (parts.__name__, p, xi)
                assert o1.tobytes() == off[i : i + 1].tobytes(), (parts.__name__, p, xi)
        # the monic pair's four value arrays and its flags, which the scan
        # grids and the joint scans read, at the interior points
        inner = x[np.abs(x) < 1.0]
        *parts, near = eval_value_and_deriv_monic(p, inner)
        for i, xi in enumerate(inner):
            *one, one_near = eval_value_and_deriv_monic(p, inner[i : i + 1])
            for j, (v1, v) in enumerate(zip(one, parts)):
                assert v1.tobytes() == v[i : i + 1].tobytes(), (j, p, xi)
            assert one_near.tolist() == ([0] if i in near else []), (p, xi)


_PAIR_DEGREES = [1, 2, 50, 400]
_PAIR_EXPONENTS = [
    (-0.499, -0.499), (0.0, 0.0), (3.0, 3.0), (1e3, 1e3), (1e5, 1e5),
    (0.7, -0.3), (2.0, 700.0), (-0.499, 1e5), (1e5, -0.499),
]


def _pair_tolerance(p, cond, per_cond):
    # rounding in the pair and in the recurrence values it combines, both
    # amplified by cond; plus the ln-gamma normalizations, of size n ln n,
    # whose rounding differs between families and from mpmath
    n = p.k + abs(p.alpha) + abs(p.beta) + 2.0
    return per_cond * cond + 1e-15 * n * math.log(n)


@pytest.mark.parametrize("k", _PAIR_DEGREES)
def test_value_and_deriv_pair_matches_shifted_family(k):
    # |x| <= 0.99875; nearer to +-1 see the mpmath test below
    x = np.cos(np.linspace(0.05, math.pi - 0.05, 801))
    for alpha, beta in _PAIR_EXPONENTS:
        p = Params(k, alpha, beta)
        yv, dv, off, cond = eval_value_and_deriv_parts(p, x)
        val, voff = eval_orthonormal_parts(p, x)
        assert yv.tobytes() == val.tobytes() and off.tobytes() == voff.tobytes(), p
        assert np.all(cond >= 1.0), p
        sv, so = eval_orthonormal_deriv_parts(p, x)
        assert np.array_equal(np.sign(dv), np.sign(sv)), p
        ok = sv != 0.0
        err = np.abs(np.log(np.abs(dv[ok])) + off[ok] - np.log(np.abs(sv[ok])) - so[ok])
        assert np.all(err <= _pair_tolerance(p, cond[ok], 1e-12)), p


def test_value_and_deriv_pair_matches_mpmath_near_endpoints():
    # near +-1 the recurrence values themselves can carry relative errors of
    # a few 1e-12 (at k = 1, beta = 1e5, P_1 is near its zero b[0] there),
    # and the pair amplifies them by cond
    mpmath = pytest.importorskip("mpmath")
    u = 1.0 - 10.0 ** -np.arange(2.0, 13.0, 2.0)
    x = np.concatenate([-u, u])
    with mpmath.workdps(50):

        def ref(k, a, b, xi):
            # sign and ln| | of the orthonormal P_k', from the classical
            # derivative (k+a+b+1)/2 P_{k-1}^(a+1,b+1); the series runs at
            # +x, by the reflection P_n^(a,b)(-x) = (-1)^n P_n^(b,a)(x), so
            # its terms do not cancel
            a, b, t = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(xi)
            flip = t < 0
            if flip:
                a, b, t = b, a, -t
            s = a + b
            ln_h = (
                (s + 1) * mpmath.log(2) - mpmath.log(2 * k + s + 1) + mpmath.loggamma(k + a + 1)
                + mpmath.loggamma(k + b + 1) - mpmath.loggamma(k + s + 1) - mpmath.loggamma(k + 1)
            )
            d = (k + s + 1) / 2 * mpmath.jacobi(k - 1, a + 1, b + 1, t)
            if flip and k % 2 == 0:
                d = -d
            return float(mpmath.sign(d)), float(mpmath.log(abs(d)) - ln_h / 2)

        for k in _PAIR_DEGREES:
            for alpha, beta in _PAIR_EXPONENTS:
                p = Params(k, alpha, beta)
                _, dv, off, cond = eval_value_and_deriv_parts(p, x)
                for i, xi in enumerate(x.tolist()):
                    sign, ln = ref(k, alpha, beta, xi)
                    assert np.sign(dv[i]) == sign, (p, xi)
                    err = abs(math.log(abs(dv[i])) + off[i] - ln)
                    assert err <= _pair_tolerance(p, cond[i], 1e-11), (p, xi, err, cond[i])


def test_derivative_parts_range_check_points_at_every_degree():
    for k in (0, 3):
        with pytest.raises(ValueError):
            eval_orthonormal_deriv_parts(Params(k, 1.0, 1.0), [0.5, 2.0])
    val, off = eval_orthonormal_deriv_parts(Params(0, 1.0, 1.0), [-1.0, 0.5, 1.0])
    assert np.all(val == 0.0) and np.all(off == 0.0)


def test_derivative_parts_call_the_kernel_only_for_orders_with_points(monkeypatch):
    calls = []
    recurrence = _kernels.recurrence

    def counting(x, b, a, ln_start, k):
        calls.append((len(x), k))
        return recurrence(x, b, a, ln_start, k)

    monkeypatch.setattr(_kernels, "recurrence", counting)
    p = Params(12, 1.5, 0.5)
    x = np.linspace(-0.9, 0.9, 5)
    eval_orthonormal_deriv_parts(p, x)
    assert calls == [(5, 11)]
    calls.clear()
    # an order without points still carries its prefactor into the next
    skipped = eval_derivatives_parts(p, [x, [], x])
    assert calls == [(5, 12), (5, 10)]
    full = eval_derivatives_parts(p, [x, x, x])
    for got, ref in zip(skipped[::2], full[::2]):
        assert got[0].tobytes() == ref[0].tobytes() and got[1].tobytes() == ref[1].tobytes()
    assert skipped[1][0].size == 0 and skipped[1][1].size == 0
    calls.clear()
    # at k = 0 the derivative is 0 and needs no kernel call at all
    val, off = eval_orthonormal_deriv_parts(Params(0, 1.0, 1.0), x)
    assert calls == [] and np.all(val == 0.0) and np.all(off == 0.0)


def test_value_and_deriv_pair_needs_interior_points():
    for x in ([1.0], [-1.0], [0.0, math.nan]):
        with pytest.raises(ValueError):
            eval_value_and_deriv_parts(Params(3, 1.0, 1.0), x)
    yv, dv, off, cond = eval_value_and_deriv_parts(Params(0, 2.0, 0.5), [0.3, -0.9])
    assert np.all(dv == 0.0) and np.all(cond == 1.0)


def test_ode_residuals_match_one_point_calls_bitwise():
    rng = np.random.default_rng(63)
    x = np.concatenate([[0.0, 1e-17, -1e-17, 1.0 - 1e-12], rng.uniform(-1.0, 1.0, 12)])
    for k, alpha, beta in _batch_invariance_cases() + [(0, 0.5, 0.5), (1, 2.0, 0.3)]:
        p = Params(k, alpha, beta)
        batched = ode_residuals(p, x)
        assert len(batched) == x.size
        for xi, r in zip(x.tolist(), batched):
            assert r.hex() == ode_residual(p, xi).hex(), (p, xi)
    with pytest.raises(ValueError):
        ode_residuals(Params(3, 1.0, 1.0), [0.0, 1.0])


def _scaled_ode_residual(p, x):
    # reference: the residual formed point by point in ScaledReal arithmetic
    s = p.alpha + p.beta
    y, yp = eval_orthonormal(p, x), eval_orthonormal_deriv(p, x)
    ypp = ScaledReal.zero()
    if p.k >= 2:
        chain = _deriv_ln_prefactor(p.k, p.alpha, p.beta) + _deriv_ln_prefactor(p.k - 1, p.alpha + 1.0, p.beta + 1.0)
        ypp = eval_orthonormal(Params(p.k - 2, p.alpha + 2.0, p.beta + 2.0), x) * ScaledReal(1, chain)
    t3 = y * (p.k * (p.k + s + 1.0))
    num = (ypp * (1.0 - x * x) + yp * (-((s + 2.0) * x + (p.alpha - p.beta)))) + t3
    den = t3.abs() + yp.abs() + ScaledReal(1, 0.0)
    return 0.0 if num.is_zero() else math.exp(num.ln_mag - den.ln_mag)


def test_ode_residuals_match_scaled_real_reference():
    # the array form scales each point by its largest term instead of adding
    # in log space, so the two differ only at rounding level; the residuals
    # themselves reach 1e-10 at k = 500, alpha = 1e5
    rng = np.random.default_rng(64)
    x = np.concatenate([[0.0, 1e-17], rng.uniform(-1.0, 1.0, 12), 1.0 - np.geomspace(1e-15, 1e-2, 4)])
    cases = [(0, 0.5, 0.5), (1, 2.0, 0.3), (2, 1.0, 1.0), (30, -0.5, 0.7), (40, -0.9, -0.9), (100, 1e3, 2.0)]
    cases += [(500, 1e5, 1e5), (77, 15184.16, 2.156), (300, 1e7, 1e7)]
    for k, alpha, beta in cases:
        p = Params(k, alpha, beta)
        for xi, r in zip(x.tolist(), ode_residuals(p, x)):
            assert abs(r - _scaled_ode_residual(p, xi)) <= 1e-12, (p, xi)


# The per-triple set-up as it was written before it moved to plain numbers
# and a norm memo; the tests below hold the package's set-up to these bits.
_LN2 = math.log(2.0)


def _ref_log_norm(k, alpha, beta):
    s = alpha + beta
    if k == 0:
        a, b = alpha + 1.0, beta + 1.0
        return (s + 1.0) * _LN2 + (log_gamma(a) + log_gamma(b) - log_gamma(a + b))
    return (
        (s + 1.0) * _LN2
        - math.log(2.0 * k + s + 1.0)
        + log_gamma(k + alpha + 1.0)
        + log_gamma(k + beta + 1.0)
        - log_gamma(k + s + 1.0)
        - log_gamma(k + 1.0)
    )


def _ref_coeffs(k, alpha, beta):
    s = alpha + beta
    b = np.zeros(max(k, 1))
    a = np.ones(max(k, 1))
    if k > 0:
        b[0] = (beta - alpha) / (s + 2.0)
        a[0] = math.sqrt(4.0 * (1.0 + alpha) * (1.0 + beta) / ((s + 2.0) ** 2 * (s + 3.0)))
        if k > 1:
            n = np.arange(1.0, k)
            t = 2.0 * n + s
            b[1:] = (beta - alpha) * (beta + alpha) / (t * (t + 2.0))
            a[1:] = (2.0 / (t + 2.0)) * np.sqrt(
                (n + 1.0) * (n + 1.0 + alpha) * (n + 1.0 + beta) * (n + 1.0 + s) / ((t + 1.0) * (t + 3.0))
            )
    return b, a, -0.5 * _ref_log_norm(0, alpha, beta)


def _ref_prefactor(k, alpha, beta):
    return math.log(0.5 * (k + alpha + beta + 1.0)) + 0.5 * (
        _ref_log_norm(k - 1, alpha + 1.0, beta + 1.0) - _ref_log_norm(k, alpha, beta)
    )


def _ref_ln_value_at_zero(k, alpha):
    half = k // 2
    ln_classical = log_gamma(k + alpha + 1.0) - k * _LN2 - log_gamma(half + 1.0) - log_gamma(half + alpha + 1.0)
    return ln_classical - 0.5 * _ref_log_norm(k, alpha, alpha)


# the order-2 prefactor reads the norm at (alpha + 1) + 1, the kernel family
# at alpha + 2; for this alpha the two differ in the last bit
_CHAIN_ALPHA = 0.4111419715388867


def _setup_triples(n, seed):
    rng = np.random.default_rng(seed)

    def exponent():
        return float(rng.uniform(-0.999, 1.0)) if rng.random() < 0.4 else float(10.0 ** rng.uniform(0.0, 9.0))

    out = [(k, _CHAIN_ALPHA, _CHAIN_ALPHA) for k in (0, 1, 2, 3, 8, 41)] + [(5, _CHAIN_ALPHA, 2.5), (600, 1e9, 1e9)]
    for _ in range(n):
        k, alpha = int(rng.integers(0, 601)), exponent()
        out.append((k, alpha, alpha if rng.random() < 0.5 else exponent()))
    return out


def test_setup_keeps_the_bits_of_its_formulas():
    # coefficients, ln P_0, norms, derivative prefactors and value_at_zero_even's
    # norm against the formulas above, on k 0-600 and exponents -0.999 to 1e9
    assert (_CHAIN_ALPHA + 1.0) + 1.0 != _CHAIN_ALPHA + 2.0
    for k, alpha, beta in _setup_triples(2000, 23):
        got, want = _recurrence_coeffs(k, alpha, beta), _ref_coeffs(k, alpha, beta)
        assert got[0].tobytes() == want[0].tobytes() and got[1].tobytes() == want[1].tobytes(), (k, alpha, beta)
        assert got[2].hex() == want[2].hex(), (k, alpha, beta)
        assert log_norm(Params(k, alpha, beta)).hex() == _ref_log_norm(k, alpha, beta).hex(), (k, alpha, beta)
        if k:
            assert _deriv_ln_prefactor(k, alpha, beta).hex() == _ref_prefactor(k, alpha, beta).hex(), (k, alpha, beta)
        if k % 2 == 0:
            assert value_at_zero_even(k, alpha).ln_mag.hex() == _ref_ln_value_at_zero(k, alpha).hex(), (k, alpha)


def test_derivative_chain_keeps_its_own_floats():
    # order j is the kernel on family (k - j, alpha + j, beta + j) plus the
    # prefactor chain p, (k - 1, alpha + 1.0, beta + 1.0); the chain's second
    # step reads its norm at (alpha + 1.0) + 1.0, not at alpha + 2
    x = np.linspace(-0.95, 0.95, 7)
    for k, alpha, beta in [(2, _CHAIN_ALPHA, _CHAIN_ALPHA), (9, _CHAIN_ALPHA, _CHAIN_ALPHA), (30, _CHAIN_ALPHA, 3.75)]:
        got = eval_derivatives_parts(Params(k, alpha, beta), [x, x, x])
        ln_c = 0.0
        for j in range(3):
            if j:
                ln_c += _ref_prefactor(k - j + 1, alpha + (j - 1), beta + (j - 1))
            val, _, off = _kernels.recurrence(x, *_ref_coeffs(k - j, alpha + j, beta + j), k - j)
            assert got[j][0].tobytes() == val.tobytes(), (k, alpha, beta, j)
            assert got[j][1].tobytes() == (off + ln_c if j else off).tobytes(), (k, alpha, beta, j)


def test_public_evaluators_reject_nan_inf_and_points_outside_their_range():
    p = Params(5, 1.5, 0.5)
    nan, inf = math.nan, math.inf
    above, below = np.nextafter(1.0, 2.0), np.nextafter(-1.0, -2.0)
    inside_hi, inside_lo = np.nextafter(1.0, 0.0), np.nextafter(-1.0, 0.0)
    # evaluators on [-1, 1], then those on (-1, 1)
    closed = [
        lambda x: eval_orthonormal_parts(p, x),
        lambda x: eval_derivatives_parts(p, [x])[0],
        lambda x: eval_derivatives_parts(p, [[], x])[1],
    ]
    interior = [
        lambda x: eval_value_and_deriv_parts(p, x),
        lambda x: (weighted_ln_parts(p, x, Window.full()),),
    ]
    for evaluators, bad, good in [
        (closed, [nan, inf, -inf, above, below], [-1.0, 0.0, 1.0]),
        (interior, [nan, inf, -inf, above, below, 1.0, -1.0], [inside_lo, 0.0, inside_hi]),
    ]:
        for f in evaluators:
            for b in bad:
                for x in ([b], [0.25, b, -0.5]):
                    with pytest.raises(ValueError):
                        f(x)
            assert all(part.size == len(good) for part in f(good))


def test_signed_zero_exponents_give_one_family_in_either_call_order():
    # the set-up memos key floats by value, so -0.0 and +0.0 would share an
    # entry whose bits (b holds -0.0 for the -0.0 family) depend on which
    # came first; Params stores alpha + 0.0 and beta + 0.0
    from jacobimax import jacobi

    x = [-0.0, 0.0, 0.3]
    runs = []
    for order in ((0.0, -0.0), (-0.0, 0.0)):
        for memo in (jacobi._recurrence_coeffs, jacobi._log_norm, jacobi._deriv_ln_prefactor):
            memo.cache_clear()
        got = {z: eval_orthonormal_parts(Params(5, z, z), x) for z in order}
        runs.append([part.tobytes() for z in (0.0, -0.0) for part in got[z]])
    assert runs[0] == runs[1]
    p = Params(5, -0.0, -0.0)
    assert not (math.copysign(1.0, p.alpha) < 0.0 or math.copysign(1.0, p.beta) < 0.0)

"""Signed log-magnitude arithmetic against plain float arithmetic."""

import math
import sys

import numpy as np
import pytest

from jacobimax.scaled import ScaledReal


def test_from_float_roundtrip():
    rng = np.random.default_rng(41)
    vals = np.concatenate([
        rng.uniform(-5.0, 5.0, size=100),
        rng.uniform(-1e-300, 1e-300, size=20),
        rng.uniform(-1e300, 1e300, size=20),
        np.array([0.0, 1.0, -1.0]),
    ])
    # exp(log(v)) carries relative error ~ |ln v| * eps, ~7e-14 near 1e-300
    for v in vals:
        v = float(v)
        np.testing.assert_allclose(ScaledReal.from_float(v).to_float(), v, rtol=2e-13, atol=0.0)


def test_zero_is_canonical():
    z = ScaledReal.zero()
    assert z.sign == 0
    assert z.is_zero()
    assert z.to_float() == 0.0
    assert ScaledReal.from_float(0.0).sign == 0


def test_from_parts_normalizes_significand():
    a = ScaledReal.from_parts(-123.456, 10.0)
    assert a.sign == -1
    np.testing.assert_allclose(a.to_float(), -123.456 * math.exp(10.0), rtol=1e-14)
    assert ScaledReal.from_parts(0.0, 50.0).is_zero()


def test_mul_div_match_float_arithmetic():
    rng = np.random.default_rng(42)
    xs = rng.uniform(-20.0, 20.0, size=300)
    ys = rng.uniform(-20.0, 20.0, size=300)
    ys[np.abs(ys) < 1e-3] = 1.0
    for x, y in zip(xs, ys):
        x, y = float(x), float(y)
        a, b = ScaledReal.from_float(x), ScaledReal.from_float(y)
        np.testing.assert_allclose((a * b).to_float(), x * y, rtol=1e-14, atol=1e-300)
        np.testing.assert_allclose((a / b).to_float(), x / y, rtol=1e-14, atol=1e-300)


def test_add_sub_match_float_arithmetic():
    rng = np.random.default_rng(43)
    xs = rng.uniform(-50.0, 50.0, size=400)
    ys = rng.uniform(-50.0, 50.0, size=400)
    for x, y in zip(xs, ys):
        x, y = float(x), float(y)
        a, b = ScaledReal.from_float(x), ScaledReal.from_float(y)
        np.testing.assert_allclose((a + b).to_float(), x + y, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose((a - b).to_float(), x - y, rtol=1e-12, atol=1e-12)


def test_add_scalar_and_neg_abs():
    a = ScaledReal.from_float(3.0)
    np.testing.assert_allclose((a + 2.0).to_float(), 5.0, rtol=1e-14)
    np.testing.assert_allclose((2.0 * a).to_float(), 6.0, rtol=1e-14)
    assert (-a).sign == -1
    assert (-a).abs().to_float() == pytest.approx(3.0, rel=1e-15)


def test_exact_cancellation_returns_true_zero():
    a = ScaledReal.from_parts(1.0, 500.0)
    b = -a
    assert (a + b).is_zero()
    # near-total cancellation within rounding residue also collapses to zero
    c = ScaledReal.from_parts(1.0, 500.0)
    d = ScaledReal.from_parts(-(1.0 + 1e-16), 500.0)
    assert (c + d).is_zero()


def test_far_out_of_range_magnitudes_survive():
    big = ScaledReal.from_parts(1.5, 5000.0)
    small = ScaledReal.from_parts(1.5, -5000.0)
    prod = big * small
    # ln offsets of +-5000 round at ~5000 * eps, so the product sees ~1e-12
    np.testing.assert_allclose(prod.to_float(), 2.25, rtol=1e-11)
    # dominated addition keeps the large term
    s = big + small
    assert s.ln_mag == pytest.approx(big.ln_mag, abs=1e-12)
    assert s.sign == 1


def test_to_float_overflow_raises():
    over = ScaledReal.from_parts(1.0, math.log(sys.float_info.max) + 10.0)
    with pytest.raises(OverflowError):
        over.to_float()


def test_underflow_to_float_is_zero():
    tiny = ScaledReal.from_parts(1.0, -800.0)
    assert tiny.to_float() == 0.0
    assert not tiny.is_zero()


def test_float_round_trip_through_mul_and_add():
    a = ScaledReal.from_float(7.0)
    b = ScaledReal.from_float(-2.0)
    assert (a * b).to_float() == pytest.approx(-14.0, rel=1e-14)
    assert (a + b).to_float() == pytest.approx(5.0, rel=1e-14)


def test_ordering_of_ln_mag_reflects_magnitude():
    a = ScaledReal.from_float(100.0)
    b = ScaledReal.from_float(-1000.0)
    assert b.abs().ln_mag > a.ln_mag

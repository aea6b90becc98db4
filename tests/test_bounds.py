"""Closed-form bounds: witnesses, hypothesis gates, orderings, gamma-ratio gap."""

import math

import numpy as np
import pytest

from jacobimax.bounds import (
    SHARP_RATIO,
    BoundId,
    HypothesisError,
    gamma_ratio_check,
    gamma_ratio_log,
    gamma_ratio_log_gap,
    pointwise_bound,
    rhs_bound,
    theorem1_ratio,
    v_factors,
)
from jacobimax.envelope import geometry
from jacobimax.jacobi import ALPHA_FLOOR, Params, Window, weighted_M


def test_bound_witness_values():
    np.testing.assert_allclose(rhs_bound("chow_eq1", Params(0, 0.0, 0.0)), 2.0 / math.pi, rtol=1e-13)
    np.testing.assert_allclose(
        rhs_bound("emn_eq2", Params(6, 1.0, 1.0)), 2.0 * math.e * (2.0 + math.sqrt(2.0)) / math.pi, rtol=1e-14
    )
    np.testing.assert_allclose(rhs_bound("krasikov_eq3", Params(6, 1.0, 1.0)), 23.194398295798106, rtol=1e-12)
    np.testing.assert_allclose(rhs_bound("thm1", Params(6, 1.0, 1.0)), 1.4657495119753277, rtol=1e-12)
    np.testing.assert_allclose(rhs_bound("lemma_glav", Params(6, 1.0, 1.0)), 1.3403959485419341, rtol=1e-12)
    np.testing.assert_allclose(
        rhs_bound("thm4", Params(2, 1.0, 1.0)), (2.0 / math.pi) * (1.0 + 1.0 / 72.0), rtol=1e-14
    )
    np.testing.assert_allclose(rhs_bound("odd_230", Params(7, 1.0, 1.0)), 230.0 / math.pi, rtol=1e-15)
    np.testing.assert_allclose(rhs_bound("odd_29", Params(7, 1.0, 1.0)), 29.0 / math.pi, rtol=1e-15)


def test_rhs_bound_accepts_enum_and_string():
    p = Params(6, 1.0, 1.0)
    assert rhs_bound(BoundId.THM1, p) == rhs_bound("thm1", p)
    with pytest.raises(ValueError):
        rhs_bound("not_a_bound", p)


@pytest.mark.parametrize(
    "bid, p",
    [
        ("chow_eq1", Params(6, 1.0, 1.0)),
        ("chow_eq1", Params(6, 0.3, 0.4)),
        ("krasikov_eq3", Params(5, 1.0, 1.0)),
        ("krasikov_eq3", Params(6, 0.3, 0.3)),
        ("thm1", Params(5, 1.0, 1.0)),
        ("thm1", Params(6, 0.4, 0.4)),
        ("thm1", Params(6, 1.0, 0.5)),
        ("thm4", Params(2, 0.3, 0.3)),
        ("lemma_glav", Params(2, 1.0, 1.0)),
        ("lemma_glav", Params(7, 0.5, 0.5)),
        ("odd_230", Params(6, 1.0, 1.0)),
        ("odd_230", Params(3, 0.5, 0.5)),
        ("odd_29", Params(5, 1.0, 1.0)),
        ("odd_29", Params(7, 0.55, 0.55)),
    ],
)
def test_hypothesis_gates_raise_with_context(bid, p):
    with pytest.raises(HypothesisError) as exc:
        rhs_bound(bid, p)
    msg = str(exc.value)
    assert bid in msg
    assert f"k={p.k}" in msg


def test_bound_ordering_at_large_alpha():
    # at fixed large degree the four maximum bounds are strictly nested
    for alpha in [1e3, 1e4]:
        p = Params(1000, alpha, alpha)
        glav = rhs_bound("lemma_glav", p)
        thm1 = rhs_bound("thm1", p)
        kras = rhs_bound("krasikov_eq3", p)
        emn = rhs_bound("emn_eq2", p)
        assert glav < thm1 < kras < emn


def test_sharp_ratio_closed_form():
    np.testing.assert_allclose(SHARP_RATIO, (4.0 * math.sqrt(2.0) - 2.0) ** (1.0 / 3.0), rtol=1e-15)


def test_theorem1_ratio_witness_and_cap():
    np.testing.assert_allclose(theorem1_ratio(1000, ALPHA_FLOOR), 1.5404902886718403, rtol=1e-12)
    for k in range(1, 60, 3):
        for alpha in np.geomspace(ALPHA_FLOOR, 1e4, 25):
            assert theorem1_ratio(k, float(alpha)) <= SHARP_RATIO


def test_theorem1_ratio_peaks_at_alpha_floor():
    for k in [6, 20, 100]:
        assert theorem1_ratio(k, ALPHA_FLOOR) > theorem1_ratio(k, 1.0) > theorem1_ratio(k, 10.0)


def test_theorem1_ratio_domain():
    with pytest.raises(ValueError):
        theorem1_ratio(0, 1.0)
    with pytest.raises(ValueError):
        theorem1_ratio(5, 0.0)


def test_v_factor_witnesses():
    np.testing.assert_allclose(v_factors(3, 0.5)[1], 114.92549474937893, rtol=1e-12)
    np.testing.assert_allclose(v_factors(7, ALPHA_FLOOR)[1], 14.41681797580402, rtol=1e-12)
    assert v_factors(3, 0.5)[1] < 115.0
    assert v_factors(7, ALPHA_FLOOR)[1] < 14.5


def test_v_factor_guards():
    with pytest.raises(HypothesisError):
        v_factors(4, 1.0)
    with pytest.raises(HypothesisError):
        v_factors(1, 1.0)
    with pytest.raises(HypothesisError):
        v_factors(3, 0.4)


def test_v_factor_ordering_and_decrease():
    for alpha in [0.5, 1.0, 7.0, 50.0]:
        seq = []
        for k in range(3, 43, 2):
            v, v1 = v_factors(k, alpha)
            assert v1 >= v > 0.0
            seq.append(v1)
        assert all(a > b for a, b in zip(seq, seq[1:])), alpha


def _epsilon(k: int, alpha: float) -> float:
    # the correction in the envelope-peak expansion, eta_sym = cos(tau) (1 - epsilon)
    g = geometry(Params(k, alpha, alpha))
    return 1.0 - g.eta_sym / math.cos(g.tau)


def test_epsilon_stays_below_cap():
    # the paper's epsilon < 1/31 on k >= 6, alpha >= ALPHA_FLOOR, read from geometry's eta_sym
    np.testing.assert_allclose(_epsilon(6, ALPHA_FLOOR), 0.0038284991937153675, rtol=1e-10)
    worst = max(
        _epsilon(k, float(a))
        for k in range(6, 200, 7)
        for a in np.geomspace(ALPHA_FLOOR, 1e4, 25)
    )
    assert worst < 1.0 / 31.0


def test_gamma_ratio_witness():
    lhs, rhs = gamma_ratio_check(2.0)
    np.testing.assert_allclose(lhs, 2.0, rtol=1e-14)
    np.testing.assert_allclose(rhs, 2.018506017616128, rtol=1e-12)
    assert lhs < rhs


def test_gamma_ratio_check_overflows_for_large_argument():
    with pytest.raises(OverflowError):
        gamma_ratio_check(2000.0)


def test_gamma_ratio_log_domain():
    with pytest.raises(ValueError):
        gamma_ratio_log(-1.0)


def test_gamma_ratio_gap_positive_and_decreasing():
    xs = [0.0, *np.geomspace(1e-2, 1e8, 200)]
    gaps = [gamma_ratio_log_gap(float(x)) for x in xs]
    assert all(g > 0.0 for g in gaps)
    assert all(a > b for a, b in zip(gaps, gaps[1:]))


def test_gamma_ratio_gap_series_matches_direct():
    # the series branch takes over above 256; direct subtraction noise grows
    # like x^3 * eps / gap, so the handoff is only checkable up to x ~ 700
    for x in np.geomspace(260.0, 700.0, 12):
        ln_lhs, ln_rhs = gamma_ratio_log(float(x))
        direct = ln_rhs - ln_lhs
        series = gamma_ratio_log_gap(float(x))
        np.testing.assert_allclose(series, direct, rtol=5e-6)


def test_gamma_ratio_gap_asymptote():
    # gap ~ 1/(16 x^2) far out; double precision could never see this directly
    for x in [1e6, 1e8]:
        gap = gamma_ratio_log_gap(x)
        np.testing.assert_allclose(gap * 16.0 * x * x, 1.0, rtol=1e-5)


def test_pointwise_witness_values():
    np.testing.assert_allclose(pointwise_bound(Params(1, 0.0, 0.0), 0.0), 1.2978839691483977, rtol=1e-12)
    np.testing.assert_allclose(pointwise_bound(Params(2, 1.0, 1.0), 0.0), 1.622354961435497, rtol=1e-12)


def test_pointwise_guards():
    with pytest.raises(ValueError):
        pointwise_bound(Params(1, 0.0, 0.0), 1.0)
    with pytest.raises(HypothesisError):
        pointwise_bound(Params(1, 10.0, 10.0), 0.9999)


def test_pointwise_known_failure_regime_is_reported_not_hidden():
    # the ceiling saturates in alpha while the weighted square at the origin
    # keeps growing, so far above the degree the inequality genuinely fails;
    # this pins the documented behavior rather than masking it
    p = Params(2, 1000.0, 1000.0)
    actual = weighted_M(p, 0.0, Window.full()).value
    assert actual > pointwise_bound(p, 0.0)


def test_thm4_bound_for_odd_degree_is_230_over_pi():
    assert rhs_bound("thm4", Params(7, 1.0, 1.0)) == 230.0 / math.pi

"""Envelope coefficients, containment geometry, and exact identity rows."""

import json
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jacobimax.envelope import (
    IdentityCheck,
    OutsideOscillationRegionError,
    b_prime_full,
    b_prime_window,
    coeffs_full,
    coeffs_window,
    delta_squared,
    delta_window,
    geometry,
    identity_checks,
    sonin_S,
    sonin_point,
    turning_point,
)
from jacobimax.extrema import scan_extrema
from jacobimax.jacobi import Params, Window, weighted_M


def test_geometry_witness_values():
    g = geometry(Params(6, 1.0, 1.0))
    assert g.r == 15.0
    np.testing.assert_allclose(g.sin_tau, 0.2, rtol=1e-15)
    assert g.sin_omega == 0.0 and g.omega == 0.0
    np.testing.assert_allclose(g.eta_sym, 0.9746735457791967, rtol=1e-14)
    np.testing.assert_allclose(g.eta_minus, -0.9746735457791967, rtol=1e-14)
    np.testing.assert_allclose(g.eta_plus, 0.9751857809126042, rtol=1e-14)
    np.testing.assert_allclose(g.delta, 0.9931894780788386, rtol=1e-14)
    assert g.x0 == 0.0


def test_geometry_asymmetric_center_and_zero():
    np.testing.assert_allclose(geometry(Params(5, 1.0, 0.6)).x0, -0.446162086478433, rtol=1e-12)
    np.testing.assert_allclose(geometry(Params(3, 1.0, 1.0)).xi0, math.sqrt(7.0 / 11.0), rtol=1e-14)


def test_geometry_sin_tau_closed_form():
    np.testing.assert_allclose(geometry(Params(2, 1.0, 1.0)).sin_tau, 3.0 / 7.0, rtol=1e-15)


def test_delta_squared_values_and_guards():
    # (2k+1)(2k+4a+1) - 3 over (2k+2a-1)(2k+2a+3) at k=2, a=1
    np.testing.assert_allclose(delta_squared(2, 1.0), 42.0 / 45.0, rtol=1e-15)
    assert delta_squared(2, 0.5) == 1.0
    with pytest.raises(ValueError):
        delta_squared(2, 0.3)
    assert delta_window(Params(2, 1.0, 1.0)) == Window.symmetric(math.sqrt(delta_squared(2, 1.0)))
    for p in (Params(2, 1.0, 0.5), Params(2, 0.3, 0.3)):
        with pytest.raises(ValueError, match="alpha = beta >= 1/2"):
            delta_window(p)


def test_turning_point_matches_geometry_and_clamps():
    exponents = (-0.9, -0.5, 0.0, 0.3, 1.0, 5.0)
    for k in range(9):
        for a in exponents:
            for b in exponents:
                p = Params(k, a, b)
                if 2 * k + a + b + 1.0 <= 0.0:
                    assert turning_point(p) == 1.0
                    continue
                g = geometry(p)
                if g.sin_tau < 0.0:
                    assert turning_point(p) == 1.0
                elif g.omega is not None:
                    assert turning_point(p) == math.cos(max(g.tau - abs(g.omega), 0.0)), p


def test_delta_squared_stable_for_huge_alpha():
    k, alpha = 50, 1e8
    got = delta_squared(k, alpha)
    kf, af = Fraction(k), Fraction(alpha)
    num = (2 * kf + 1) * (2 * kf + 4 * af + 1) - 3
    den = (2 * kf + 2 * af - 1) * (2 * kf + 2 * af + 3)
    np.testing.assert_allclose(got, float(num / den), rtol=1e-15)
    assert 0.0 < got < 1.0


def test_coefficient_witness_values():
    np.testing.assert_allclose(coeffs_full(Params(2, 1.0, 1.0), 0.0).B, 11.5, rtol=1e-15)
    np.testing.assert_allclose(coeffs_full(Params(5, 2.0, 1.0), 0.3).D, 5.97, rtol=1e-13)
    d = math.sqrt(delta_squared(2, 1.0))
    cw = coeffs_window(2, 1.0, d, 0.0)
    np.testing.assert_allclose(cw.B, 323.0 / 28.0, rtol=1e-13)
    np.testing.assert_allclose(cw.D, -2478.0 / 3375.0, rtol=1e-13)


def test_full_window_defining_relation():
    # D(x) = 2 (1 - x^2)^3 (4 A B - B')
    for p in [Params(5, 2.0, 1.0), Params(12, 0.7, 0.3), Params(8, 1.0, 1.0)]:
        for x in np.linspace(-0.9, 0.9, 37):
            c = coeffs_full(p, float(x))
            rhs = 2.0 * (1.0 - x * x) ** 3 * (4.0 * c.A * c.B - b_prime_full(p, float(x)))
            np.testing.assert_allclose(c.D, rhs, rtol=1e-12, atol=1e-12)


def test_window_defining_relation():
    # D(x) = 2 (d^2 - x^2)^3 (1 - x^2)^2 (4 A B - B') / x away from the origin
    for k, alpha in [(6, 1.5), (11, 0.7), (20, 3.0)]:
        d = math.sqrt(delta_squared(k, alpha))
        for x in np.linspace(-0.9, 0.9, 36):
            if abs(x) < 1e-3:
                continue
            c = coeffs_window(k, alpha, d, float(x))
            bp = b_prime_window(k, alpha, d, float(x))
            rhs = (2.0 * (d * d - x * x) ** 3 * (1.0 - x * x) ** 2 / x) * (4.0 * c.A * c.B - bp)
            np.testing.assert_allclose(c.D, rhs, rtol=1e-11, atol=1e-11)


def test_b_prime_matches_finite_difference():
    h = 1e-6
    p = Params(7, 1.3, 0.8)
    for x in np.linspace(-0.8, 0.8, 17):
        fd = (coeffs_full(p, float(x) + h).B - coeffs_full(p, float(x) - h).B) / (2 * h)
        np.testing.assert_allclose(b_prime_full(p, float(x)), fd, rtol=1e-5, atol=1e-5)
    k, alpha = 9, 2.0
    d = math.sqrt(delta_squared(k, alpha))
    for x in np.linspace(-0.8, 0.8, 17):
        fd = (coeffs_window(k, alpha, d, float(x) + h).B - coeffs_window(k, alpha, d, float(x) - h).B) / (2 * h)
        np.testing.assert_allclose(b_prime_window(k, alpha, d, float(x)), fd, rtol=1e-5, atol=1e-4)


def test_identity_rows_all_pass_on_grid():
    for k in [1, 2, 5, 17, 60]:
        for alpha in [0.51, 0.7, 1.0, 4.0, 250.0]:
            rows = identity_checks(k, alpha)
            assert rows and all(r.ok for r in rows), [
                (r.name, r.computed, r.closed_form) for r in rows if not r.ok
            ]


def test_identity_rows_exact_spot_values():
    rows = {r.name: r for r in identity_checks(2, 1.0)}
    np.testing.assert_allclose(rows["b1_at_delta"].computed, 70.0 / 3375.0, rtol=1e-15)
    assert rows["d_scaled_at_delta"].computed == -630.0
    assert rows["d_scaled_quadratic_at_zero"].computed == -7434.0
    assert rows["d_scaled_quadratic_at_quarter_delta2"].computed == -5733.0
    assert rows["a0_at_delta_scaled"].rel_err == 0.0
    assert rows["a0_at_delta_negative"].computed < 0.0
    assert rows["b1_at_delta_positive"].computed > 0.0
    assert rows["b1_at_one_negative"].computed < 0.0
    assert rows["d_quartic_at_delta_negative"].computed < 0.0


def test_identity_r4_variant_is_rejected():
    # replacing the r^2-4 factor by r^4 breaks the closed form; the row
    # asserts the disagreement so a silent "fix" in either place trips it
    rows = {r.name: r for r in identity_checks(2, 1.0)}
    row = rows["d_scaled_quadratic_at_zero_r4_variant_disagrees"]
    assert row.ok
    assert row.computed != row.closed_form


def test_identity_checks_domain_guards():
    with pytest.raises(ValueError):
        identity_checks(0, 1.0)
    with pytest.raises(ValueError):
        identity_checks(2, 0.5)


def _float_or_inf(q):
    # a Fraction as a float, or +-inf where it overflows, as identity_checks reports it
    try:
        return float(q)
    except OverflowError:
        return math.inf if q > 0 else -math.inf


def _fraction_identity_checks(k, alpha, tol=1e-9):
    # reference: the same table in reduced Fraction arithmetic
    if k < 1:
        raise ValueError("identity checks need k >= 1")
    a = Fraction(alpha)
    if not a > Fraction(1, 2):
        raise ValueError("identity checks need alpha > 1/2")
    r2 = (2 * k + 2 * a + 1) ** 2
    a2 = 4 * a * a
    d2 = (r2 - a2 - 3) / (r2 - 4)
    scale = (r2 - 4) ** 3 / (3 * (a2 - 1))

    def b1(X):
        return (
            -r2 * X**3
            + ((1 + 2 * d2) * r2 + 4 * d2 - a2 - 3) * X * X
            - ((d2 * d2 + 2 * d2) * r2 - d2 * d2 - 2 * a2 * d2 + 6 * d2 - 3) * X
            + (d2 * r2 - a2 * d2 - d2 + 2) * d2
        )

    def d_quartic(X):
        return (
            (a2 - (1 - d2) * r2) * (d2 - X) ** 2
            + (3 - 4 * d2) * X * X
            - 2 * (5 * d2 * d2 - 9 * d2 + 3) * X
            - d2**3
            + 9 * d2 * d2
            - 9 * d2
        )

    def scaled_quadratic(X):
        return 2 * (r2 - 4) * (2 * r2 - 3 * a2 - 5) * X - (r2 - a2 - 3) * (4 * r2 - a2 - 15)

    rows = []

    def against(name, computed, closed, expect_match=True):
        if computed == closed:
            rel = 0.0
        else:
            rel = float(abs(computed - closed) / max(abs(computed), abs(closed)))
        ok = rel <= tol if expect_match else rel > tol
        rows.append(IdentityCheck(name, _float_or_inf(computed), _float_or_inf(closed), rel, ok))

    def sign_row(name, value, want_positive):
        ok = value > 0 if want_positive else value < 0
        rows.append(IdentityCheck(name, _float_or_inf(value), None, None, bool(ok)))

    against("b1_at_delta", b1(d2), 5 * (1 - d2) ** 2 * d2)
    against("b1_at_one", b1(Fraction(1)), -a2 * (1 - d2) ** 2)
    against("d_scaled_at_delta", d_quartic(d2) * scale, -5 * (a2 - 1) * (r2 - a2 - 3))
    against("d_scaled_quadratic_at_zero", d_quartic(Fraction(0)) * scale, scaled_quadratic(Fraction(0)))
    against("d_scaled_quadratic_at_quarter_delta2", d_quartic(d2 / 4) * scale, scaled_quadratic(d2 / 4))
    against(
        "d_scaled_quadratic_at_zero_r4_variant_disagrees",
        d_quartic(Fraction(0)) * scale,
        -(r2 - a2 - 3) * (4 * r2 * r2 - a2 - 15),
        expect_match=False,
    )
    sign_row("b1_at_delta_positive", b1(d2), True)
    sign_row("b1_at_one_negative", b1(Fraction(1)), False)
    sign_row("d_quartic_at_delta_negative", d_quartic(d2), False)
    a0_delta = 4 * k * (k + 2 * a + 1) - (r2 + 4 * a + 2) * d2
    against("a0_at_delta_scaled", a0_delta * (r2 - 4), 2 * (2 * a + 1) * (a2 + 4 * a + 5 - 2 * r2))
    sign_row("a0_at_delta_negative", a0_delta, False)
    return rows


def test_identity_checks_match_fraction_reference_bitwise():
    ref = json.loads((Path(__file__).parents[1] / "perfbench" / "reference" / "scalar-checks.json").read_text())
    cases = [(item["k"], item["alpha"]) for stratum in ref["pool"] for item in stratum]
    assert len(cases) == 320
    rng = random.Random(20240611)
    for _ in range(300):
        cases.append((rng.randint(1, 500), max(10.0 ** rng.uniform(-0.3, 7.0), 0.500001)))
    edge_alphas = [0.5 + 1e-10, 1.0, 2.0, 7.0, 1e6, 3, np.float64(0.75), np.float64(1234.5678), np.float64(1e7)]
    cases += [(k, a) for k in (1, 2, 9, 500) for a in edge_alphas]
    for k, alpha in cases:
        assert repr(identity_checks(k, alpha)) == repr(_fraction_identity_checks(k, alpha)), (k, alpha)


# alpha just above 1/2 on the 2^-52 lattice, and any float up to 1e300; both
# reach denominators of 2^52 and more, beyond the seeded cases above
_ALPHAS = st.one_of(
    st.integers(1, 2**52).map(lambda j: 0.5 + j * 2.0**-52),
    st.floats(min_value=0.5, max_value=1e300, exclude_min=True),
)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 10**6), _ALPHAS)
def test_identity_checks_match_fraction_reference_on_drawn_inputs(k, alpha):
    assert repr(identity_checks(k, alpha)) == repr(_fraction_identity_checks(k, alpha))


@pytest.mark.parametrize("alpha", [1e300, math.inf, math.nan])
def test_identity_checks_raise_like_fraction_reference(alpha):
    if math.isfinite(alpha):
        # only the reported floats overflow, and read +-inf; rel_err and ok stay exact
        rows = identity_checks(3, alpha)
        assert repr(rows) == repr(_fraction_identity_checks(3, alpha))
        assert all(r.ok for r in rows)
        assert {r.name: r for r in rows}["d_scaled_at_delta"].computed == -math.inf
        return
    # the same exception class keeps these rows numeric_failure in verify
    with pytest.raises(Exception) as want:
        _fraction_identity_checks(3, alpha)
    with pytest.raises(want.type):
        identity_checks(3, alpha)


def test_identity_checks_construct_no_fraction(monkeypatch):
    built = []
    real_new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return real_new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    rows = identity_checks(17, 3.25)
    monkeypatch.undo()
    assert built == []
    assert len(rows) == 11 and all(r.ok for r in rows)


def test_envelope_dominates_weighted_square():
    q = Params(6, 1.0, 0.5)
    w = Window.full()
    for x in np.linspace(-0.99, 0.99, 199):
        S = sonin_S(q, float(x), w)
        M = weighted_M(q, float(x), w).value
        assert S >= M - 1e-12


def test_envelope_touches_at_interior_maxima():
    for p in [Params(6, 1.0, 0.5), Params(9, 2.0, 2.0)]:
        w = Window.full()
        maxima = [r for r in scan_extrema(p, w) if r.kind == "max"]
        assert maxima
        for r in maxima:
            np.testing.assert_allclose(sonin_S(p, r.x, w), r.M, rtol=1e-10)


def test_sonin_point_fields_consistent():
    p = Params(6, 1.0, 1.0)
    pt = sonin_point(p, 0.2, Window.full())
    assert pt.x == 0.2
    assert pt.B > 0.0
    np.testing.assert_allclose(pt.S, math.exp(pt.ln_S), rtol=1e-13)


def test_outside_oscillation_region_raises():
    with pytest.raises(OutsideOscillationRegionError):
        sonin_S(Params(6, 1.0, 1.0), 0.999999, Window.full())


def test_window_shape_guards():
    p = Params(6, 1.0, 1.0)
    with pytest.raises(ValueError):
        sonin_point(p, 0.0, Window(-0.3, 0.5))
    with pytest.raises(ValueError):
        sonin_point(Params(6, 1.0, 0.5), 0.0, Window.symmetric(0.5))


def test_delta_squared_raises_where_its_denominator_overflows():
    # from alpha ~ 6.7e153 on the quotient would read 0, a window of width 0
    with pytest.raises(OverflowError):
        delta_squared(3, 1e300)
    with pytest.raises(OverflowError):
        delta_window(Params(3, 1e300, 1e300))

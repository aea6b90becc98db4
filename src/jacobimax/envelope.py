"""Second-order envelopes of the weighted square and closed-form geometry.

If f solves f'' - 2 A f' + B f = 0 with B > 0, the comparison function
S = f^2 + f'^2 / B equals f^2 at every critical point of f and is monotone
wherever 4 A B - B' keeps one sign.  Substituting f = u y, with y the
orthonormal polynomial and u the window factor

    u(x) = ((x - d_m) (d_M - x))^(1/4) (1-x)^(alpha/2) (1+x)^(beta/2),

which jacobi owns (_ln_window_factor, _dln_window_factor), gives f^2 = M
and closed-form A, B whose combination

    D = c(x) (4 A B - B')    with c > 0 on the relevant range

is a low-degree polynomial.  The sign of D therefore orders the heights of
consecutive maxima of M directly.
"""

import math
from dataclasses import dataclass, replace
from typing import Optional

from .jacobi import Params, Window, _dln_window_factor, _exp_saturating, _ln_window_factor
from .jacobi import eval_orthonormal, eval_orthonormal_deriv
from .scaled import ScaledReal

__all__ = [
    "OutsideOscillationRegionError",
    "SoninPoint",
    "Geometry",
    "IdentityCheck",
    "geometry",
    "delta_squared",
    "delta_window",
    "turning_point",
    "coeffs_full",
    "coeffs_window",
    "b_prime_full",
    "b_prime_window",
    "sonin_point",
    "sonin_S",
    "identity_checks",
    "IDENTITY_REL",
]

# relative error within which identity_checks counts a value as matching its closed form
IDENTITY_REL = 1e-9


class OutsideOscillationRegionError(ValueError):
    """Raised when the envelope is requested where B(x) <= 0."""


@dataclass(frozen=True)
class SoninPoint:
    """Envelope data at one point: coefficients A, B, sign polynomial D, and S."""

    x: float
    A: float
    B: float
    D: float
    S: Optional[float] = None
    ln_S: Optional[float] = None


@dataclass(frozen=True)
class Geometry:
    """Closed-form landmarks attached to one parameter triple.

    Fields are None when the defining expression leaves its domain: the
    oscillation-band edges eta_minus/eta_plus need both defining angles to
    exist, delta and xi0 need equal exponents alpha = beta >= 1/2, and x0
    needs alpha >= beta > 1/2.
    """

    r: float
    sin_tau: float
    tau: float
    sin_omega: Optional[float]
    omega: Optional[float]
    eta_minus: Optional[float]
    eta_plus: Optional[float]
    eta_sym: Optional[float]
    delta: Optional[float]
    x0: Optional[float]
    xi0: Optional[float]


def delta_squared(k: int, alpha: float) -> float:
    """Square of the symmetric containment radius for alpha = beta >= 1/2.

    Raises OverflowError where its denominator overflows, from alpha ~ 6.7e153 on.
    """
    if alpha < 0.5:
        raise ValueError("containment radius needs alpha >= 1/2")
    if alpha == 0.5:
        return 1.0
    # (r^2 - 4 alpha^2 - 3) / (r^2 - 4) with r = 2k + 2 alpha + 1, in
    # difference-of-squares form to survive alpha >> k
    num = (2.0 * k + 1.0) * (2.0 * k + 4.0 * alpha + 1.0) - 3.0
    den = (2.0 * k + 2.0 * alpha - 1.0) * (2.0 * k + 2.0 * alpha + 3.0)
    if not math.isfinite(den):
        raise OverflowError(f"containment radius overflows for k={k}, alpha={alpha}")
    return num / den


def delta_window(p: Params) -> Window:
    """The symmetric window (-delta, delta), defined for alpha = beta >= 1/2."""
    if not (p.is_ultraspherical and p.alpha >= 0.5):
        raise ValueError("delta window needs alpha = beta >= 1/2")
    return Window.symmetric(math.sqrt(delta_squared(p.k, p.alpha)))


def _xi0_squared(k: int, alpha: float) -> float:
    # xi0^2, the landmark of the odd-degree reduction; its denominator is at
    # least 2 for k >= 0, alpha >= 1/2
    return 21.0 / (2.0 * k * k + 4.0 * alpha * k + 2.0 * alpha + 1.0)


def turning_point(p: Params) -> float:
    """cos(max(tau - |omega|, 0)), the outer edge of the oscillation band.

    sin(tau) and sin(omega) are clamped into the ranges of asin, so the
    result is defined for every triple; with s = 2k + alpha + beta + 1 <= 0
    there is no band and the whole interval, 1.0, is returned.
    """
    s = 2.0 * p.k + p.alpha + p.beta + 1.0
    if s <= 0.0:
        return 1.0
    sin_tau = min(max((p.alpha + p.beta + 1.0) / s, 0.0), 1.0)
    sin_om = min(max((p.alpha - p.beta) / s, -1.0), 1.0)
    return math.cos(max(math.asin(sin_tau) - abs(math.asin(sin_om)), 0.0))


def geometry(p: Params) -> Geometry:
    s = 2.0 * p.k + p.alpha + p.beta + 1.0
    sin_tau = (p.alpha + p.beta + 1.0) / s
    tau = math.asin(sin_tau) if -1.0 <= sin_tau <= 1.0 else math.nan
    raw_sin_omega = (p.alpha - p.beta) / s
    sin_omega = raw_sin_omega if abs(raw_sin_omega) <= 1.0 else None
    omega = math.asin(sin_omega) if sin_omega is not None else None

    eta_minus = eta_plus = None
    if omega is not None and 0.0 <= sin_tau < 1.0:
        c = math.cos(tau)
        cw = math.cos(omega)
        if c > 0.0 and cw > 0.0:
            etas = []
            for j, theta_j in ((-1.0, 1.0 / 3.0), (1.0, 0.3)):
                arg = tau + j * omega
                sj = math.sin(arg)
                if sj < 0.0:
                    etas = None
                    break
                etas.append(j * (math.cos(arg) - theta_j * (sj**4 / (2.0 * c * cw)) ** (1.0 / 3.0) * s ** (-2.0 / 3.0)))
            if etas is not None:
                eta_minus, eta_plus = etas

    eta_sym = None
    if p.is_ultraspherical and 0.0 <= sin_tau < 1.0:
        c = math.cos(tau)
        tan_tau = sin_tau / c
        eta_sym = c * (1.0 - (2.0 ** (-1.0 / 3.0) / 3.0) * s ** (-2.0 / 3.0) * tan_tau ** (4.0 / 3.0))

    delta = None
    xi0 = None
    if p.is_ultraspherical and p.alpha >= 0.5:
        delta = math.sqrt(delta_squared(p.k, p.alpha))
        xi0 = math.sqrt(_xi0_squared(p.k, p.alpha))

    x0 = None
    if p.beta > 0.5 and p.alpha >= p.beta:
        sa = math.sqrt((2.0 * p.alpha - 1.0) * (2.0 * p.alpha + 1.0))
        sb = math.sqrt((2.0 * p.beta - 1.0) * (2.0 * p.beta + 1.0))
        x0 = (sb - sa) / (sb + sa)

    return Geometry(
        r=s,
        sin_tau=sin_tau,
        tau=tau,
        sin_omega=sin_omega,
        omega=omega,
        eta_minus=eta_minus,
        eta_plus=eta_plus,
        eta_sym=eta_sym,
        delta=delta,
        x0=x0,
        xi0=xi0,
    )


def _full_terms(p: Params, x: float):
    # (a^2, b^2, s, 1 - x^2, N) of the full window, B = N / (4 (1 - x^2)^2)
    a2 = p.alpha * p.alpha
    b2 = p.beta * p.beta
    s = 2.0 * p.k + p.alpha + p.beta + 1.0
    one_m = 1.0 - x * x
    N = s * s * one_m - 2.0 * (1.0 + x) * a2 - 2.0 * (1.0 - x) * b2 + 1.0
    return a2, b2, s, one_m, N


def coeffs_full(p: Params, x: float) -> SoninPoint:
    """Envelope coefficients for the full window (-1, 1).

    D here satisfies D = 2 (1-x^2)^3 (4 A B - B'), so sign(D) = sign(S').
    """
    x = float(x)
    if not -1.0 < x < 1.0:
        raise ValueError("full-window coefficients need -1 < x < 1")
    a2, b2, _, one_m, N = _full_terms(p, x)
    A = x / (2.0 * one_m)
    B = N / (4.0 * one_m * one_m)
    D = (a2 - b2) * (x * x + 1.0) + (2.0 * a2 + 2.0 * b2 - 1.0) * x
    return SoninPoint(x=x, A=A, B=B, D=D)


def b_prime_full(p: Params, x: float) -> float:
    a2, b2, s, one_m, N = _full_terms(p, x)
    Np = -2.0 * s * s * x - 2.0 * a2 + 2.0 * b2
    return (Np * one_m + 4.0 * x * N) / (4.0 * one_m**3)


def _window_terms(k: int, alpha: float, d: float, x: float):
    # (a^2, r^2, d^2, x^2, 1 - x^2, d^2 - x^2, Na, Nb) of the window (-d, d),
    # B = Na / (4 (1 - x^2)^2) + Nb / (4 (1 - x^2) (d^2 - x^2)^2)
    a2 = alpha * alpha
    r = 2.0 * k + 2.0 * alpha + 1.0
    r2 = r * r
    d2 = d * d
    x2 = x * x
    one_m = 1.0 - x2
    win = d2 - x2
    Na = r2 * one_m - 4.0 * a2
    Nb = 2.0 * d2 - d2 * d2 + (3.0 - 4.0 * d2) * x2
    return a2, r2, d2, x2, one_m, win, Na, Nb


def coeffs_window(k: int, alpha: float, d: float, x: float) -> SoninPoint:
    """Envelope coefficients for the symmetric window (-d, d), equal exponents.

    D here satisfies D = (2 (d^2-x^2)^3 (1-x^2)^2 / x) (4 A B - B'), so for
    x > 0 the signs of D and S' agree and for x < 0 they are opposite.
    """
    x = float(x)
    if not 0.0 < d <= 1.0:
        raise ValueError("window half-width must satisfy 0 < d <= 1")
    if not (-d < x < d and -1.0 < x < 1.0):
        raise ValueError("windowed coefficients need |x| < d and |x| < 1")
    a2, r2, d2, x2, one_m, win, Na, Nb = _window_terms(k, alpha, d, x)
    A = x * (2.0 * d2 - 1.0 - x2) / (2.0 * win * one_m)
    B = Na / (4.0 * one_m * one_m) + Nb / (4.0 * one_m * win * win)
    D = (
        (4.0 * a2 - (1.0 - d2) * r2) * win * win
        + (3.0 - 4.0 * d2) * x2 * x2
        - 2.0 * (5.0 * d2 * d2 - 9.0 * d2 + 3.0) * x2
        - d2**3
        + 9.0 * d2 * d2
        - 9.0 * d2
    )
    return SoninPoint(x=x, A=A, B=B, D=D)


def b_prime_window(k: int, alpha: float, d: float, x: float) -> float:
    _, r2, d2, _, one_m, win, Na, Nb = _window_terms(k, alpha, d, x)
    Nap = -2.0 * r2 * x
    part_a = (Nap * one_m + 4.0 * x * Na) / (4.0 * one_m**3)
    Nbp = 2.0 * (3.0 - 4.0 * d2) * x
    part_b = (Nbp * one_m * win + 2.0 * x * Nb * win + 4.0 * x * Nb * one_m) / (
        4.0 * one_m * one_m * win**3
    )
    return part_a + part_b


def _coeffs_for(p: Params, x: float, w: Window) -> SoninPoint:
    if w.is_full:
        return coeffs_full(p, x)
    if w.is_symmetric:
        if not p.is_ultraspherical:
            raise ValueError("symmetric-window envelope needs alpha == beta")
        return coeffs_window(p.k, p.alpha, w.d_M, x)
    raise ValueError("envelope coefficients exist for the full window or symmetric windows only")


def sonin_point(p: Params, x: float, w: Window) -> SoninPoint:
    """Envelope S = M + (M-slope term)^2 / B at x, with coefficients attached.

    Raises OutsideOscillationRegionError when B(x) <= 0.
    """
    pt = _coeffs_for(p, x, w)
    if not pt.B > 0.0:
        raise OutsideOscillationRegionError(f"B({x}) = {pt.B:.6g} is not positive")
    # f = u y and f' = u q, q = y' + y (ln u)', so that f^2 = M and
    # f'' - 2 A f' + B f = 0; _coeffs_for has checked that x is interior
    x = float(x)
    u = ScaledReal(1, float(_ln_window_factor(p, x, w)))
    y = eval_orthonormal(p, x)
    f = u * y
    fp = u * (eval_orthonormal_deriv(p, x) + y * _dln_window_factor(p, x, w))
    s_sc = f * f + (fp * fp) * (1.0 / pt.B)
    if s_sc.is_zero():
        return replace(pt, S=0.0, ln_S=-math.inf)
    return replace(pt, S=_exp_saturating(s_sc.ln_mag), ln_S=s_sc.ln_mag)


def sonin_S(p: Params, x: float, w: Window) -> float:
    return sonin_point(p, x, w).S


@dataclass(frozen=True)
class IdentityCheck:
    """One exact-arithmetic consistency row.

    closed_form is None for pure sign checks; rel_err is the exact rational
    relative error converted to float.  ok reports whether the row matched
    its expectation (variant rows are expected to disagree and say so in
    their name).
    """

    name: str
    computed: float
    closed_form: Optional[float]
    rel_err: Optional[float]
    ok: bool


def _ratio(n: int, d: int) -> float:
    """n / d for d > 0, correctly rounded; +-inf, with the sign of n, where that overflows."""
    try:
        return n / d
    except OverflowError:
        # math.copysign(math.inf, n) would overflow converting n itself
        return math.inf if n > 0 else -math.inf


def identity_checks(k: int, alpha: float) -> list[IdentityCheck]:
    """Exact verification of the windowed-envelope polynomial algebra.

    Every polynomial below is even in x, so evaluations happen at rational
    values of x^2.  With alpha = num / den, den = 2^m, each value is a pair of
    Python ints (n, d) with d > 0 over an explicit denominator built from
    D2 = den^2, G = D2 (r^2 - 4) and H = 3 D2 (4 alpha^2 - 1); no gcd is taken.
    Each float the table reports is the correctly rounded value of its exact
    rational, to the bit the same as with reduced fractions, or +-inf where
    that overflows.  rel_err is exact up to its final rounding, so a reported
    0.0 means the identity holds to the last bit of the inputs, and ok never
    reads an overflowed float.  Float evaluation of the same expressions loses
    all significance for k >> alpha, which is why this route exists.
    """
    if k < 1:
        raise ValueError("identity checks need k >= 1")
    num, den = float(alpha).as_integer_ratio()
    if not 2 * num > den:
        raise ValueError("identity checks need alpha > 1/2")
    # r^2 = R/D2, 4 alpha^2 = A/D2, r^2 - 4 = G/D2, r^2 - 4 alpha^2 - 3 = N/D2 and
    # 3 (4 alpha^2 - 1) = H/D2, so d2 = delta^2 = N/G and the D scale
    # (r^2 - 4)^3 / (3 (4 alpha^2 - 1)) = G^3 / (D2^2 H); G, H > 0 on the domain
    D2 = den * den
    R = (2 * k * den + 2 * num + den) ** 2
    A = 4 * num * num
    G = R - 4 * D2
    N = R - A - 3 * D2
    H = 3 * (A - D2)
    G2, NG = G * G, N * G

    # b1(X) D2 G^2 = C3 X^3 + C2 X^2 + C1 X + C0
    C3 = -R * G2
    C2 = (G + 2 * N) * R * G + 4 * NG * D2 - A * G2 - 3 * D2 * G2
    C1 = -((N * N + 2 * NG) * R - N * N * D2 - 2 * A * NG + 6 * NG * D2 - 3 * G2 * D2)
    C0 = (N * R - A * N - N * D2 + 2 * G * D2) * N
    b1_delta = (((C3 * N + C2 * G) * N + C1 * G2) * N + C0 * G2 * G, D2 * G2 * G2 * G)
    b1_one = (C3 + C2 + C1 + C0, D2 * G2)

    # d_quartic(x/g) = Q / (D2 G^3 g^2); times the scale, G^3 cancels
    P1 = A * G - (G - N) * R
    Qx2 = (3 * G - 4 * N) * D2 * G2
    Qxg = -2 * (5 * N * N - 9 * NG + 3 * G2) * D2 * G
    Qg2 = (-N * N + 9 * NG - 9 * G2) * N * D2

    def d_quartic_num(x: int, g: int) -> int:
        return P1 * (N * g - x * G) ** 2 + (Qx2 * x + Qxg * g) * x + Qg2 * g * g

    def d_scaled(x: int, g: int) -> tuple[int, int]:
        return d_quartic_num(x, g), D2 * D2 * D2 * H * g * g

    def scaled_quadratic(x: int, g: int) -> tuple[int, int]:
        return 2 * G * (2 * R - 3 * A - 5 * D2) * x - N * (4 * R - A - 15 * D2) * g, D2 * D2 * g

    rows: list[IdentityCheck] = []

    def against(name: str, computed: tuple[int, int], closed: tuple[int, int], expect_match: bool = True) -> None:
        (nc, dc), (nf, df) = computed, closed
        c, f = nc * df, nf * dc
        rel = 0.0 if c == f else abs(c - f) / max(abs(c), abs(f))
        ok = rel <= IDENTITY_REL if expect_match else rel > IDENTITY_REL
        rows.append(IdentityCheck(name, _ratio(nc, dc), _ratio(nf, df), rel, ok))

    def sign_row(name: str, value: tuple[int, int], want_positive: bool) -> None:
        n = value[0]
        rows.append(IdentityCheck(name, _ratio(*value), None, None, n > 0 if want_positive else n < 0))

    d_delta_num = d_quartic_num(N, G)
    d_zero_scaled = d_scaled(0, 1)
    against("b1_at_delta", b1_delta, (5 * (G - N) ** 2 * N, G2 * G))
    against("b1_at_one", b1_one, (-A * (G - N) ** 2, D2 * G2))
    against("d_scaled_at_delta", (d_delta_num, D2 * D2 * D2 * H * G2), (-5 * (A - D2) * N, D2 * D2))
    against("d_scaled_quadratic_at_zero", d_zero_scaled, scaled_quadratic(0, 1))
    # d2 / 4 = N / (4G)
    against("d_scaled_quadratic_at_quarter_delta2", d_scaled(N, 4 * G), scaled_quadratic(N, 4 * G))
    # rejected reading of the constant term (r^4 in place of r^2); kept as a
    # record that the two readings genuinely differ
    against(
        "d_scaled_quadratic_at_zero_r4_variant_disagrees",
        d_zero_scaled,
        (-N * (4 * R * R - A * D2 - 15 * D2 * D2), D2 * D2 * D2),
        expect_match=False,
    )
    sign_row("b1_at_delta_positive", b1_delta, True)
    sign_row("b1_at_one_negative", b1_one, False)
    sign_row("d_quartic_at_delta_negative", (d_delta_num, D2 * G2 * G2 * G), False)
    # the maxima-hull quadratic A0(x) = 4k(k+2a+1) - (r^2+4a+2)x^2 has its
    # positive zero at the hull radius; delta lies beyond the hull, so
    # A0(delta) < 0, with the exact scaled value proving the sign for all
    # k >= 1, alpha > 1/2 (2r^2 >= 2(2a+3)^2 > 4a^2+4a+5); A0(delta) = n0 / (D2 G)
    n0 = 4 * k * (k * den + 2 * num + den) * den * G - (R + 4 * num * den + 2 * D2) * N
    against("a0_at_delta_scaled", (n0, D2 * D2), (2 * (2 * num + den) * (A + 4 * num * den + 5 * D2 - 2 * R), den * D2))
    sign_row("a0_at_delta_negative", (n0, D2 * G), False)
    return rows

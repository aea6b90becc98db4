"""Second-order envelopes of the weighted square and closed-form geometry.

If f solves f'' - 2 A f' + B f = 0 with B > 0, the comparison function
S = f^2 + f'^2 / B equals f^2 at every critical point of f and is monotone
wherever 4 A B - B' keeps one sign.  Substituting f = u y, with y the
orthonormal polynomial and u the window factor

    u(x) = ((x - d_m) (d_M - x))^(1/4) (1-x)^(alpha/2) (1+x)^(beta/2),

gives f^2 = M and closed-form A, B whose combination

    D = c(x) (4 A B - B')    with c > 0 on the relevant range

is a low-degree polynomial.  The sign of D therefore orders the heights of
consecutive maxima of M directly.
"""

import math
import sys
from dataclasses import dataclass, replace
from typing import Optional

from .jacobi import Params, Window, eval_orthonormal, eval_orthonormal_deriv
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
]

_LN_FLOAT_MAX = math.log(sys.float_info.max)


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
    """Square of the symmetric containment radius for alpha = beta >= 1/2."""
    if alpha < 0.5:
        raise ValueError("containment radius needs alpha >= 1/2")
    if alpha == 0.5:
        return 1.0
    # (r^2 - 4 alpha^2 - 3) / (r^2 - 4) with r = 2k + 2 alpha + 1, in
    # difference-of-squares form to survive alpha >> k
    num = (2.0 * k + 1.0) * (2.0 * k + 4.0 * alpha + 1.0) - 3.0
    den = (2.0 * k + 2.0 * alpha - 1.0) * (2.0 * k + 2.0 * alpha + 3.0)
    return num / den


def delta_window(p: Params) -> Window:
    """The symmetric window (-delta, delta), defined for alpha = beta >= 1/2."""
    if not (p.is_ultraspherical and p.alpha >= 0.5):
        raise ValueError("delta window needs alpha = beta >= 1/2")
    return Window.symmetric(math.sqrt(delta_squared(p.k, p.alpha)))


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
        xi_den = 2.0 * p.k * p.k + 4.0 * p.alpha * p.k + 2.0 * p.alpha + 1.0
        if xi_den > 0.0:
            xi0 = math.sqrt(21.0 / xi_den)

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


def coeffs_full(p: Params, x: float) -> SoninPoint:
    """Envelope coefficients for the full window (-1, 1).

    D here satisfies D = 2 (1-x^2)^3 (4 A B - B'), so sign(D) = sign(S').
    """
    x = float(x)
    if not -1.0 < x < 1.0:
        raise ValueError("full-window coefficients need -1 < x < 1")
    a2 = p.alpha * p.alpha
    b2 = p.beta * p.beta
    s = 2.0 * p.k + p.alpha + p.beta + 1.0
    one_m = 1.0 - x * x
    A = x / (2.0 * one_m)
    N = s * s * one_m - 2.0 * (1.0 + x) * a2 - 2.0 * (1.0 - x) * b2 + 1.0
    B = N / (4.0 * one_m * one_m)
    D = (a2 - b2) * (x * x + 1.0) + (2.0 * a2 + 2.0 * b2 - 1.0) * x
    return SoninPoint(x=x, A=A, B=B, D=D)


def b_prime_full(p: Params, x: float) -> float:
    a2 = p.alpha * p.alpha
    b2 = p.beta * p.beta
    s = 2.0 * p.k + p.alpha + p.beta + 1.0
    one_m = 1.0 - x * x
    N = s * s * one_m - 2.0 * (1.0 + x) * a2 - 2.0 * (1.0 - x) * b2 + 1.0
    Np = -2.0 * s * s * x - 2.0 * a2 + 2.0 * b2
    return (Np * one_m + 4.0 * x * N) / (4.0 * one_m**3)


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
    a2 = alpha * alpha
    r = 2.0 * k + 2.0 * alpha + 1.0
    r2 = r * r
    d2 = d * d
    x2 = x * x
    one_m = 1.0 - x2
    win = d2 - x2
    A = x * (2.0 * d2 - 1.0 - x2) / (2.0 * win * one_m)
    B = (r2 * one_m - 4.0 * a2) / (4.0 * one_m * one_m) + (
        2.0 * d2 - d2 * d2 + (3.0 - 4.0 * d2) * x2
    ) / (4.0 * one_m * win * win)
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
    a2 = alpha * alpha
    r2 = (2.0 * k + 2.0 * alpha + 1.0) ** 2
    d2 = d * d
    x2 = x * x
    one_m = 1.0 - x2
    win = d2 - x2
    Na = r2 * one_m - 4.0 * a2
    Nap = -2.0 * r2 * x
    part_a = (Nap * one_m + 4.0 * x * Na) / (4.0 * one_m**3)
    Nb = 2.0 * d2 - d2 * d2 + (3.0 - 4.0 * d2) * x2
    Nbp = 2.0 * (3.0 - 4.0 * d2) * x
    part_b = (Nbp * one_m * win + 2.0 * x * Nb * win + 4.0 * x * Nb * one_m) / (
        4.0 * one_m * one_m * win**3
    )
    return part_a + part_b


def _ln_window_factor(p: Params, x: float, w: Window) -> float:
    return (
        0.25 * (math.log(x - w.d_m) + math.log(w.d_M - x))
        + 0.5 * p.alpha * math.log1p(-x)
        + 0.5 * p.beta * math.log1p(x)
    )


def _dln_window_factor(p: Params, x: float, w: Window) -> float:
    return (
        0.25 * (1.0 / (x - w.d_m) - 1.0 / (w.d_M - x))
        - 0.5 * p.alpha / (1.0 - x)
        + 0.5 * p.beta / (1.0 + x)
    )


def transformed_parts(p: Params, x: float, w: Window) -> tuple[ScaledReal, ScaledReal]:
    """(f, f') for f = u y, so that f^2 = M and f'' - 2A f' + B f = 0."""
    x = float(x)
    if not (w.d_m < x < w.d_M and -1.0 < x < 1.0):
        raise ValueError("transformed value needs a strictly interior point")
    u = ScaledReal(1, _ln_window_factor(p, x, w))
    y = eval_orthonormal(p, x)
    q = eval_orthonormal_deriv(p, x) + y * _dln_window_factor(p, x, w)
    return u * y, u * q


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
    f, fp = transformed_parts(p, x, w)
    s_sc = f * f + (fp * fp) * (1.0 / pt.B)
    if s_sc.is_zero():
        return replace(pt, S=0.0, ln_S=-math.inf)
    ln_s = s_sc.ln_mag
    val = math.inf if ln_s > _LN_FLOAT_MAX else math.exp(ln_s)
    return replace(pt, S=val, ln_S=ln_s)


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


class _Exact:
    """The exact rational n / (2^p G^q H^s) for two fixed positive ints G, H.

    e = (p, q, s) holds nonnegative exponents.  A sum lifts both numerators
    to the larger of each exponent and a product adds the exponents, so no
    gcd is ever taken.  The denominator is positive, so the sign of the value
    is the sign of n.
    """

    __slots__ = ("n", "e", "gh")

    def __init__(self, n: int, e: tuple[int, int, int], gh: tuple[int, int]) -> None:
        self.n, self.e, self.gh = n, e, gh

    def _lift(self, n: int, e: tuple[int, int, int], to: tuple[int, int, int]) -> int:
        # n over 2^p G^q H^s with exponents e, rewritten over exponents to >= e
        (p, q, s), (tp, tq, ts), (g, h) = e, to, self.gh
        return (n << (tp - p)) * g ** (tq - q) * h ** (ts - s)

    def common(self, other) -> tuple[int, int, tuple[int, int, int]]:
        """Both numerators over one denominator, and its exponents."""
        if type(other) is int:
            return self.n, self._lift(other, (0, 0, 0), self.e), self.e
        if self.e == other.e:
            return self.n, other.n, self.e
        e = tuple(map(max, self.e, other.e))
        return self._lift(self.n, self.e, e), self._lift(other.n, other.e, e), e

    def __add__(self, other) -> "_Exact":
        nx, ny, e = self.common(other)
        return _Exact(nx + ny, e, self.gh)

    def __sub__(self, other) -> "_Exact":
        nx, ny, e = self.common(other)
        return _Exact(nx - ny, e, self.gh)

    def __rsub__(self, other) -> "_Exact":
        nx, ny, e = self.common(other)
        return _Exact(ny - nx, e, self.gh)

    def __neg__(self) -> "_Exact":
        return _Exact(-self.n, self.e, self.gh)

    def __mul__(self, other) -> "_Exact":
        if type(other) is int:
            return _Exact(self.n * other, self.e, self.gh)
        (p, q, s), (op, oq, os) = self.e, other.e
        return _Exact(self.n * other.n, (p + op, q + oq, s + os), self.gh)

    def __pow__(self, m: int) -> "_Exact":
        p, q, s = self.e
        return _Exact(self.n**m, (p * m, q * m, s * m), self.gh)

    __radd__, __rmul__ = __add__, __mul__

    def __float__(self) -> float:
        # int true division rounds correctly, as Fraction.__float__ does
        return self.n / self._lift(1, (0, 0, 0), self.e)


def identity_checks(k: int, alpha: float, tol: float = 1e-9) -> list[IdentityCheck]:
    """Exact verification of the windowed-envelope polynomial algebra.

    Every polynomial below is even in x, so evaluations happen at rational
    values of x^2.  With alpha = num / 2^m, they are exact rationals over
    2^p G^q H^s, where G = 2^(2m) (r^2 - 4) and H = 3 * 2^(2m) (4 alpha^2 - 1)
    are ints.  The arithmetic runs on Python ints with no gcd taken, and each
    float it reports (values and rel_err) is the correctly rounded value of
    the exact rational, to the bit the same as with reduced fractions.  A
    reported rel_err of 0.0 means the identity holds to the last bit of the
    inputs.  Float evaluation of the same expressions loses all significance
    for k >> alpha, which is why this route exists.
    """
    if k < 1:
        raise ValueError("identity checks need k >= 1")
    num, den = float(alpha).as_integer_ratio()
    if not 2 * num > den:
        raise ValueError("identity checks need alpha > 1/2")
    m = den.bit_length() - 1
    R = (2 * k * den + 2 * num + den) ** 2
    A = 4 * num * num
    G = R - 4 * den * den
    gh = (G, 3 * (A - den * den))
    a = _Exact(num, (m, 0, 0), gh)
    r2 = _Exact(R, (2 * m, 0, 0), gh)
    a2 = _Exact(A, (2 * m, 0, 0), gh)
    # d2 = (r2 - a2 - 3) / (r2 - 4) and scale = (r2 - 4)^3 / (3 (a2 - 1))
    d2 = _Exact(R - A - 3 * den * den, (0, 1, 0), gh)
    scale = _Exact(G**3, (4 * m, 0, 1), gh)

    def b1(X: "_Exact | int") -> _Exact:
        return (
            -r2 * X**3
            + ((1 + 2 * d2) * r2 + 4 * d2 - a2 - 3) * X * X
            - ((d2 * d2 + 2 * d2) * r2 - d2 * d2 - 2 * a2 * d2 + 6 * d2 - 3) * X
            + (d2 * r2 - a2 * d2 - d2 + 2) * d2
        )

    def d_quartic(X: "_Exact | int") -> _Exact:
        return (
            (a2 - (1 - d2) * r2) * (d2 - X) ** 2
            + (3 - 4 * d2) * X * X
            - 2 * (5 * d2 * d2 - 9 * d2 + 3) * X
            - d2**3
            + 9 * d2 * d2
            - 9 * d2
        )

    def scaled_quadratic(X: "_Exact | int") -> _Exact:
        return 2 * (r2 - 4) * (2 * r2 - 3 * a2 - 5) * X - (r2 - a2 - 3) * (4 * r2 - a2 - 15)

    rows: list[IdentityCheck] = []

    def against(name: str, computed: _Exact, closed: _Exact, expect_match: bool = True) -> None:
        nc, nf, _ = computed.common(closed)
        rel = 0.0 if nc == nf else abs(nc - nf) / max(abs(nc), abs(nf))
        ok = rel <= tol if expect_match else rel > tol
        rows.append(IdentityCheck(name, float(computed), float(closed), rel, ok))

    def sign_row(name: str, value: _Exact, want_positive: bool) -> None:
        ok = value.n > 0 if want_positive else value.n < 0
        rows.append(IdentityCheck(name, float(value), None, None, ok))

    b1_delta, b1_one = b1(d2), b1(1)
    d_delta, d_zero_scaled = d_quartic(d2), d_quartic(0) * scale
    against("b1_at_delta", b1_delta, 5 * (1 - d2) ** 2 * d2)
    against("b1_at_one", b1_one, -a2 * (1 - d2) ** 2)
    against("d_scaled_at_delta", d_delta * scale, -5 * (a2 - 1) * (r2 - a2 - 3))
    against("d_scaled_quadratic_at_zero", d_zero_scaled, scaled_quadratic(0))
    quarter = _Exact(d2.n, (2, 1, 0), gh)  # d2 / 4
    against(
        "d_scaled_quadratic_at_quarter_delta2",
        d_quartic(quarter) * scale,
        scaled_quadratic(quarter),
    )
    # rejected reading of the constant term (r^4 in place of r^2); kept as a
    # record that the two readings genuinely differ
    against(
        "d_scaled_quadratic_at_zero_r4_variant_disagrees",
        d_zero_scaled,
        -(r2 - a2 - 3) * (4 * r2 * r2 - a2 - 15),
        expect_match=False,
    )
    sign_row("b1_at_delta_positive", b1_delta, True)
    sign_row("b1_at_one_negative", b1_one, False)
    sign_row("d_quartic_at_delta_negative", d_delta, False)
    # the maxima-hull quadratic A0(x) = 4k(k+2a+1) - (r^2+4a+2)x^2 has its
    # positive zero at the hull radius; delta lies beyond the hull, so
    # A0(delta) < 0, with the exact scaled value proving the sign for all
    # k >= 1, alpha > 1/2 (2r^2 >= 2(2a+3)^2 > 4a^2+4a+5)
    a0_delta = 4 * k * (k + 2 * a + 1) - (r2 + 4 * a + 2) * d2
    against("a0_at_delta_scaled", a0_delta * (r2 - 4), 2 * (2 * a + 1) * (a2 + 4 * a + 5 - 2 * r2))
    sign_row("a0_at_delta_negative", a0_delta, False)
    return rows

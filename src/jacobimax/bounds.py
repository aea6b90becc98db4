"""Closed-form right-hand sides for every global and pointwise bound on M.

Each bound id carries a hypothesis predicate over Params; asking for a bound
outside its hypotheses raises HypothesisError rather than extrapolating, since
the constants are only claimed on their stated domains.
"""

import math
from enum import Enum

from .envelope import _xi0_squared, delta_squared
from .gammafn import log_gamma
from .jacobi import _LN2, ALPHA_FLOOR, Params

__all__ = [
    "BoundId",
    "HypothesisError",
    "SHARP_RATIO",
    "rhs_bound",
    "pointwise_bound",
    "pointwise_bound_parts",
    "gamma_ratio_check",
    "v_factors",
    "theorem1_ratio",
]

# cube root of (4 sqrt(2) - 2): proven ceiling of theorem1_ratio for
# alpha >= ALPHA_FLOOR, where (2 alpha + 1) / alpha is largest
SHARP_RATIO = (4.0 * math.sqrt(2.0) - 2.0) ** (1.0 / 3.0)


class HypothesisError(ValueError):
    """A bound was requested outside the hypotheses it is proven on."""


class BoundId(str, Enum):
    CHOW_EQ1 = "chow_eq1"
    EMN_EQ2 = "emn_eq2"
    KRASIKOV_EQ3 = "krasikov_eq3"
    THM1 = "thm1"
    THM4 = "thm4"
    LEMMA_GLAV = "lemma_glav"
    ODD_230 = "odd_230"
    ODD_29 = "odd_29"


def _hypothesis_failure(bid: BoundId, p: Params) -> str | None:
    k, a, b = p.k, p.alpha, p.beta
    if bid is BoundId.CHOW_EQ1:
        if not (-0.5 < b <= a < 0.5):
            return "needs -1/2 < beta <= alpha < 1/2"
    elif bid is BoundId.EMN_EQ2:
        if not (a >= -0.5 and b >= -0.5):
            return "needs alpha >= -1/2 and beta >= -1/2"
    elif bid is BoundId.KRASIKOV_EQ3:
        if not (k >= 6 and a >= b >= ALPHA_FLOOR):
            return "needs k >= 6 and alpha >= beta >= (1+sqrt(2))/4"
    elif bid is BoundId.THM1:
        if not (k >= 6 and a == b and a >= ALPHA_FLOOR):
            return "needs k >= 6 and alpha = beta >= (1+sqrt(2))/4"
    elif bid is BoundId.THM4:
        if not (a == b and a >= 0.5 and (k >= 2 if k % 2 == 0 else k >= 3)):
            return "needs alpha = beta >= 1/2 and k >= 2 (even) or k >= 3 (odd)"
    elif bid is BoundId.LEMMA_GLAV:
        if not (a == b and a >= ALPHA_FLOOR and (k >= 6 if k % 2 == 0 else k >= 7)):
            return "needs alpha = beta >= (1+sqrt(2))/4 and k >= 6 even or k >= 7 odd"
    elif bid is BoundId.ODD_230:
        if not (a == b and a > 0.5 and k % 2 == 1 and k >= 3):
            return "needs alpha = beta > 1/2 and odd k >= 3"
    elif bid is BoundId.ODD_29:
        if not (a == b and a >= ALPHA_FLOOR and k % 2 == 1 and k >= 7):
            return "needs alpha = beta >= (1+sqrt(2))/4 and odd k >= 7"
    return None


def rhs_bound(bid: "BoundId | str", p: Params) -> float:
    """Right-hand side of the named bound on the global maximum of M."""
    bid = BoundId(bid)
    reason = _hypothesis_failure(bid, p)
    if reason is not None:
        raise HypothesisError(f"{bid.value}: {reason} (k={p.k}, alpha={p.alpha}, beta={p.beta})")
    k, a, b = p.k, p.alpha, p.beta
    s = a + b
    if bid is BoundId.CHOW_EQ1:
        ln = (
            (2.0 * a + 1.0) * _LN2
            + log_gamma(k + s + 1.0)
            + log_gamma(k + a + 1.0)
            - math.log(math.pi)
            - log_gamma(k + 1.0)
            - 2.0 * a * math.log(2.0 * k + s + 1.0)
            - log_gamma(k + b + 1.0)
        )
        return math.exp(ln)
    if bid is BoundId.EMN_EQ2:
        return 2.0 * math.e * (2.0 + math.hypot(a, b)) / math.pi
    if bid is BoundId.KRASIKOV_EQ3:
        inner = (s + 1.0) ** 2 * (2.0 * k + s + 1.0) ** 2 / (4.0 * k * (k + s + 1.0))
        return 11.0 * inner ** (1.0 / 3.0)
    if bid is BoundId.THM1:
        mu = 10.0 / 7.0 if k % 2 == 0 else 22.0
        return mu * a ** (1.0 / 3.0) * (1.0 + a / k) ** (1.0 / 6.0)
    if bid is BoundId.THM4 and k % 2 == 0:
        return (2.0 / math.pi) * (1.0 + 1.0 / (8.0 * (k + a) ** 2))
    if bid is BoundId.LEMMA_GLAV:
        c = 12.0 / 13.0 if k % 2 == 0 else 14.0
        r = 2.0 * k + 2.0 * a + 1.0
        tan_tau = (2.0 * a + 1.0) / (2.0 * math.sqrt(k * (k + 2.0 * a + 1.0)))
        return c * (r * tan_tau) ** (1.0 / 3.0)
    if bid in (BoundId.THM4, BoundId.ODD_230):
        # THM4 gets here at odd k only
        return 230.0 / math.pi
    return 29.0 / math.pi


def pointwise_bound_parts(p: Params, x):
    """(numerator, denominator) of pointwise_bound; x may be a float or a numpy array.

    The bound is numerator / denominator wherever the denominator is positive,
    with the same bits as pointwise_bound at each point.
    """
    sigma = 2.0 * p.k + 2.0 * p.alpha + 2.0 * p.beta + 1.0
    den = (sigma + 1.0) ** 2 - 2.0 * p.alpha**2 / (1.0 - x) - 2.0 * p.beta**2 / (1.0 + x)
    return (2.0 * math.e / math.pi) * sigma * (sigma + 1.0), den


def pointwise_bound(p: Params, x: float) -> float:
    """Pointwise ceiling on M(x) over the full window, where its denominator is positive."""
    x = float(x)
    if not -1.0 < x < 1.0:
        raise ValueError("pointwise bound needs -1 < x < 1")
    num, den = pointwise_bound_parts(p, x)
    if not den > 0.0:
        raise HypothesisError(f"pointwise bound denominator nonpositive at x={x}")
    return num / den


def gamma_ratio_log(x: float) -> tuple[float, float]:
    """(ln lhs, ln rhs) of G(x+1)/G(x/2+1)^2 < 2^(x+1/2)/sqrt(pi(x+1/2)), x >= 0.

    Log form stays finite for all x; both sides overflow double range
    near x = 1024 while their gap shrinks toward zero.
    """
    x = float(x)
    if x < 0.0:
        raise ValueError("gamma ratio inequality needs x >= 0")
    ln_lhs = log_gamma(x + 1.0) - 2.0 * log_gamma(0.5 * x + 1.0)
    ln_rhs = (x + 0.5) * _LN2 - 0.5 * math.log(math.pi * (x + 0.5))
    return ln_lhs, ln_rhs


def gamma_ratio_check(x: float) -> tuple[float, float]:
    """(lhs, rhs) of the gamma-ratio inequality as plain values; overflows for large x."""
    ln_lhs, ln_rhs = gamma_ratio_log(x)
    return math.exp(ln_lhs), math.exp(ln_rhs)


# coefficients of u^2..u^13 in the large-x expansion of ln rhs - ln lhs
# (u = 1/x), derived by exact rational composition of the Stirling series;
# the u^0 and u^1 terms cancel identically
_GAP_COEFFS = (
    1.0 / 16.0,
    -1.0 / 16.0,
    1.0 / 128.0,
    3.0 / 64.0,
    1.0 / 768.0,
    -39.0 / 256.0,
    1.0 / 4096.0,
    2645.0 / 3072.0,
    1.0 / 20480.0,
    -32163.0 / 4096.0,
    1.0 / 98304.0,
    1720635.0 / 16384.0,
)


def gamma_ratio_log_gap(x: float) -> float:
    """ln rhs - ln lhs of the gamma-ratio inequality, accurate even where tiny.

    The two logs grow like x ln 2 while their gap shrinks like 1/(16 x^2),
    so direct subtraction loses the gap to rounding beyond x ~ 1e4.  Above
    x = 256 the gap is evaluated from its own asymptotic series instead,
    which involves no cancellation.
    """
    x = float(x)
    if x < 0.0:
        raise ValueError("gamma ratio inequality needs x >= 0")
    if x <= 256.0:
        ln_lhs, ln_rhs = gamma_ratio_log(x)
        return ln_rhs - ln_lhs
    u = 1.0 / x
    acc = 0.0
    for c in reversed(_GAP_COEFFS):
        acc = acc * u + c
    return acc * u * u


def v_factors(k: int, alpha: float) -> tuple[float, float]:
    """(v, v1): the odd-degree reduction factors tying M to the even case.

    v compares the first positive maximum against the degree-(k-1),
    exponent-(alpha+1) window; v1 folds in the even-degree value bound.
    """
    if k % 2 == 0 or k < 3:
        raise HypothesisError(f"v factors need odd k >= 3, got k={k}")
    if alpha < 0.5:
        raise HypothesisError(f"v factors need alpha >= 1/2, got alpha={alpha}")
    xi2 = _xi0_squared(k, alpha)
    d_k = delta_squared(k, alpha)
    d_k1 = delta_squared(k - 1, alpha + 1.0)
    if xi2 >= d_k or xi2 >= d_k1:
        raise HypothesisError(f"window degenerate: xi0^2 = {xi2:.6g} reaches delta^2")
    v = (
        (k + 2.0 * alpha + 1.0)
        * k
        * xi2
        * math.sqrt(d_k - xi2)
        / ((1.0 - xi2) * math.sqrt(d_k1 - xi2))
    )
    v1 = (1.0 + 1.0 / (8.0 * (k + alpha) ** 2)) * v
    return v, v1


def theorem1_ratio(k: int, alpha: float) -> float:
    """r^(1/3) tan(tau)^(1/3) / (alpha^(1/3) (1+alpha/k)^(1/6)), always <= SHARP_RATIO.

    Equals ((2a+1)^2 r^2 / (4 a^2 (k+a)(k+2a+1)))^(1/6); the numerator satisfies
    r^2 - 4(k+a)(k+2a+1) = 1 - 4a^2 - 4ka <= 0 for a >= 1/2, and (2a+1)/a
    decreases in a, so the ratio peaks at alpha = ALPHA_FLOOR.  Raises
    OverflowError where (2a+1)^2 overflows, from alpha ~ 6.7e153 on.
    """
    if k < 1 or alpha <= 0.0:
        raise ValueError("ratio needs k >= 1 and alpha > 0")
    r = 2.0 * k + 2.0 * alpha + 1.0
    # each factor times s = 2^-exponent(r) lies below 1, so no product
    # overflows; numerator and denominator are the unscaled ones times s^4
    # exactly, so the quotient has their quotient's bits
    s = math.ldexp(1.0, -math.frexp(r)[1])
    inner = (2.0 * alpha + 1.0) ** 2 * s * s * (r * s) * (r * s) / (
        4.0 * (alpha * s) * (alpha * s) * ((k + alpha) * s) * ((k + 2.0 * alpha + 1.0) * s)
    )
    return inner ** (1.0 / 6.0)


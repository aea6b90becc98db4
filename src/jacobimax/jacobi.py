"""Orthonormal Jacobi polynomials and weighted squares in log-scaled arithmetic.

Conventions: the weight is w(x) = (1-x)^alpha (1+x)^beta on [-1, 1] with
alpha, beta > -1, and P_k always means the orthonormal polynomial, i.e. the
classical one divided by the square root of

    h_k = 2^(a+b+1) / (2k+a+b+1) * G(k+a+1) G(k+b+1) / (G(k+a+b+1) k!)

where G is the gamma function.  The weighted square over a window [d_m, d_M]
is

    M(x) = sqrt((x - d_m) (d_M - x)) * w(x) * P_k(x)^2,

the object whose extrema the rest of the package studies.
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import _kernels
from .gammafn import log_beta, log_gamma
from .scaled import _LN_FLOAT_MAX, ScaledReal

__all__ = [
    "ALPHA_FLOOR",
    "Params",
    "Window",
    "WeightedValue",
    "log_norm",
    "eval_orthonormal",
    "eval_orthonormal_parts",
    "eval_orthonormal_deriv",
    "eval_orthonormal_deriv_parts",
    "eval_value_and_deriv_parts",
    "eval_value_and_deriv_monic",
    "eval_derivatives_parts",
    "value_at_zero_even",
    "weighted_M",
    "weighted_ln_parts",
    "ode_residual",
    "ode_residuals",
]

_LN2 = math.log(2.0)

# relative distance from 0 within which a computed sign is not trusted to
# match another route's: P_k's against P_{k-1} for the monic pair
# (eval_value_and_deriv_monic), and extrema's q per unit of the pair's
# cancellation factor, where the two routes' y' differ by at most a few
# 1e-12 per unit in the tests
_PAIR_GUARD = 1e-6

# smallest alpha for which the cube-root bounds below are claimed
ALPHA_FLOOR = (1.0 + math.sqrt(2.0)) / 4.0


@dataclass(frozen=True)
class Params:
    """Degree and weight exponents for one polynomial family member."""

    k: int
    alpha: float
    beta: float

    def __post_init__(self) -> None:
        if isinstance(self.k, bool) or not isinstance(self.k, (int, np.integer)):
            raise ValueError("k must be an integer")
        object.__setattr__(self, "k", int(self.k))
        if self.k < 0:
            raise ValueError("k must be nonnegative")
        # + 0.0 turns -0.0 into +0.0: the set-up memos key floats by value,
        # so the two zeros would share one entry and its bits
        object.__setattr__(self, "alpha", float(self.alpha) + 0.0)
        object.__setattr__(self, "beta", float(self.beta) + 0.0)
        for name in ("alpha", "beta"):
            v = getattr(self, name)
            if not v > -1.0 or math.isinf(v):
                raise ValueError(f"{name} must be finite and > -1, got {v}")

    @property
    def is_ultraspherical(self) -> bool:
        return self.alpha == self.beta


@dataclass(frozen=True)
class Window:
    """Closed interval [d_m, d_M] inside [-1, 1] over which M is formed."""

    d_m: float
    d_M: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "d_m", float(self.d_m))
        object.__setattr__(self, "d_M", float(self.d_M))
        if not (math.isfinite(self.d_m) and math.isfinite(self.d_M)):
            raise ValueError("window endpoints must be finite")
        if not (-1.0 <= self.d_m < self.d_M <= 1.0):
            raise ValueError(f"window must satisfy -1 <= d_m < d_M <= 1, got [{self.d_m}, {self.d_M}]")

    @classmethod
    def full(cls) -> "Window":
        return cls(-1.0, 1.0)

    @classmethod
    def symmetric(cls, d: float) -> "Window":
        if not 0.0 < d <= 1.0:
            raise ValueError(f"symmetric window needs 0 < d <= 1, got {d}")
        return cls(-d, d)

    @property
    def is_full(self) -> bool:
        return self.d_m == -1.0 and self.d_M == 1.0

    @property
    def is_symmetric(self) -> bool:
        return self.d_m == -self.d_M

    @property
    def width(self) -> float:
        return self.d_M - self.d_m


class WeightedValue(NamedTuple):
    value: float
    ln_value: float


@lru_cache(maxsize=4096)
def _recurrence_coeffs(k: int, alpha: float, beta: float):
    """Read-only recurrence arrays b, a (length max(k, 1)) and ln P_0 = -ln h_0 / 2 for plain (k, alpha, beta)."""
    s = alpha + beta
    b = np.zeros(max(k, 1))
    a = np.empty(k) if k else np.ones(1)  # every a[m] is set below when k > 0
    if k > 0:
        b[0] = (beta - alpha) / (s + 2.0)
        a[0] = math.sqrt(4.0 * (1.0 + alpha) * (1.0 + beta) / ((s + 2.0) ** 2 * (s + 3.0)))
        if k > 1:
            n = np.arange(1.0, k)
            n1 = n + 1.0
            t = 2.0 * n + s
            t2 = t + 2.0
            b[1:] = (beta - alpha) * (beta + alpha) / (t * t2)
            na = n1 + alpha
            nb = na if beta == alpha else n1 + beta
            a[1:] = (2.0 / t2) * np.sqrt(n1 * na * nb * (n1 + s) / ((t + 1.0) * (t + 3.0)))
    ln_p0 = -0.5 * _log_norm(0, alpha, beta)
    b.setflags(write=False)
    a.setflags(write=False)
    return b, a, ln_p0


def log_norm(p: Params) -> float:
    """ln h_k, the log of the squared weighted L2 norm of the classical polynomial, from the norm memo."""
    return _log_norm(p.k, p.alpha, p.beta)


@lru_cache(maxsize=4096)
def _log_norm(k: int, alpha: float, beta: float) -> float:
    # the norm memo: log_norm on plain numbers, so each family's ln h is computed once
    s = alpha + beta
    if k == 0:
        return (s + 1.0) * _LN2 + log_beta(alpha + 1.0, beta + 1.0)
    ln_a = log_gamma(k + alpha + 1.0)
    return (
        (s + 1.0) * _LN2
        - math.log(2.0 * k + s + 1.0)
        + ln_a
        + (ln_a if beta == alpha else log_gamma(k + beta + 1.0))
        - log_gamma(k + s + 1.0)
        - log_gamma(k + 1.0)
    )


def _points(x) -> np.ndarray:
    xs = np.ascontiguousarray(x, dtype=float).ravel()
    # min and max carry nan and +-inf through, so one test of each rejects them too
    if xs.size and not (xs.min() >= -1.0 and xs.max() <= 1.0):
        raise ValueError("evaluation points must lie in [-1, 1]")
    return xs


def eval_orthonormal_parts(p: Params, x) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized evaluation as (significand, ln offset) arrays.

    P_k(x[i]) = val[i] * exp(off[i]); significands never overflow because the
    recurrence renormalizes by exact powers of two.
    """
    xs = _points(x)
    b, a, ln_p0 = _recurrence_coeffs(p.k, p.alpha, p.beta)
    val, _, off = _kernels.recurrence(xs, b, a, ln_p0, p.k)
    return val, off


def eval_orthonormal(p: Params, x: float) -> ScaledReal:
    """Orthonormal P_k(x) as a ScaledReal, overflow-free for any degree."""
    val, off = eval_orthonormal_parts(p, np.array([float(x)]))
    return ScaledReal.from_parts(float(val[0]), float(off[0]))


@lru_cache(maxsize=4096)
def _deriv_ln_prefactor(k: int, alpha: float, beta: float) -> float:
    # P_k' = c * Q_{k-1} with Q orthonormal for (alpha+1, beta+1); memoized
    # per (k, alpha, beta), with both norms from the norm memo
    ln_ratio = _log_norm(k - 1, alpha + 1.0, beta + 1.0) - _log_norm(k, alpha, beta)
    return math.log(0.5 * (k + alpha + beta + 1.0)) + 0.5 * ln_ratio


def eval_orthonormal_deriv_parts(p: Params, x) -> tuple[np.ndarray, np.ndarray]:
    """P_k' as (significand, ln offset) arrays: order 1 of eval_derivatives_parts."""
    return eval_derivatives_parts(p, [np.empty(0), x])[1]


def eval_derivatives_parts(p: Params, points) -> list[tuple[np.ndarray, np.ndarray]]:
    """P_k^(j) at the points points[j], j = 0, 1, ..., from one kernel call per order with points.

    The j-th derivative is c_j Q_{k-j}, with Q orthonormal for (alpha + j,
    beta + j) and ln c_j the sum of _deriv_ln_prefactor down the chain p,
    (k-1, alpha+1, beta+1), ...  Returns one (significand, ln offset) pair
    per order; orders above k are (0, 0), and an order without points makes
    no kernel call.  Order 0 has the bits of eval_orthonormal_parts at every
    point.
    """
    pts = [_points(x) for x in points]
    fams = [(p.k, p.alpha, p.beta)] + [(p.k - j, p.alpha + j, p.beta + j) for j in range(1, min(len(pts), p.k + 1))]
    out = []
    ln_c = 0.0
    for j, (xs, q) in enumerate(zip(pts, fams)):
        if j:
            step = _deriv_ln_prefactor(*fams[j - 1])
            ln_c = step if j == 1 else ln_c + step
        if not xs.size:
            out.append((np.empty(0), np.empty(0)))
            continue
        b, a, ln_p0 = _recurrence_coeffs(*q)
        val, _, off = _kernels.recurrence(xs, b, a, ln_p0, q[0])
        out.append((val, off + ln_c if j else off))
    out += [(np.zeros(xs.size), np.zeros(xs.size)) for xs in pts[len(fams) :]]
    return out


def eval_value_and_deriv_parts(p: Params, x) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """P_k and P_k' at points strictly inside (-1, 1), from one recurrence call.

    Returns (yv, dv, off, cond) with P_k = yv * exp(off) and P_k' =
    dv * exp(off); yv and off have the bits of eval_orthonormal_parts.  P_k'
    comes from the recurrence's last pair by Szego, Orthogonal Polynomials,
    (4.5.7) in orthonormal form, with s = alpha + beta and a_k = a[k-1]:

        (1 - x^2) P_k' = t1 + t2,
        t1 = k ((alpha - beta) / (2k + s) - x) P_k,
        t2 = (2k + s + 1) a_k P_{k-1}.

    cond = (|t1| + |t2|) / |t1 + t2| >= 1 (inf where the sum vanishes) is the
    cancellation factor of that sum: dv's relative error is about cond times
    that of the recurrence values it combines (eps and up), and cond grows
    like 1 / (1 - x^2) toward +-1.  eval_orthonormal_deriv_parts, the
    shifted-family route, costs a second recurrence but has no such loss.
    """
    xs = _interior_points(x)
    b, a, ln_p0 = _recurrence_coeffs(p.k, p.alpha, p.beta)
    yv, prev, off = _kernels.recurrence(xs, b, a, ln_p0, p.k)
    return _value_and_deriv(p, xs, yv, prev, off, a[p.k - 1])


def eval_value_and_deriv_monic(p: Params, x) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """eval_value_and_deriv_parts' (yv, dv, off, cond) from the division-free monic recurrence, and where to redo them.

    The kernel's monic pair (p_k, p_{k-1}) under the offset ln P_0 - sum of
    ln a[m], m < k, gives P_k = p_k and P_{k-1} = a_k p_{k-1}, so (4.5.7)'s
    t2 is (2k + s + 1) a_k^2 p_{k-1}.  The values agree with the orthonormal
    kernel's to a few ulps of the pair's magnitude, and far less than that
    relative to P_k only where P_k is much smaller than P_{k-1}.  The fifth
    output indexes the points where |P_k| <= _PAIR_GUARD * max(|P_k|,
    |P_{k-1}|), or the value is nan: there P_k's sign may differ from the
    orthonormal kernel's, and eval_value_and_deriv_parts at those points
    gives its bits.  Elsewhere the sign is the orthonormal kernel's.
    """
    xs = _interior_points(x)
    b, a, ln_p0 = _recurrence_coeffs(p.k, p.alpha, p.beta)
    c = a * a
    yv, prev, off = _kernels.monic_recurrence(xs, b, c, ln_p0 - float(np.log(a[: p.k]).sum()), p.k)
    # _PAIR_GUARD < 1, so |P_k| > _PAIR_GUARD * |P_k| wherever P_k != 0, and
    # the test reduces to |P_k| against _PAIR_GUARD * |P_{k-1}|
    near = np.flatnonzero(~(np.abs(yv) > (_PAIR_GUARD * a[p.k - 1]) * np.abs(prev)))
    return (*_value_and_deriv(p, xs, yv, prev, off, c[p.k - 1]), near)


def _interior_points(x) -> np.ndarray:
    xs = np.ascontiguousarray(x, dtype=float).ravel()
    if xs.size and not (xs.min() > -1.0 and xs.max() < 1.0):
        raise ValueError("the value and derivative pair needs points strictly inside (-1, 1)")
    return xs


def _value_and_deriv(p: Params, xs, yv, prev, off, coef):
    # (yv, dv, off, cond) of eval_value_and_deriv_parts from the kernel's
    # last pair, P_k = yv * exp(off) and a_k P_{k-1} = coef * prev * exp(off):
    # coef is a_k for the orthonormal pair, a_k^2 for the monic one, and
    # unused at k = 0
    if p.k == 0:
        return yv, np.zeros(xs.size), off, np.ones(xs.size)
    s = p.alpha + p.beta
    t1 = (p.k * ((p.alpha - p.beta) / (2.0 * p.k + s) - xs)) * yv
    t2 = ((2.0 * p.k + s + 1.0) * coef) * prev
    t = t1 + t2
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = (np.abs(t1) + np.abs(t2)) / np.abs(t)
    return yv, t / ((1.0 - xs) * (1.0 + xs)), off, cond


def eval_orthonormal_deriv(p: Params, x: float) -> ScaledReal:
    """d/dx of the orthonormal P_k at x."""
    val, off = eval_orthonormal_deriv_parts(p, np.array([float(x)]))
    return ScaledReal.from_parts(float(val[0]), float(off[0]))


def value_at_zero_even(k: int, alpha: float) -> ScaledReal:
    """Closed-form orthonormal P_k(0) for even k and equal exponents alpha."""
    if k % 2:
        raise ValueError("closed form at the origin needs even k")
    p = Params(k, alpha, alpha)
    half = k // 2
    ln_classical = (
        log_gamma(k + alpha + 1.0)
        - k * _LN2
        - log_gamma(half + 1.0)
        - log_gamma(half + alpha + 1.0)
    )
    sign = -1 if half % 2 else 1
    return ScaledReal(sign, ln_classical - 0.5 * log_norm(p))


def _exp_saturating(ln: float) -> float:
    if ln == -math.inf:
        return 0.0
    if ln > _LN_FLOAT_MAX:
        return math.inf
    return math.exp(ln)


def _endpoint_ln_M(p: Params, x: float, w: Window) -> float:
    """ln M's one-sided limit at the window endpoint x: -inf where M vanishes, +inf where it diverges.

    At an endpoint inside (-1, 1) the square root vanishes and the weight is
    finite.  At x = 1 (x = -1) the square root and the weight together go
    like |1 - x|^net (|1 + x|^net), net = alpha + 1/2 (beta + 1/2); at
    net = 0 the limit is the rest of M at x.
    """
    if abs(x) != 1.0:
        return -math.inf
    net, other = (p.alpha + 0.5, p.beta) if x == 1.0 else (p.beta + 0.5, p.alpha)
    if net != 0.0:
        return -math.inf if net > 0.0 else math.inf
    return 0.5 * math.log(w.width) + other * _LN2 + 2.0 * eval_orthonormal(p, x).ln_mag


def weighted_M(p: Params, x: float, w: Window) -> WeightedValue:
    """M(x) = sqrt((x-d_m)(d_M-x)) (1-x)^alpha (1+x)^beta P_k(x)^2.

    Returns (value, ln_value); value saturates to inf/0.0 when exp would
    overflow/underflow while ln_value stays exact.  At a window endpoint the
    one-sided limit is returned; a divergent limit raises ValueError.
    Inside the window ln_value comes from weighted_ln_parts, the one interior
    ln M formula, and has the same bits as that function's value at x in any
    batch of points.
    """
    x = float(x)
    if not (w.d_m <= x <= w.d_M):
        raise ValueError(f"x = {x} outside window [{w.d_m}, {w.d_M}]")
    if x == w.d_m or x == w.d_M:
        ln = _endpoint_ln_M(p, x, w)
        if ln == math.inf:
            raise ValueError("M diverges at x = 1 for alpha < -1/2" if x == 1.0 else "M diverges at x = -1 for beta < -1/2")
    else:
        ln = float(weighted_ln_parts(p, [x], w)[0])
    return WeightedValue(_exp_saturating(ln), ln)


def weighted_ln_parts(p: Params, x, w: Window) -> np.ndarray:
    """ln M at strictly interior points, vectorized; -inf where P_k vanishes."""
    xs = np.ascontiguousarray(x, dtype=float).ravel()
    if xs.size and (np.min(xs) <= w.d_m or np.max(xs) >= w.d_M):
        raise ValueError("points must lie strictly inside the window")
    return _weighted_ln(p, xs, w, *eval_orthonormal_parts(p, xs))


def _ln_window_factor(p: Params, x, w: Window):
    """ln u at interior x, a float or an array: M = u^2 P_k^2 with u = ((x - d_m)(d_M - x))^(1/4) w(x)^(1/2)."""
    return (
        0.25 * (np.log(x - w.d_m) + np.log(w.d_M - x))
        + 0.5 * p.alpha * np.log1p(-x)
        + 0.5 * p.beta * np.log1p(x)
    )


def _dln_window_factor(p: Params, x, w: Window):
    """(ln u)' at interior x, a float or an array."""
    return (
        0.25 * (1.0 / (x - w.d_m) - 1.0 / (w.d_M - x))
        - 0.5 * p.alpha / (1.0 - x)
        + 0.5 * p.beta / (1.0 + x)
    )


def _weighted_ln(p: Params, xs: np.ndarray, w: Window, val: np.ndarray, off: np.ndarray) -> np.ndarray:
    # ln M = 2 (ln u + ln |P_k|) at xs from P_k = val * exp(off) there;
    # extrema's records pass the parts they also read y's sign from
    with np.errstate(divide="ignore"):
        ln_p = np.log(np.abs(val)) + off
    return 2.0 * (_ln_window_factor(p, xs, w) + ln_p)


def ode_residual(p: Params, x: float) -> float:
    """Relative residual of (1-x^2) y'' - ((a+b+2)x + a-b) y' + k(k+a+b+1) y = 0.

    The second derivative comes from chaining the first-derivative reduction
    twice, so this cross-checks the evaluation and derivative routes at once.
    To check many points, pass them all to ode_residuals: it makes one
    kernel call per derivative order for the whole set.
    """
    return ode_residuals(p, [float(x)])[0]


def ode_residuals(p: Params, x) -> list[float]:
    """ode_residual at every point of x, with y, y' and y'' from one kernel call each.

    The three terms t1 = (1-x^2) y'', t2 = -((a+b+2)x + a-b) y' and
    t3 = k(k+a+b+1) y are formed as ln|t| arrays from the kernel's
    (significand, ln offset) outputs, so no point overflows.  Each point's
    terms are scaled by its largest one; the residual is |t1 + t2 + t3|
    divided by |t3| + |y'| + 1 under the same scale.  Every operation is
    elementwise, so a point's residual has the same bits as a call of
    ode_residual at it alone.
    """
    xs = np.ascontiguousarray(x, dtype=float).ravel()
    if not np.all((xs > -1.0) & (xs < 1.0)):
        raise ValueError("residual is defined for -1 < x < 1")
    return _ode_residuals(p, xs, *eval_derivatives_parts(p, [xs, xs, xs]))


def _ode_residuals(p: Params, xs: np.ndarray, y_parts, yp_parts, ypp_parts) -> list[float]:
    # the residuals at xs from the (significand, ln offset) pairs of y, y', y''
    (y, y_off), (yp, yp_off), (ypp, ypp_off) = y_parts, yp_parts, ypp_parts
    s = p.alpha + p.beta
    sig = np.stack([ypp * (1.0 - xs * xs), yp * -((s + 2.0) * xs + (p.alpha - p.beta)), y * (p.k * (p.k + s + 1.0))])
    with np.errstate(divide="ignore"):
        ln_t = np.log(np.abs(sig)) + np.stack([ypp_off, yp_off, y_off])
        ln_yp = np.log(np.abs(yp)) + yp_off
    top = np.max(ln_t, axis=0)
    top[top == -np.inf] = 0.0  # every term vanishes
    t1, t2, t3 = np.sign(sig) * np.exp(ln_t - top)
    with np.errstate(over="ignore"):
        den = np.abs(t3) + np.exp(ln_yp - top) + np.exp(-top)
    return (np.abs((t1 + t2) + t3) / den).tolist()

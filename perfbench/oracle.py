"""Independent evaluator of ln M for the dense-grid correctness gate.

It shares no code with the package: the recurrence coefficients are written
out from the textbook three-term recurrence of the orthonormal Jacobi
polynomials, the norm uses math.lgamma, and the running pair is rescaled by
powers of two so degrees in the hundreds and exponents up to 1e5 stay finite.
"""

import math

import numpy as np


def _coefficients(k, alpha, beta):
    """Diagonal b[0..k-1] and off-diagonal a[1..k] of the Jacobi matrix."""
    s = alpha + beta
    b = np.empty(k)
    a = np.empty(k + 1)
    a[0] = 0.0
    b[0] = (beta - alpha) / (s + 2.0)
    a[1] = 2.0 / (s + 2.0) * math.sqrt((1.0 + alpha) * (1.0 + beta) / (s + 3.0))
    for n in range(1, k):
        t = 2.0 * n + s
        b[n] = (beta * beta - alpha * alpha) / (t * (t + 2.0))
        m = n + 1
        tm = 2.0 * m + s
        a[m] = 2.0 / tm * math.sqrt(m * (m + alpha) * (m + beta) * (m + s) / ((tm - 1.0) * (tm + 1.0)))
    return b, a


def ln_abs_p(k, alpha, beta, xs):
    """ln |P_k(x)| of the orthonormal polynomial at every x in xs."""
    s = alpha + beta
    ln_p0 = -0.5 * ((s + 1.0) * math.log(2.0) + math.lgamma(alpha + 1.0) + math.lgamma(beta + 1.0) - math.lgamma(s + 2.0))
    off = np.full(xs.shape, ln_p0)
    if k == 0:
        return off
    b, a = _coefficients(k, alpha, beta)
    prev = np.zeros_like(xs)
    cur = np.ones_like(xs)
    for n in range(k):
        nxt = ((xs - b[n]) * cur - a[n] * prev) / a[n + 1]
        prev, cur = cur, nxt
        mag = np.maximum(np.abs(cur), np.abs(prev))
        big = mag > 1e100
        if big.any():
            e = np.floor(np.log2(mag[big]))
            cur[big] = np.ldexp(cur[big], -e.astype(np.int64))
            prev[big] = np.ldexp(prev[big], -e.astype(np.int64))
            off[big] += e * math.log(2.0)
    with np.errstate(divide="ignore"):
        return np.log(np.abs(cur)) + off


def zero_interval(k, alpha, beta):
    """Gershgorin interval of the Jacobi matrix: every zero of P_k lies inside."""
    if k == 0:
        return -1.0, 1.0
    b, a = _coefficients(k, alpha, beta)
    radius = a[:k] + a[1 : k + 1]
    radius[-1] = a[k - 1]
    return float(np.min(b - radius)), float(np.max(b + radius))


def dense_max_ln_m(k, alpha, beta, d_m, d_M):
    """Largest ln M over an angle-uniform grid plus a grid over the zero set.

    Every sampled value is a lower bound on the true maximum over the window,
    so a reported global maximum below it (beyond tolerance) is wrong.
    """
    n = 8 * (k + 2)
    theta = np.linspace(math.acos(d_M), math.acos(d_m), n + 2)[1:-1]
    lo, hi = zero_interval(k, alpha, beta)
    pad = 0.5 * (hi - lo) + 2.0 / (k + 2.0)
    lo, hi = max(lo - pad, d_m), min(hi + pad, d_M)
    grids = [np.cos(theta)]
    if lo < hi:
        grids.append(np.linspace(lo, hi, n + 2)[1:-1])
    xs = np.concatenate(grids)
    xs = xs[(xs > d_m) & (xs < d_M)]
    ln_m = (
        0.5 * (np.log(xs - d_m) + np.log(d_M - xs))
        + alpha * np.log1p(-xs)
        + beta * np.log1p(xs)
        + 2.0 * ln_abs_p(k, alpha, beta, xs)
    )
    return float(np.max(ln_m))

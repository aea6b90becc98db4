"""Renormalized three-term recurrence kernel, vectorized over evaluation points.

One numpy loop evaluates one row of points per call and returns the last pair
of the recurrence, P_k and P_{k-1}, which share one log offset.  The running
pair is rescaled by an exact power of two whenever its magnitude leaves
[1e-150, 1e150], so the significand sequence is identical to what
unbounded-range arithmetic would produce while the power of two accumulates
in a separate log offset.

A step is five numpy calls on preallocated 1-D buffers, each coefficient
passed as a 0-d array view, built once per call.  One growth bound per call,
built at most once, tells which steps need the range test; a step that may
leave the range examines only the points whose |P_m| left it.
"""

import math

import numpy as np

__all__ = ["recurrence", "USING_NUMBA"]

_LN2 = math.log(2.0)
_HI = 1e150
_LO = 1e-150
_min = np.minimum.reduce
_max = np.maximum.reduce
# per-step log slack in the growth bounds, far above rounding in one step
_SLACK = 1e-3
# fewest remaining steps for which the growth bounds are worth computing
_BOUND_STEPS = 16

# there is no numba backend; the constant stays because benchmark results
# record it in their environment stamp
USING_NUMBA = False


def _step_bounds(x, b, a, k):
    """Running log bounds on how far max(|pc|, |pm|) can grow and shrink.

    Step m maps (pm, pc) to (pc, ((x - b[m]) pc - a[m-1] pm) / a[m]), so the
    larger magnitude of the pair grows at most by (|x - b[m]| + a[m-1]) / a[m]
    and shrinks at most by (|x - b[m]| + a[m]) / a[m-1].  Entry m of each
    array sums the log factors of steps 1..m, padded for rounding.
    """
    xb = float(_max(np.abs(x), None)) + np.abs(b[1:k])
    grow = np.log(np.maximum(1.0, (xb + a[: k - 1]) / a[1:k])) + _SLACK
    shrink = np.log(np.maximum(1.0, (xb + a[1:k]) / a[: k - 1])) + _SLACK
    return np.concatenate([[0.0], np.cumsum(grow)]), np.concatenate([[0.0], np.cumsum(shrink)])


def _next_check(bounds, m, top, low):
    """First step after m at which an element of max(|pc|, |pm|), now within
    [low, top] inside [_LO, _HI], could leave [_LO, _HI]."""
    grow, shrink = bounds
    j_hi = np.searchsorted(grow, grow[m] + math.log(_HI / top), "right")
    j_lo = np.searchsorted(shrink, shrink[m] + math.log(low / _LO), "right")
    return int(min(j_hi, j_lo))


def recurrence(x, b, a, ln_start, k):
    """Evaluate the orthonormal polynomials of degrees k and k - 1 at every x.

    Returns (val, prev, off) with P_k = val * exp(off) and P_{k-1} =
    prev * exp(off): the last pair of the recurrence shares one offset, and
    prev is 0 at k = 0.  x is a 1-D array, b and a are the diagonal and
    off-diagonal recurrence coefficient arrays and ln_start is the log of the
    degree-0 polynomial.
    """
    n = x.shape[0]
    off = np.full(n, float(ln_start))
    if k == 0:
        return np.ones(n), np.zeros(n), off
    if n == 0 or k == 1:
        return (x - b[0]) / a[0], np.ones(n), off
    # each step's coefficients as 0-d arrays, the operands numpy applies fastest
    ac = [a[m, ...] for m in range(k)]
    bc = [b[m, ...] for m in range(k)]
    pm = np.ones(n)
    pc = (x - bc[0]) / ac[0]
    t = np.empty(n)
    bounds = None
    check = 1
    for m in range(1, k):
        # ((x - b[m]) * pc - a[m-1] * pm) / a[m] in place: the old pm is not
        # needed afterwards and becomes the spare buffer
        np.subtract(x, bc[m], t)
        t *= pc
        pm *= ac[m - 1]
        t -= pm
        t /= ac[m]
        pm, pc, t = pc, t, pm
        if m >= check:
            check = m + 1
            # |pm| <= _HI holds from the previous step, so |pc| inside
            # [_LO, _HI] everywhere means no element needs rescaling
            np.abs(pc, t)
            low, top = _min(t, None), _max(t, None)
            if low >= _LO and top <= _HI:
                if k - m > _BOUND_STEPS:
                    # skip the test for as long as the growth bounds allow,
                    # started from the pair's extremes
                    if bounds is None:
                        bounds = _step_bounds(x, b, a, k)
                    check = _next_check(bounds, m, max(top, _max(np.abs(pm), None)), low)
            else:
                # and so only a point with |pc| outside [_LO, _HI] can need
                # it; step 1's pm is the untested (x - b[0]) / a[0], and is
                # tested too
                cand = (t < _LO) | (t > _HI)
                if m == 1:
                    cand |= np.abs(pm) > _HI
                c = np.flatnonzero(cand)
                mag = np.maximum(t[c], np.abs(pm[c]))
                bad = (mag > _HI) | ((mag > 0.0) & (mag < _LO))
                c, mag = c[bad], mag[bad]
                if c.size:
                    e = np.floor(np.log2(mag)).astype(np.int64)
                    sc = np.ldexp(1.0, -e)
                    pc[c] *= sc
                    pm[c] *= sc
                    off[c] += e * _LN2
    return pc, pm, off

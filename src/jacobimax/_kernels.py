"""Renormalized three-term recurrence kernels, vectorized over evaluation points.

Each kernel evaluates one row of points per call in one numpy loop and returns
the last pair of the recurrence, P_k and P_{k-1}, which share one log offset.
The running pair is renormalized by exact powers of two, which accumulate in
the offset, so the significand sequence is identical to what unbounded-range
arithmetic would produce.  There are two kernels, one loop each:

- recurrence, the orthonormal one, P_{m+1} = ((x - b_m) P_m - a_{m-1}
  P_{m-1}) / a_m.  Every value that decides an answer's bits comes from it:
  single points, the derivative families, the scan's Newton steps and
  refinement rounds, and every verify row.  Its pair is rescaled only when
  its larger magnitude, max(|P_m|, |P_{m-1}|), has left [1e-150, 1e150]: a
  range test of that magnitude, spaced by one growth bound of it per call,
  finds those points, and only they are rescaled, so every value and offset
  is the one a test after every step would give.
- monic_recurrence, the division-free one (Gautschi, Orthogonal Polynomials:
  Computation and Approximation, 2004, 1.3), p_{m+1} = (x - b_m) p_m -
  c_{m-1} p_{m-1} with c = a^2, which the caller turns into P_k by a log
  offset.  It saves the step's divide, and the scan's sign grids, the
  kernel's largest rows, use it (jacobi.eval_value_and_deriv_monic).  Only
  it may renormalize early: its loop has no range test, and every point's
  pair is renormalized before each step that a schedule, built from the
  coefficients alone, says could take it out of [1e-150, 1e150].  So its
  significands and signs are those of unbounded-range arithmetic too, but
  its values' exponents and its offsets' rounding follow the schedule; the
  scan reads their signs and ratios, and seeds its Hermite fits from them.

A step is five numpy calls (four in the monic form) on preallocated 1-D
buffers, each coefficient passed as a 0-d array view, built once per call; a
centred family (every b[m] +0.0) skips the subtract, one call fewer.
"""

import math

import numpy as np

__all__ = ["recurrence", "monic_recurrence", "USING_NUMBA"]

_LN2 = math.log(2.0)
_HI = 1e150
_LO = 1e-150
_min = np.minimum.reduce
_max = np.maximum.reduce
_LN_HI = math.log(_HI)
_LN_LO = math.log(_LO)
# per-step log slack in the growth bounds, far above rounding in one step
_SLACK = 1e-3

# there is no numba backend; the constant stays because benchmark results
# record it in their environment stamp
USING_NUMBA = False


def _log_growth(x, b, a, k):
    """Log of one factor bounding how far max(|pc|, |pm|) can grow or shrink in a step.

    Step m maps (pm, pc) to (pc, ((x - b[m]) pc - a[m-1] pm) / a[m]), so the
    larger magnitude of the pair grows at most by (|x - b[m]| + a[m-1]) / a[m]
    and shrinks at most by (|x - b[m]| + a[m]) / a[m-1].  Over the call's
    steps, (max|x| + max|b| + max a) / min a bounds both; its log is padded
    for rounding.
    """
    ak = a[:k]
    xb = _max(np.abs(x), None) + _max(np.abs(b[1:k]), None)
    return math.log(xb + ak.max()) - math.log(ak.min()) + _SLACK


def _centred(b, k):
    # x - (+0.0) is x bit for bit, -0.0 included; x - (-0.0) turns -0.0 into
    # +0.0, so only an all-bits-zero diagonal skips the subtract
    return not b[1:k].view(np.uint64).any()


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
    if k == 0 or n == 0:
        return np.ones(n), np.zeros(n), off
    # each step's coefficients as 0-d arrays, the operands numpy applies fastest
    ac = [a[m, ...] for m in range(k)]
    bc = None if _centred(b, k) else [b[m, ...] for m in range(k)]
    pm = np.ones(n)
    pc = x - b[0]
    pc /= ac[0]
    t = np.empty(n)
    growth = None
    check = 1
    for m in range(1, k):
        # ((x - b[m]) * pc - a[m-1] * pm) / a[m] in place: the old pm is not
        # needed afterwards and becomes the spare buffer
        if bc is None:
            np.multiply(x, pc, t)
        else:
            np.subtract(x, bc[m], t)
            t *= pc
        pm *= ac[m - 1]
        t -= pm
        t /= ac[m]
        pm, pc, t = pc, t, pm
        if m >= check:
            check = m + 1
            # the pair's larger magnitude, the one number each decision reads
            np.abs(pc, t)
            np.maximum(t, np.abs(pm), out=t)
            low, top = _min(t, None), _max(t, None)
            if low >= _LO and top <= _HI:
                # no point needs rescaling, and every pair magnitude lies in
                # [low, top]: j more steps keep it in range while j * growth
                # stays within the log distance to either end
                if check < k:
                    if growth is None:
                        growth = _log_growth(x, b, a, k)
                    check += int(min(math.log(_HI / top), math.log(low / _LO)) / growth)
            else:
                # rescale the points whose pair left the range; a zero or
                # nan pair is left as it is
                c = np.flatnonzero((t > _HI) | ((t > 0.0) & (t < _LO)))
                if c.size:
                    e = np.floor(np.log2(t[c])).astype(np.int64)
                    sc = np.ldexp(1.0, -e)
                    pc[c] *= sc
                    pm[c] *= sc
                    off[c] += e * _LN2
    return pc, pm, off


def _renormalizations(b, c, k):
    """The steps m of a monic row before which its pair is renormalized, from the coefficients alone.

    Step m maps (pm, pc) to (pc, (x - b[m]) pc - c[m-1] pm).  For |x| <= 1
    the larger magnitude of the pair grows at most by 1 + |b[m]| + c[m-1] and
    shrinks at most by max(1, (2 + |b[m]|) / c[m-1]).  The pair starts at
    (1, x - b[0]), magnitude in [1, 1 + |b[0]|], and a renormalization puts
    it in [1/2, 1).  Summing the padded log factors from there, the pair is
    renormalized before each step after which it could lie outside [_LO,
    _HI]; a step whose own factor exceeds that band gets one renormalization
    before it all the same.  The schedule never reads x, so a point's value
    does not depend on the other points of its call.
    """
    bm = np.abs(b[1:k])
    cm = c[: k - 1]
    grow = (np.log(1.0 + bm + cm) + _SLACK).tolist()
    shrink = (np.log(np.maximum((2.0 + bm) / cm, 1.0)) + _SLACK).tolist()
    hi, lo = math.log1p(abs(float(b[0]))) + _SLACK, 0.0
    steps = []
    for m, (g, s) in enumerate(zip(grow, shrink), 1):
        if hi + g > _LN_HI or lo - s < _LN_LO:
            steps.append(m)
            hi, lo = 0.0, -_LN2
        hi += g
        lo -= s
    return steps


def monic_recurrence(x, b, c, ln_start, k):
    """Evaluate the monic polynomials p_k and p_{k-1} of the recurrence at every x in [-1, 1], without a division.

    Returns (val, prev, off) with p_k exp(ln_start) = val * exp(off) and
    p_{k-1} exp(ln_start) = prev * exp(off); prev is 0 at k = 0.  c holds
    the squares of the off-diagonal coefficients a, and p_k = P_k P_0^-1
    a[0] ... a[k-1] for the orthonormal P_k.  So with ln_start = ln P_0 -
    sum_{m<k} ln a[m], P_k = val * exp(off) and P_{k-1} = a[k-1] * prev *
    exp(off).

    The pair is renormalized on a schedule (_renormalizations) that depends
    on b, c and k only, never on x, each time by the power of two that puts
    its larger magnitude in [1/2, 1).  The powers add up in an integer
    exponent E per point, and off = ln_start + E ln 2 is formed once at the
    end, so it carries one rounding however often the pair was renormalized.
    """
    n = x.shape[0]
    if k == 0 or n == 0:
        return np.ones(n), np.zeros(n), np.full(n, float(ln_start))
    cc = [c[m, ...] for m in range(k - 1)]
    bc = None if _centred(b, k) else [b[m, ...] for m in range(k)]
    pm = np.ones(n)
    pc = x - b[0]
    t = np.empty(n)
    exp = None
    start = 1
    for stop in (*_renormalizations(b, c, k), k):
        for m in range(start, stop):
            # (x - b[m]) * pc - c[m-1] * pm in place: the old pm is not
            # needed afterwards and becomes the spare buffer
            if bc is None:
                np.multiply(x, pc, t)
            else:
                np.subtract(x, bc[m], t)
                t *= pc
            pm *= cc[m - 1]
            t -= pm
            pm, pc, t = pc, t, pm
        if stop < k:
            # before step `stop`: divide the pair by 2^e, e the binary
            # exponent of its larger magnitude (0 for a zero or nan pair)
            np.abs(pc, t)
            np.maximum(t, np.abs(pm), out=t)
            e = np.frexp(t)[1]
            if exp is None:
                exp = e.astype(np.int64)
            else:
                exp += e
            np.negative(e, e)
            np.ldexp(pc, e, pc)
            np.ldexp(pm, e, pm)
        start = stop
    off = np.full(n, float(ln_start)) if exp is None else float(ln_start) + exp * _LN2
    return pc, pm, off

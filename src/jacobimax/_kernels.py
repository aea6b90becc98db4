"""Renormalized three-term recurrence kernel, vectorized over evaluation points.

One numpy loop evaluates one row of points per call and returns the last pair
of the recurrence, P_k and P_{k-1}, which share one log offset.  The running
pair is rescaled by an exact power of two whenever its magnitude leaves
[1e-150, 1e150], so the significand sequence is identical to what
unbounded-range arithmetic would produce while the power of two accumulates
in a separate log offset.

The loop runs in one of two normalizations:

- recurrence, the orthonormal one, P_{m+1} = ((x - b_m) P_m - a_{m-1}
  P_{m-1}) / a_m.  Every value that decides an answer's bits comes from it:
  single points, the derivative families, the scan's Newton steps and
  refinement rounds, and every verify row.
- monic_recurrence, the division-free one (Gautschi, Orthogonal Polynomials:
  Computation and Approximation, 2004, 1.3), p_{m+1} = (x - b_m) p_m -
  c_{m-1} p_{m-1} with c = a^2, which the caller turns into P_k by a log
  offset.  It saves the step's divide, and the scan's sign grids, the
  kernel's largest rows, use it (jacobi.eval_value_and_deriv_monic).

A step is five numpy calls (four in the monic form) on preallocated 1-D
buffers, each coefficient passed as a 0-d array view, built once per call; a
centred family (every b[m] +0.0) skips the subtract, one call fewer.  One
growth bound per call, built at most once and particular to the
normalization, tells how many steps may pass before the next range test; a
step that may leave the range examines only the points whose |P_m| left it.
"""

import math

import numpy as np

__all__ = ["recurrence", "monic_recurrence", "USING_NUMBA"]

_LN2 = math.log(2.0)
_HI = 1e150
_LO = 1e-150
_min = np.minimum.reduce
_max = np.maximum.reduce
# per-step log slack in the growth bound, far above rounding in one step
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


def _log_growth_monic(x, b, c, k):
    """Log of one factor bounding how far max(|pc|, |pm|) can grow or shrink in a monic step.

    Step m maps (pm, pc) to (pc, (x - b[m]) pc - c[m-1] pm), so the larger
    magnitude of the pair grows at most by max(1, |x - b[m]| + c[m-1]) and
    shrinks at most by max(1, (|x - b[m]| + 1) / c[m-1]).  Over the call's
    steps, X + B + max c and (X + B + 1) / min c bound both, X = max|x| and
    B = max|b|; the log of the larger, which is positive (min c > X + B + 1
    forces max c > 1), is padded for rounding.
    """
    ck = c[: k - 1]
    xb = _max(np.abs(x), None) + _max(np.abs(b[1:k]), None)
    return max(math.log(xb + ck.max()), math.log(xb + 1.0) - math.log(ck.min())) + _SLACK


def recurrence(x, b, a, ln_start, k):
    """Evaluate the orthonormal polynomials of degrees k and k - 1 at every x.

    Returns (val, prev, off) with P_k = val * exp(off) and P_{k-1} =
    prev * exp(off): the last pair of the recurrence shares one offset, and
    prev is 0 at k = 0.  x is a 1-D array, b and a are the diagonal and
    off-diagonal recurrence coefficient arrays and ln_start is the log of the
    degree-0 polynomial.
    """
    return _run(x, b, a, ln_start, k, True)


def monic_recurrence(x, b, c, ln_start, k):
    """Evaluate the monic polynomials p_k and p_{k-1} of the recurrence at every x, without a division.

    Returns (val, prev, off) with p_k exp(ln_start) = val * exp(off) and
    p_{k-1} exp(ln_start) = prev * exp(off); prev is 0 at k = 0.  c holds
    the squares of the off-diagonal coefficients a, and p_k = P_k P_0^-1
    a[0] ... a[k-1] for the orthonormal P_k.  So with ln_start = ln P_0 -
    sum_{m<k} ln a[m], P_k = val * exp(off) and P_{k-1} = a[k-1] * prev *
    exp(off).
    """
    return _run(x, b, c, ln_start, k, False)


def _run(x, b, a, ln_start, k, orthonormal):
    # the one loop of both normalizations: a holds the off-diagonals for the
    # orthonormal form and their squares for the monic one, which never divides
    n = x.shape[0]
    off = np.full(n, float(ln_start))
    if k == 0:
        return np.ones(n), np.zeros(n), off
    if n == 0 or k == 1:
        return ((x - b[0]) / a[0] if orthonormal else x - b[0]), np.ones(n), off
    # each step's coefficients as 0-d arrays, the operands numpy applies fastest
    ac = [a[m, ...] for m in range(k)]
    # x - (+0.0) is x bit for bit, -0.0 included; x - (-0.0) turns -0.0 into
    # +0.0, so only an all-bits-zero diagonal skips the subtract
    bc = [b[m, ...] for m in range(k)] if b[1:k].view(np.uint64).any() else None
    pm = np.ones(n)
    pc = x - b[0]
    if orthonormal:
        pc /= ac[0]
    t = np.empty(n)
    growth = None
    check = 1
    for m in range(1, k):
        # ((x - b[m]) * pc - a[m-1] * pm) / a[m] in place, without the divide
        # in the monic form: the old pm is not needed afterwards and becomes
        # the spare buffer
        if bc is None:
            np.multiply(x, pc, t)
        else:
            np.subtract(x, bc[m], t)
            t *= pc
        pm *= ac[m - 1]
        t -= pm
        if orthonormal:
            t /= ac[m]
        pm, pc, t = pc, t, pm
        if m >= check:
            check = m + 1
            np.abs(pc, t)
            low, top = _min(t, None), _max(t, None)
            if low >= _LO and top <= _HI:
                # |pm| <= _HI holds from the previous step, except for step
                # 1's pm, the untested (x - b[0]) / a[0]
                top = max(top, _max(np.abs(pm), None))
            if low >= _LO and top <= _HI:
                # no element needs rescaling, and every pair magnitude lies
                # in [low, top]: j more steps keep it in range while
                # j * growth stays within the log distance to either end
                if check < k:
                    if growth is None:
                        growth = (_log_growth if orthonormal else _log_growth_monic)(x, b, a, k)
                    check += int(min(math.log(_HI / top), math.log(low / _LO)) / growth)
            else:
                # only a point with |pc| outside [_LO, _HI] can need it, and
                # at step 1 a point whose pm is above _HI
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

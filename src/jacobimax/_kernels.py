"""Renormalized three-term recurrence kernel, vectorized over evaluation points.

One numpy loop evaluates every call and returns the last pair of the
recurrence, P_k and P_{k-1}, which share one log offset.  recurrence_rows
steps several rows, each with its own points, coefficients and degree, in
that loop; recurrence is its one-row case.  The running pair is rescaled by
an exact power of two whenever its magnitude leaves [1e-150, 1e150], so the
significand sequence is identical to what unbounded-range arithmetic would
produce while the power of two accumulates in a separate log offset.

A call is one pass: one step loop over the whole stack up to the largest
degree.  A step is five numpy calls on preallocated buffers, each
coefficient passed as a 0-d array (one row) or an (r, 1) column (a stack),
built once per call.  One growth bound per call, built at most once, tells
which steps need the range test; a step that may leave the range examines
only the points whose |P_m| left it.
"""

import math

import numpy as np

__all__ = ["recurrence", "recurrence_rows", "USING_NUMBA"]

_LN2 = math.log(2.0)
_HI = 1e150
_LO = 1e-150
_min = np.minimum.reduce
_max = np.maximum.reduce
# per-step log slack in the growth bounds, far above rounding in one step
_SLACK = 1e-3
# fewest remaining steps for which the growth bounds are worth computing
_BOUND_STEPS = 16
# most points of a row that is stacked with others: numpy applies a row's
# (r, 1) coefficient column more slowly than a 0-d one, which on longer rows
# costs more than the per-step call overhead stacking saves.  Two rows of
# n points at k = 400, stacked against one call each: 0.8x at n = 128,
# 1.0-1.1x at 512, 1.1-1.2x at 1,024, and 0.8x at every n up to 2,048 for
# (1e3, 1e3), which rescales on half its steps; the extrema-cli pool took
# the same time within noise with 128, 256 and 512
_STACK_POINTS = 512

# there is no numba backend; the constant stays because benchmark results
# record it in their environment stamp
USING_NUMBA = False


def _step_bounds(x, b, a, k):
    """Running log bounds on how far max(|pc|, |pm|) can grow and shrink.

    Step m maps (pm, pc) to (pc, ((x - b[m]) pc - a[m-1] pm) / a[m]), so the
    larger magnitude of the pair grows at most by (|x - b[m]| + a[m-1]) / a[m]
    and shrinks at most by (|x - b[m]| + a[m]) / a[m-1].  b and a are one
    row's coefficients or a stack's (k, r, 1) columns, whose rows share the
    largest factor of each step.  Entry m of each array sums the log factors
    of steps 1..m, padded for rounding.
    """
    xb = float(_max(np.abs(x), None)) + np.abs(b[1:k])
    grow = np.log(np.maximum(1.0, (xb + a[: k - 1]) / a[1:k])).reshape(k - 1, -1).max(1) + _SLACK
    shrink = np.log(np.maximum(1.0, (xb + a[1:k]) / a[: k - 1])).reshape(k - 1, -1).max(1) + _SLACK
    return np.concatenate([[0.0], np.cumsum(grow)]), np.concatenate([[0.0], np.cumsum(shrink)])


def _next_check(bounds, m, top, low):
    """First step after m at which an element of max(|pc|, |pm|), now within
    [low, top] inside [_LO, _HI], could leave [_LO, _HI]."""
    grow, shrink = bounds
    j_hi = np.searchsorted(grow, grow[m] + math.log(_HI / top), "right")
    j_lo = np.searchsorted(shrink, shrink[m] + math.log(low / _LO), "right")
    return int(min(j_hi, j_lo))


def _recurrence_rows(rows):
    """(val, prev, off) of every row (x, b, a, ln_start, k), stacked in one loop.

    The live rows, those with k >= 2 and 1 to _STACK_POINTS points (a longer
    one runs alone), are stacked into (rows, points) arrays; a shorter row is
    padded with copies of its last point, so the padding repeats the values
    of a real point and leaves every row's extremes as they are.  Every step
    updates the whole stack, with each row's coefficients broadcast along it,
    and a row's pair is taken right after its own last step, as a copy when
    later steps reuse the buffers.  A row past its degree steps on with b = 0
    and a = 1, values that are never read.  Every operation is elementwise,
    and a point is rescaled exactly when its pair leaves [_LO, _HI], so each
    row has the bits of a call on that row alone.  One live row keeps 1-D
    arrays and 0-d coefficient arrays, numpy's fastest path.
    """
    out = [None] * len(rows)
    live = []
    for i, (x, b, a, ln_start, k) in enumerate(rows):
        n = x.shape[0]
        if k == 0:
            out[i] = (np.ones(n), np.zeros(n), np.full(n, ln_start))
        elif n == 0 or k == 1:
            out[i] = ((x - b[0]) / a[0], np.ones(n), np.full(n, ln_start))
        elif n > _STACK_POINTS and len(rows) > 1:
            out[i] = _recurrence_rows([rows[i]])[0]
        else:
            live.append(i)
    if not live:
        return out
    ks = [rows[i][4] for i in live]
    sizes = [rows[i][0].shape[0] for i in live]
    r, n, k = len(live), max(sizes), max(ks)
    # stacked rows that end before the last step, keyed by their own last step
    ends = {}
    if r == 1:
        xs, bt, at, ln_start, _ = rows[live[0]]
        off = np.full(n, ln_start)
    else:
        xs = np.empty((r, n))
        off = np.empty((r, n))
        # coefficient m of every row as an (r, 1) column, padded past its degree
        bt = np.zeros((k, r, 1))
        at = np.ones((k, r, 1))
        for j, i in enumerate(live):
            x, b, a, ln_start, kj = rows[i]
            xs[j, : sizes[j]] = x
            xs[j, sizes[j] :] = x[-1]
            off[j] = ln_start
            bt[:kj, j, 0] = b[:kj]
            at[:kj, j, 0] = a[:kj]
            if kj < k:
                ends.setdefault(kj - 1, []).append(j)
    # each step's coefficients as the operands numpy applies fastest: 0-d
    # arrays for one row, (r, 1) columns for a stack
    ac = [at[m, ...] for m in range(k)]
    bc = [bt[m, ...] for m in range(k)]
    pm = np.ones(xs.shape)
    pc = (xs - bc[0]) / ac[0]
    t = np.empty(xs.shape)
    bounds = None
    check = 1
    for m in range(1, k):
        # ((x - b[m]) * pc - a[m-1] * pm) / a[m] in place: the old pm is not
        # needed afterwards and becomes the spare buffer
        np.subtract(xs, bc[m], t)
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
                    # skip the test for as long as the stack's growth bounds
                    # allow, started from its extremes
                    if bounds is None:
                        bounds = _step_bounds(xs, bt, at, k)
                    check = _next_check(bounds, m, max(top, _max(np.abs(pm), None)), low)
            else:
                # and so only a point with |pc| outside [_LO, _HI] can need
                # it; step 1's pm is the untested (x - b[0]) / a[0], and is
                # tested too
                cand = (t < _LO) | (t > _HI)
                if m == 1:
                    cand |= np.abs(pm) > _HI
                c = np.flatnonzero(cand)
                pcf, pmf = pc.reshape(-1), pm.reshape(-1)
                mag = np.maximum(t.reshape(-1)[c], np.abs(pmf[c]))
                bad = (mag > _HI) | ((mag > 0.0) & (mag < _LO))
                c, mag = c[bad], mag[bad]
                if c.size:
                    e = np.floor(np.log2(mag)).astype(np.int64)
                    sc = np.ldexp(1.0, -e)
                    pcf[c] *= sc
                    pmf[c] *= sc
                    off.reshape(-1)[c] += e * _LN2
        if m in ends:
            for j in ends[m]:
                out[live[j]] = (pc[j, : sizes[j]].copy(), pm[j, : sizes[j]].copy(), off[j, : sizes[j]].copy())
    # the rows left all end on the last step
    pc, pm, off = (v.reshape(r, -1) for v in (pc, pm, off))
    for j in range(r):
        if ks[j] == k:
            out[live[j]] = (pc[j, : sizes[j]], pm[j, : sizes[j]], off[j, : sizes[j]])
    return out


def recurrence(x, b, a, ln_start, k):
    """Evaluate the orthonormal polynomials of degrees k and k - 1 at every x.

    Returns (val, prev, off) with P_k = val * exp(off) and P_{k-1} =
    prev * exp(off): the last pair of the recurrence shares one offset, and
    prev is 0 at k = 0.  b and a are the diagonal/off-diagonal recurrence
    coefficient arrays and ln_start is the log of the degree-0 polynomial.
    This is recurrence_rows with one row.
    """
    return _recurrence_rows([(x, b, a, float(ln_start), k)])[0]


def recurrence_rows(rows):
    """recurrence on several rows (x, b, a, ln_start, k) in one loop.

    Each row has its own points, coefficients, ln start and degree; rows may
    differ in length.  Returns one (val, prev, off) per row, in order, each
    with the bits of recurrence called on that row alone.  The loop's fixed
    cost per step is paid once for all rows, which is what makes it cheaper
    than one call per row when rows are short.
    """
    return _recurrence_rows([(x, b, a, float(ln_start), k) for x, b, a, ln_start, k in rows])

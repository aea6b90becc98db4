"""Locate every local extremum of the weighted square M over a window.

Interior maxima of M = f^2 are zeros of f' and interior minima are zeros of
f, where f = u y is the transformed solution from the envelope frame and u
the window factor that jacobi owns, so that f' = u q with q = y' + y (ln u)'
(jacobi._dln_window_factor).  The signs of y and of q are sampled on an
angle-uniform grid, cross-checked at four times the density, and bracketed;
both families' brackets then form one array.  Each bracket's root is located
by a cubic Hermite fit to the grid values and Newton steps on fresh values.
y's roots are these Newton roots, unless Newton did not converge.  q's roots,
which decide which of two mirror-image maxima global_max reports, are those
that bisecting q's computed sign function would give, to the last bit: each
round replays the bisection's midpoint sequence against the located roots, and
signs are evaluated, in one batch per round, only at the midpoints too close
to a root to decide.  An unconverged y bracket is bisected the same way on y.

One evaluator, _signs, computes every sign and value the scan uses: both
grids, every Newton step and every refinement round.  It takes y and y' from
the recurrence's last pair, and q's sign is defined by the shifted-family
route, y' = c Q_{k-1}^{(alpha+1, beta+1)} (eval_orthonormal_deriv_parts): a
point whose q is too close to 0 for the two routes to be sure to agree is
re-evaluated by that route.  The grids, the largest kernel rows, take the
pair from the division-free monic recurrence; a node where y or q is too
close to 0 for the two normalizations to be sure to agree is re-evaluated on
the orthonormal one and carries the orthonormal pipeline's bits, so every grid
sign, and with them the brackets, the count checks and every q root, is the
orthonormal pipeline's, and so are the values at a node-exact root.
Otherwise the grid's values only seed the Hermite fits, so a minimum, a Newton
root of y, can move by ulps with them; Newton steps and refinement rounds use
the orthonormal kernel, which fixes every maximum's bits.  P_k at a root is
read where the scan already evaluates: the grid's pair values at a node-exact
root, and the refine round's pair call, which takes the round's roots
alongside its asked midpoints, at the others.  Kinds come from signs the scan
already has: M = 0 at a root of y, a minimum, and at a root of q, where M' =
2 u^2 y q, M has a maximum iff y there has q's sign just left of it.  An
endpoint's record holds ln M's one-sided limit there (jacobi._endpoint_ln_M);
global_max raises rather than report M = 0.

The memo is per (k, alpha, beta), with an entry per window, errors included.
Windows asked for together are scanned in one pass (_scan): they share every
kernel call and every numpy pass, and the stages whose tests span a call run
per window, so each window keeps the bits of a scan of it alone.
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Optional

import numpy as np

from .envelope import Geometry, turning_point
from .jacobi import (
    _PAIR_GUARD,
    Params,
    Window,
    _dln_window_factor,
    _endpoint_ln_M,
    _exp_saturating,
    _weighted_ln,
    eval_orthonormal_deriv_parts,
    eval_orthonormal_parts,
    eval_value_and_deriv_monic,
    eval_value_and_deriv_parts,
)

__all__ = [
    "Comparison",
    "ExtremumRecord",
    "GridTooCoarseError",
    "StructureReport",
    "scan_extrema",
    "global_max",
    "structure_checks",
]

# smallest trust radius about a located root; the computed sign functions
# switch within a few ulps of it, and a root within twice it has converged
_TRUST_FLOOR = 1e-12
# scan grid nodes per degree: max(64, _NODES_PER_DEGREE * (k + 2)) interior nodes
_NODES_PER_DEGREE = 12
# width within which the refinement's bisection stops
_REFINE_TOL = 1e-13
# most Newton steps taken from the Hermite guess of a root
_NEWTON_STEPS = 3


class GridTooCoarseError(RuntimeError):
    """Raised when the scan cannot certify that it lost no extremum.

    Either refining the scan grid 4x changes the number of sign changes of y
    or q, or the full window's 4x grid finds other than k zeros of y (every
    zero of P_k lies in (-1, 1) for alpha, beta > -1: Szego, Thm 3.3.1), or
    two consecutive extrema, with kinds read from signs, are of the same kind
    (not alternating), or global_max's best candidate has M = 0: M vanishes
    at both ends then, and M > 0 inside forces an interior maximum.
    """


@dataclass(frozen=True)
class ExtremumRecord:
    """One interior critical point of M, left-to-right index order."""

    index: int
    x: float
    M: float
    ln_M: float
    kind: str  # "max" or "min"


def _band_halfwidth(p: Params) -> float:
    # oscillation band in x: all sign activity of y and f' lives well inside
    # 1.5 cos(tau - |omega|) + 2/(k+1); beyond it both are monotone
    return min(1.0, 1.5 * turning_point(p) + 2.0 / (p.k + 1.0))


def _sorted_distinct(a: np.ndarray) -> np.ndarray:
    """a sorted, with each value once: np.unique for finite a that never holds both zeros.

    np.unique itself would load numpy.ma on first use.
    """
    a = np.sort(a)
    keep = np.ones(a.size, dtype=bool)
    np.not_equal(a[1:], a[:-1], out=keep[1:])
    return a[keep]


def _scan_points(p: Params, w: Window, n: int) -> np.ndarray:
    lo_t = math.acos(w.d_M)
    hi_t = math.acos(w.d_m)
    thetas = [np.linspace(lo_t, hi_t, n + 2)[1:-1]]
    bx = _band_halfwidth(p)
    b_lo = math.acos(min(bx, w.d_M))
    b_hi = math.acos(max(-bx, w.d_m))
    if (b_lo > lo_t or b_hi < hi_t) and b_lo < b_hi:
        thetas.append(np.linspace(b_lo, b_hi, n + 2)[1:-1])
    xs = _sorted_distinct(np.cos(np.concatenate(thetas)))
    return xs[(xs > w.d_m) & (xs < w.d_M)]


class _Ends(NamedTuple):
    """The window ends of a joint scan, one row per point; read elementwise where a Window's are."""

    d_m: np.ndarray
    d_M: np.ndarray


def _at(w, rows):
    """The window ends at `rows` of w: a Window holds for every row as it is."""
    return w if isinstance(w, Window) else _Ends(w.d_m[rows], w.d_M[rows])


def _signs(p: Params, w, xs: np.ndarray, n=None, grid=False):
    """Signs of y and q at xs, and the parts (yv, yo, dv, do): the scan's one evaluator.

    y and y' come from the recurrence's last pair, in one kernel call for all
    of xs (eval_value_and_deriv_parts).  q's sign is defined by the
    shifted-family route, eval_orthonormal_deriv_parts.  The two routes' y'
    agree to a few 1e-12 * cond relative, cond being the pair's cancellation
    factor, so a point where |q| <= _PAIR_GUARD * max(1, cond) * (|y'| + |y g|)
    takes y' and q's sign from the shifted family instead, in one more call
    for all such points; elsewhere the two routes give the same sign.  Only
    the first n points (all by default) are guarded: the others are asked
    for y's parts alone.  w is a Window, or the window ends per point of a
    joint scan (_Ends).

    The scan grids (grid=True, every point guarded) take the pair from the
    division-free monic recurrence instead (eval_value_and_deriv_monic),
    whose values differ from the orthonormal kernel's by rounding.  Every
    point where y or q is too close to 0 for that rounding to be sure to
    keep its sign, |y| <= _PAIR_GUARD * max(|y|, |P_{k-1}|) or q guarded as
    above, takes the orthonormal pair's bits, in one call for all of them,
    and is guarded again on them: there every output is the default path's
    bit for bit, node-exact roots of y and q included.  Elsewhere the monic
    values carry the default path's signs, and differ only in bits that seed
    the Hermite fits.
    """
    if grid:
        yv, dv, yo, cond, redo = eval_value_and_deriv_monic(p, xs)
    else:
        yv, dv, yo, cond = eval_value_and_deriv_parts(p, xs)
    g = _dln_window_factor(p, xs, w)
    yg = yv * g
    q = dv + yg
    near = np.flatnonzero(_q_unsure(q[:n], dv[:n], yg[:n], cond[:n]))
    if grid:
        redo = _sorted_distinct(np.concatenate([redo, near]))
        if redo.size:
            for part, ortho in zip((yv, dv, yo, cond), eval_value_and_deriv_parts(p, xs[redo])):
                part[redo] = ortho
            yg[redo] = yv[redo] * g[redo]
            q[redo] = dv[redo] + yg[redo]
            near = redo[_q_unsure(q[redo], dv[redo], yg[redo], cond[redo])]
    sq = np.sign(q)
    do = yo.copy()
    if near.size:
        dv[near], do[near] = eval_orthonormal_deriv_parts(p, xs[near])
        # q = y' + y (ln u)' on the larger of the two offsets
        om = np.maximum(do[near], yo[near])
        sq[near] = np.sign(dv[near] * np.exp(do[near] - om) + yg[near] * np.exp(yo[near] - om))
    return np.sign(yv), sq, (yv, yo, dv, do)


def _q_unsure(q, dv, yg, cond):
    # where |q| <= _PAIR_GUARD * max(1, cond) * (|y'| + |y g|): not |q| > bound,
    # so that a nan q or bound counts too
    return ~(np.abs(q) > _PAIR_GUARD * np.maximum(1.0, cond) * (np.abs(dv) + np.abs(yg)))


def _root_structure(s: np.ndarray):
    """Indices of the node-exact roots, and of the left node of each bracket of opposite signs."""
    exact = np.flatnonzero(s == 0.0)
    nz = np.flatnonzero(s != 0.0)
    if nz.size < 2:
        return exact, np.empty(0, dtype=np.intp)
    left = nz[:-1]
    right = nz[1:]
    flip = (right == left + 1) & (s[left] * s[right] < 0.0)
    return exact, left[flip]


def _count_roots(s: np.ndarray) -> int:
    exact, left = _root_structure(s)
    return exact.size + left.size


def _slopes(p: Params, w, xs, yv, yo, dv, do):
    """(om, y, y', F, F') at xs, each value scaled by exp(-om) at its point.

    F = phi q with phi = (x - d_m)(d_M - x)(1 - x^2) > 0 inside the window, so
    F has the sign and the zeros of q but none of the poles of (ln u)'.  Its
    derivative takes y'' from the differential equation.
    """
    om = np.maximum(yo, do)
    y = yv * np.exp(yo - om)
    d = dv * np.exp(do - om)
    s = p.alpha + p.beta
    w2 = (xs - w.d_m) * (w.d_M - xs)
    u2 = (1.0 - xs) * (1.0 + xs)
    c = w.d_M + w.d_m - 2.0 * xs
    lin = p.beta - p.alpha - s * xs
    psi = 0.25 * u2 * c + 0.5 * w2 * lin
    dpsi = 0.25 * (-2.0 * xs * c - 2.0 * u2) + 0.5 * (c * lin - s * w2)
    dphi = c * u2 - 2.0 * xs * w2
    lam = p.k * (p.k + s + 1.0)
    bcoef = (s + 2.0) * xs + p.alpha - p.beta
    f = w2 * u2 * d + psi * y
    df = (dphi + psi + w2 * bcoef) * d + (dpsi - w2 * lam) * y
    return om, y, d, f, df


def _hermite_root(x0, x1, f0, d0, f1, d1):
    """Zero in (x0, x1) of the cubic matching f and f' at both ends (f0 f1 < 0).

    Safeguarded Newton steps in t = (x - x0) / (x1 - x0), at most 8, until
    every bracket's step is below 1e-15.
    """
    h = x1 - x0
    b0 = h * d0
    b1 = h * d1
    c2 = -3.0 * f0 - 2.0 * b0 + 3.0 * f1 - b1
    c3 = 2.0 * f0 + b0 - 2.0 * f1 + b1
    lo = np.zeros_like(h)
    hi = np.ones_like(h)
    t = f0 / (f0 - f1)
    for _ in range(8):
        pt = ((c3 * t + c2) * t + b0) * t + f0
        dp = (3.0 * c3 * t + 2.0 * c2) * t + b0
        left = np.sign(pt) == np.sign(f0)
        lo = np.where(left, t, lo)
        hi = np.where(left, hi, t)
        step = pt / dp
        t = t - step
        t = np.where((t >= lo) & (t <= hi), t, 0.5 * (lo + hi))
        # a nan step has not converged
        if (np.abs(step) < 1e-15).all():
            break
    return x0 + t * h


def _locate(p: Params, w, ends, parts, is_y, cuts):
    """Model roots of the brackets and their trust radii.

    `ends` holds every bracket's left node, then every right node, `parts`
    the grid's (yv, yo, dv, do) there, and is_y marks y's brackets; `w` is
    the brackets' window, one Window or one row per bracket (_Ends), and
    cuts the slices of the brackets of each window.  A cubic Hermite fit to
    the grid values, of y for y's brackets and of F for q's, gives a first
    guess, one fit per window; Newton steps on y or F, evaluated by _signs at
    all brackets' points together, land it within a few ulps of the computed
    sign change.  The radius grows with the square of the last step, the size
    of the error Newton leaves; a bracket whose radius is above twice its
    floor takes another step, up to _NEWTON_STEPS.  A bracket without a
    usable step gets an infinite radius: its model is trusted nowhere.
    """
    n = is_y.size
    lo, hi = ends[:n], ends[n:]
    w2 = w if isinstance(w, Window) else _Ends(np.tile(w.d_m, 2), np.tile(w.d_M, 2))
    om, y, d, f, df = _slopes(p, w2, ends, *parts)
    both = np.concatenate([is_y, is_y])
    v = np.where(both, y, f)
    dv = np.where(both, d, df)
    # one scale per bracket: rescale the right node to the left node's
    rs = np.exp(om[n:] - om[:n])
    v0, d0, v1, d1 = v[:n], dv[:n], v[n:] * rs, dv[n:] * rs
    # the fit's stopping test spans its call, so each window fits on its own
    x = np.concatenate([_hermite_root(lo[c], hi[c], v0[c], d0[c], v1[c], d1[c]) for c in cuts])
    x = np.where((x > lo) & (x < hi), x, 0.5 * (lo + hi))
    eps = np.full(x.size, math.inf)
    todo = np.arange(x.size)
    for _ in range(_NEWTON_STEPS):
        wt = _at(w, todo)
        _, y, d, f, df = _slopes(p, wt, x[todo], *_signs(p, wt, x[todo])[2])
        step = np.where(is_y[todo], -y / d, -f / df)
        new = x[todo] + step
        ok = np.isfinite(new) & (new > lo[todo]) & (new < hi[todo])
        todo, step = todo[ok], step[ok]
        x[todo] = new[ok]
        eps[todo] = _TRUST_FLOOR + 64.0 * step * step / (hi[todo] - lo[todo])
        todo = todo[eps[todo] > 2.0 * _TRUST_FLOOR]
        if not todo.size:
            break
    return x, eps


def _lookup(known, xs):
    """(found, sign) of each point of xs in the sorted evaluated points `known`."""
    kx, ks = known
    if kx.size == 0:
        return np.zeros(xs.shape, dtype=bool), np.zeros(xs.shape)
    i = np.minimum(np.searchsorted(kx, xs), kx.size - 1)
    return kx[i] == xs, ks[i]


def _replay(lo, hi, s_lo, root, known, tol: float):
    """Run the bisection's midpoint sequence with signs that are not evaluated.

    The bisection halves every bracket [lo, hi] (sign s_lo at lo) until the
    widest is within tol.  Here a midpoint takes its sign from `known` (sorted
    points and their evaluated signs) where it is there, and otherwise from
    the side of the model root it lies on.  Returns the refined roots and
    every midpoint visited, one row per halving.
    """
    lo = lo.copy()
    hi = hi.copy()
    look = known[0].size > 0
    # an evaluated zero closes its bracket on the midpoint; without one, each
    # halving halves every width (up to rounding far below tol), so a width
    # test cannot pass in the first floor(log2(widest / tol)) - 2 halvings,
    # and the bisection stops within blind + 5
    zeros = look and bool((known[1] == 0.0).any())
    widest = float((hi - lo).max())
    blind = math.floor(math.log2(widest / tol)) - 2 if widest > tol else 0
    mids = np.empty((blind + 8, lo.size))
    first_test = 0 if zeros else blind
    j = 0
    while j < len(mids) and (j < first_test or not (hi - lo).max() <= tol):
        mid = mids[j]
        np.add(lo, hi, out=mid)
        mid *= 0.5
        same = mid < root
        if look:
            found, sign = _lookup(known, mid)
            np.copyto(same, sign == s_lo, where=found)
        to_hi = ~same
        if zeros:
            hit = found & (sign == 0.0)
            same |= hit
            to_hi |= hit
        np.copyto(lo, mid, where=same)
        np.copyto(hi, mid, where=to_hi)
        j += 1
    return (lo + hi) * 0.5, mids[:j]


def _refine(lo, hi, s_lo, root, eps, tol: float):
    """Bracket roots, bit-identical to bisecting one computed sign function: a generator of rounds.

    Bracket i is [lo[i], hi[i]], with sign s_lo[i] at lo[i], model root
    root[i] and trust radius eps[i].  Each round replays the bisection
    against the model roots and yields (roots, asked): the replay's roots,
    and every sign the replay took from the model within eps of a root and
    that is not evaluated yet, as sorted points.  The first round also asks
    root -/+ eps; where either is not on its model side, the bracket's model
    is trusted nowhere.  The caller sends back the signs at the asked
    points, which join one sorted known set.  The generator ends when every
    evaluated sign agrees with the sign the replay used; a round that asks
    nothing is final and is not resumed.  Either way that round's roots are
    the answer.  Outside eps the model is trusted: the computed sign function
    changes sign once per bracket.
    """
    known = (np.empty(0), np.empty(0))
    gl, gr = root - eps, root + eps
    first = True
    while True:
        out, mids = _replay(lo, hi, s_lo, root, known, tol)
        ask = np.abs(mids - root) <= eps
        ask[ask] = ~_lookup(known, mids[ask])[0]
        # each asked midpoint and the bracket it belongs to
        pts, at = mids[ask], np.nonzero(ask)[1]
        new = _sorted_distinct(np.concatenate([pts, gl[gl > lo], gr[gr < hi]]) if first else pts)
        signs = yield out, new
        kx = np.concatenate([known[0], new])
        order = np.argsort(kx, kind="stable")
        known = kx[order], np.concatenate([known[1], signs])[order]
        got = _lookup(known, pts)[1]
        agree = not (((got == s_lo[at]) != (pts < root[at])) | (got == 0.0)).any()
        if first:
            trusted = ((gl <= lo) | (_lookup(known, gl)[1] == s_lo)) & ((gr >= hi) | (_lookup(known, gr)[1] == -s_lo))
            agree &= bool(trusted.all())
            eps = np.where(trusted, eps, math.inf)
        if agree:
            return
        first = False


def _settle(p: Params, w, lo, hi, s_lo, root, eps, groups):
    """Every bracket's final root, and P_k there as (val, off).

    groups lists the (bracket indices, family) pairs that bisect (_refine),
    one per window and family, since a replay's stopping test spans its
    call; family 0 reads y's signs, 1 q's.  The other brackets keep their
    model roots, and the first round reads P_k at them.  Each round replays
    every live group and makes one _signs call for the points they ask, with
    the round's roots appended for their pair values alone, so P_k at a final
    root comes from the pair call of the round that fixed it; a round that
    asks nothing reads its roots from one eval_orthonormal_parts call.
    """
    x = root.copy()
    val, off = np.empty(x.size), np.empty(x.size)
    # (bracket indices, family, rounds, the round's roots, its asked points)
    live = []
    fixed = np.ones(x.size, dtype=bool)
    for idx, fam in groups:
        fixed[idx] = False
        rounds = _refine(lo[idx], hi[idx], s_lo[idx], root[idx], eps[idx], _REFINE_TOL)
        live.append((idx, fam, rounds, *next(rounds)))
    # the model roots are final from the start, and read in the first round
    idx = np.flatnonzero(fixed)
    if idx.size:
        live.append((idx, 0, None, root[idx], np.empty(0)))
    while live:
        at = np.concatenate([g[0] for g in live])
        roots = np.concatenate([g[3] for g in live])
        asked = np.concatenate([g[4] for g in live])
        if asked.size:
            wr = w
            if not isinstance(w, Window):
                # each point's bracket, for its window
                wr = _at(w, np.concatenate([np.full(g[4].size, g[0][0]) for g in live] + [at]))
            sy, sq, (yv, yo, _, _) = _signs(p, wr, np.concatenate([asked, roots]), asked.size)
            val[at], off[at] = yv[asked.size :], yo[asked.size :]
        else:
            val[at], off[at] = eval_orthonormal_parts(p, roots)
        x[at] = roots
        nxt, start = [], 0
        for idx, fam, rounds, _, new in live:
            if new.size:
                signs = (sy, sq)[fam][start : start + new.size]
                start += new.size
                try:
                    nxt.append((idx, fam, rounds, *rounds.send(signs)))
                except StopIteration:
                    pass
        live = nxt
    return x, val, off


def _records(p: Params, w: Window, roots, of_y, q_left, val, off) -> tuple[ExtremumRecord, ...]:
    """The window's records, sorted by x, from its roots and P_k = val * exp(off) there.

    of_y marks y's roots and q_left holds q's sign just left of each root.
    M = 0 at a root of y, a minimum; at a root of q, M' = 2 u^2 y q, so M
    rises into it, and it is a maximum, iff y there has q's sign just left of
    it.  Two neighbours of one kind raise GridTooCoarseError.
    """
    order = np.argsort(roots, kind="stable")
    roots, of_y, q_left, val, off = roots[order], of_y[order], q_left[order], val[order], off[order]
    ln_M = _weighted_ln(p, roots, w, val, off)
    is_max = ~of_y & (np.sign(val) == q_left)
    records = [
        ExtremumRecord(index=i, x=float(x), M=_exp_saturating(float(ln)), ln_M=float(ln), kind="max" if top else "min")
        for i, (x, ln, top) in enumerate(zip(roots, ln_M, is_max))
    ]
    for a, b in zip(records, records[1:]):
        if a.kind == b.kind:
            raise GridTooCoarseError(
                f"non-alternating extrema near x={a.x:.6g} and x={b.x:.6g} for "
                f"k={p.k}, alpha={p.alpha}, beta={p.beta}"
            )
    return tuple(records)


def _scan(p: Params, windows: list[Window]) -> list:
    """Each window's records, or the GridTooCoarseError it raised, from one pass over all of them.

    The windows' points share every _signs call, and so every kernel call,
    and every numpy pass of _slopes and the Newton steps, with the window
    ends per point (_Ends) where there is more than one window.  The stages
    whose tests span their call run per window: the count checks, the Hermite
    fits and the replays.  Kernel outputs at a point do not depend on the
    points that share its call, so each window's records have the bits of a
    scan of it alone.
    """
    out = [()] * len(windows)
    # M = P_0^2 = 1/pi is constant at k = 0 with alpha = beta = -1/2 on the
    # full window: q vanishes identically, and its computed signs are
    # rounding noise
    live = [i for i, w in enumerate(windows) if not (p.k == 0 and w.is_full and p.alpha == p.beta == -0.5)]
    if not live:
        return out
    n = max(64, _NODES_PER_DEGREE * (p.k + 2))
    grids = [(_scan_points(p, windows[i], n), _scan_points(p, windows[i], 4 * n)) for i in live]
    xs = np.concatenate([g for pair in grids for g in pair])
    if len(live) == 1:
        wx = windows[live[0]]
    else:
        sizes = [g1.size + g4.size for g1, g4 in grids]
        wx = _Ends(*(np.repeat([getattr(windows[i], e) for i in live], sizes) for e in ("d_m", "d_M")))
    # every window's two grids, in one monic recurrence call
    sy, sq, parts = _signs(p, wx, xs, grid=True)
    # per window that passes the count checks: (its index, start of its 4x
    # grid in xs, node-exact roots of y and q)
    kept, lefts, is_y, s_lo, cuts = [], [], [], [], []
    end = nb = 0
    for i, (g1, g4) in zip(live, grids):
        c, m = end, end + g1.size
        end = m + g4.size
        (ye, yl), (qe, ql) = _root_structure(sy[m:end]), _root_structure(sq[m:end])
        if _count_roots(sy[c:m]) != ye.size + yl.size or _count_roots(sq[c:m]) != qe.size + ql.size:
            out[i] = GridTooCoarseError(
                f"sign-change count changed under 4x refinement for k={p.k}, alpha={p.alpha}, beta={p.beta}"
            )
        elif windows[i].is_full and ye.size + yl.size != p.k:
            out[i] = GridTooCoarseError(
                f"found {ye.size + yl.size} of the {p.k} zeros of P_k for k={p.k}, alpha={p.alpha}, beta={p.beta}"
            )
        else:
            # both families' brackets in one array, y's first, window by window
            cuts.append(slice(nb, nb + yl.size + ql.size))
            nb += yl.size + ql.size
            kept.append((i, m, ye, qe))
            lefts += [m + yl, m + ql]
            is_y += [np.ones(yl.size, dtype=bool), np.zeros(ql.size, dtype=bool)]
            s_lo += [sy[m + yl], sq[m + ql]]
    if not kept:
        return out
    left, is_y, s_lo = np.concatenate(lefts), np.concatenate(is_y), np.concatenate(s_lo)
    found, val, off = np.empty(0), np.empty(0), np.empty(0)
    if left.size:
        lo, hi, wb = xs[left], xs[left + 1], _at(wx, left)
        ends = np.concatenate([left, left + 1])
        with np.errstate(all="ignore"):
            found, eps = _locate(p, wb, xs[ends], tuple(a[ends] for a in parts), is_y, cuts)
        # y's converged Newton roots are its roots; q's brackets, and y's that
        # Newton left unconverged, bisect on their own sign function
        groups = []
        for c in cuts:
            yc = is_y[c]
            for fam, sel in ((0, yc & ~(eps[c] <= 2.0 * _TRUST_FLOOR)), (1, ~yc)):
                if sel.any():
                    groups.append((np.flatnonzero(sel) + c.start, fam))
        found, val, off = _settle(p, wb, lo, hi, s_lo, found, eps, groups)
    yv, yo = parts[0], parts[1]
    for (i, m, ye, qe), c in zip(kept, cuts):
        # every root, whether it is y's, q's sign just left of it (s_lo for a
        # bracket, the node before for a node-exact root, 0 at the first
        # node) and P_k there: node-exact roots read the grid's pair values
        ex = np.concatenate([m + ye, m + qe])
        try:
            out[i] = _records(
                p,
                windows[i],
                np.concatenate([xs[ex], found[c]]),
                np.concatenate([np.ones(ye.size, dtype=bool), np.zeros(qe.size, dtype=bool), is_y[c]]),
                np.concatenate([np.zeros(ye.size), sq[m + np.maximum(qe - 1, 0)], s_lo[c]]),
                np.concatenate([yv[ex], val[c]]),
                np.concatenate([yo[ex], off[c]]),
            )
        except GridTooCoarseError as exc:
            out[i] = exc
    return out


@lru_cache(maxsize=1024)
def _cached_scan(k: int, alpha: float, beta: float) -> dict:
    """The scan memo of one triple: (d_m, d_M) to the window's records, or the GridTooCoarseError it raised."""
    return {}


def _scan_windows(p: Params, windows) -> dict:
    """The triple's scan memo, after one joint scan (_scan) of every window of `windows` not in it yet.

    Two threads that scan one window at once both scan it and store the same
    records: a scan's result depends on its inputs alone.
    """
    memo = _cached_scan(p.k, p.alpha, p.beta)
    # each window once: at alpha = beta = 1/2 the delta window is the full one
    todo = {(w.d_m, w.d_M): w for w in windows if (w.d_m, w.d_M) not in memo}
    if todo:
        memo.update(zip(todo, _scan(p, list(todo.values()))))
    return memo


def scan_extrema(p: Params, w: Window) -> list[ExtremumRecord]:
    """All interior critical points of M on the window, sorted by x.

    Samples the signs of y and q on a theta-uniform grid of max(64, 12 (k+2))
    interior nodes (plus a denser pass over the oscillation band when the
    weight pushes all activity toward the center), from the monic recurrence
    with the orthonormal kernel's signs (_signs), verifies the root counts
    against a 4x-density pass and, on the full window, that y has all k
    zeros, and locates each 4x-grid bracket's root by
    Newton steps (_locate).  A root of y is its Newton root; a root of q is
    exactly the one that bisecting q's computed sign function from its 4x-grid
    bracket to a width of 1e-13 gives (_refine), q's sign being the
    shifted-family route's everywhere (_signs).  A root of y is a minimum; a
    root of q is a maximum iff y has q's left sign there.
    With k = 0 and alpha = beta = -1/2 on the full window M is the constant
    1/pi, and the list is empty.  A list with no maximum where M vanishes at
    both ends is returned; global_max raises on it.  Results, and the
    GridTooCoarseError a window raises, are memoized per (k, alpha, beta),
    with one entry per window; windows asked for together (verify's sweep
    asks for every window its checks read) are scanned in one pass.  Each
    call returns a fresh list.
    """
    found = _scan_windows(p, (w,))[(w.d_m, w.d_M)]
    if isinstance(found, GridTooCoarseError):
        raise GridTooCoarseError(*found.args)
    return list(found)


def _endpoint_record(p: Params, w: Window, side: str) -> ExtremumRecord:
    x = w.d_M if side == "right" else w.d_m
    ln = _endpoint_ln_M(p, x, w)
    return ExtremumRecord(index=-1, x=x, M=_exp_saturating(ln), ln_M=ln, kind="max")


def global_max(p: Params, w: Window) -> ExtremumRecord:
    """The record with the largest M among scan_extrema's maxima and the endpoint limits.

    An exact tie in ln M goes to the smaller |x|, then to the larger x.
    Computed ties are almost never exact: when alpha = beta on a symmetric
    window, the two mirror-image maxima agree only up to rounding, and the
    rounding decides which of them is returned.  Endpoint candidates carry
    index -1 and their one-sided limit value (0, finite, or inf per the
    weight exponents).  A best candidate with M = 0 raises
    GridTooCoarseError: the scan lost the interior maximum.
    """
    records = scan_extrema(p, w)
    cands = [r for r in records if r.kind == "max"]
    cands.append(_endpoint_record(p, w, "left"))
    cands.append(_endpoint_record(p, w, "right"))
    best = max(cands, key=lambda r: (r.ln_M, -abs(r.x), r.x))
    if best.ln_M == -math.inf:
        where = f"[{w.d_m}, {w.d_M}], where M vanishes at both ends, for k={p.k}, alpha={p.alpha}, beta={p.beta}"
        raise GridTooCoarseError(f"found no maximum of M inside {where}")
    return best


class Comparison(NamedTuple):
    """The claim lhs < rhs; it holds when the margin rhs - lhs is positive."""

    lhs: float
    rhs: float

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs

    @property
    def holds(self) -> bool:
        return self.margin > 0.0


@dataclass(frozen=True)
class StructureReport:
    """Structural verdicts, each a Comparison; None when its landmark or its records are absent.

    Verdicts are plain comparisons on the records given; deciding whether a
    claim's hypotheses hold for the parameters is the caller's job.
    """

    # (maxima before x0, maxima after x0); a maximum at x0 counts in neither
    x0_split: Optional[tuple[int, int]]
    # (0, smallest fall of the maxima heights before x0 or rise after it, in M)
    unimodal_about_x0: Optional[Comparison]
    # (|x|, |eta|) of the extremum nearer its edge of (eta_minus, eta_plus)
    eta_containment: Optional[Comparison]
    # (largest |x| of a maximum, delta)
    delta_containment: Optional[Comparison]
    # (0, smallest drop in M between consecutive maxima at x >= 0)
    nonneg_maxima_decreasing: Comparison


def structure_checks(records: list[ExtremumRecord], geom: Geometry) -> StructureReport:
    """Compare extremum records against the closed-form landmarks in geom.

    The one place the four structural claims are computed; verify's
    structural rows report these (lhs, rhs) pairs as they are, so heights are
    compared as M, not ln M.  A containment claim is None without its
    landmark or its records, unimodality without x0; an ordering with
    nothing to compare has rhs = inf.
    """
    maxima = [r for r in records if r.kind == "max"]

    unimodal = split = None
    if geom.x0 is not None:
        left = [r for r in maxima if r.x < geom.x0]
        right = [r for r in maxima if r.x > geom.x0]
        # a maximum at x0 itself ends the falls before x0 and starts the rises after it
        at = [r for r in maxima if r.x == geom.x0]
        falls, rises = left + at, at + right
        slacks = [a.M - b.M for a, b in zip(falls, falls[1:])] + [b.M - a.M for a, b in zip(rises, rises[1:])]
        unimodal = Comparison(0.0, min(slacks) if slacks else math.inf)
        split = (len(left), len(right))

    eta = None
    if geom.eta_minus is not None and geom.eta_plus is not None and records:
        lo = min(r.x for r in records)
        hi = max(r.x for r in records)
        near_plus = geom.eta_plus - hi <= lo - geom.eta_minus
        eta = Comparison(hi, geom.eta_plus) if near_plus else Comparison(-lo, -geom.eta_minus)

    delta = None
    if geom.delta is not None and maxima:
        delta = Comparison(max(abs(r.x) for r in maxima), geom.delta)

    nonneg = [r for r in maxima if r.x > -1e-12]
    drops = [a.M - b.M for a, b in zip(nonneg, nonneg[1:])]

    return StructureReport(
        x0_split=split,
        unimodal_about_x0=unimodal,
        eta_containment=eta,
        delta_containment=delta,
        nonneg_maxima_decreasing=Comparison(0.0, min(drops) if drops else math.inf),
    )

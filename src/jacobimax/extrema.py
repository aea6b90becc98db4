"""Locate every local extremum of the weighted square M over a window.

Interior maxima of M = f^2 are the zeros of f' and interior minima are the
zeros of f, where f = u y is the transformed solution from the envelope
frame.  Both sign patterns are sampled on an angle-uniform grid, cross-checked
at four times the density, and bracketed.  Each bracket's root is located by
a cubic Hermite fit to the grid values and a Newton step on the freshly
evaluated function.  The roots reported are those that bisecting the computed
sign functions would give, to the last bit: the bisection's midpoint sequence
is replayed against the located root, and signs are evaluated, in one batch,
only at the midpoints too close to that root to decide.

The sign of y is that of the recurrence value.  The sign of q, whose zeros
are those of f', is defined by the shifted-family route: y' is
Q_{k-1}^{(alpha+1, beta+1)} times a constant (eval_orthonormal_deriv_parts).
The Newton steps and the bisection midpoints use that route, with two kernel
calls (y, then the shifted family) per Newton step and per refinement
round.  The grid takes y' from the recurrence's last pair instead,
in one kernel call for both grids, which saves a second recurrence per node,
and re-evaluates by the shifted family every node whose q is too close to 0
for the two routes to be sure to agree (_grid_signs).  So every sign,
bracket, root and kind is that of the shifted-family route.  An endpoint's
record holds ln M's one-sided limit there (jacobi._endpoint_ln_M).
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Optional

import numpy as np

from .envelope import Geometry, _dln_window_factor, turning_point
from .jacobi import (
    Params,
    Window,
    _endpoint_ln_M,
    _exp_saturating,
    eval_derivatives_parts,
    eval_orthonormal_deriv_parts,
    eval_value_and_deriv_parts,
    weighted_ln_parts,
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

_LN2 = math.log(2.0)
# smallest trust radius about a located root; the computed sign functions
# switch within a few ulps of it
_TRUST_FLOOR = 1e-12
# scan grid nodes per degree: max(64, _NODES_PER_DEGREE * (k + 2)) interior nodes
_NODES_PER_DEGREE = 12
# width within which the refinement's bisection stops
_REFINE_TOL = 1e-13
# most Newton steps taken from the Hermite guess of a root
_NEWTON_STEPS = 3
# relative distance of q from 0, per unit of the pair's cancellation factor,
# within which a grid node's q sign is taken from the shifted family; the two
# routes' y' differ by at most a few 1e-12 per unit in the tests
_PAIR_GUARD = 1e-6


class GridTooCoarseError(RuntimeError):
    """Raised when the scan cannot resolve the extrema.

    Either refining the scan grid 4x changes the number of sign changes, or
    two consecutive extrema found are of the same kind (not alternating).
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


def _scan_points(p: Params, w: Window, n: int) -> np.ndarray:
    lo_t = math.acos(w.d_M)
    hi_t = math.acos(w.d_m)
    thetas = [np.linspace(lo_t, hi_t, n + 2)[1:-1]]
    bx = _band_halfwidth(p)
    b_lo = math.acos(min(bx, w.d_M))
    b_hi = math.acos(max(-bx, w.d_m))
    if (b_lo > lo_t or b_hi < hi_t) and b_lo < b_hi:
        thetas.append(np.linspace(b_lo, b_hi, n + 2)[1:-1])
    xs = np.unique(np.cos(np.concatenate(thetas)))
    return xs[(xs > w.d_m) & (xs < w.d_M)]


def _eval_parts(p: Params, xs: np.ndarray):
    """(yv, yo, dv, do): y = P_k and y' at xs as significand / ln offset pairs, from one kernel call each."""
    (yv, yo), (dv, do) = eval_derivatives_parts(p, [xs, xs])
    return yv, yo, dv, do


def _grid_signs(p: Params, w: Window, xs: np.ndarray):
    """Signs of y and q at xs, plus the parts, from one recurrence call for all of xs.

    y and y' come from the recurrence's last pair (eval_value_and_deriv_parts).
    q's sign is defined by the shifted-family route (_q_signs on _eval_parts),
    which the refinement also uses.  The two routes' y' agree to a few
    1e-12 * cond relative, cond being the pair's cancellation factor, so a
    node where |q| <= _PAIR_GUARD * max(1, cond) * (|y'| + |y g|) takes y' and
    q's sign from the shifted family instead, in one more recurrence call for
    all such nodes; elsewhere the two routes give the same sign.
    """
    yv, dv, yo, cond = eval_value_and_deriv_parts(p, xs)
    yg = yv * _dln_window_factor(p, xs, w)
    q = dv + yg
    sq = np.sign(q)
    bound = _PAIR_GUARD * np.maximum(1.0, cond) * (np.abs(dv) + np.abs(yg))
    # not |q| > bound, so that a nan q or bound is re-evaluated too
    near = np.flatnonzero(~(np.abs(q) > bound))
    do = yo.copy()
    if near.size:
        dv[near], do[near] = eval_orthonormal_deriv_parts(p, xs[near])
        sq[near] = _q_signs(p, w, xs[near], yv[near], yo[near], dv[near], do[near])
    return np.sign(yv), sq, (yv, yo, dv, do)


def _q_signs(p: Params, w: Window, xs: np.ndarray, yv, yo, dv, do) -> np.ndarray:
    # q = y' + y * (ln u)'; shares interior zeros with the slope of sqrt(M)
    g = _dln_window_factor(p, xs, w)
    if p.k == 0:
        return np.sign(yv * g)
    om = np.maximum(do, yo)
    return np.sign(dv * np.exp(do - om) + yv * g * np.exp(yo - om))


def _root_structure(xs: np.ndarray, s: np.ndarray):
    """Node-exact roots plus the left node of each bracket [xs[i], xs[i+1]] of opposite signs."""
    exact = xs[s == 0.0]
    nz = np.flatnonzero(s != 0.0)
    if nz.size < 2:
        return exact, np.empty(0, dtype=np.intp)
    left = nz[:-1]
    right = nz[1:]
    flip = (right == left + 1) & (s[left] * s[right] < 0.0)
    return exact, left[flip]


def _count_roots(xs: np.ndarray, s: np.ndarray) -> int:
    exact, left = _root_structure(xs, s)
    return exact.size + left.size


def _slopes(p: Params, w: Window, xs, yv, yo, dv, do):
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
    """Zero in (x0, x1) of the cubic matching f and f' at both ends (f0 f1 < 0)."""
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
        t = t - pt / dp
        t = np.where((t >= lo) & (t <= hi), t, 0.5 * (lo + hi))
    return x0 + t * h


def _locate(p: Params, w: Window, xs, parts, y_left, q_left):
    """Model roots of y and q, one per bracket, with their trust radii.

    A cubic Hermite fit to the 4x-grid values of each bracket, one pass for
    the y and q brackets together, gives a first guess; a Newton step on y or
    F, evaluated afresh at both families' points together (one kernel call
    for y, one for y'), then lands it within a few ulps of the computed sign
    change.  The radius grows with the square of the last step, the size of
    the error Newton leaves; brackets whose radius is still above twice its
    floor take another step, up to _NEWTON_STEPS.  A bracket without a usable step gets an infinite radius:
    its model is trusted nowhere.
    """
    left = np.concatenate([y_left, q_left])
    lo = xs[left]
    hi = xs[left + 1]
    is_y = np.arange(left.size) < y_left.size
    # both families' brackets in one pass: y is fitted with y', q with F and F'
    ends = np.concatenate([left, left + 1])
    om, y, d, f, df = _slopes(p, w, xs[ends], *(a[ends] for a in parts))
    both = np.concatenate([is_y, is_y])
    v = np.where(both, y, f)
    dv = np.where(both, d, df)
    # one scale per bracket: rescale the right node to the left node's
    n = left.size
    rs = np.exp(om[n:] - om[:n])
    x = _hermite_root(lo, hi, v[:n], dv[:n], v[n:] * rs, dv[n:] * rs)
    x = np.where((x > lo) & (x < hi), x, 0.5 * (lo + hi))
    eps = np.full(x.size, math.inf)
    todo = np.arange(x.size)
    for _ in range(_NEWTON_STEPS):
        _, y, d, f, df = _slopes(p, w, x[todo], *_eval_parts(p, x[todo]))
        step = np.where(is_y[todo], -y / d, -f / df)
        new = x[todo] + step
        ok = np.isfinite(new) & (new > lo[todo]) & (new < hi[todo])
        todo, step = todo[ok], step[ok]
        x[todo] = new[ok]
        eps[todo] = _TRUST_FLOOR + 64.0 * step * step / (hi[todo] - lo[todo])
        todo = todo[eps[todo] > 2.0 * _TRUST_FLOOR]
        if not todo.size:
            break
    ny = y_left.size
    return (x[:ny], eps[:ny]), (x[ny:], eps[ny:])


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
    if lo.size == 0:
        return np.empty(0), np.empty((0, 0))
    lo = lo.copy()
    hi = hi.copy()
    look = known[0].size > 0
    mids = []
    for _ in range(200):
        if (hi - lo).max() <= tol:
            break
        mid = (lo + hi) * 0.5
        mids.append(mid)
        same = mid < root
        if look:
            found, sign = _lookup(known, mid)
            np.copyto(same, sign == s_lo, where=found)
            # an evaluated zero closes the bracket on the midpoint
            hit = found & (sign == 0.0)
            to_lo, to_hi = same | hit, ~same | hit
        else:
            to_lo, to_hi = same, ~same
        np.copyto(lo, mid, where=to_lo)
        np.copyto(hi, mid, where=to_hi)
    return (lo + hi) * 0.5, np.array(mids).reshape(-1, lo.size)


def _refine(p: Params, w: Window, brackets, tol: float):
    """y and q roots, bit-identical to bisecting their computed sign functions.

    `brackets` holds one (lo, hi, s_lo, root, eps) tuple of arrays for y and
    one for q.  Each round replays both bisections against the model roots
    and evaluates, in one kernel call each for y and the shifted family, every
    sign the replay took from the model within eps of a root: y at both
    families' points and the shifted family at q's only.  The first round also evaluates root -/+ eps;
    where either is not on its model side, the bracket's model is trusted
    nowhere and all its midpoints are evaluated.  Rounds repeat until every evaluated
    sign agrees with the sign the replay used.  Outside eps the model is
    trusted: the computed sign functions change sign once per bracket.
    """
    brackets = [list(b) for b in brackets]
    known = [(np.empty(0), np.empty(0))] * 2
    guards = [(root - eps, root + eps) for _, _, _, root, eps in brackets]
    first = True
    while True:
        results, asks, evals = [], [], []
        for (lo, hi, s_lo, root, eps), kn, (gl, gr) in zip(brackets, known, guards):
            res, mids = _replay(lo, hi, s_lo, root, kn, tol)
            results.append(res)
            ask = np.abs(mids - root) <= eps
            ask[ask] = ~_lookup(kn, mids[ask])[0]
            col = np.nonzero(ask)[1]
            # each asked midpoint, whether the replay put it on the s_lo side, and s_lo
            asks.append((mids[ask], mids[ask] < root[col], s_lo[col]))
            evals.append(np.unique(np.concatenate([mids[ask], gl[gl > lo], gr[gr < hi]] if first else [mids[ask]])))
        if not (evals[0].size or evals[1].size):
            return results
        ny = evals[0].size
        # y at both families' points and y' at q's, in one kernel call each
        (yv, yo), (dv, do) = eval_derivatives_parts(p, [np.concatenate(evals), evals[1]])
        sq = _q_signs(p, w, evals[1], yv[ny:], yo[ny:], dv, do)
        agree = True
        for i, signs in enumerate((np.sign(yv[:ny]), sq)):
            known[i] = _merge(known[i], evals[i], signs)
            pts, side, s_lo = asks[i]
            got = _lookup(known[i], pts)[1]
            agree &= not (((got == s_lo) != side) | (got == 0.0)).any()
            if first:
                lo, hi, s_lo, _, eps = brackets[i]
                gl, gr = guards[i]
                trusted = ((gl <= lo) | (_lookup(known[i], gl)[1] == s_lo)) & (
                    (gr >= hi) | (_lookup(known[i], gr)[1] == -s_lo)
                )
                agree &= bool(trusted.all())
                brackets[i][4] = np.where(trusted, eps, math.inf)
        if agree:
            return results
        first = False


def _merge(known, xs, signs):
    kx = np.concatenate([known[0], xs])
    ks = np.concatenate([known[1], signs])
    order = np.argsort(kx, kind="stable")
    return kx[order], ks[order]


@lru_cache(maxsize=1024)
def _cached_scan(k: int, alpha: float, beta: float, d_m: float, d_M: float) -> tuple[ExtremumRecord, ...]:
    p = Params(k, alpha, beta)
    w = Window(d_m, d_M)
    if k == 0 and w.is_full and alpha == beta == -0.5:
        # M = P_0^2 = 1/pi is constant: q vanishes identically, and its
        # computed signs are rounding noise
        return ()
    n = max(64, _NODES_PER_DEGREE * (p.k + 2))
    xs = _scan_points(p, w, n)
    xs4 = _scan_points(p, w, 4 * n)
    # both grids together, in one recurrence call
    sy, sq, parts = _grid_signs(p, w, np.concatenate([xs, xs4]))
    m = xs.size
    sy4, sq4 = sy[m:], sq[m:]
    if _count_roots(xs, sy[:m]) != _count_roots(xs4, sy4) or _count_roots(xs, sq[:m]) != _count_roots(xs4, sq4):
        raise GridTooCoarseError(
            f"sign-change count changed under 4x refinement for k={p.k}, "
            f"alpha={p.alpha}, beta={p.beta}"
        )
    ye, yl = _root_structure(xs4, sy4)
    qe, ql = _root_structure(xs4, sq4)
    y_roots, q_roots = ye, qe
    if yl.size or ql.size:
        with np.errstate(all="ignore"):
            (yr, yeps), (qr, qeps) = _locate(p, w, xs4, tuple(a[m:] for a in parts), yl, ql)
        y_ref, q_ref = _refine(
            p, w, [(xs4[yl], xs4[yl + 1], sy4[yl], yr, yeps), (xs4[ql], xs4[ql + 1], sq4[ql], qr, qeps)], _REFINE_TOL
        )
        y_roots = np.concatenate([ye, y_ref])
        q_roots = np.concatenate([qe, q_ref])
    roots = np.sort(np.concatenate([y_roots, q_roots]))
    if roots.size == 0:
        return ()

    edges = np.concatenate([[w.d_m], roots, [w.d_M]])
    gap = np.minimum(np.diff(edges)[:-1], np.diff(edges)[1:])
    h = np.minimum(1e-6 * w.width, 0.25 * gap)
    ln_c, ln_m, ln_p = np.split(weighted_ln_parts(p, np.concatenate([roots, roots - h, roots + h]), w), 3)
    # sign of M(x-h) + M(x+h) - 2 M(x) decides the kind, computed in log space
    top = np.maximum(ln_m, ln_p)
    side = top + np.log(np.exp(ln_m - top) + np.exp(ln_p - top))
    is_min = side > _LN2 + ln_c

    records = []
    for i in range(roots.size):
        ln_v = float(ln_c[i])
        records.append(
            ExtremumRecord(
                index=i,
                x=float(roots[i]),
                M=_exp_saturating(ln_v),
                ln_M=ln_v,
                kind="min" if is_min[i] else "max",
            )
        )
    for a, b in zip(records, records[1:]):
        if a.kind == b.kind:
            raise GridTooCoarseError(
                f"non-alternating extrema near x={a.x:.6g} and x={b.x:.6g} for "
                f"k={p.k}, alpha={p.alpha}, beta={p.beta}"
            )
    return tuple(records)


def scan_extrema(p: Params, w: Window) -> list[ExtremumRecord]:
    """All interior critical points of M on the window, sorted by x.

    Samples sign patterns on a theta-uniform grid of max(64, 12 (k+2))
    interior nodes (plus a denser pass over the oscillation band when the
    weight pushes all activity toward the center), verifies the root count
    against a 4x-density pass, and refines each 4x-grid bracket to a width of
    1e-13.
    The refined roots are exactly those that bisecting the computed sign
    functions from the 4x-grid brackets gives: each root is first located by
    a Hermite fit to the grid values and a Newton step, and the bisection's
    midpoint sequence is then replayed against it, evaluating signs only at
    midpoints too close to the located root to decide.  q's sign function is
    the shifted-family route's everywhere: the grid computes y' from the
    recurrence's last pair and re-evaluates by the shifted family each node
    whose q lies within the pair's cancellation bound of 0.  With k = 0 and
    alpha = beta = -1/2 on the full window M is the constant 1/pi, and the
    list is empty.  Results are memoized per (k, alpha, beta, window); each
    call returns a fresh list.
    """
    return list(_cached_scan(p.k, p.alpha, p.beta, w.d_m, w.d_M))


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
    weight exponents).
    """
    records = scan_extrema(p, w)
    cands = [r for r in records if r.kind == "max"]
    cands.append(_endpoint_record(p, w, "left"))
    cands.append(_endpoint_record(p, w, "right"))
    return max(cands, key=lambda r: (r.ln_M, -abs(r.x), r.x))


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
        slacks = [a.M - b.M for a, b in zip(left, left[1:])] + [b.M - a.M for a, b in zip(right, right[1:])]
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

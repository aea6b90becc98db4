"""Extremum scanning: counts, locations, refinement stability, structure verdicts."""

import json
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.special

from jacobimax import _kernels, extrema, jacobi
from jacobimax.envelope import Geometry, _dln_window_factor, delta_squared, delta_window, geometry, sonin_S
from jacobimax.extrema import (
    ExtremumRecord,
    GridTooCoarseError,
    _endpoint_record,
    _root_structure,
    _scan_points,
    _signs,
    _sorted_distinct,
    global_max,
    scan_extrema,
    structure_checks,
)
from jacobimax.jacobi import Params, Window, eval_orthonormal_deriv_parts, eval_orthonormal_parts, weighted_ln_parts


def test_chebyshev_equioscillation():
    # flat weight exponents leave k-1 interior maxima; endpoints carry the
    # same height, so the global maximum is 2/pi for every degree
    w = Window.full()
    for k in range(1, 9):
        recs = scan_extrema(Params(k, -0.5, -0.5), w)
        maxima = [r for r in recs if r.kind == "max"]
        assert len(maxima) == k - 1
        for r in maxima:
            np.testing.assert_allclose(r.M, 2.0 / math.pi, rtol=1e-12)
        gm = global_max(Params(k, -0.5, -0.5), w)
        np.testing.assert_allclose(gm.M, 2.0 / math.pi, rtol=1e-12)


def test_legendre_degree_one_closed_form():
    recs = scan_extrema(Params(1, 0.0, 0.0), Window.full())
    maxima = [r for r in recs if r.kind == "max"]
    assert len(maxima) == 2
    np.testing.assert_allclose(sorted(abs(r.x) for r in maxima), [math.sqrt(2.0 / 3.0)] * 2, rtol=1e-12)
    for r in maxima:
        np.testing.assert_allclose(r.M, 1.0 / math.sqrt(3.0), rtol=1e-12)


def test_interior_extremum_count():
    # 2k+1 critical points of the weighted square when both exponents exceed -1/2
    rng = np.random.default_rng(61)
    for k in [1, 2, 5, 13, 34, 60]:
        alpha = float(rng.uniform(-0.4, 5.0))
        beta = float(rng.uniform(-0.4, 5.0))
        recs = scan_extrema(Params(k, alpha, beta), Window.full())
        assert len(recs) == 2 * k + 1, (k, alpha, beta, len(recs))


def test_kinds_alternate_starting_and_ending_with_max():
    recs = scan_extrema(Params(7, 1.0, 2.0), Window.full())
    kinds = [r.kind for r in recs]
    assert kinds[0] == "max" and kinds[-1] == "max"
    assert all(a != b for a, b in zip(kinds, kinds[1:]))
    assert [r.index for r in recs] == list(range(len(recs)))


@pytest.fixture
def scan_density(monkeypatch):
    """Sets the scan grid's nodes per degree, clearing the scan memo then and after the test."""

    def set_density(nodes_per_degree):
        monkeypatch.setattr(extrema, "_NODES_PER_DEGREE", nodes_per_degree)
        extrema._cached_scan.cache_clear()

    yield set_density
    extrema._cached_scan.cache_clear()


def test_refinement_grid_independence(scan_density):
    p = Params(21, 1.7, 0.9)
    w = Window.full()
    scan_density(12)
    coarse = scan_extrema(p, w)
    scan_density(24)
    fine = scan_extrema(p, w)
    assert len(coarse) == len(fine)
    for a, b in zip(coarse, fine):
        assert abs(a.x - b.x) < 1e-10
        # minima sit at polynomial zeros where M is quadratically small, so
        # an absolute floor is needed alongside the relative check
        np.testing.assert_allclose(a.M, b.M, rtol=1e-9, atol=1e-20)


def test_ultraspherical_mirror_symmetry():
    recs = scan_extrema(Params(10, 2.5, 2.5), Window.full())
    xs = np.array([r.x for r in recs])
    np.testing.assert_allclose(xs, -xs[::-1], atol=1e-11)


def test_maxima_lie_on_envelope():
    for p in [Params(8, 1.0, 1.0), Params(15, 0.7, 2.2)]:
        w = Window.full()
        for r in scan_extrema(p, w):
            if r.kind == "max":
                np.testing.assert_allclose(sonin_S(p, r.x, w), r.M, rtol=1e-8)


def test_extreme_parameters_scan_cleanly(scan_density):
    scan_density(4)
    recs = scan_extrema(Params(400, 1e6, 1e6), Window.full())
    assert len(recs) == 2 * 400 + 1
    assert all(math.isfinite(r.ln_M) for r in recs if r.kind == "max")


def test_unresolvable_grid_raises():
    with pytest.raises(GridTooCoarseError):
        scan_extrema(Params(4, 2.08874, 10306.6), Window.full())


def test_endpoint_record_exponent_cases():
    w = Window.full()
    flat = _endpoint_record(Params(3, -0.5, -0.5), w, "right")
    np.testing.assert_allclose(flat.M, 2.0 / math.pi, rtol=1e-12)
    assert flat.index == -1
    vanishing = _endpoint_record(Params(3, 0.5, 0.5), w, "right")
    assert vanishing.M == 0.0 and vanishing.ln_M == -math.inf
    divergent = _endpoint_record(Params(3, -0.75, 0.0), w, "right")
    assert divergent.M == math.inf
    # interior window edge: sqrt factor vanishes but the weight stays finite
    interior = _endpoint_record(Params(3, 1.0, 1.0), Window(-0.5, 0.5), "right")
    assert interior.M == 0.0


def test_global_max_reports_divergent_endpoint():
    gm = global_max(Params(4, -0.75, 0.0), Window.full())
    assert gm.x == 1.0 and gm.M == math.inf and gm.index == -1


def test_global_max_matches_scan():
    p = Params(12, 0.8, 1.9)
    w = Window.full()
    best = max((r for r in scan_extrema(p, w) if r.kind == "max"), key=lambda r: r.ln_M)
    gm = global_max(p, w)
    assert gm.x == best.x and gm.M == best.M


def _rec(i, x, m, kind):
    return ExtremumRecord(index=i, x=x, M=m, ln_M=math.log(m), kind=kind)


def _geom(eta_minus=None, eta_plus=None, delta=None, x0=None):
    return Geometry(
        r=10.0, sin_tau=0.1, tau=0.1, sin_omega=0.0, omega=0.0,
        eta_minus=eta_minus, eta_plus=eta_plus, eta_sym=None, delta=delta, x0=x0, xi0=None,
    )


def test_structure_checks_valley_about_center():
    recs = [
        _rec(0, -0.8, 0.9, "max"), _rec(1, -0.5, 0.1, "min"), _rec(2, -0.3, 0.7, "max"),
        _rec(3, 0.0, 0.05, "min"), _rec(4, 0.3, 0.75, "max"), _rec(5, 0.6, 0.1, "min"),
        _rec(6, 0.8, 0.95, "max"),
    ]
    rep = structure_checks(recs, _geom(eta_minus=-0.85, eta_plus=0.9, delta=0.85, x0=0.0))
    # heights fall by 0.9 - 0.7 before x0 and rise by 0.95 - 0.75 after it
    assert rep.unimodal_about_x0 == (0.0, min(0.9 - 0.7, 0.95 - 0.75))
    assert rep.unimodal_about_x0.holds is True
    assert rep.x0_split == (2, 2)
    # x = -0.8 is the nearer to its band edge, so |x| is compared with |eta_minus|
    assert rep.eta_containment == (0.8, 0.85)
    assert rep.eta_containment.holds is True
    np.testing.assert_allclose(rep.eta_containment.margin, 0.05, rtol=1e-12)
    assert rep.delta_containment == (0.8, 0.85)
    assert rep.delta_containment.holds is True
    assert rep.nonneg_maxima_decreasing == (0.0, 0.75 - 0.95)
    assert rep.nonneg_maxima_decreasing.holds is False


def test_structure_checks_detects_broken_ordering():
    recs = [
        _rec(0, -0.8, 0.5, "max"), _rec(1, -0.3, 0.9, "max"),
        _rec(2, 0.3, 0.7, "max"), _rec(3, 0.8, 0.9, "max"),
    ]
    rep = structure_checks(recs, _geom(x0=0.0))
    assert rep.unimodal_about_x0 == (0.0, 0.5 - 0.9)
    assert rep.unimodal_about_x0.holds is False


def test_structure_checks_counts_a_maximum_at_x0_on_both_sides():
    # alpha = beta puts x0 at 0.0, where a central maximum can sit: it ends
    # the falls before x0 and starts the rises after it
    valley = [_rec(0, -0.6, 0.9, "max"), _rec(1, -0.3, 0.1, "min"), _rec(2, 0.0, 0.3, "max"),
              _rec(3, 0.3, 0.1, "min"), _rec(4, 0.6, 0.8, "max")]
    rep = structure_checks(valley, _geom(x0=0.0))
    assert rep.unimodal_about_x0 == (0.0, min(0.9 - 0.3, 0.8 - 0.3))
    assert rep.x0_split == (1, 1)
    # a central maximum above its neighbours breaks the valley
    peak = valley[:2] + [_rec(2, 0.0, 0.95, "max")] + valley[3:]
    rep = structure_checks(peak, _geom(x0=0.0))
    assert rep.unimodal_about_x0 == (0.0, min(0.9 - 0.95, 0.8 - 0.95))
    assert rep.unimodal_about_x0.holds is False
    # alone, it compares with nothing
    rep = structure_checks([_rec(0, 0.0, 0.4, "max")], _geom(x0=0.0))
    assert rep.unimodal_about_x0 == (0.0, math.inf) and rep.x0_split == (0, 0)


def test_structure_checks_skips_missing_landmarks():
    recs = [_rec(0, 0.2, 0.9, "max"), _rec(1, 0.6, 0.8, "max")]
    rep = structure_checks(recs, _geom())
    assert rep.unimodal_about_x0 is None
    assert rep.x0_split is None
    assert rep.eta_containment is None
    assert rep.delta_containment is None
    assert rep.nonneg_maxima_decreasing == (0.0, 0.9 - 0.8)
    assert rep.nonneg_maxima_decreasing.holds is True
    # no records: the containment claims are skipped, the orderings have nothing to compare
    rep = structure_checks([], _geom(eta_minus=-0.9, eta_plus=0.9, delta=0.9, x0=0.0))
    assert rep.eta_containment is None and rep.delta_containment is None
    assert rep.unimodal_about_x0 == (0.0, math.inf) and rep.x0_split == (0, 0)
    assert rep.nonneg_maxima_decreasing == (0.0, math.inf)


def test_structure_checks_flags_escaping_extremum():
    recs = [_rec(0, -0.95, 0.9, "max"), _rec(1, 0.5, 0.8, "max")]
    rep = structure_checks(recs, _geom(eta_minus=-0.9, eta_plus=0.99))
    assert rep.eta_containment == (0.95, 0.9)
    assert rep.eta_containment.holds is False
    assert rep.eta_containment.margin < 0.0


def test_structure_checks_against_live_scan():
    p = Params(9, 1.2, 0.4)
    recs = scan_extrema(p, Window.full())
    rep = structure_checks(recs, geometry(p))
    assert rep.eta_containment.holds is True
    assert rep.eta_containment.margin > 0.0


def _shifted_family_signs(p, w, xs):
    # reference signs of y and of q = y' + y (ln u)' at xs, with y' from the
    # shifted family, computed here apart from the scan's own evaluator
    yv, yo = eval_orthonormal_parts(p, xs)
    dv, do = eval_orthonormal_deriv_parts(p, xs)
    om = np.maximum(do, yo)
    return np.sign(yv), np.sign(dv * np.exp(do - om) + yv * _dln_window_factor(p, xs, w) * np.exp(yo - om))


def _bisect_reference(signfn, lo, hi, s_lo, tol):
    # plain vectorized bisection of every bracket until the widest is within tol
    lo = lo.copy()
    hi = hi.copy()
    for _ in range(200):
        if lo.size == 0 or np.max(hi - lo) <= tol:
            break
        mid = 0.5 * (lo + hi)
        sm = signfn(mid)
        same = sm == s_lo
        hit = sm == 0.0
        lo = np.where(same, mid, lo)
        hi = np.where(same, hi, mid)
        lo = np.where(hit, mid, lo)
        hi = np.where(hit, mid, hi)
    return 0.5 * (lo + hi)


@pytest.mark.parametrize(
    "signs, exact",
    [([], []), ([0.0, 0.0, 0.0], [0, 1, 2]), ([0.0, -1.0, 0.0], [0, 2]), ([1.0, 0.0, -1.0, 0.0], [1, 3])],
    ids=["empty", "all-zero", "one-nonzero", "two-nonzero-apart"],
)
def test_root_structure_of_sparse_sign_arrays(signs, exact):
    # fewer than two nonzero signs, or two with a zero between them, bracket
    # nothing: every root is node-exact
    got_exact, left = _root_structure(np.array(signs))
    assert got_exact.tolist() == exact
    assert left.size == 0 and left.dtype == np.intp


def _bisected_roots(p, w, signfn, tol=1e-13):
    xs4 = _scan_points(p, w, 4 * max(64, 12 * (p.k + 2)))
    exact, left = _root_structure(signfn(xs4))
    s_lo = signfn(xs4[left])
    return np.sort(np.concatenate([xs4[exact], _bisect_reference(signfn, xs4[left], xs4[left + 1], s_lo, tol)]))


def _case_window(p, window):
    if window == "delta":
        return Window.symmetric(math.sqrt(delta_squared(p.k, p.alpha)))
    if window == "custom":
        return Window(-0.3, 0.9)
    if window == "between-zeros":
        return Window(-0.44, -0.36)
    if window == "mirror-between-zeros":
        return Window(-0.04, 0.04)
    return Window.full()


def _mirrored(p, w):
    # M has a mirror image on the window: only there do q's brackets bisect
    return p.is_ultraspherical and w.is_symmetric


def _scan_fresh(p, w):
    extrema._cached_scan.cache_clear()
    try:
        return scan_extrema(p, w)
    finally:
        extrema._cached_scan.cache_clear()


def _y_sign(p, w):
    return lambda z: _shifted_family_signs(p, w, z)[0]


def _q_sign(p, w):
    return lambda z: _shifted_family_signs(p, w, z)[1]


@pytest.mark.parametrize(
    "p, window",
    [
        (Params(12, 0.8, 1.9), "full"),
        (Params(40, 3.0, 3.0), "full"),
        (Params(40, 3.0, 3.0), "delta"),
        (Params(25, 7.5, 7.5), "delta"),
        (Params(30, 0.0, 0.0), "custom"),
        (Params(64, -0.5, -0.5), "full"),
        # _locate's roots of q moved off by 3 radii: no model is trusted, and
        # later rounds replay against evaluated signs
        (Params(40, 3.0, 3.0), "lookup"),
        # q's brackets only: a window strictly between two zeros of y
        (Params(30, 0.0, 0.0), "between-zeros"),
        # y's brackets only: M diverges at both ends, and k = 1 has no maximum
        (Params(1, -0.7, -0.6), "no-maximum"),
        # q's brackets only, on a window about 0 where M has a mirror image
        (Params(30, 0.0, 0.0), "mirror-between-zeros"),
    ],
)
def test_refined_roots_match_plain_bisection_bitwise(p, window, monkeypatch):
    # where M has a mirror image, maxima carry plain bisection's bits; other
    # maxima are Newton roots of q and minima Newton roots of y, each within
    # the bisection's width of its roots
    w = _case_window(p, window)
    replays = []
    replay = extrema._replay

    def recording(lo, hi, s_lo, root, known, tol):
        replays.append(known[0].size)
        return replay(lo, hi, s_lo, root, known, tol)

    monkeypatch.setattr(extrema, "_replay", recording)
    if window == "lookup":
        locate = extrema._locate

        def shifted(p, w, ends, parts, is_y, cuts):
            root, eps = locate(p, w, ends, parts, is_y, cuts)
            return np.where(is_y, root, root + 3.0 * eps), eps

        monkeypatch.setattr(extrema, "_locate", shifted)
    recs = _scan_fresh(p, w)
    maxima = np.array([r.x for r in recs if r.kind == "max"])
    minima = np.array([r.x for r in recs if r.kind == "min"])
    bisected = _bisected_roots(p, w, _q_sign(p, w))
    if _mirrored(p, w):
        assert maxima.tobytes() == bisected.tobytes()
    else:
        np.testing.assert_allclose(maxima, bisected, rtol=0.0, atol=1e-13)
    np.testing.assert_allclose(minima, _bisected_roots(p, w, _y_sign(p, w)), rtol=0.0, atol=1e-13)
    # what makes each added case: later replays that read evaluated signs,
    # or which family has brackets
    if window == "lookup":
        assert len(replays) >= 3 and replays[-1] > 0
    elif window.endswith("between-zeros"):
        zeros = scipy.special.roots_jacobi(p.k, p.alpha, p.beta)[0]
        assert not ((zeros > w.d_m) & (zeros < w.d_M)).any()
        assert bool(replays) == _mirrored(p, w) and len(maxima) == 1 and not minima.size
    elif window == "no-maximum":
        assert not replays and len(minima) == 1


@pytest.mark.parametrize(
    "p, window",
    [(Params(12, 0.8, 1.9), "full"), (Params(40, 3.0, 3.0), "delta"), (Params(30, 0.0, 0.0), "custom")],
)
def test_unconverged_newton_bisects_y_bitwise(p, window, monkeypatch):
    # with no Newton step every y bracket is unconverged and bisects on y's
    # computed signs, as q's brackets bisect on q's
    monkeypatch.setattr(extrema, "_NEWTON_STEPS", 0)
    w = _case_window(p, window)
    recs = _scan_fresh(p, w)
    minima = np.array([r.x for r in recs if r.kind == "min"])
    maxima = np.array([r.x for r in recs if r.kind == "max"])
    assert minima.size and minima.tobytes() == _bisected_roots(p, w, _y_sign(p, w)).tobytes()
    assert maxima.tobytes() == _bisected_roots(p, w, _q_sign(p, w)).tobytes()


@pytest.mark.parametrize(
    "p, window, unconverged",
    [
        (Params(12, 0.8, 1.9), "full", False),
        (Params(30, 0.0, 0.0), "custom", False),
        (Params(40, 3.0, 3.0), "full", False),
        (Params(40, 3.0, 3.0), "delta", False),
        (Params(12, 0.8, 1.9), "full", True),
        (Params(30, 0.0, 0.0), "custom", True),
    ],
)
def test_q_brackets_bisect_only_where_M_has_a_mirror_image(p, window, unconverged, monkeypatch):
    # a converged Newton root answers its bracket, except that every q
    # bracket bisects where alpha = beta on a symmetric window: there only
    # rounding picks which of two mirror maxima global_max reports.  A bracket
    # whose Newton root did not converge bisects on any window
    w = _case_window(p, window)
    replays, groups = [], []
    replay, settle, locate = extrema._replay, extrema._settle, extrema._locate

    def recording_replay(*args):
        replays.append(args)
        return replay(*args)

    def recording_settle(p, w, lo, hi, s_lo, root, eps, bisecting):
        groups.append({fam: idx.size for idx, fam in bisecting})
        return settle(p, w, lo, hi, s_lo, root, eps, bisecting)

    def unconverged_locate(*args):
        root, eps = locate(*args)
        return root, np.full(eps.size, math.inf)

    monkeypatch.setattr(extrema, "_replay", recording_replay)
    monkeypatch.setattr(extrema, "_settle", recording_settle)
    if unconverged:
        monkeypatch.setattr(extrema, "_locate", unconverged_locate)
    recs = _scan_fresh(p, w)
    maxima = sum(r.kind == "max" for r in recs)
    minima = len(recs) - maxima
    # bisecting brackets per family (0 y, 1 q); every q root here is a maximum
    [bisected] = groups
    if unconverged:
        assert not _mirrored(p, w) and bisected == {0: minima, 1: maxima} and replays
    elif _mirrored(p, w):
        assert bisected.get(1) == maxima and replays
    else:
        assert not bisected and not replays


@pytest.mark.parametrize(
    "p, w",
    [
        (Params(12, 0.8, 1.9), Window.full()),
        (Params(9, 1.2, 0.4), Window.full()),
        (Params(40, -0.3, 4.0), Window.full()),
        (Params(30, 0.0, 0.0), Window(-0.3, 0.9)),
        (Params(30, 0.0, 0.0), Window(-0.44, -0.36)),
        (Params(25, 3.5, 0.2), Window(-0.8, 0.6)),
        (Params(18, 1.5, 0.0), Window(-0.95, 0.4)),
        (Params(7, 2.0, 2.0), Window(-0.5, 0.7)),
    ],
)
def test_newton_maxima_are_roots_of_q_from_mpmath(p, w):
    # off mirror windows a maximum is its converged Newton root of q: within
    # 1e-13 of the root of q = y' + y (ln u)' that 50-digit mpmath finds from it
    mpmath = pytest.importorskip("mpmath")
    assert not _mirrored(p, w)
    maxima = [r.x for r in scan_extrema(p, w) if r.kind == "max"]
    assert maxima
    with mpmath.workdps(50):
        a, b, k = mpmath.mpf(p.alpha), mpmath.mpf(p.beta), p.k
        d_m, d_M = mpmath.mpf(w.d_m), mpmath.mpf(w.d_M)

        def q(x):
            y = mpmath.jacobi(k, a, b, x)
            dy = (k + a + b + 1) / 2 * mpmath.jacobi(k - 1, a + 1, b + 1, x)
            dln_u = (1 / (x - d_m) - 1 / (d_M - x)) / 4 - a / (2 * (1 - x)) + b / (2 * (1 + x))
            return dy + y * dln_u

        shift = max(abs(mpmath.findroot(q, mpmath.mpf(x)) - x) for x in maxima)
    assert shift <= 1e-13, (p, w, float(shift))


@pytest.mark.parametrize("p, counts", [(Params(40, 3.0, 3.0), (3, 1, 4, 1)), (Params(300, 1e5, 1e5), (3, 1, 7, 2))])
def test_scan_call_counts(p, counts, monkeypatch):
    # one full-window scan's _signs calls, monic and orthonormal kernel calls
    # and bisection replays; the grids make the one monic call, and one
    # orthonormal call where a guard hands nodes over (at (300, 1e5, 1e5),
    # nodes whose q is guarded), a refine round evaluates its asked points
    # and the roots in one _signs call, and a last round that asks nothing
    # reads its roots from one more kernel call
    calls = {"_signs": 0, "monic_recurrence": 0, "recurrence": 0, "_replay": 0}

    def counted(mod, name):
        fn = getattr(mod, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(mod, name, wrapper)

    counted(extrema, "_signs")
    counted(_kernels, "monic_recurrence")
    counted(_kernels, "recurrence")
    counted(extrema, "_replay")
    extrema._cached_scan.cache_clear()
    try:
        scan_extrema(p, Window.full())
    finally:
        extrema._cached_scan.cache_clear()
    assert tuple(calls.values()) == counts


@pytest.mark.parametrize("k, alpha, beta", [(10, 0.5, 1.5), (33, -0.3, 4.0), (60, 2.0, 2.0), (120, 0.0, 0.0)])
def test_minima_are_gauss_jacobi_nodes(k, alpha, beta):
    recs = scan_extrema(Params(k, alpha, beta), Window.full())
    minima = np.array([r.x for r in recs if r.kind == "min"])
    nodes = np.sort(scipy.special.roots_jacobi(k, alpha, beta)[0])
    np.testing.assert_allclose(minima, nodes, rtol=0.0, atol=1e-13)


@pytest.mark.parametrize(
    "p, window",
    [
        (Params(12, 0.8, 1.9), "full"),
        (Params(40, 3.0, 3.0), "full"),
        (Params(200, 0.0, 0.0), "full"),
        (Params(150, 0.7, 30.0), "full"),
        (Params(40, 3.0, 3.0), "delta"),
        (Params(25, 7.5, 7.5), "delta"),
        (Params(30, 0.0, 0.0), "custom"),
    ],
)
def test_minima_match_roots_jacobi_inside_the_window(p, window):
    # y's Newton roots are its zeros to a few ulps: within 1e-14 of the
    # Gauss-Jacobi nodes that lie inside the window
    w = _case_window(p, window)
    minima = np.array([r.x for r in scan_extrema(p, w) if r.kind == "min"])
    nodes = np.sort(scipy.special.roots_jacobi(p.k, p.alpha, p.beta)[0])
    nodes = nodes[(nodes > w.d_m) & (nodes < w.d_M)]
    assert minima.size == nodes.size
    np.testing.assert_allclose(minima, nodes, rtol=0.0, atol=1e-14)


def test_scan_returns_fresh_list():
    p = Params(9, 1.2, 0.4)
    first = scan_extrema(p, Window.full())
    first.clear()
    assert len(scan_extrema(p, Window.full())) == 2 * 9 + 1


def _scan_grid(p, w):
    # both grids of a scan, as _cached_scan passes them to _signs
    n = max(64, 12 * (p.k + 2))
    return np.concatenate([_scan_points(p, w, n), _scan_points(p, w, 4 * n)])


_GRID_CASES = [
    (Params(0, 1.0, 1.0), "full"), (Params(1, 0.7, 0.7), "full"), (Params(1, 0.3, 2.0), "full"),
    (Params(2, -0.499, -0.499), "full"), (Params(3, -0.4999, -0.4999), "full"), (Params(10, -0.49, -0.49), "full"),
    (Params(49, -0.496407, -0.496407), "full"), (Params(64, -0.5, -0.5), "full"), (Params(13, 0.0, 0.0), "full"),
    (Params(100, 1.0, 1.0), "full"), (Params(250, 2.5, 2.5), "full"), (Params(400, 0.0, 0.0), "full"),
    (Params(200, 1e5, 1e5), "full"), (Params(400, 1e5, 1e5), "full"), (Params(50, -0.499, 3.0), "full"),
    (Params(50, 1e5, -0.499), "full"), (Params(30, -0.499, 1e5), "full"), (Params(7, 0.3, 5000.0), "full"),
    (Params(120, 3.0, 1e6), "full"), (Params(77, 15184.16, 2.156), "full"), (Params(18, -0.486201, 793.954), "full"),
    (Params(4, 2.08874, 10306.6), "full"),
    (Params(12, 0.6, 0.6), "delta"), (Params(40, 3.0, 3.0), "delta"), (Params(25, 7.5, 7.5), "delta"),
    (Params(100, 1e3, 1e3), "delta"), (Params(300, 1e5, 1e5), "delta"),
    (Params(30, 0.0, 0.0), Window(-0.3, 0.9)), (Params(20, 5.0, 1.0), Window(-0.99, 0.2)),
    (Params(150, 1e3, 10.0), Window(0.001, 0.99)), (Params(60, -0.49, -0.3), Window(-0.999999, 0.5)),
    (Params(9, 2.0, 2.0), Window(-0.5, 0.5)),
]


def _guarded_nodes(monkeypatch):
    # the points the grid's monic pair hands to the orthonormal pair
    seen = []
    pair = extrema.eval_value_and_deriv_parts

    def recording(p, x):
        seen.append(np.array(x))
        return pair(p, x)

    monkeypatch.setattr(extrema, "eval_value_and_deriv_parts", recording)
    return seen


@pytest.mark.parametrize("p, window", _GRID_CASES)
def test_grid_signs_match_shifted_family(p, window, monkeypatch):
    # both paths take y and y' from a recurrence's last pair, the orthonormal
    # one by default and the monic one on the scan grids (grid=True); every
    # y and q sign must still be the shifted-family route's, node for node
    w = Window.full() if window == "full" else delta_window(p) if window == "delta" else window
    xs = _scan_grid(p, w)
    ref_y, ref_q = _shifted_family_signs(p, w, xs)
    ref_v, ref_o = eval_orthonormal_parts(p, xs)
    sy, sq, (yv, yo, _, _) = _signs(p, w, xs)
    assert sy.tobytes() == ref_y.tobytes()
    assert yv.tobytes() == ref_v.tobytes() and yo.tobytes() == ref_o.tobytes()
    assert np.array_equal(sq, ref_q)
    guarded = _guarded_nodes(monkeypatch)
    sy, sq, (yv, yo, _, _) = _signs(p, w, xs, grid=True)
    assert sy.tobytes() == ref_y.tobytes()
    assert np.array_equal(sq, ref_q)
    # guarded nodes carry the orthonormal kernel's bits, the others its
    # values to within 1e-8 relative
    g = np.isin(xs, np.concatenate([np.empty(0)] + guarded))
    assert yv[g].tobytes() == ref_v[g].tobytes() and yo[g].tobytes() == ref_o[g].tobytes()
    np.testing.assert_allclose(yv[~g] * np.exp(yo[~g] - ref_o[~g]), ref_v[~g], rtol=1e-8, atol=0.0)


@pytest.mark.parametrize(
    "p, window",
    [
        (Params(40, 3.0, 3.0), "full"), (Params(267, -0.897, 0.224), "full"), (Params(150, 0.7, 30.0), "full"),
        (Params(300, 1e5, 1e5), "delta"), (Params(60, 2.0, 2.0), Window(-0.3, 0.9)),
    ],
)
def test_grid_guard_gives_near_zeros_of_y_and_q_the_default_bits(p, window, monkeypatch):
    # at the minima and maxima (zeros of y and q) and their neighbouring
    # floats the monic pair's values are not the orthonormal pair's; at every
    # such point where y is rounding-level or the default path guards q, the
    # grid path evaluates again on the orthonormal pair and guards again, so
    # every output there is the default path's bit for bit, node-exact roots
    # included, and every sign is the default path's
    w = Window.full() if window == "full" else delta_window(p) if window == "delta" else window
    recs = scan_extrema(p, w)
    near_y, near_q = (np.array([r.x for r in recs if r.kind == kind]) for kind in ("min", "max"))
    around = [np.concatenate([np.nextafter(v, -2.0), v, np.nextafter(v, 2.0)]) for v in (near_y, near_q)]
    xs = np.unique(np.concatenate(around))
    yv, dv, _, cond = extrema.eval_value_and_deriv_parts(p, xs)
    yg = yv * _dln_window_factor(p, xs, w)
    guarded = np.isin(xs, around[0]) | extrema._q_unsure(dv + yg, dv, yg, cond)
    got, ref = _signs(p, w, xs, grid=True), _signs(p, w, xs)
    assert got[0].tobytes() == ref[0].tobytes() and got[1].tobytes() == ref[1].tobytes()
    for g, r in zip(got[2], ref[2]):
        assert g[guarded].tobytes() == r[guarded].tobytes(), p
    # the monic pair's own values differ at zeros of y and at guarded q nodes
    raw = extrema.eval_value_and_deriv_monic(p, xs)[0]
    at_q = guarded & ~np.isin(xs, around[0])
    assert np.any(raw[~at_q & guarded] != yv[~at_q & guarded]) and np.any(raw[at_q] != yv[at_q]), p
    # without the y guard some zero of y takes other bits
    monkeypatch.setattr(jacobi, "_PAIR_GUARD", 0.0)
    bare = _signs(p, w, xs, grid=True)[2][0]
    assert bare[~at_q & guarded].tobytes() != yv[~at_q & guarded].tobytes(), p


@pytest.mark.parametrize(
    "p, w",
    [(Params(300, 1e5, 1e5), Window.full()), (Params(40, 3.0, 3.0), Window.full()), (Params(60, 2.0, 2.0), Window(-0.3, 0.9))],
)
def test_grid_guard_takes_sign_at_refined_roots_from_shifted_family(p, w, monkeypatch):
    # at a refined maximum and its neighbouring floats q is rounding-level,
    # where the pair's and the shifted family's signs can differ; the guard
    # must hand every such node to the shifted family
    xm = np.array([r.x for r in scan_extrema(p, w) if r.kind == "max"])
    xs = np.unique(np.concatenate([np.nextafter(xm, -2.0), xm, np.nextafter(xm, 2.0)]))
    ref = _shifted_family_signs(p, w, xs)[1]
    assert np.array_equal(_signs(p, w, xs)[1], ref)
    if p.alpha == 1e5:
        # without the guard the pair's own signs differ at many of them
        monkeypatch.setattr(extrema, "_PAIR_GUARD", 0.0)
        assert np.count_nonzero(_signs(p, w, xs)[1] != ref) > 10


def _answers(p, w):
    # (records, global max) of a fresh scan, or the GridTooCoarseError's message
    extrema._cached_scan.cache_clear()
    try:
        return scan_extrema(p, w), global_max(p, w)
    except GridTooCoarseError as exc:
        return str(exc)
    finally:
        extrema._cached_scan.cache_clear()


@pytest.mark.parametrize(
    "p, window",
    [
        (Params(400, 1e5, 1e5), "full"), (Params(400, 1e5, 1e5), "delta"), (Params(300, 1e5, 1e5), "delta"),
        (Params(400, 0.0, 0.0), "full"), (Params(150, 0.7, 30.0), "full"), (Params(77, 15184.16, 2.156), "full"),
        (Params(120, 3.0, 1e6), "full"), (Params(267, -0.897, 0.224), "full"), (Params(60, -0.9, -0.7), "full"),
        (Params(200, -0.99, 2.0), Window(0.5, 1.0)), (Params(30, 0.0, 0.0), Window(-0.3, 0.9)),
        (Params(150, 1e3, 10.0), Window(0.001, 0.99)), (Params(60, -0.49, -0.3), Window(-0.999999, 0.5)),
        (Params(4, 2.08874, 10306.6), "full"), (Params(6, 1e5, 1e5), "full"), (Params(0, 1.0, 2.0), "full"),
    ],
)
def test_monic_grid_keeps_the_orthonormal_grid_answers(p, window, monkeypatch):
    # the grid's monic values move only the Hermite seeds: every error, count
    # and kind is the orthonormal grid's, and so is every maximum and the
    # global maximum bit for bit where M has a mirror image and q's roots
    # bisect; elsewhere maxima, Newton roots of q, move by ulps with the
    # seeds, as minima, Newton roots of y, do
    w = Window.full() if window == "full" else delta_window(p) if window == "delta" else window
    monic = _answers(p, w)
    ortho_pair = extrema.eval_value_and_deriv_parts
    monkeypatch.setattr(extrema, "eval_value_and_deriv_monic", lambda p, x: (*ortho_pair(p, x), np.empty(0, np.intp)))
    ortho = _answers(p, w)
    if isinstance(ortho, str):
        assert monic == ortho
        return
    (recs, gm), (orecs, ogm) = monic, ortho
    assert [r.kind for r in recs] == [r.kind for r in orecs]
    maxima = [r for r in recs if r.kind == "max"] + [gm]
    omaxima = [r for r in orecs if r.kind == "max"] + [ogm]
    if _mirrored(p, w):
        # repr shows each float's exact value
        assert repr(maxima) == repr(omaxima)
    else:
        assert [r.index for r in maxima] == [r.index for r in omaxima]
        np.testing.assert_allclose([r.x for r in maxima], [r.x for r in omaxima], rtol=0.0, atol=1e-13)
        np.testing.assert_allclose([r.ln_M for r in maxima], [r.ln_M for r in omaxima], rtol=0.0, atol=1e-10)
    shift = [abs(a.x - b.x) for a, b in zip(recs, orecs) if a.kind == "min"]
    assert max(shift, default=0.0) <= 1e-15


def test_grid_makes_one_kernel_call(monkeypatch):
    calls = []

    def counting(name):
        kernel = getattr(_kernels, name)

        def wrapper(x, b, a, ln_start, k):
            calls.append((name, len(x)))
            return kernel(x, b, a, ln_start, k)

        monkeypatch.setattr(_kernels, name, wrapper)

    counting("monic_recurrence")
    counting("recurrence")
    for p in (Params(400, 0.0, 0.0), Params(400, 1e5, 1e5), Params(300, 1e7, -0.9)):
        w = Window.full()
        xs = _scan_grid(p, w)
        calls.clear()
        _signs(p, w, xs)
        # one pair call for the whole grid, then at most one, for the guarded
        # nodes' shifted family; no call is made for an empty point set
        assert calls[:1] == [("recurrence", xs.size)] and len(calls) <= 2, (p, calls)
        assert all(n for _, n in calls) and sum(n for _, n in calls[1:]) <= xs.size // 100, (p, calls)
        calls.clear()
        _signs(p, w, xs, grid=True)
        # on the monic path: one monic call for the whole grid, then at most
        # one orthonormal pair call for the nodes the y and q guards hand
        # over and one for the guarded q nodes' shifted family
        assert calls[:1] == [("monic_recurrence", xs.size)] and len(calls) <= 3, (p, calls)
        assert all(n for _, n in calls) and sum(n for _, n in calls[1:]) <= xs.size // 100, (p, calls)


def test_sorted_distinct_keeps_np_unique_values_and_order(monkeypatch):
    # every array the scan deduplicates (both scan grids and each refine
    # round's points) gives np.unique's bits, on full, delta and custom
    # windows, a band-doubled grid, and k = 0 and k = 400
    seen = []

    def checked(a):
        got, want = _sorted_distinct(a), np.unique(a)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), a.size
        seen.append(a.size)
        return got

    monkeypatch.setattr(extrema, "_sorted_distinct", checked)
    cases = [
        (Params(287, 50495.7, 50495.7), Window.full()),
        (Params(400, 0.0, 0.0), Window.full()),
        (Params(400, 1e3, 1e3), Window.full()),
        (Params(60, 200.0, 1.5), Window.full()),
        (Params(0, 0.3, 2.0), Window.full()),
        (Params(30, 5.0, 5.0), delta_window(Params(30, 5.0, 5.0))),
        (Params(25, 3.0, 40.0), Window(-0.3, 0.6)),
        (Params(12, -0.4, 7.0), Window(-0.9, 0.1)),
    ]
    extrema._cached_scan.cache_clear()
    try:
        for p, w in cases:
            seen.clear()
            scan_extrema(p, w)
            n = max(64, extrema._NODES_PER_DEGREE * (p.k + 2))
            # both grids, then at least one refine round
            assert len(seen) >= 3 and seen[1] == 4 * seen[0], (p, seen)
            if p.k == 287:
                assert seen[0] == 2 * n  # the band's nodes are added to the window's
    finally:
        extrema._cached_scan.cache_clear()
    # exact repeats, as when a guard point meets a replay midpoint
    grid = _scan_points(Params(40, 2.0, 2.0), Window.full(), 200)
    rng = np.random.default_rng(5)
    for a in (
        np.concatenate([grid, grid[::3], grid[::-7]]),
        rng.permutation(np.repeat(grid[:50], 3)),
        np.array([0.25, -0.5, 0.25, 0.25, 1e-300, -1.0, -0.5]),
        np.array([0.5]),
        np.empty(0),
    ):
        assert _sorted_distinct(a).tobytes() == np.unique(a).tobytes()


@pytest.mark.parametrize(
    "p, kind", [(Params(0, -0.7, -0.7), "min"), (Params(0, -0.9, -0.6), "min"), (Params(0, 0.3, 2.0), "max")]
)
def test_degree_zero_root_of_q_takes_its_kind_from_signs(p, kind):
    # at k = 0 the one critical point is a root of q; with both exponents
    # below -1/2, M diverges at both ends and that point is a minimum
    assert [r.kind for r in scan_extrema(p, Window.full())] == [kind]


def _probe_kinds(p, w, recs):
    # brute force: M is monotone between consecutive critical points, so at
    # x -/+ h, a quarter of the way to each neighbour or window end, M is
    # lower at a maximum and higher at a minimum
    x = np.array([r.x for r in recs])
    gap = np.diff(np.concatenate([[w.d_m], x, [w.d_M]]))
    with np.errstate(divide="ignore"):
        ln_x, ln_l, ln_r = (weighted_ln_parts(p, z, w) for z in (x, x - 0.25 * gap[:-1], x + 0.25 * gap[1:]))
    return np.where((ln_l < ln_x) & (ln_r < ln_x), "max", np.where((ln_l > ln_x) & (ln_r > ln_x), "min", "neither"))


_KIND_CASES = [
    (Params(0, -0.55, -0.95), "full"), (Params(0, -0.6, -0.6), Window(-0.5, 0.9)), (Params(1, -0.7, -0.7), "full"),
    (Params(2, -0.9, 0.3), "full"), (Params(3, -0.6, -0.95), "full"), (Params(5, 0.5, -0.8), "full"),
    (Params(8, -0.75, 2.0), "full"), (Params(12, 0.8, 1.9), "full"), (Params(17, -0.95, -0.6), "full"),
    (Params(30, -0.55, 40.0), "full"), (Params(40, 3.0, 3.0), "full"), (Params(64, -0.5, -0.5), "full"),
    (Params(100, 1e3, 1e3), "full"), (Params(250, -0.9, 1e3), "full"),
    (Params(12, 0.6, 0.6), "delta"), (Params(40, 3.0, 3.0), "delta"), (Params(200, 1e5, 1e5), "delta"),
    (Params(3, -0.7, -0.7), Window(-0.3, 0.9)), (Params(9, -0.95, 2.0), Window(-0.999, -0.2)),
    (Params(20, 5.0, 1.0), Window(-0.9, 0.2)), (Params(30, 0.0, 0.0), Window(-0.3, 0.9)),
    (Params(6, -0.8, -0.6), Window(0.5, 1.0)), (Params(7, 0.4, -0.85), Window(-1.0, -0.5)),
    (Params(60, -0.49, -0.3), Window(-0.999999, 0.5)), (Params(150, 1e3, 10.0), Window(0.001, 0.99)),
    (Params(11, 2.0, -0.9), Window(0.1, 0.1001)), (Params(80, 1.5, 1.5), Window(-1e-4, 1e-4)),
]


@pytest.mark.parametrize("p, window", _KIND_CASES)
def test_kinds_from_signs_match_a_brute_force_probe(p, window):
    w = Window.full() if window == "full" else delta_window(p) if window == "delta" else window
    recs = scan_extrema(p, w)
    assert recs and [r.kind for r in recs] == _probe_kinds(p, w, recs).tolist(), p


def test_lone_critical_point_in_a_narrow_window_is_a_maximum():
    # M vanishes at both ends of a window inside (-1, 1), so its one
    # interior critical point is a maximum; a probe at x -/+ 1e-6 of the
    # width is lost in the rounding of ln M, about -1.5e5 here
    p = Params(285, -0.44123969067443974, 92455.10714396337)
    w = Window(-0.615981063462196, -0.6159793138353401)
    recs = scan_extrema(p, w)
    assert [r.kind for r in recs] == ["max"] == _probe_kinds(p, w, recs).tolist()
    assert global_max(p, w).index == 0


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="edge maximum beyond the outermost grid node is lost")
@pytest.mark.parametrize("p", [Params(18, -0.486201, 793.954), Params(49, -0.496407, -0.496407)])
def test_edge_maximum_is_found(p):
    # both exponents exceed -1/2, so there are 2k + 1 critical points; the
    # scan returns 36 and 97 (ROADMAP item 1)
    assert len(scan_extrema(p, Window.full())) == 2 * p.k + 1


def test_constant_M_has_no_interior_extrema():
    # k = 0, alpha = beta = -1/2: M = 1/pi on the full window, q = 0 exactly
    p = Params(0, -0.5, -0.5)
    assert scan_extrema(p, Window.full()) == []
    gm = global_max(p, Window.full())
    assert gm.index == -1 and abs(gm.x) == 1.0
    np.testing.assert_allclose(gm.M, 1.0 / math.pi, rtol=1e-14)
    # on a sub-window M is not constant and has its one interior maximum
    assert [r.kind for r in scan_extrema(p, Window(-0.5, 0.9))] == ["max"]


def test_global_max_with_no_maximum_where_M_vanishes_at_both_ends_raises():
    # an extrema-cli pool item: the scan finds no zero of q inside the window,
    # and global_max returned the endpoint with M = 0
    p, w = Params(2, 9202.07, 8.02157), Window(-0.8069, 0.7608)
    assert scan_extrema(p, w) == []
    with pytest.raises(GridTooCoarseError, match="found no maximum of M inside"):
        global_max(p, w)


@pytest.mark.parametrize("k, alpha, beta", [(1, 1e5, -0.3), (3, 1e5, 2.0), (7, 1e8, 1e8)])
def test_full_window_scan_that_loses_zeros_of_p_k_raises(k, alpha, beta):
    # every zero of P_k lies in (-1, 1) for alpha, beta > -1; here the grid
    # finds fewer, and the scan returned too few records (none for the first two)
    with pytest.raises(GridTooCoarseError, match=f"of the {k} zeros of P_k"):
        scan_extrema(Params(k, alpha, beta), Window.full())


def test_alternation_guard_raises_on_two_minima_in_a_row(monkeypatch):
    # a root of q is a maximum iff y there has q's sign just left of it;
    # flipping y's sign at the first root, a maximum, makes it a minimum
    # next to the minimum at y's first root
    p = Params(6, 1.0, 1.0)
    assert scan_extrema(p, Window.full())[0].kind == "max"
    plain = extrema._records

    def flipped(p, w, roots, of_y, q_left, val, off):
        val = val.copy()
        first = np.argmin(roots)
        val[first] = -val[first]
        return plain(p, w, roots, of_y, q_left, val, off)

    # the memo keeps the error it raises, so the scan starts and ends fresh
    extrema._cached_scan.cache_clear()
    monkeypatch.setattr(extrema, "_records", flipped)
    try:
        with pytest.raises(GridTooCoarseError, match="non-alternating"):
            scan_extrema(p, Window.full())
    finally:
        extrema._cached_scan.cache_clear()


def _diagonal_pool_triples():
    """Every alpha = beta > 1/2 triple of perfbench's verify-sweep pool (read for its inputs only)."""
    doc = json.loads((Path(__file__).parents[1] / "perfbench" / "reference" / "verify-sweep.json").read_text())
    triples = set()
    for item in (item for stratum in doc["pool"] for item in stratum):
        for a in item["alphas"]:
            for b in [a] if item["betas"] is None else item["betas"]:
                if a == b > 0.5:
                    triples.add((item["k"], a, b))
    return sorted(triples)


def _outcome(fn, p, w):
    # repr of the answer, or the class and message of the GridTooCoarseError
    try:
        return repr(fn(p, w))
    except GridTooCoarseError as exc:
        return f"{type(exc).__name__}: {exc}"


def test_joint_scans_equal_single_window_scans(monkeypatch):
    # the full and delta windows scanned together give each window the bits,
    # and the errors, of a fresh scan of it alone, with tie bits and without
    triples = _diagonal_pool_triples()
    assert len(triples) > 100
    calls = []
    scan = extrema._scan

    def counting(p, windows, ties):
        calls.append(len(windows))
        return scan(p, windows, ties)

    def answers(p, w, ties):
        records = _outcome(lambda p, w: extrema._window_records(p, w, ties), p, w)
        return records, _outcome(lambda p, w: extrema._global_max(p, w, ties), p, w)

    monkeypatch.setattr(extrema, "_scan", counting)
    try:
        for k, a, b in triples + [(6, 1e5, 1e5)]:
            p = Params(k, a, b)
            windows = [Window.full(), delta_window(p)]
            for ties in (True, False):
                extrema._cached_scan.cache_clear()
                calls.clear()
                extrema._scan_windows(p, windows, ties)
                joint = [answers(p, w, ties) for w in windows]
                assert calls == [2], (p, ties, calls)
                single = []
                for w in windows:
                    extrema._cached_scan.cache_clear()
                    single.append(answers(p, w, ties))
                assert joint == single, (p, ties)
    finally:
        extrema._cached_scan.cache_clear()
    # the last triple: the full window raises, the delta window answers
    (full, _), (delta, _) = joint
    assert full.startswith("GridTooCoarseError: ")
    assert delta.count("ExtremumRecord(") == 13

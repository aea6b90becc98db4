"""Grid verification harness: named checks, sweeps, and deterministic reports.

Every check maps a parameter triple to one result row (lhs, rhs, margin,
status); rows outside a check's hypotheses are recorded as skipped rather
than evaluated, and the library's numeric errors surface as numeric_failure
rows instead of exceptions; any other exception propagates.  A sweep runs
triple by triple: it scans, in one joint pass, every window the triple's
scanning rows read, then runs the rows, which read the scan memo.  No row
reads which of two mirror-image maxima is the global one, so the rows read
scans without mirror-tie bits (extrema._scan), which bisect no q bracket.
Reports sort by (check_id, k, alpha, beta) so concurrent and serial sweeps
emit identical bytes.
"""

import copy
import csv
import json
import math
import os
import platform
import sys
from collections import Counter
from dataclasses import dataclass
from datetime import datetime, timezone
from functools import cached_property, lru_cache, partial
from types import MappingProxyType
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import bounds as _bounds
from ._version import __version__
from .envelope import IDENTITY_REL, OutsideOscillationRegionError, delta_window, geometry, identity_checks, turning_point
from .extrema import GridTooCoarseError, _global_max, _scan_windows, _window_records, structure_checks
from .jacobi import ALPHA_FLOOR, Params, Window, eval_derivatives_parts, value_at_zero_even
from .jacobi import _exp_saturating, _ode_residuals, _weighted_ln

__all__ = [
    "CHECKED",
    "SKIPPED",
    "NUMERIC_FAILURE",
    "ConfigError",
    "VerificationResult",
    "SweepConfig",
    "Report",
    "FitResult",
    "check_ids",
    "run_check",
    "sweep",
    "render_csv",
    "render_json",
    "write_report",
    "parse_report_csv",
    "fit_exponent",
]

CHECKED = "checked"
SKIPPED = "skipped_hypothesis"
NUMERIC_FAILURE = "numeric_failure"

_NAN = float("nan")
# most (k, alpha, beta) points a sweep config may select; the grids of the
# tests, demos, scripts and README reach a few thousand
_MAX_GRID_POINTS = 100_000
# ode_residual's sample points
_ODE_POINTS = np.array([math.cos(theta) for theta in np.linspace(0.0, math.pi, 102)[1:-1]])


class ConfigError(ValueError):
    """Invalid sweep configuration or unknown check id."""


class UndefinedRowError(Exception):
    """A row's comparison is undefined: its landmark, or a closed form it reads, is absent."""


@dataclass(frozen=True)
class VerificationResult:
    check_id: str
    k: int
    alpha: float
    beta: float
    lhs: float
    rhs: float
    margin: float
    passed: bool
    status: str


def _hyp_bound(bid: _bounds.BoundId) -> Callable[[Params], Optional[str]]:
    return lambda p: _bounds._hypothesis_failure(bid, p)


def _hyp(cond: Callable[[Params], bool], reason: str) -> Callable[[Params], Optional[str]]:
    return lambda p: None if cond(p) else reason


_HYP_NONE = _hyp(lambda p: True, "")
_HYP_ULTRA_ABOVE_HALF = _hyp(
    lambda p: p.is_ultraspherical and p.alpha > 0.5 and p.k >= 1, "needs alpha = beta > 1/2 and k >= 1"
)


def _hyp_thm4_even(p: Params) -> Optional[str]:
    return _bounds._hypothesis_failure(_bounds.BoundId.THM4, p) or (None if p.k % 2 == 0 else "needs even k")


# the named windows of the checks and of the CLI's --window
_WINDOWS: dict[str, Callable[[Params], Window]] = {"full": lambda p: Window.full(), "delta": delta_window}


def _run_thm4_even_value(p: Params) -> tuple[float, float]:
    # M(0) on the delta window via the closed form at the origin
    d = delta_window(p).d_M
    y0 = value_at_zero_even(p.k, p.alpha)
    lhs = d * math.exp(2.0 * y0.ln_mag)
    return lhs, _bounds.rhs_bound(_bounds.BoundId.THM4, p)


# ln M's rounding at a maximum, per unit of k + alpha + 1 (the recurrence's
# steps and the weight's terms): a maximum this close to the top ties with it;
# at alpha = 1/2, k <= 60 the maxima spread by under 4 eps k, and at alpha =
# 0.51 the origin leads the next maximum by over 200 eps k
_PEAK_TIE = 32.0 * sys.float_info.epsilon


def _run_thm4_peak(p: Params, w: Window) -> tuple[float, float]:
    # at alpha = 1/2, M = (2/pi) sin^2((k+1) theta): every maximum ties the
    # origin's, and global_max's tie rule, smaller |x| first, picks the origin
    return abs(_global_max(p, w, False, _PEAK_TIE * (p.k + p.alpha + 1.0)).x), 1e-9


def _structure_runner(claim: str):
    # the (lhs, rhs) pair structure_checks computes for the claim on the window's scan
    def compare(p: Params, w: Window) -> tuple[float, float]:
        comparison = getattr(structure_checks(_window_records(p, w, False), geometry(p)), claim)
        if comparison is None:
            raise UndefinedRowError(f"{claim} undefined: its landmark or its records are absent")
        return comparison

    return compare


@lru_cache(maxsize=1024)
def _identity_rows(k: int, alpha: float) -> MappingProxyType:
    # the five identity checks of a triple read their rows from one exact table
    return MappingProxyType({r.name: r for r in identity_checks(k, alpha)})


def _identity_runner(row_names: tuple[str, ...]):
    def runner(p: Params) -> tuple[float, float]:
        rows = _identity_rows(p.k, p.alpha)
        worst = max(rows[name].rel_err for name in row_names)
        return worst, IDENTITY_REL

    return runner


def _run_identity_a0(p: Params) -> tuple[float, float]:
    # the quadratic A0 has its positive zero at the maxima-hull radius; delta
    # beyond the hull means A0(delta) < 0 (the containment direction)
    rows = _identity_rows(p.k, p.alpha)
    if not rows["a0_at_delta_scaled"].ok:
        raise UndefinedRowError("scaled A0 closed form failed")
    return rows["a0_at_delta_negative"].computed, 0.0


# pointwise's samples: 64 angle-uniform points of (-1, 1), and 31 cosines
# that scale the oscillation band's half-width turning_point(p)
_PW_FIXED = np.array([math.cos(theta) for theta in np.linspace(0.0, math.pi, 66)[1:-1]])
_PW_BAND = np.array([math.cos(phi) for phi in np.linspace(0.0, math.pi, 33)[1:-1]])
_PW_FIXED.setflags(write=False)
_PW_BAND.setflags(write=False)


def _pointwise_points(p: Params) -> tuple[np.ndarray, float, np.ndarray]:
    """(x, numerator, denominator) of the pointwise bound at the samples where it is not vacuous.

    The bound's denominator is taken over all points at once; each has the
    bits of pointwise_bound's at its point.
    """
    # the oscillation band shrinks like 1/sqrt(alpha), so a fixed angular grid
    # eventually misses the central peak; band-scaled samples and x = 0 keep
    # the worst point visible at every parameter scale
    xs = np.concatenate([_PW_FIXED, turning_point(p) * _PW_BAND, [0.0]])
    num, den = _bounds.pointwise_bound_parts(p, xs)
    kept = den > 0.0
    return xs[kept], num, den[kept]


def _pointwise_samples(p: Params) -> list[tuple[float, float, float]]:
    """(x, M(x), bound) at each sample point where the bound is not vacuous.

    ln M comes from the triple's P_k kernel call (_sampling_parts); each M
    and bound has the same bits as weighted_M and pointwise_bound at its point.
    """
    xs, num, den, val, off = _sampling_parts(p.k, p.alpha, p.beta)["pointwise"]
    if not xs.size:
        raise _bounds.HypothesisError("pointwise bound vacuous at every sampled point")
    ln_m = _weighted_ln(p, xs, Window.full(), val, off)
    bounds = (num / den).tolist()
    return [(x, _exp_saturating(ln), bound) for x, ln, bound in zip(xs.tolist(), ln_m.tolist(), bounds)]


def _run_pointwise(p: Params) -> tuple[float, float]:
    """Smallest margin of the pointwise bound over the samples; the first of equal margins wins.

    P_k at the ~95 sample points comes from the triple's one P_k kernel call.
    """
    samples = _pointwise_samples(p)
    margins = [bound - m for _, m, bound in samples]
    _, lhs, rhs = samples[margins.index(min(margins))]
    return lhs, rhs


# min(bounds.gamma_ratio_log_gap(x) for x in [0.0, *np.geomspace(1e-2, 1e8, 41)]),
# written with repr: the grid does not depend on p
_GAMMA_RATIO_SMALLEST_GAP = 6.2499999375e-18


def _run_gamma_ratio(p: Params) -> tuple[float, float]:
    # the gap ln rhs - ln lhs shrinks like 1/(16 x^2) while both logs grow
    # like x ln 2, so the row carries (0, smallest gap) rather than the two
    # logs themselves, whose difference would round away entirely
    return 0.0, _GAMMA_RATIO_SMALLEST_GAP


def _run_ode_residual(p: Params) -> tuple[float, float]:
    """Largest ODE residual over 100 points, with y, y' and y'' from the triple's kernel calls."""
    parts = _sampling_parts(p.k, p.alpha, p.beta)["ode_residual"]
    return max([0.0, *_ode_residuals(p, _ODE_POINTS, *parts)]), 1e-8


# deriv_fd's 50 uniforms: numpy.random.default_rng(72026).random(50), written out
_FD_UNIFORMS = np.array([
    0.07639473023799603, 0.30497466785543714, 0.9742481824477183, 0.13794321926525777,
    0.13066269348216775, 0.6709601198977053, 0.5449912140479197, 0.9604455824221778,
    0.8656634243221739, 0.23763821400869756, 0.6665585070604735, 0.983834623153222,
    0.9736006524795523, 0.7843706472784497, 0.5090464949570309, 0.6967251908481193,
    0.8995133697904348, 0.7627320802381827, 0.7921474804585777, 0.47953056851514897,
    0.17581277321624889, 0.19299734715264671, 0.5667840230576996, 0.1889074258305844,
    0.030777792605903964, 0.6675413567598324, 0.10795720098774964, 0.8726629865532568,
    0.3071403304336445, 0.8857121880151552, 0.9300742244404013, 0.78758190007422,
    0.9111506605009542, 0.9184579708292396, 0.4611572400937086, 0.29175881982826124,
    0.817752048476883, 0.03771650831817974, 0.8162978706299614, 0.38642218754151925,
    0.7531802023011986, 0.7029803283810818, 0.2797940727874304, 0.2591783059669579,
    0.08586337392263266, 0.8830020670150647, 0.14405778007117798, 0.48504399998398506,
    0.05258261273939602, 0.636280372736252,
])
_FD_UNIFORMS.setflags(write=False)


def _deriv_fd_points(p: Params) -> tuple[float, np.ndarray]:
    """(h, u): the step and the 50 centres of deriv_fd's five-point stencils."""
    s = 2.0 * p.k + p.alpha + p.beta + 1.0
    band = 0.85 * turning_point(p)
    # the local log-slope is bounded by the oscillation wavenumber s*x_t plus
    # the weight-envelope slope at the band edge; a five-point stencil with h
    # balancing its h^4 truncation against evaluation roundoff keeps the
    # residual well under 1e-6 even where the envelope slope dominates
    x_t = band / 0.85
    env_slope = max(
        abs(0.5 * p.alpha / (1.0 - band) - 0.5 * p.beta / (1.0 + band)),
        abs(0.5 * p.beta / (1.0 - band) - 0.5 * p.alpha / (1.0 + band)),
    )
    omega = s * x_t + env_slope + 4.0
    noise = 1.5 * (32.0 + p.k + 0.5 * max(p.alpha + p.beta + 1.0, 0.0) * band * band) * 2.2e-16
    h = min(1e-3, max((30.0 * noise / omega**5) ** 0.2, 1e-8))
    return h, -band + 2.0 * band * _FD_UNIFORMS


def _run_deriv_fd(p: Params) -> tuple[float, float]:
    """Largest gap between P_k' and a five-point difference quotient at 50 centres.

    P_k at the centres and their 200 stencil points, and P_k' at the centres,
    come from the triple's kernel calls.  Each centre's stencil values
    and derivative are scaled by exp(-max(ln|P_k(u)|, ln|P_k'(u)|)), taken
    from the kernel's (significand, ln offset) outputs, so the row is computed
    where |P_k| lies far outside double range as well.
    """
    h, val, off, dval, doff = _sampling_parts(p.k, p.alpha, p.beta)["deriv_fd"]
    with np.errstate(divide="ignore"):
        top = np.maximum(np.log(np.abs(val[0])) + off[0], np.log(np.abs(dval)) + doff)
    y, fm2, fm1, fp1, fp2 = val * np.exp(off - top)
    an = dval * np.exp(doff - top)
    fd = (fm2 - 8.0 * fm1 + 8.0 * fp1 - fp2) / (12.0 * h)
    scale = np.maximum(np.abs(an), np.abs(y))
    return float(np.max(np.abs(fd - an) / scale)), 1e-6


@lru_cache(maxsize=64)
def _sampling_parts(k: int, alpha: float, beta: float) -> MappingProxyType:
    """Kernel outputs for a triple's three sampling rows, from one kernel call per polynomial.

    The P_k call evaluates ode_residual's points, deriv_fd's stencils and
    pointwise's kept samples; the P_k' call the ode points and the deriv_fd
    centres; the P_k'' call the ode points.  A check whose hypothesis fails
    adds no points.  Maps each check id to its read-only slices; sweeps run
    triple by triple, so a small memo serves them.
    """
    p = Params(k, alpha, beta)
    h, u = _deriv_fd_points(p) if _REGISTRY["deriv_fd"].hypothesis(p) is None else (0.0, np.empty(0))
    if _REGISTRY["pointwise"].hypothesis(p) is None:
        pw_x, num, den = _pointwise_points(p)
    else:
        pw_x, num, den = np.empty(0), 0.0, np.empty(0)
    ode = _ODE_POINTS
    stencil = np.concatenate([u, u - 2.0 * h, u - h, u + h, u + 2.0 * h])
    (y, yo), (d, do), ypp = eval_derivatives_parts(
        p, [np.concatenate([ode, stencil, pw_x]), np.concatenate([ode, u]), ode]
    )
    for a in (y, yo, d, do, *ypp):
        a.setflags(write=False)
    n, m = ode.size, ode.size + stencil.size
    return MappingProxyType(
        {
            "ode_residual": ((y[:n], yo[:n]), (d[:n], do[:n]), ypp),
            "deriv_fd": (h, y[n:m].reshape(5, -1), yo[n:m].reshape(5, -1), d[n:], do[n:]),
            "pointwise": (pw_x, num, den, y[m:], yo[m:]),
        }
    )


class _CheckDef(NamedTuple):
    hypothesis: Callable[[Params], Optional[str]]
    runner: Callable[[Params], tuple[float, float]]
    description: str
    # the _WINDOWS name of the window the runner scans; None for a row that scans none
    window: Optional[str] = None


def _scan_check(hypothesis, window: str, compare, description: str) -> _CheckDef:
    """The row whose (lhs, rhs) is compare(p, w) on the window named `window`, built inside the row."""
    return _CheckDef(hypothesis, lambda p: compare(p, _WINDOWS[window](p)), description, window)


def _bound_check(bid: _bounds.BoundId, window: str, description: str) -> _CheckDef:
    """The row comparing the window's global max of M with bound bid, on bid's hypotheses."""
    return _scan_check(
        _hyp_bound(bid), window, lambda p, w: (_global_max(p, w, False).M, _bounds.rhs_bound(bid, p)), description
    )


_REGISTRY: dict[str, _CheckDef] = {
    "chow_eq1": _bound_check(_bounds.BoundId.CHOW_EQ1, "full", "full-window global max below the small-exponent bound"),
    "emn_eq2": _bound_check(_bounds.BoundId.EMN_EQ2, "full", "full-window global max below the linear-growth bound"),
    "krasikov_eq3": _bound_check(
        _bounds.BoundId.KRASIKOV_EQ3, "full", "full-window global max below the cube-root bound"
    ),
    "thm1": _bound_check(_bounds.BoundId.THM1, "full", "full-window global max below mu alpha^(1/3) (1+alpha/k)^(1/6)"),
    "lemma_glav": _bound_check(
        _bounds.BoundId.LEMMA_GLAV, "full", "full-window global max below the r tan(tau) cube-root bound"
    ),
    "thm1_ratio": _CheckDef(
        _hyp(
            lambda p: p.is_ultraspherical and p.alpha >= ALPHA_FLOOR and p.k >= 1,
            "needs alpha = beta >= (1+sqrt(2))/4 and k >= 1",
        ),
        lambda p: (_bounds.theorem1_ratio(p.k, p.alpha), _bounds.SHARP_RATIO * (1.0 + 1e-12)),
        "cube-root bound reduction ratio stays below its proven ceiling",
    ),
    "thm4_even_value": _CheckDef(
        _hyp_thm4_even,
        _run_thm4_even_value,
        "closed-form M(0) on the delta window below the even-degree bound",
    ),
    "thm4_delta_peak_at_zero": _scan_check(
        _hyp_thm4_even,
        "delta",
        _run_thm4_peak,
        "delta-window global max located at the origin",
    ),
    "thm4_containment": _scan_check(
        _HYP_ULTRA_ABOVE_HALF,
        "full",
        _structure_runner("delta_containment"),
        "all full-window maxima inside (-delta, delta)",
    ),
    "thm3_containment": _scan_check(
        _hyp_bound(_bounds.BoundId.KRASIKOV_EQ3),
        "full",
        _structure_runner("eta_containment"),
        "all extrema inside the (eta_minus, eta_plus) band",
    ),
    "thm5_unimodal": _scan_check(
        _hyp(lambda p: p.alpha >= p.beta > 0.5 and p.k >= 2, "needs alpha >= beta > 1/2 and k >= 2"),
        "full",
        _structure_runner("unimodal_about_x0"),
        "maxima heights fall before x0 and rise after it",
    ),
    "lmonult_decreasing": _scan_check(
        _hyp(lambda p: p.is_ultraspherical and p.alpha > 0.5 and p.k >= 2, "needs alpha = beta > 1/2 and k >= 2"),
        "delta",
        _structure_runner("nonneg_maxima_decreasing"),
        "delta-window maxima decrease with |x|",
    ),
    "odd_230": _bound_check(_bounds.BoundId.ODD_230, "delta", "odd-degree delta-window global max below 230/pi"),
    "odd_29": _bound_check(_bounds.BoundId.ODD_29, "delta", "odd-degree delta-window global max below 29/pi"),
    "identity_B1_delta": _CheckDef(
        _HYP_ULTRA_ABOVE_HALF,
        _identity_runner(("b1_at_delta",)),
        "exact sextic value at delta matches its closed form",
    ),
    "identity_B1_one": _CheckDef(
        _HYP_ULTRA_ABOVE_HALF,
        _identity_runner(("b1_at_one",)),
        "exact sextic value at 1 matches its closed form",
    ),
    "identity_D_delta": _CheckDef(
        _HYP_ULTRA_ABOVE_HALF,
        _identity_runner(("d_scaled_at_delta",)),
        "exact quartic value at delta matches its closed form",
    ),
    "identity_D_quadratic": _CheckDef(
        _HYP_ULTRA_ABOVE_HALF,
        _identity_runner(("d_scaled_quadratic_at_zero", "d_scaled_quadratic_at_quarter_delta2")),
        "scaled quartic agrees with the displayed quadratic",
    ),
    "identity_A0_delta": _CheckDef(
        _HYP_ULTRA_ABOVE_HALF,
        _run_identity_a0,
        "delta lies beyond the maxima-hull radius (A0(delta) < 0)",
    ),
    "pointwise": _CheckDef(
        _hyp_bound(_bounds.BoundId.EMN_EQ2),
        _run_pointwise,
        "sampled M(x) below the pointwise bound where its denominator is positive"
        " (known to fail for alpha >> k; failures are reported, not masked)",
    ),
    "gamma_ratio": _CheckDef(
        _HYP_NONE,
        _run_gamma_ratio,
        "smallest log-domain gamma-ratio gap over a fixed grid stays positive",
    ),
    "ode_residual": _CheckDef(
        _HYP_NONE,
        _run_ode_residual,
        "defining differential equation satisfied on a 100-point grid",
    ),
    "deriv_fd": _CheckDef(
        _hyp(lambda p: p.k >= 1, "needs k >= 1"),
        _run_deriv_fd,
        "analytic derivative matches central finite differences",
    ),
}


def check_ids() -> list[str]:
    """All registered check ids, in registry order."""
    return list(_REGISTRY)


def run_check(check_id: str, p: Params) -> VerificationResult:
    """Evaluate one check at one parameter triple; for valid inputs, only a bug raises."""
    if check_id not in _REGISTRY:
        raise ConfigError(f"unknown check id: {check_id!r}")
    defn = _REGISTRY[check_id]
    status = SKIPPED
    if defn.hypothesis(p) is None:
        try:
            lhs, rhs = defn.runner(p)
        except _bounds.HypothesisError:
            pass
        except (ArithmeticError, GridTooCoarseError, OutsideOscillationRegionError, UndefinedRowError):
            status = NUMERIC_FAILURE
        else:
            # a nan side compares nothing; an infinite rhs, the structural rows' "nothing to compare", is checked
            status = NUMERIC_FAILURE if math.isnan(lhs) or math.isnan(rhs) else CHECKED
    if status != CHECKED:
        return VerificationResult(check_id, p.k, p.alpha, p.beta, _NAN, _NAN, _NAN, False, status)
    margin = rhs - lhs
    return VerificationResult(check_id, p.k, p.alpha, p.beta, float(lhs), float(rhs), float(margin), bool(margin > 0.0), CHECKED)


def _is_int(v) -> bool:
    # a JSON integer: bool is an int subclass, but true is not a count
    return isinstance(v, int) and not isinstance(v, bool)


def _object(name: str, value, required: tuple = (), optional: tuple = ()) -> dict:
    """value, once it is a JSON object with every required key and no key beyond required and optional."""
    if not isinstance(value, dict):
        raise ConfigError(f"{name} must be a JSON object")
    missing = [key for key in required if key not in value]
    if missing:
        raise ConfigError(f"{name} needs {', '.join(missing)}")
    unknown = sorted(set(value) - set(required) - set(optional))
    if unknown:
        raise ConfigError(f"unknown {name} fields: {unknown}")
    return value


def _exponents(name: str, values: list) -> tuple[float, ...]:
    """values as floats; each must be a JSON number (not a bool), finite and above -1."""
    for v in values:
        if not (_is_int(v) or isinstance(v, float)):
            raise ConfigError(f"{name} values must be numbers, got {v!r}")
        # compared before float(v), which raises OverflowError on a huge int
        if not -1.0 < v <= sys.float_info.max:
            raise ConfigError(f"{name} value {v} must be finite and > -1")
    return tuple(float(v) for v in values)


def _k_range(spec) -> range:
    spec = _object("k_spec", spec, ("min", "max"), ("step", "parity"))
    lo, hi = spec["min"], spec["max"]
    step = spec.get("step", 1)
    parity = spec.get("parity", "any")
    if not (_is_int(lo) and _is_int(hi) and _is_int(step)):
        raise ConfigError("k_spec fields must be integers")
    if lo < 0 or hi < lo or step < 1:
        raise ConfigError("k_spec needs 0 <= min <= max and step >= 1")
    if parity not in ("any", "even", "odd"):
        raise ConfigError("k_spec parity must be any, even, or odd")
    ks = range(lo, hi + 1, step)
    if parity != "any":
        want = int(parity == "odd")
        if step % 2:
            # an odd step alternates the parity from min on
            ks = ks[(lo - want) % 2 :: 2]
        elif lo % 2 != want:
            # an even step keeps min's parity
            ks = ks[:0]
    if not ks:
        raise ConfigError("k_spec selects no degrees")
    return ks


def _alpha_values(spec) -> tuple[float, ...]:
    if isinstance(spec, list) and spec:
        return _exponents("alpha", spec)
    if isinstance(spec, dict):
        _object("alpha_spec", spec, ("lo", "hi", "count"))
        lo, hi = _exponents("alpha", [spec["lo"], spec["hi"]])
        count = spec["count"]
        if not (_is_int(count) and count >= 1):
            raise ConfigError("alpha_spec count must be a positive integer")
        if not 0.0 < lo <= hi:
            raise ConfigError("alpha_spec log-range needs 0 < lo <= hi")
        return tuple(float(v) for v in np.geomspace(lo, hi, count))
    raise ConfigError("alpha_spec must be a nonempty list or {lo, hi, count}")


def _beta_grid(mode) -> Optional[tuple[float, ...]]:
    """The beta values of every alpha, or None when beta = alpha."""
    if mode == "equal_alpha":
        return None
    grid = _object("beta_mode", mode, ("grid",))["grid"] if isinstance(mode, dict) else None
    if isinstance(grid, list) and grid:
        return _exponents("beta", grid)
    raise ConfigError('beta_mode must be "equal_alpha" or {"grid": [...]}')


@dataclass(frozen=True)
class SweepConfig:
    """Declarative sweep: which checks over which (k, alpha, beta) grid, validated once by from_dict."""

    checks: tuple[str, ...]
    output: Optional[dict]
    ks: range
    alphas: tuple[float, ...]
    # the beta values of every alpha, or None when beta = alpha
    betas: Optional[tuple[float, ...]]
    # k_spec, alpha_spec and beta_mode as given, for to_dict: JSON text, so every echo is a fresh copy
    _grid_spec: str

    @classmethod
    def from_dict(cls, d: dict) -> "SweepConfig":
        """d, validated and copied: a later change to d does not reach the config.

        A grid of over _MAX_GRID_POINTS points, counted from the specs, is refused before any alpha value is made.
        """
        _object("config", d, optional=("checks", "k_spec", "alpha_spec", "beta_mode", "output"))
        checks = d.get("checks", ["all"])
        if not isinstance(checks, list) or not checks or not all(isinstance(c, str) for c in checks):
            raise ConfigError("checks must be a nonempty list of check ids")
        for cid in checks:
            if cid != "all" and cid not in _REGISTRY:
                raise ConfigError(f"unknown check id: {cid!r}")
        if len(set(checks)) < len(checks) or ("all" in checks and len(checks) > 1):
            raise ConfigError("checks must name each check once, or be [\"all\"] alone")
        output = d.get("output")
        if output is not None:
            _object("output", output, ("path",), ("format",))
            if not isinstance(output["path"], str) or not output["path"]:
                raise ConfigError("output must be an object with a nonempty path string")
            if output.get("format", "csv") not in ("csv", "json"):
                raise ConfigError("output format must be csv or json")
        spec = d.get("alpha_spec")
        grid_spec = {"k_spec": d.get("k_spec", {}), "alpha_spec": spec, "beta_mode": d.get("beta_mode", "equal_alpha")}
        ks, betas = _k_range(grid_spec["k_spec"]), _beta_grid(grid_spec["beta_mode"])
        count = spec.get("count") if isinstance(spec, dict) else len(spec) if isinstance(spec, list) else None
        if _is_int(count):
            # range arithmetic, not len(), which overflows past sys.maxsize
            size = ((ks.stop - ks.start - 1) // ks.step + 1) * count * (1 if betas is None else len(betas))
            if size > _MAX_GRID_POINTS:
                raise ConfigError(f"the grid has {size} parameter points, more than the {_MAX_GRID_POINTS} allowed")
        return cls(
            checks=tuple(check_ids() if checks == ["all"] else checks),
            output=copy.deepcopy(output),
            ks=ks,
            alphas=_alpha_values(spec),
            betas=betas,
            _grid_spec=json.dumps(grid_spec),
        )

    def parameter_grid(self) -> list[Params]:
        """Every (k, alpha, beta) point: k outermost, then alpha, then beta."""
        pairs = [(a, b) for a in self.alphas for b in ((a,) if self.betas is None else self.betas)]
        return [Params(k, a, b) for k in self.ks for a, b in pairs]

    def to_dict(self) -> dict:
        return {"checks": list(self.checks), **json.loads(self._grid_spec), "output": copy.deepcopy(self.output)}


@dataclass(frozen=True)
class Report:
    rows: tuple[VerificationResult, ...]
    config_echo: dict

    @cached_property
    def counts(self) -> dict:
        """Per check id, in id order: the rows of each status, then the passed and failed checked rows."""
        counts: dict[str, Counter] = {}
        for r in self.rows:
            c = counts.setdefault(r.check_id, Counter())
            c[r.status] += 1
            if r.status == CHECKED:
                c["passed" if r.passed else "failed"] += 1
        return {cid: dict(c) for cid, c in sorted(counts.items())}

    def total(self, key: str) -> int:
        """Rows with status `key`, or checked rows that "passed" or "failed", over every check."""
        return sum(c.get(key, 0) for c in self.counts.values())

    @property
    def n_failed(self) -> int:
        return self.total("failed")

    @property
    def n_numeric_failures(self) -> int:
        return self.total(NUMERIC_FAILURE)

    def exit_code(self) -> int:
        if self.n_failed:
            return 1
        if self.n_numeric_failures:
            return 3
        return 0


def _triple_rows(checks: tuple[str, ...], p: Params) -> list[VerificationResult]:
    """The rows of `checks` at p, after one joint scan of every window their rows scan.

    A window is scanned when the hypothesis of a check that reads it holds.
    A window that cannot be built, or a joint scan that raises a numeric
    error, is left to the rows, which fail as a row does.
    """
    defs = [_REGISTRY[cid] for cid in checks]
    windows = []
    for name in dict.fromkeys(d.window for d in defs if d.window and d.hypothesis(p) is None):
        try:
            windows.append(_WINDOWS[name](p))
        except (ValueError, OverflowError):
            pass
    if windows:
        try:
            _scan_windows(p, windows, False)
        except ArithmeticError:
            # each row scans its window again, alone, and fails as it would
            pass
    return [run_check(cid, p) for cid in checks]


def sweep(config: SweepConfig, jobs: int = 1) -> Report:
    """Run every configured check over the whole grid; rows come back sorted."""
    grid = config.parameter_grid()
    # triple by triple, so that the checks of a triple meet its memos while they are fresh
    rows_at = partial(_triple_rows, config.checks)
    if jobs > 1:
        # imported here, so that a serial sweep loads no thread-pool module
        from concurrent.futures import ThreadPoolExecutor

        # never more threads than CPUs, whatever --jobs asks for
        with ThreadPoolExecutor(max_workers=min(jobs, os.cpu_count() or 1)) as pool:
            per_triple = list(pool.map(rows_at, grid))
    else:
        per_triple = list(map(rows_at, grid))
    results = [r for rows in per_triple for r in rows]
    rows = tuple(sorted(results, key=lambda r: (r.check_id, r.k, r.alpha, r.beta)))
    return Report(rows=rows, config_echo=config.to_dict())


# the CSV report's header, in column order
_CSV_COLUMNS = ("check_id", "k", "alpha", "beta", "lhs", "rhs", "margin", "pass", "status")


def _row_values(r: VerificationResult) -> tuple:
    """r's values in _CSV_COLUMNS order."""
    return (r.check_id, r.k, r.alpha, r.beta, r.lhs, r.rhs, r.margin, r.passed, r.status)


def render_csv(report: Report, timestamp: Optional[str] = None) -> str:
    """CSV text: one timestamp comment line, fixed header, then sorted rows."""
    ts = timestamp or datetime.now(timezone.utc).isoformat()
    lines = [f"# generated_at: {ts}", ",".join(_CSV_COLUMNS)]
    lines += [
        f"{cid},{k},{a:.17g},{b:.17g},{lhs:.17g},{rhs:.17g},{margin:.17g},{'true' if ok else 'false'},{status}"
        for cid, k, a, b, lhs, rhs, margin, ok, status in map(_row_values, report.rows)
    ]
    return "\n".join(lines) + "\n"


def render_json(report: Report, timestamp: Optional[str] = None) -> str:
    ts = timestamp or datetime.now(timezone.utc).isoformat()
    doc = {
        "metadata": {
            "tool_version": __version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "generated_at": ts,
            "config_echo": report.config_echo,
            "counts": report.counts,
        },
        "results": [
            {c: None if isinstance(v, float) and math.isnan(v) else v for c, v in zip(_CSV_COLUMNS, _row_values(r))}
            for r in report.rows
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def write_report(report: Report, path: str, fmt: str = "csv") -> None:
    if fmt not in ("csv", "json"):
        raise ConfigError(f"unknown report format: {fmt!r}")
    text = render_csv(report) if fmt == "csv" else render_json(report)
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write report to {path}: {exc}") from exc


def parse_report_csv(path: str) -> list[VerificationResult]:
    """Read rows produced by render_csv (comment lines ignored).

    Raises ConfigError, naming the columns missing, when the file does not
    start with render_csv's header (a JSON report, say), and naming the line
    of a row with fewer or more fields than the header, a number that does
    not parse, a pass other than true or false, or a status that is not one
    of the three.
    """
    rows = []
    try:
        with open(path, encoding="utf-8") as fh:
            # (line number in the file, line) of every line that is not a comment
            content = [(n, line) for n, line in enumerate(fh, 1) if not line.startswith("#")]
    except OSError as exc:
        raise ConfigError(f"cannot read report from {path}: {exc}") from exc
    reader = csv.DictReader(line for _, line in content)
    missing = [c for c in _CSV_COLUMNS if c not in (reader.fieldnames or ())]
    if missing:
        raise ConfigError(f"{path} is not a CSV report: missing columns {', '.join(missing)}")
    for rec in reader:
        where = f"{path}, line {content[reader.line_num - 1][0]}"
        if None in rec.values():
            raise ConfigError(f"{where}: fewer fields than the header")
        # csv.DictReader files the fields beyond the header under the key None
        if None in rec:
            raise ConfigError(f"{where}: more fields than the header")
        if rec["pass"] not in ("true", "false"):
            raise ConfigError(f"{where}: pass is {rec['pass']!r}, not true or false")
        if rec["status"] not in (CHECKED, SKIPPED, NUMERIC_FAILURE):
            raise ConfigError(f"{where}: unknown status {rec['status']!r}")
        try:
            nums = [int(rec["k"])] + [float(rec[c]) for c in ("alpha", "beta", "lhs", "rhs", "margin")]
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from exc
        rows.append(VerificationResult(rec["check_id"], *nums, passed=rec["pass"] == "true", status=rec["status"]))
    return rows


class FitResult(NamedTuple):
    slope: float
    stderr: float


def fit_exponent(rows, predictor: str = "alpha") -> FitResult:
    """Least-squares slope of ln lhs against the chosen log predictor.

    predictor "alpha" regresses on ln alpha; "alpha_composite" regresses on
    ln(alpha^(1/3) (1+alpha/k)^(1/6)).  Rows that are not checked, whose lhs
    is not positive and finite, or where the predictor is undefined (alpha <=
    0; k < 1 for the composite) are left out.  Informational only.
    """
    if predictor not in ("alpha", "alpha_composite"):
        raise ConfigError(f"unknown predictor: {predictor!r}")
    xs, ys = [], []
    for r in rows:
        if r.status != CHECKED or not (r.lhs > 0.0) or not math.isfinite(r.lhs) or r.alpha <= 0.0:
            continue
        if predictor == "alpha_composite" and r.k < 1:
            continue
        if predictor == "alpha":
            xs.append(math.log(r.alpha))
        else:
            xs.append(math.log(r.alpha) / 3.0 + math.log1p(r.alpha / r.k) / 6.0)
        ys.append(math.log(r.lhs))
    n = len(xs)
    if n < 5:
        raise ConfigError(f"need at least 5 usable rows, got {n}")
    x = np.asarray(xs)
    y = np.asarray(ys)
    sxx = float(np.sum((x - x.mean()) ** 2))
    if sxx == 0.0:
        raise ConfigError("predictor values are all identical")
    slope = float(np.sum((x - x.mean()) * (y - y.mean())) / sxx)
    resid = y - (y.mean() + slope * (x - x.mean()))
    rss = float(np.sum(resid**2))
    stderr = math.sqrt(rss / max(n - 2, 1) / sxx)
    return FitResult(slope=slope, stderr=stderr)

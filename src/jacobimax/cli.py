"""Command line front end: evaluate, list extrema, verify, sweep, and fit.

Exit codes: 0 all checked rows passed, 1 at least one checked row failed,
2 usage or configuration problem, 3 no failures but some rows hit numeric
errors.
"""

import argparse
import json
import math
import os
import sys

from . import verify as _verify
from ._version import __version__
from .envelope import delta_window, sonin_S
from .extrema import GridTooCoarseError, global_max, scan_extrema
from .jacobi import ALPHA_FLOOR, Params, Window, eval_orthonormal, weighted_M

__all__ = ["main", "entry"]

_DEFAULT_GRID = {
    "k_spec": {"min": 2, "max": 20, "step": 3},
    "alpha_spec": [0.3, ALPHA_FLOOR, 1.0, 2.5],
    "beta_mode": "equal_alpha",
}


def _use_color(stream) -> bool:
    return stream.isatty() and not os.environ.get("NO_COLOR")


def _paint(text: str, code: str, enabled: bool) -> str:
    return f"\x1b[{code}m{text}\x1b[0m" if enabled else text


def _params(args) -> Params:
    beta = args.alpha if args.beta is None else args.beta
    return Params(args.k, args.alpha, beta)


def _parse_window(text: str, p: Params) -> Window:
    if text == "full":
        return Window.full()
    if text == "delta":
        return delta_window(p)
    if text.startswith("custom:"):
        parts = text[len("custom:"):].split(",")
        if len(parts) != 2:
            raise ValueError("custom window must be custom:DM,DMX")
        return Window(float(parts[0]), float(parts[1]))
    raise ValueError(f"unknown window {text!r} (expected full, delta, or custom:DM,DMX)")


def _cmd_eval(args) -> int:
    p = _params(args)
    w = _parse_window(args.window, p)
    val = eval_orthonormal(p, args.x)
    m = weighted_M(p, args.x, w)
    print(f"P    = {val.to_float() if val.ln_mag < 700.0 else math.inf * val.sign:.17g}"
          f"  (sign {val.sign:+d}, ln |P| = {val.ln_mag:.17g})")
    print(f"M    = {m.value:.17g}")
    print(f"ln M = {m.ln_value:.17g}")
    try:
        print(f"S    = {sonin_S(p, args.x, w):.17g}")
    except ValueError as exc:
        print(f"S    = n/a ({exc})")
    return 0


def _cmd_extrema(args) -> int:
    p = _params(args)
    w = _parse_window(args.window, p)
    records = scan_extrema(p, w)
    gm = global_max(p, w)
    if args.csv:
        lines = ["index,x,M,ln_M,kind"]
        lines += [f"{r.index},{r.x:.17g},{r.M:.17g},{r.ln_M:.17g},{r.kind}" for r in records]
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        print(f"wrote {len(records)} records to {args.csv}")
    else:
        print(f"{'index':>5}  {'x':>24}  {'M':>24}  {'ln M':>12}  kind")
        for r in records:
            print(f"{r.index:>5}  {r.x:>24.16e}  {r.M:>24.16e}  {r.ln_M:>12.6f}  {r.kind}")
    where = "endpoint" if gm.index < 0 else f"index {gm.index}"
    print(f"global max: M = {gm.M:.17g} at x = {gm.x:.17g} ({where})")
    return 0


def _summarize(report: _verify.Report, stream) -> None:
    color = _use_color(stream)
    for cid, counts in report.counts.items():
        failed = counts.get("failed", 0)
        parts = [f"checked {counts.get('checked', 0)}", f"passed {counts.get('passed', 0)}"]
        if failed:
            parts.append(_paint(f"failed {failed}", "31", color))
        if counts.get("skipped_hypothesis"):
            parts.append(f"skipped {counts['skipped_hypothesis']}")
        if counts.get("numeric_failure"):
            parts.append(_paint(f"numeric {counts['numeric_failure']}", "31", color))
        print(f"{cid:<28} {'  '.join(parts)}", file=stream)
    verdict = "PASS" if report.n_failed == 0 else "FAIL"
    code = "32" if verdict == "PASS" else "31"
    n_checked = sum(1 for r in report.rows if r.status == _verify.CHECKED)
    print(
        _paint(verdict, code, color)
        + f" ({n_checked} checked, {report.n_failed} failed, "
        + f"{sum(1 for r in report.rows if r.status == _verify.SKIPPED)} skipped, "
        + f"{report.n_numeric_failures} numeric failures)",
        file=stream,
    )


def _load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise _verify.ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise _verify.ConfigError(f"config {path} is not valid JSON: {exc}") from exc


def _cmd_verify(args) -> int:
    if args.config:
        raw = _load_config(args.config)
    else:
        raw = dict(_DEFAULT_GRID)
    raw["checks"] = _verify.check_ids() if args.check == "all" else [args.check]
    cfg = _verify.SweepConfig.from_dict(raw)
    report = _verify.sweep(cfg, jobs=args.jobs)
    if args.out:
        _verify.write_report(report, args.out, args.format)
        print(f"wrote {len(report.rows)} rows to {args.out}")
    _summarize(report, sys.stdout)
    return report.exit_code()


def _cmd_sweep(args) -> int:
    raw = _load_config(args.config)
    cfg = _verify.SweepConfig.from_dict(raw)
    report = _verify.sweep(cfg, jobs=args.jobs)
    out = args.out or (cfg.output or {}).get("path")
    if not out:
        raise _verify.ConfigError("sweep needs --out or an output path in the config")
    fmt = args.format or (cfg.output or {}).get("format", "csv")
    _verify.write_report(report, out, fmt)
    print(f"wrote {len(report.rows)} rows to {out}")
    _summarize(report, sys.stdout)
    return report.exit_code()


def _cmd_fit(args) -> int:
    rows = _verify.parse_report_csv(args.in_path)
    predictor = "alpha_composite" if args.predictor == "composite" else "alpha"
    result = _verify.fit_exponent(rows, predictor)
    print(f"slope  = {result.slope:.6f}")
    print(f"stderr = {result.stderr:.3g}")
    return 0


def _add_param_flags(sub, with_x: bool) -> None:
    sub.add_argument("--k", type=int, required=True, help="polynomial degree")
    sub.add_argument("--alpha", type=float, required=True, help="first weight exponent")
    sub.add_argument("--beta", type=float, default=None, help="second weight exponent (default: alpha)")
    if with_x:
        sub.add_argument("--x", type=float, required=True, help="evaluation point in [-1, 1]")
    sub.add_argument(
        "--window",
        default="full",
        help="window: full, delta, or custom:DM,DMX (default full)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jacobimax",
        description="Weighted orthonormal Jacobi polynomials: evaluation, extrema, and bound verification.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("eval", help="evaluate P, M, ln M, and the Sonin envelope at one point")
    _add_param_flags(s, with_x=True)
    s.set_defaults(func=_cmd_eval)

    s = subs.add_parser("extrema", help="list all local extrema of M on a window")
    _add_param_flags(s, with_x=False)
    s.add_argument("--csv", default=None, help="write the table to this CSV file")
    s.set_defaults(func=_cmd_extrema)

    s = subs.add_parser("verify", help="run one named check (or all) over a parameter grid")
    s.add_argument("--check", required=True, help="check id or 'all'")
    s.add_argument("--config", default=None, help="JSON sweep config supplying the grid")
    s.add_argument("--out", default=None, help="write the full report to this path")
    s.add_argument("--format", choices=["csv", "json"], default="csv", help="report format")
    s.add_argument("--jobs", type=int, default=1, help="worker threads")
    s.set_defaults(func=_cmd_verify)

    s = subs.add_parser("sweep", help="run a configured grid sweep and write the report")
    s.add_argument("--config", required=True, help="JSON sweep config")
    s.add_argument("--out", default=None, help="report path (overrides config output.path)")
    s.add_argument("--format", choices=["csv", "json"], default=None, help="report format")
    s.add_argument("--jobs", type=int, default=1, help="worker threads")
    s.set_defaults(func=_cmd_sweep)

    s = subs.add_parser("fit", help="fit a growth exponent to report rows")
    s.add_argument("--in", dest="in_path", required=True, help="report CSV produced by verify/sweep")
    s.add_argument("--predictor", choices=["alpha", "composite"], default="alpha")
    s.set_defaults(func=_cmd_fit)

    return parser


# built once per process, not on every main() call: rebuilding it was a
# sizeable share of a short command
_PARSER = _build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return 0 if code is None else int(code)
    try:
        return args.func(args)
    except (ValueError, OSError, GridTooCoarseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())

"""Command-line interface.

Subcommands: check, cycles, displacement, verify, portrait.  A system is
given either by a JSON config ({"gamma": ..., "boundary": {"family": ...,
"params": {...}}, ...command options...}) or by flags; flags win.  Exit
codes: 0 success, 1 usage or parameter error, 2 non-sliding certificate
violation, 3 verification discrepancy.

Numeric output carries full double precision in JSON and 12 significant
digits in CSV so cross-run diffs are meaningful.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

import numpy as np

from . import analytic, cycles as cyc, families, hypotheses, oracle, portrait
from .core import Point, PWLError, PWLSystem

TWO_PI = analytic.TWO_PI

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_HYPOTHESIS = 2
EXIT_DISCREPANCY = 3


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage failures exit with code 1, not 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise families.ParameterError("config must be a JSON object")
    return cfg


def _merged(args, cfg: dict, key: str, default=None):
    val = getattr(args, key.replace("-", "_"), None)
    if val is not None:
        return val
    return cfg.get(key, default)


def _number(args, cfg: dict, key: str, default=None, kind=float):
    """Option ``key`` from the flags or the config, converted with ``kind``.

    None (unset, or null in the config) is kept only where the default is None.
    """
    val = _merged(args, cfg, key, default)
    if val is None and default is None:
        return None
    try:
        return kind(val)
    except (TypeError, ValueError):
        raise families.ParameterError(f"{key} must be a number, got {val!r}") from None


def _points(args, cfg: dict, default: int) -> int:
    """The displacement scan size, a non-negative integer."""
    points = _number(args, cfg, "points", default, kind=int)
    if points < 0:
        raise families.ParameterError(f"points must be a non-negative integer, got {points!r}")
    return points


def _floats(value, count: int, what: str) -> tuple:
    """``value`` as exactly ``count`` finite floats."""
    try:
        out = tuple(float(v) for v in value)
    except (TypeError, ValueError):
        out = ()
    if len(out) != count or not all(math.isfinite(v) for v in out):
        raise families.ParameterError(f"{what} must be {count} finite numbers, got {value!r}")
    return out


def _build_system(args, cfg: dict) -> PWLSystem:
    gamma = _merged(args, cfg, "gamma")
    family = getattr(args, "family", None)
    boundary = cfg.get("boundary")
    if family is not None:
        # the config's params if it names this family; --n or --alpha still win
        given = boundary if isinstance(boundary, dict) else {}
        fp = given.get("params") if isinstance(given.get("params"), dict) else {}
        params = dict(fp) if given.get("family") == family else {}
        key = {"sine": "n", "cosine": "n", "oscillatory": "alpha"}.get(family)
        if key is not None:
            params[key] = fp.get(key) if getattr(args, key, None) is None else getattr(args, key)
        boundary = {"family": family, "params": params}
    if gamma is None or boundary is None:
        raise families.ParameterError(
            "system underspecified: need gamma and a boundary family (flags or --config)"
        )
    return families.system_from_descriptor({"gamma": gamma, "boundary": boundary})


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for row in rows:
        w.writerow([f"{v:.12g}" if isinstance(v, float) else v for v in row])
    return buf.getvalue()


def _range(args, cfg: dict, default=(0.01, 5.0)) -> tuple[float, float]:
    rng = _merged(args, cfg, "range", list(default))
    lo, hi = _floats(rng, 2, "range")
    if not lo < hi:
        raise families.ParameterError(f"range must be LO HI with LO < HI, got {rng!r}")
    return lo, hi


def _step(args, cfg: dict) -> float:
    """The oracle's RK4 step, checked before any work is done with it."""
    return oracle._check_step(_number(args, cfg, "step", 1e-4))


def _analytic_cycles(system: PWLSystem, args, cfg: dict, lo: float, hi: float,
                     certify: bool) -> cyc.CycleSearchResult:
    kmax = _number(args, cfg, "kmax", kind=int)
    if kmax is not None and kmax < 1:
        raise families.ParameterError(f"kmax must be a positive integer, got {kmax!r}")
    if system.boundary.descriptor.get("family") == "oscillatory" and kmax:
        roots = [families.oscillatory_root(k) for k in range(1, kmax + 1)]
        return cyc.CycleSearchResult(
            cycles=cyc.reports_for_roots(system, roots),
            continuum=False, origin="stable focus", hypothesis_report=None)
    return cyc.find_limit_cycles(system, lo, hi, certify=certify)


def cmd_check(args) -> int:
    cfg = _load_config(args.config)
    system = _build_system(args, cfg)
    lo, hi = _range(args, cfg)
    points = _number(args, cfg, "grid-points", hypotheses.DEFAULT_GRID_POINTS, kind=int)
    grid = hypotheses.geometric_grid(lo, hi, points)
    report = hypotheses.check_boundary_hypotheses(system, grid)
    _emit(json.dumps(report.to_json(), indent=2) + "\n", args.out)
    return EXIT_OK if report.passed else EXIT_HYPOTHESIS


def cmd_cycles(args) -> int:
    cfg = _load_config(args.config)
    system = _build_system(args, cfg)
    lo, hi = _range(args, cfg)
    result = _analytic_cycles(system, args, cfg, lo, hi, certify=not args.no_certify)
    if result.continuum:
        sys.stderr.write("boundary is identically zero on the range: "
                         "continuum of periodic orbits, no isolated cycles\n")
    fmt = _merged(args, cfg, "format", "json")
    if fmt == "csv":
        text = _csv_text(cyc.CYCLE_CSV_HEADER, [c.csv_row() for c in result.cycles])
    else:
        text = json.dumps(result.to_json(), indent=2) + "\n"
    _emit(text, args.out)
    return EXIT_OK


def _displacement_rows(system: PWLSystem, ys, step: float):
    rows = []
    for y in ys:
        y = float(y)
        fa = analytic.displacement(y, system)
        fn = oracle.numeric_displacement(system, y, step)
        rows.append((y, fa, fn, abs(fa - fn)))
    return rows


def cmd_displacement(args) -> int:
    cfg = _load_config(args.config)
    system = _build_system(args, cfg)
    lo, hi = _range(args, cfg)
    points = _points(args, cfg, 200)
    rows = _displacement_rows(system, np.linspace(lo, hi, points), _step(args, cfg))
    _emit(_csv_text(("y", "f_analytic", "f_numeric", "abs_diff"), rows), args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    cfg = _load_config(args.config)
    system = _build_system(args, cfg)
    lo, hi = _range(args, cfg)
    step = _step(args, cfg)
    tol = _number(args, cfg, "tol", 1e-6)
    if not (tol > 0.0 and math.isfinite(tol)):
        raise families.ParameterError(f"tol must be finite and > 0, got {tol!r}")

    grid = hypotheses.geometric_grid(lo, hi, hypotheses.DEFAULT_GRID_POINTS)
    hreport = hypotheses.check_boundary_hypotheses(system, grid)
    if not hreport.passed:
        _emit(json.dumps(hreport.to_json(), indent=2) + "\n", args.out)
        return EXIT_HYPOTHESIS

    result = _analytic_cycles(system, args, cfg, lo, hi, certify=False)
    discrepancies: list[dict] = []
    cycle_records: list[dict] = []
    roots = [c.y_star for c in result.cycles]
    for i, rep in enumerate(result.cycles):
        rm = oracle.return_map(system, rep.lower_crossing.y, step)
        fixed_err = abs(rm.y_out - rm.y_in)
        flight_err = abs(rm.flight_time - TWO_PI)
        eps = oracle.probe_eps(rep.y_star, roots[:i] + roots[i + 1:])
        stab = oracle.resolve_stability(system, rep.y_star, eps=eps, step=step)
        rec = {
            "y_star": rep.y_star,
            "classified": rep.stability.value,
            "oracle": stab.value,
            "fixed_point_error": fixed_err,
            "flight_time_error": flight_err,
            "sigma_crossings": rm.sigma_crossings,
        }
        cycle_records.append(rec)
        if fixed_err > tol:
            discrepancies.append({"kind": "fixed_point", **rec})
        if flight_err > max(tol, 1e-6):
            discrepancies.append({"kind": "flight_time", **rec})
        if rm.sigma_crossings != 1:
            discrepancies.append({"kind": "sigma_crossings", **rec})
        if stab is not rep.stability:
            discrepancies.append({"kind": "stability", **rec})

    points = _points(args, cfg, 40)
    rows = _displacement_rows(system, np.linspace(lo, hi, points), step)
    max_diff = max((r[3] for r in rows), default=0.0)
    if max_diff > tol:
        discrepancies.append({"kind": "displacement", "max_abs_diff": max_diff})

    payload = {
        "cycles": cycle_records,
        "displacement_max_abs_diff": max_diff,
        "discrepancies": discrepancies,
        "passed": not discrepancies,
    }
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
    return EXIT_OK if not discrepancies else EXIT_DISCREPANCY


def cmd_portrait(args) -> int:
    cfg = _load_config(args.config)
    system = _build_system(args, cfg)
    lo, hi = _range(args, cfg)
    result = _analytic_cycles(system, args, cfg, lo, hi, certify=not args.no_certify)

    window = _merged(args, cfg, "window")
    if window is None:
        window = portrait.default_window(result.cycles)
    window = _floats(window, 4, "window")
    given = args.seed or cfg.get("seeds", [])
    if not isinstance(given, list):
        raise families.ParameterError(f"seeds must be a list of X,Y pairs, got {given!r}")
    seeds = [Point(*_floats(s.split(",") if isinstance(s, str) else s, 2, "seed")) for s in given]
    turns = _number(args, cfg, "turns", 3, kind=int)
    if turns < 1:
        raise families.ParameterError(f"turns must be a positive integer, got {turns!r}")
    segments = [seg for seed in seeds for seg in portrait.sample_orbit(system, seed, turns)]
    svg = portrait.render(system, window, [] if args.no_cycles else result.cycles, segments)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(svg)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(oracle.segments_to_csv(segments))
    return EXIT_OK


def _add_system_flags(p: _Parser, out: bool = True) -> None:
    p.add_argument("--config", help="JSON config file; flags override it")
    p.add_argument("--gamma", type=float, help="zone rate gamma > 0")
    p.add_argument("--family", choices=families.FAMILIES,
                   help="boundary family (table only via --config)")
    p.add_argument("--n", type=int, help="zero count for sine/cosine families")
    p.add_argument("--alpha", type=float, help="amplitude for the oscillatory family")
    p.add_argument("--range", type=float, nargs=2, metavar=("LO", "HI"),
                   help="y-range to work on")
    if out:
        p.add_argument("--out", help="output file (default: stdout)")


def _parser() -> _Parser:
    p = _Parser(prog="pwl-cycles",
                description="Limit cycles of planar two-zone piecewise linear systems")
    sub = p.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("check", help="certify the non-sliding conditions on a grid")
    _add_system_flags(pc)
    pc.add_argument("--grid-points", type=int, help="certificate grid size")
    pc.set_defaults(fn=cmd_check)

    py = sub.add_parser("cycles", help="locate and classify limit cycles")
    _add_system_flags(py)
    py.add_argument("--kmax", type=int, help="oscillatory family: use exact zeros k=1..kmax")
    py.add_argument("--format", choices=("json", "csv"))
    py.add_argument("--no-certify", action="store_true",
                    help="skip the non-sliding certificate")
    py.set_defaults(fn=cmd_cycles)

    pd = sub.add_parser("displacement", help="analytic vs numeric displacement scan")
    _add_system_flags(pd)
    pd.add_argument("--points", type=int, help="scan size (default 200)")
    pd.add_argument("--step", type=float, help="integrator step (default 1e-4, at least 1e-5)")
    pd.set_defaults(fn=cmd_displacement)

    pv = sub.add_parser("verify", help="cross-validate every cycle against the integrator")
    _add_system_flags(pv)
    pv.add_argument("--kmax", type=int, help="oscillatory family: exact zeros k=1..kmax")
    pv.add_argument("--points", type=int, help="displacement scan size (default 40)")
    pv.add_argument("--step", type=float, help="integrator step (default 1e-4, at least 1e-5)")
    pv.add_argument("--tol", type=float, help="discrepancy tolerance, finite and > 0 (default 1e-6)")
    pv.set_defaults(fn=cmd_verify)

    pp = sub.add_parser("portrait", help="render an SVG phase portrait")
    _add_system_flags(pp, out=False)
    pp.add_argument("--out", required=True, help="SVG output path")
    pp.add_argument("--kmax", type=int, help="oscillatory family: exact zeros k=1..kmax")
    pp.add_argument("--window", type=float, nargs=4, metavar=("X0", "X1", "Y0", "Y1"))
    pp.add_argument("--seed", action="append", metavar="X,Y",
                    help="orbit seed point, repeatable")
    pp.add_argument("--turns", type=int, help="section returns per seed (default 3)")
    pp.add_argument("--no-cycles", action="store_true", help="do not overlay cycles")
    pp.add_argument("--csv", help="also export sampled orbits as CSV")
    pp.add_argument("--no-certify", action="store_true")
    pp.set_defaults(fn=cmd_portrait)
    return p


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except cyc.HypothesisError as exc:
        sys.stderr.write(f"error: {exc}\n")
        if exc.report is not None:
            sys.stderr.write(json.dumps(exc.report.to_json(), indent=2) + "\n")
        return EXIT_HYPOTHESIS
    except PWLError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except (OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()

"""Command-line interface.

Subcommands: check, cycles, displacement, verify, portrait.  A system is
given either by a JSON config ({"gamma": ..., "boundary": {"family": ...,
"params": {...}}, ...command options...}) or by flags; flags win, and a
config value obeys its flag's rules.  Each command reads and checks all
of its options before any work.  Exit codes: 0 success, 1 usage or
parameter error, 2 non-sliding certificate violation, 3 verification
discrepancy.

Numeric output carries full double precision in JSON and 12 significant
digits in CSV so cross-run diffs are meaningful.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys

import numpy as np

from . import cycles as cyc, families, hypotheses, oracle, portrait
from .core import Point, PWLError, PWLSystem

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_HYPOTHESIS = 2
EXIT_DISCREPANCY = 3


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage failures exit with code 1, not 2.

    A token that starts like a negative number is a value, as in
    ``--seed -0.5,1`` or ``--window -1e-1 1e-1 -1e-1 1e-1``; argparse alone
    takes only a plain decimal there and reads the rest as flags.  No flag of
    this program starts that way.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")

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


def _option(args, cfg: dict, key: str, default=None, kind=float, ok=None, what="a number"):
    """Option ``key`` from the flags or the config, as ``kind``, passing ``ok``.

    A config value obeys its flag's rules: a bool is not a number, and an
    int option takes whole numbers only.  None (unset, or null in the
    config) is kept only where the default is None.
    """
    val = _merged(args, cfg, key, default)
    if val is None and default is None:
        return None
    try:
        if isinstance(val, bool) or kind is int and isinstance(val, float) and not val.is_integer():
            raise ValueError(val)
        out = kind(val)
    except (TypeError, ValueError, OverflowError):
        out = None
    if out is None or ok is not None and not ok(out):
        raise families.ParameterError(f"{key} must be {what}, got {val!r}")
    return out


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
    """CSV of ``rows`` under ``header``, floats as .12g; no field holds a comma, quote or newline."""
    lines = [",".join(header)]
    lines += (",".join(f"{v:.12g}" if isinstance(v, float) else str(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _range(args, cfg: dict) -> tuple[float, float]:
    rng = _merged(args, cfg, "range", [0.01, 5.0])
    lo, hi = _floats(rng, 2, "range")
    if not lo < hi:
        raise families.ParameterError(f"range must be LO HI with LO < HI, got {rng!r}")
    return lo, hi


def _kmax(args, cfg: dict) -> int | None:
    return _option(args, cfg, "kmax", None, int, lambda k: k >= 1, "a positive integer")


def _analytic_cycles(system: PWLSystem, rng: tuple[float, float], kmax: int | None,
                     certify: bool) -> cyc.CycleSearchResult:
    if system.boundary.descriptor.get("family") == "oscillatory" and kmax:
        roots = [families.oscillatory_root(k) for k in range(1, kmax + 1)]
        return cyc.CycleSearchResult(
            cycles=cyc.reports_for_roots(system, roots),
            continuum=False, origin="stable focus", hypothesis_report=None)
    return cyc.find_limit_cycles(system, *rng, certify=certify)


def cmd_check(args, cfg: dict, system: PWLSystem, rng: tuple[float, float]) -> int:
    points = _option(args, cfg, "grid-points", hypotheses.DEFAULT_GRID_POINTS, int,
                     what="an integer")
    report = hypotheses.check_boundary_hypotheses(system, hypotheses.geometric_grid(*rng, points))
    _emit(json.dumps(report.to_json(), indent=2) + "\n", args.out)
    return EXIT_OK if report.passed else EXIT_HYPOTHESIS


def cmd_cycles(args, cfg: dict, system: PWLSystem, rng: tuple[float, float]) -> int:
    kmax = _kmax(args, cfg)
    fmt = _option(args, cfg, "format", "json", str, lambda f: f in ("json", "csv"), "json or csv")
    result = _analytic_cycles(system, rng, kmax, certify=not args.no_certify)
    if result.continuum:
        sys.stderr.write("boundary is identically zero on the range: "
                         "continuum of periodic orbits, no isolated cycles\n")
    if fmt == "csv":
        text = _csv_text(cyc.CYCLE_CSV_HEADER, [c.csv_row() for c in result.cycles])
    else:
        text = json.dumps(result.to_json(), indent=2) + "\n"
    _emit(text, args.out)
    return EXIT_OK


def cmd_displacement(args, cfg: dict, system: PWLSystem, rng: tuple[float, float]) -> int:
    points = _option(args, cfg, "points", 200, int, lambda n: n >= 0, "a non-negative integer")
    step = oracle._check_step(system.params, _option(args, cfg, "step", 1e-4))
    rows = cyc.displacement_rows(system, np.linspace(*rng, points), step)
    _emit(_csv_text(("y", "f_analytic", "f_numeric", "abs_diff"), rows), args.out)
    return EXIT_OK


def cmd_verify(args, cfg: dict, system: PWLSystem, rng: tuple[float, float]) -> int:
    step = oracle._check_step(system.params, _option(args, cfg, "step", 1e-4))
    tol = _option(args, cfg, "tol", 1e-6, float, lambda v: v > 0.0 and math.isfinite(v),
                  "finite and > 0")
    kmax = _kmax(args, cfg)
    points = _option(args, cfg, "points", 40, int, lambda n: n >= 0, "a non-negative integer")

    hreport = hypotheses.check_boundary_hypotheses(system, hypotheses.geometric_grid(*rng))
    if not hreport.passed:
        _emit(json.dumps(hreport.to_json(), indent=2) + "\n", args.out)
        return EXIT_HYPOTHESIS

    result = _analytic_cycles(system, rng, kmax, certify=False)
    report = cyc.verify(system, result.cycles, np.linspace(*rng, points), step, tol)
    _emit(json.dumps(report, indent=2) + "\n", args.out)
    return EXIT_OK if report["passed"] else EXIT_DISCREPANCY


def cmd_portrait(args, cfg: dict, system: PWLSystem, rng: tuple[float, float]) -> int:
    kmax = _kmax(args, cfg)
    window = _merged(args, cfg, "window")
    window = None if window is None else portrait._check_window(_floats(window, 4, "window"))
    given = args.seed or cfg.get("seeds", [])
    if not isinstance(given, list):
        raise families.ParameterError(f"seeds must be a list of X,Y pairs, got {given!r}")
    seeds = [portrait._check_seed(Point(*_floats(s.split(",") if isinstance(s, str) else s, 2, "seed")))
             for s in given]
    turns = _option(args, cfg, "turns", 3, int, lambda n: n >= 1, "a positive integer")
    result = _analytic_cycles(system, rng, kmax, certify=not args.no_certify)
    window = window or portrait.default_window(result.cycles)
    orbits = portrait.sample_orbit(system, np.reshape(seeds, (-1, 2)), turns)
    segments = [seg for orbit in orbits for seg in orbit]
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


_STEP_HELP = ("integrator step (default 1e-4, at least 1e-5; refused where one RK4 step, or "
              "one of twice it, turns a zone's decay into growth or back, from about 1.05 at "
              "gamma 0.75)")


# Built once per process: parsing reads the parser and leaves it as it was.
# Building it takes about 1.2 ms, saved on every later ``main`` call of a
# process that makes several (the benchmark's workloads, the tests); the
# installed command calls ``main`` once and gains nothing.
@functools.lru_cache(maxsize=1)
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
    pd.add_argument("--step", type=float, help=_STEP_HELP)
    pd.set_defaults(fn=cmd_displacement)

    pv = sub.add_parser("verify", help="cross-validate every cycle against the integrator")
    _add_system_flags(pv)
    pv.add_argument("--kmax", type=int, help="oscillatory family: exact zeros k=1..kmax")
    pv.add_argument("--points", type=int, help="displacement scan size (default 40)")
    pv.add_argument("--step", type=float, help=_STEP_HELP)
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
        cfg = _load_config(args.config)
        return args.fn(args, cfg, _build_system(args, cfg), _range(args, cfg))
    except cyc.HypothesisError as exc:
        sys.stderr.write(f"error: {exc}\n")
        if exc.report is not None:
            sys.stderr.write(json.dumps(exc.report.to_json(), indent=2) + "\n")
        return EXIT_HYPOTHESIS
    except (PWLError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()

"""Command-line front end.

Subcommands:
  verify    sample points from a metric/change/hypersurface configuration,
            run the verification suites, write a report.
  geodesic  integrate one geodesic and dump "t x1..xn y1..yn" rows.
  parse     parse and validate a spec file, report its kind.

Exit status: 0 all hard checks passed, 1 at least one check failed,
2 configuration or evaluation error.  Reported-residual and skipped
records never affect the exit status.

Tolerances: every name in ``suites.DEFAULT_TOLS`` can be overridden with
``--tol NAME=VALUE`` (repeatable).  The environment variable
``FINSLERCHANGE_TOLS`` supplies defaults with the same syntax, comma
separated; flags win over the environment.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import __version__
from .core import FinslerSpace
from .geodesics import GeodesicError, integrate_geodesic
from .jets import JetError
from .lang import SpecError, canonical_text, resolve_spec, spec_kind
from .report import Report, emit_json_lines, emit_text, environment_block
from .sampling import SamplingError
from .suites import SUITE_NAMES, SuiteConfig, run_suites

TOL_ENV_VAR = "FINSLERCHANGE_TOLS"


class CliError(Exception):
    """Configuration error: reported on stderr, exit status 2."""


def _parse_tol_item(item):
    name, sep, value = item.partition("=")
    name = name.strip()
    if not sep or not name:
        raise CliError(f"tolerance override {item!r} is not NAME=VALUE")
    try:
        return name, float(value)
    except ValueError:
        raise CliError(f"tolerance value {value!r} is not a number")


def _collect_tols(flag_items):
    tols = {}
    env = os.environ.get(TOL_ENV_VAR, "")
    for item in env.split(","):
        if item.strip():
            name, val = _parse_tol_item(item)
            tols[name] = val
    for item in flag_items or ():
        name, val = _parse_tol_item(item)
        tols[name] = val
    return tols


def _add_verify(sub):
    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("--metric", required=True,
                   help="metric spec: a file path or a bundled name")
    p.add_argument("--change", default="identity",
                   help="change spec (default: the identity change)")
    p.add_argument("--hypersurface", default=None,
                   help="optional hypersurface spec")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", action="append", metavar="NAME=VAL",
                   help="tolerance override, repeatable")
    p.add_argument("--suite", action="append", choices=SUITE_NAMES,
                   help="run only the named suite(s), repeatable")
    p.add_argument("--report", default=None,
                   help="write the report to this path (default: stdout)")
    p.add_argument("--format", choices=("text", "json-lines"),
                   default="text")
    return p


def _add_geodesic(sub):
    p = sub.add_parser("geodesic", help="integrate one geodesic")
    p.add_argument("--metric", required=True)
    p.add_argument("--x0", type=float, nargs="+", required=True,
                   metavar="X")
    p.add_argument("--y0", type=float, nargs="+", required=True,
                   metavar="Y")
    p.add_argument("--t-end", type=float, required=True)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--max-steps", type=int, default=200_000)
    p.add_argument("--enforce-box", action="store_true",
                   help="abort if the path leaves the spec's sampling box")
    p.add_argument("--output", default=None,
                   help="write the path here instead of stdout")
    return p


def _add_parse(sub):
    p = sub.add_parser("parse", help="validate a spec file")
    p.add_argument("--check", required=True, metavar="FILE",
                   help="spec file (or bundled name) to validate")
    p.add_argument("--canonical", action="store_true",
                   help="also print the canonical form")
    return p


def build_parser():
    top = argparse.ArgumentParser(
        prog="finslerchange",
        description="Finsler tensor computation and identity verification")
    top.add_argument("--version", action="version",
                     version=f"finslerchange {__version__}")
    sub = top.add_subparsers(dest="command", required=True)
    _add_verify(sub)
    _add_geodesic(sub)
    _add_parse(sub)
    return top


def _cmd_verify(args):
    tols = _collect_tols(args.tol)
    metric = resolve_spec(args.metric, expect="metric")
    change = resolve_spec(args.change, expect="change")
    hyper = (resolve_spec(args.hypersurface, expect="hypersurface")
             if args.hypersurface else None)
    config = SuiteConfig(metric=metric, change=change, hyper=hyper,
                         samples=args.samples, seed=args.seed, tols=tols)
    records = run_suites(config, args.suite)
    env = environment_block(args.seed, {
        "metric": args.metric,
        "change": args.change,
        "hypersurface": args.hypersurface or "",
        "samples": args.samples,
        "suites": ",".join(args.suite or SUITE_NAMES),
    })
    report = Report(env, records)
    text = (emit_json_lines(report) if args.format == "json-lines"
            else emit_text(report))
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 1 if report.hard_failures() else 0


def _cmd_geodesic(args):
    metric = resolve_spec(args.metric, expect="metric")
    space = FinslerSpace(metric)
    path = integrate_geodesic(space, args.x0, args.y0, args.t_end,
                              tol=args.tol, max_steps=args.max_steps,
                              enforce_box=args.enforce_box)
    n = space.n
    lines = ["# t " + " ".join(f"x{i+1}" for i in range(n))
             + " " + " ".join(f"y{i+1}" for i in range(n))]
    for t, state in zip(path.t, path.states):
        lines.append(" ".join(f"{v:.12g}" for v in (t, *state)))
    s = path.stats
    lines.append(f"# steps={s['steps']} rejected={s['rejected']} "
                 f"max_local_error={s['max_local_error']:.3e} "
                 f"value_drift={s['value_drift']:.3e} "
                 f"box_exits={s['box_exits']} "
                 f"first_exit_t={s['first_exit_t']}")
    out = "\n".join(lines) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(out)
    else:
        sys.stdout.write(out)
    return 0


def _cmd_parse(args):
    spec = resolve_spec(args.check)
    kind = spec_kind(spec)
    bits = [f"{kind} spec"]
    if getattr(spec, "name", None):
        bits.append(f"name {spec.name!r}")
    dim = getattr(spec, "dim", None)
    if dim is not None:
        bits.append(f"dim {dim}")
    if kind == "metric":
        bits.append("quadratic" if spec.is_quadratic else "direct value")
    if kind == "change" and spec.is_identity:
        bits.append("identity")
    sys.stdout.write("ok: " + ", ".join(bits) + "\n")
    if args.canonical:
        sys.stdout.write(canonical_text(spec))
    return 0


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = {"verify": _cmd_verify, "geodesic": _cmd_geodesic,
               "parse": _cmd_parse}[args.command]
    try:
        return handler(args)
    except (CliError, SpecError, JetError, SamplingError, GeodesicError,
            ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Subcommands: ``corrsum``, ``rdet``, ``det`` (tables over an n-schedule),
``rplot`` (plain-bitmap recurrence plot), ``config`` (ordered-interval
pair analysis and the extremal/zero generators), ``solenoid`` (word-pair
counts with certified enclosures, each width checked against its bound by
``solenoidal.asymptotic_corr_sum``), ``prop42`` and ``prop52`` (the two
shipped counterexample constructions).

The parser is built once per process, on the first :func:`main` call
(:func:`build_parser`), and each subparser carries its handler, which
:func:`main` calls from the parsed arguments.  A table reads as many
points as its series does: max(schedule) + max(windows) - 1 for the
windows that ``rqa.series_windows`` names, the rule :func:`rqa.series`
counts by, so the CLI keeps no copy of it.

All table/plot output is deterministic: identical invocations produce
byte-identical files.  Thresholds are parsed as exact rationals ("1/2",
"1/625"); computations run in exact arithmetic unless ``--float`` asks
for the binary floating-point path.  Exit status 1 flags precondition
failures, 2 a resource-guard trip (env RQA_MAX_PAIRS overrides the guard);
a failed internal check is a bug and propagates as a traceback.
"""
from __future__ import annotations

import argparse
import functools
import json
import re
import sys

from . import constructions, rqa, solenoidal
from .dynamics import PiecewiseLinearMap, Trajectory, iterate
from .intervals import Configuration, epsilon_pairs, extremal_configuration, zero_configuration
from .rational import as_fraction, fraction_str, positive
from .rqa import ResourceGuardError


def _float(value, option: str) -> float:
    """``value`` as a float for ``--float``; beyond the float range it is a
    precondition failure, not a traceback."""
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{option} is beyond the float range") from None


def _parse_epsilon(text: str, as_float: bool):
    eps = positive(as_fraction(text))
    return _float(eps, "--epsilon") if as_float else eps


def _parse_schedule(text: str) -> list[int]:
    values = [int(part) for part in text.split(",") if part.strip()]
    if not values or any(a >= b for a, b in zip(values, values[1:])):
        raise ValueError("schedule must be a strictly increasing integer list")
    return values


def _schedule_arg(args) -> list[int]:
    if args.schedule:
        return _parse_schedule(args.schedule)
    if args.n is None:
        raise ValueError("need --n or --schedule")
    return [args.n]


def _load_trajectory(args, n: int, windows: int) -> Trajectory:
    """The first n + W - 1 points of the source, which a count at n reads
    for windows up to W = ``windows``."""
    length = n + windows - 1
    if args.map:
        if args.x0 is None:
            raise ValueError("--map needs a seed point --x0")
        with open(args.map) as fh:
            f = PiecewiseLinearMap.from_json(fh.read())
        x0 = as_fraction(args.x0)
        seed = _float(x0, "--x0") if args.float else x0
        return iterate(f, seed, length)
    if args.construction == "prop42":
        inst = constructions.build_prop42(args.depth)
        if length > inst.n_points:
            raise ValueError(f"n = {n} needs n + W - 1 = {length} points (widest window "
                             f"W = {windows}), but prop42 depth {args.depth} generates "
                             f"{inst.n_points}")
        pts = constructions.prop42_positions(inst, length)
        if args.float:
            pts = tuple(float(p) for p in pts)
        return Trajectory(pts[0], tuple(pts))
    raise ValueError("need a trajectory source: --map/--x0 or --construction prop42 --depth T")


def _add_source_args(p: argparse.ArgumentParser):
    p.add_argument("--map", help="piecewise linear map JSON file")
    p.add_argument("--x0", help="seed point as a rational string")
    p.add_argument("--construction", choices=["prop42"],
                   help="use a built-in construction as the trajectory source")
    p.add_argument("--depth", type=int, default=10,
                   help="construction depth (prop42 source)")
    p.add_argument("--float", action="store_true",
                   help="binary floating-point arithmetic instead of exact rationals")
    p.add_argument("--output", help="output file path")


def _write_or_print(text: str, output: str | None):
    if output:
        with open(output, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_table(args) -> int:
    kind, eps = args.command, _parse_epsilon(args.epsilon, args.float)
    schedule = _schedule_arg(args)
    rqa.RQAParams(args.m, eps, schedule[0])   # validates m, epsilon and every n
    traj = _load_trajectory(args, max(schedule), max(rqa.series_windows(args.m, kind)))
    lines = ["n,C_m_exact_num,C_m_exact_den,C_m_float" if kind == "corrsum"
             else f"n,{kind}_num,{kind}_den,{kind}_float"]
    lines += [f"{n},{v.numerator},{v.denominator},{float(v)!r}"
              for n, v in zip(schedule, rqa.series(traj, schedule, args.m, eps, kind))]
    _write_or_print("\n".join(lines) + "\n", args.output)
    return 0


def _cmd_rplot(args) -> int:
    if not args.output:
        raise ValueError("rplot requires --output")
    params = rqa.RQAParams(args.m, _parse_epsilon(args.epsilon, args.float), args.n)
    traj = _load_trajectory(args, args.n, args.m)
    matrix = rqa.recurrence_matrix(traj, params)
    rqa.write_pgm(matrix, args.output)
    return 0


def _cmd_config(args) -> int:
    eps = as_fraction(args.epsilon)
    if args.extremal:
        conf = extremal_configuration(args.n, eps)
    elif args.zero:
        conf = zero_configuration(args.n, eps)
    elif args.analyze:
        with open(args.analyze) as fh:
            conf = Configuration.from_json(fh.read())
    else:
        raise ValueError("config needs one of --extremal, --zero, --analyze FILE")
    pairs = epsilon_pairs(conf, eps)
    report = {
        "n": pairs.n,
        "epsilon": fraction_str(eps),
        "count": len(pairs),
        "bound": pairs.bound,
        "attains_bound": len(pairs) == pairs.bound,
        "pairs": sorted(pairs.pairs),
    }
    if args.output:
        _write_or_print(conf.to_json() + "\n", args.output)
    print(_indented_json(report))
    return 0


def _indented_json(report: dict) -> str:
    """``json.dumps(report, indent=2)`` for a flat report whose one list,
    "pairs", holds integer pairs.  ``indent`` sends ``json`` to its
    pure-Python encoder, so the pair rows are written here."""
    rows = ",\n".join(f"    [\n      {a},\n      {b}\n    ]" for a, b in report["pairs"])
    fields = [f"  {json.dumps(key)}: {json.dumps(value)}"
              for key, value in report.items() if key != "pairs"]
    fields.append(f'  "pairs": [\n{rows}\n  ]' if rows else '  "pairs": []')
    return "{\n" + ",\n".join(fields) + "\n}"


def _cmd_solenoid(args) -> int:
    inst = constructions.build_delahaye(args.r, depth_cap=max(args.t_schedule))
    eps = as_fraction(args.epsilon)
    rows = solenoidal.asymptotic_corr_sum(inst.system, args.m, eps, args.t_schedule)
    if args.output:
        solenoidal.write_counts_csv(rows, args.output)
    else:
        for c in rows:
            print(f"t={c.t} p_t={c.p_t} N_strict={c.n_strict} N_closed={c.n_closed} "
                  f"enclosure=[{c.lower}, {c.upper}] width_bound={c.width_bound}")
    return 0


def _cmd_prop42(args) -> int:
    inst = constructions.build_prop42(args.depth)
    k_max = args.depth if args.kmax is None else args.kmax
    if args.emit == "positions":
        n = inst.n_points if args.n is None else args.n
        lines = ["index,value"]
        lines += [f"{i},{fraction_str(x)}"
                  for i, x in enumerate(constructions.prop42_positions(inst, n))]
        _write_or_print("\n".join(lines) + "\n", args.output)
    elif args.emit == "map":
        text = constructions.prop42_numeric_map(inst).to_json()
        _write_or_print(text + "\n", args.output)
    elif args.emit == "c1-table":
        if not args.output:
            raise ValueError("c1-table requires --output")
        constructions.write_c1_csv(inst, k_max, args.output)
    else:  # report
        report = constructions.prop42_report(inst, k_max)
        _write_or_print(json.dumps(report, indent=2) + "\n", args.output)
    return 0


def _cmd_prop52(args) -> int:
    inst = constructions.build_delahaye(args.r)
    n1, nm = constructions.delahaye_counts(inst, args.k, args.m, args.t)
    rdet = constructions.delahaye_rdet(inst, args.k, args.m)
    det = constructions.delahaye_det(inst, args.k, args.m)
    f1, fm = constructions.delahaye_counts_formula(args.k, args.m, args.t)
    report = {
        "r": args.r, "k": args.k, "m": args.m, "t": args.t,
        "epsilon": fraction_str(inst.epsilon_k(args.k)),
        "N1_closed": n1, "Nm_closed": nm,
        "N1_closed_formula": f1, "Nm_closed_formula": fm,
        "rdet_limit": fraction_str(rdet),
        "det_limit": fraction_str(det),
    }
    _write_or_print(json.dumps(report, indent=2) + "\n", args.output)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``rqamaps`` parser, built on the first call and shared after it:
    each subparser carries its handler as the default ``handler``."""
    parser = argparse.ArgumentParser(
        prog="rqamaps",
        description="Recurrence quantification analysis for interval maps")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, descr in [("corrsum", "correlation sum table over an n-schedule"),
                        ("rdet", "recurrence determinism table"),
                        ("det", "RQA determinism table"),
                        ("rplot", "recurrence plot bitmap")]:
        p = sub.add_parser(name, help=descr)
        _add_source_args(p)
        p.add_argument("--m", type=int, required=True)
        p.add_argument("--epsilon", required=True)
        p.add_argument("--n", type=int, required=name == "rplot")
        if name != "rplot":
            p.add_argument("--schedule", help="comma-separated increasing n values")
        p.set_defaults(handler=_cmd_rplot if name == "rplot" else _cmd_table)

    p = sub.add_parser("config", help="ordered-interval configuration analysis")
    p.add_argument("--extremal", action="store_true")
    p.add_argument("--zero", action="store_true")
    p.add_argument("--analyze", help="configuration JSON file")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--epsilon", required=True)
    p.add_argument("--output")
    p.set_defaults(handler=_cmd_config)

    p = sub.add_parser("solenoid", help="word-pair counts and enclosures")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--epsilon", required=True)
    p.add_argument("--t-schedule", dest="t_schedule", type=_parse_schedule,
                   required=True)
    p.add_argument("--output")
    p.set_defaults(handler=_cmd_solenoid)

    p = sub.add_parser("prop42", help="oscillating correlation sum construction")
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--emit", choices=["positions", "map", "c1-table", "report"],
                   default="report")
    p.add_argument("--n", type=int)
    p.add_argument("--kmax", type=int)
    p.add_argument("--output")
    p.set_defaults(handler=_cmd_prop42)

    p = sub.add_parser("prop52", help="determinism limit 2/3 construction")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--output")
    p.set_defaults(handler=_cmd_prop52)

    return parser


def _join_dash_values(argv: list[str]) -> list[str]:
    """``--opt -1/5`` as ``--opt=-1/5``: argparse reads a value that starts
    with "-" as an option unless it is a plain negative number, and no
    option of this parser starts with "-" and a digit or a point."""
    joined = []
    for arg in argv:
        if joined and joined[-1].startswith("--") and "=" not in joined[-1] \
                and re.match(r"-[\d.]", arg):
            joined[-1] += "=" + arg
        else:
            joined.append(arg)
    return joined


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(_join_dash_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:  # argparse help/usage exits
        return 0 if exc.code in (0, None) else 1
    try:
        return args.handler(args)
    except ResourceGuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())

"""Command-line front end.

Subcommands: ``corrsum``, ``rdet``, ``det`` (tables over an n-schedule),
``rplot`` (plain-bitmap recurrence plot), ``config`` (ordered-interval
pair analysis and the extremal/zero generators), ``solenoid`` (word-pair
counts with certified enclosures, each width checked against its bound by
``solenoidal.asymptotic_corr_sum``), ``prop42`` and ``prop52`` (the two
shipped counterexample constructions).

All table/plot output is deterministic: identical invocations produce
byte-identical files.  Thresholds are parsed as exact rationals ("1/2",
"1/625"); computations run in exact arithmetic unless ``--float`` asks
for the binary floating-point path.  Exit status 1 flags precondition
failures, 2 a resource-guard trip (env RQA_MAX_PAIRS overrides the guard);
a failed internal check is a bug and propagates as a traceback.
"""
from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import constructions, rqa, solenoidal
from .dynamics import PiecewiseLinearMap, Trajectory, iterate
from .intervals import Configuration, epsilon_pairs, extremal_configuration, zero_configuration
from .rational import fraction_str
from .solenoidal import ResourceGuardError


def _parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def _parse_epsilon(text: str, as_float: bool):
    eps = _parse_rational(text)
    if eps <= 0:
        raise ValueError("epsilon must be positive")
    return float(eps) if as_float else eps


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


def _load_trajectory(args, length: int) -> Trajectory:
    if args.map:
        if args.x0 is None:
            raise ValueError("--map needs a seed point --x0")
        with open(args.map) as fh:
            f = PiecewiseLinearMap.from_json(fh.read())
        x0 = _parse_rational(args.x0)
        seed = float(x0) if args.float else x0
        return iterate(f, seed, length)
    if args.construction == "prop42":
        inst = constructions.build_prop42(args.depth)
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


def _cmd_table(args, kind: str) -> int:
    eps = _parse_epsilon(args.epsilon, args.float)
    schedule = _schedule_arg(args)
    rqa.RQAParams(args.m, eps, schedule[0])   # validates m, epsilon and every n
    window = args.m + (1 if kind == "det" else 0)
    traj = _load_trajectory(args, max(schedule) + window - 1)
    if kind == "corrsum":
        header = "n,C_m_exact_num,C_m_exact_den,C_m_float"
        values = [c for _, c in rqa.estimate_asymptotics(traj, args.m, eps, schedule).values]
    else:
        header = f"n,{kind}_num,{kind}_den,{kind}_float"
        values = rqa._ratio_series(traj, schedule, args.m, eps, det=kind == "det")
    lines = [header]
    lines += [f"{n},{v.numerator},{v.denominator},{float(v)!r}"
              for n, v in zip(schedule, values)]
    _write_or_print("\n".join(lines) + "\n", args.output)
    return 0


def _cmd_rplot(args) -> int:
    if not args.output:
        raise ValueError("rplot requires --output")
    params = rqa.RQAParams(args.m, _parse_epsilon(args.epsilon, args.float), args.n)
    traj = _load_trajectory(args, args.n + args.m - 1)
    matrix = rqa.recurrence_matrix(traj, params)
    rqa.write_pgm(matrix, args.output)
    return 0


def _cmd_config(args) -> int:
    eps = _parse_rational(args.epsilon)
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
        with open(args.output, "w", newline="") as fh:
            fh.write(conf.to_json() + "\n")
    print(json.dumps(report, indent=2))
    return 0


def _cmd_solenoid(args) -> int:
    inst = constructions.build_delahaye(args.r, depth_cap=max(args.t_schedule))
    eps = _parse_rational(args.epsilon)
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


def build_parser() -> argparse.ArgumentParser:
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

    p = sub.add_parser("config", help="ordered-interval configuration analysis")
    p.add_argument("--extremal", action="store_true")
    p.add_argument("--zero", action="store_true")
    p.add_argument("--analyze", help="configuration JSON file")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--epsilon", required=True)
    p.add_argument("--output")

    p = sub.add_parser("solenoid", help="word-pair counts and enclosures")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--epsilon", required=True)
    p.add_argument("--t-schedule", dest="t_schedule", type=_parse_schedule,
                   required=True)
    p.add_argument("--output")

    p = sub.add_parser("prop42", help="oscillating correlation sum construction")
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--emit", choices=["positions", "map", "c1-table", "report"],
                   default="report")
    p.add_argument("--n", type=int)
    p.add_argument("--kmax", type=int)
    p.add_argument("--output")

    p = sub.add_parser("prop52", help="determinism limit 2/3 construction")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--output")

    return parser


_HANDLERS = {
    "corrsum": lambda a: _cmd_table(a, "corrsum"),
    "rdet": lambda a: _cmd_table(a, "rdet"),
    "det": lambda a: _cmd_table(a, "det"),
    "rplot": _cmd_rplot,
    "config": _cmd_config,
    "solenoid": _cmd_solenoid,
    "prop42": _cmd_prop42,
    "prop52": _cmd_prop52,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse help/usage exits
        return 0 if exc.code in (0, None) else 1
    try:
        return _HANDLERS[args.command](args)
    except ResourceGuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())

"""Command-line surface: simulate scenarios, cross-check closed forms against
the recursion, evaluate the debt-decrease condition, and sweep parameters.

Exit status: 0 on success (a failing decrease condition is data, not an
error), 1 on scenario/model errors, 2 on command-line misuse.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import asdict
from io import StringIO
from pathlib import Path

from . import analysis, io
from .io import format_number
from .model import ModelError

_GRID_HELP = ("grid specification: 'start:stop:count' for inclusive linear "
              "spacing, or comma-separated explicit values")


def parse_grid(spec: str) -> list[float]:
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise argparse.ArgumentTypeError(f"bad grid {spec!r}; {_GRID_HELP}")
        try:
            start, stop = float(parts[0]), float(parts[1])
            count = int(parts[2])
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad grid {spec!r}; {_GRID_HELP}")
        if count < 1:
            raise argparse.ArgumentTypeError("grid count must be >= 1")
        if count == 1:
            return [start]
        step = (stop - start) / (count - 1)
        return [start + i * step for i in range(count)]
    try:
        return [float(tok) for tok in spec.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad grid {spec!r}; {_GRID_HELP}")


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        Path(output).write_text(text, encoding="utf-8")


def _bool(flag: bool) -> str:
    return "true" if flag else "false"


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_simulate(scenario, args) -> int:
    traj = analysis.simulate(scenario)
    _emit(io.write_trajectory(traj, format=args.format), args.output)
    return 0


def cmd_closed_form(scenario, args) -> int:
    recursive = analysis.simulate(scenario).debt.tolist()
    closed = [scenario.debt.d0] + analysis.debt_closed_form(
        scenario.debt, scenario.consumer, scenario.horizon).tolist()
    deviation = analysis.max_rel_deviation(recursive[1:], closed[1:])

    if args.format == "json":
        doc = {
            "k": list(range(scenario.horizon + 1)),
            "D_recursive": recursive,
            "D_closed_form": closed,
            "max_rel_dev": deviation,
        }
        _emit(json.dumps(doc, indent=2) + "\n", args.output)
    else:
        lines = ["k,D_recursive,D_closed_form"]
        lines += [f"{k},{format_number(d)},{format_number(c)}"
                  for k, (d, c) in enumerate(zip(recursive, closed))]
        lines.append(f"# max_rel_dev = {format_number(deviation)}")
        _emit("\n".join(lines) + "\n", args.output)
    return 0


def cmd_condition(scenario, args) -> int:
    report = analysis.decrease_condition(scenario.consumer, scenario.debt, args.year)

    if args.format == "json":
        # every report field, in declaration order; the regime is a str enum
        _emit(json.dumps(asdict(report), indent=2) + "\n", args.output)
        return 0

    verdict = ("debt decreases steadily" if report.holds
               else "debt will not steadily decrease")
    lines = [
        f"condition {'holds' if report.holds else 'fails'} "
        f"(margin {format_number(report.margin)}): {verdict}",
        f"lhs = {format_number(report.lhs)}",
        f"rhs = {format_number(report.rhs)}",
        f"margin = {format_number(report.margin)}",
        f"holds = {_bool(report.holds)}",
        f"regime = {report.regime.value}",
    ]
    if report.k is not None:
        lines.append(f"k = {report.k}")
    if report.rhs_limit is not None:
        lines.append(f"rhs_limit = {format_number(report.rhs_limit)}")
    _emit("\n".join(lines) + "\n", args.output)
    return 0


def cmd_fixed_point(scenario, args) -> int:
    fp = analysis.fixed_point(scenario.consumer)
    if args.format == "json":
        _emit(json.dumps({"b_lambda": fp.b_lambda}) + "\n", args.output)
    else:
        _emit(f"b_lambda = {format_number(fp.b_lambda)}\n", args.output)
    return 0


def cmd_sweep(scenario, args) -> int:
    points = analysis.sweep(scenario, args.axis, args.grid, k=args.year)

    if args.format == "json":
        doc = []
        for p in points:
            entry = {"value": p.value, "final_D": p.final_debt, "error": p.error}
            if p.report is not None:
                entry.update(lhs=p.report.lhs, rhs=p.report.rhs,
                             margin=p.report.margin, holds=p.report.holds,
                             regime=p.report.regime.value)
            doc.append(entry)
        _emit(json.dumps(doc, indent=2) + "\n", args.output)
        return 0

    out = StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["value", "lhs", "rhs", "margin", "holds", "final_D", "error"])
    for p in points:
        if p.report is not None:
            lhs, rhs = format_number(p.report.lhs), format_number(p.report.rhs)
            margin, holds = format_number(p.report.margin), _bool(p.report.holds)
        else:
            lhs = rhs = margin = holds = ""
        final = "" if p.final_debt is None else format_number(p.final_debt)
        error = p.error or ""
        writer.writerow([format_number(p.value), lhs, rhs, margin, holds, final, error])
    _emit(out.getvalue(), args.output)
    return 0


# ---------------------------------------------------------------------------
# Parser / entry point
# ---------------------------------------------------------------------------

_PARSER = argparse.ArgumentParser(
    prog="debtdyn",
    description="Coupled consumer-budget / public-debt dynamics: simulate, "
                "cross-check closed forms, and evaluate decrease conditions.",
)
_COMMON = argparse.ArgumentParser(add_help=False)
_COMMON.add_argument("scenario", help="path to a YAML scenario file")
_COMMON.add_argument("-o", "--output", default=None,
                     help="output file (default: standard output)")
_COMMON.add_argument("--format", choices=("csv", "json"), default="csv",
                     help="output format (default: csv; non-tabular "
                          "subcommands print key = value text for csv)")
_SUB = _PARSER.add_subparsers(dest="command", required=True)

_SUB.add_parser("simulate", parents=[_COMMON],
                help="run the budget/debt recursion and emit the trajectory"
                ).set_defaults(func=cmd_simulate)

_SUB.add_parser("closed-form", parents=[_COMMON],
                help="closed-form debt series next to the recursion series "
                     "and their max relative deviation (assumes the budget "
                     "starts at the fixed point; requires beta=0, alpha=gamma)"
                ).set_defaults(func=cmd_closed_form)

_p = _SUB.add_parser("condition", parents=[_COMMON],
                     help="evaluate the strict debt-decrease condition "
                          "(verdict is data: exit 0 either way)")
_p.add_argument("-k", "--year", type=int, default=None,
                help="evaluation year; required for linear/explicit schedules")
_p.set_defaults(func=cmd_condition)

_SUB.add_parser("fixed-point", parents=[_COMMON],
                help="print the consumer budget fixed point b_lambda"
                ).set_defaults(func=cmd_fixed_point)

_p = _SUB.add_parser("sweep", parents=[_COMMON],
                     help="decrease condition + terminal simulated debt across "
                          "a one-parameter grid")
_p.add_argument("--axis", required=True, choices=analysis.SWEEP_AXES,
                help="parameter to sweep ('alpha' moves alpha and gamma together)")
_p.add_argument("--grid", required=True, type=parse_grid, help=_GRID_HELP)
_p.add_argument("-k", "--year", type=int, default=None,
                help="condition year; required for linear/explicit schedules")
_p.set_defaults(func=cmd_sweep)


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        scenario = io.load_scenario(Path(args.scenario).read_text(encoding="utf-8"))
        return args.func(scenario, args)
    except (FileNotFoundError, io.ParseError, io.ValidationError, ModelError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:  # bad year/axis combinations are usage errors
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

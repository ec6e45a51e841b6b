"""Command-line surface: simulate scenarios, cross-check closed forms against
the recursion, evaluate the debt-decrease condition, and sweep parameters.

Exit status: 0 on success (a failing decrease condition is data, not an
error), 1 on scenario/model errors, 2 on command-line misuse.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from . import analysis, io
from .model import ModelError

_GRID_HELP = ("grid specification: 'start:stop:count' for inclusive linear "
              "spacing, or comma-separated explicit values")


def parse_grid(spec: str) -> list[float]:
    try:
        if ":" in spec:
            start, stop, count = spec.split(":")
            start, stop, count = float(start), float(stop), int(count)
            if count < 1:
                raise argparse.ArgumentTypeError("grid count must be >= 1")
            step = (stop - start) / max(count - 1, 1)
            values = [start + i * step for i in range(count)] if count > 1 else [start]
        else:
            values = [float(tok) for tok in spec.split(",") if tok.strip()]
    except ValueError:  # also a spec with other than three ':' parts
        raise argparse.ArgumentTypeError(f"bad grid {spec!r}; {_GRID_HELP}")
    if not values:
        raise argparse.ArgumentTypeError(f"bad grid {spec!r}: no values; {_GRID_HELP}")
    if not all(map(math.isfinite, values)):
        raise argparse.ArgumentTypeError(f"bad grid {spec!r}: a value is not finite; "
                                         f"{_GRID_HELP}")
    return values


# ---------------------------------------------------------------------------
# Subcommands: each returns its output text
# ---------------------------------------------------------------------------

def cmd_simulate(scenario, args) -> str:
    return io.write_trajectory(analysis.simulate(scenario), format=args.format)


def cmd_closed_form(scenario, args) -> str:
    recursive = analysis.simulate(scenario).series["debt"]
    closed = [scenario.debt.d0, *analysis._debt_closed_form(
        scenario.debt, scenario.consumer, scenario.horizon)]
    deviation = analysis.max_rel_deviation(recursive[1:], closed[1:])
    years = range(scenario.horizon + 1)
    if args.format == "json":
        return io.write_json({"k": list(years), "D_recursive": recursive,
                              "D_closed_form": closed, "max_rel_dev": deviation})
    return (io.write_table(["k", "D_recursive", "D_closed_form"],
                           zip(years, recursive, closed))
            + "# " + io.write_record({"max_rel_dev": deviation}))


def _record(value, args) -> str:
    """A model value's fields in declaration order: JSON, or one ``key = value`` line each."""
    return (io.write_json if args.format == "json" else io.write_record)(vars(value))


def cmd_condition(scenario, args) -> str:
    return _record(analysis.decrease_condition(scenario.consumer, scenario.debt, args.year),
                   args)


def cmd_fixed_point(scenario, args) -> str:
    return _record(analysis.fixed_point(scenario.consumer), args)


_SWEEP_COLUMNS = ("value", "lhs", "rhs", "margin", "holds", "final_D", "error")


def cmd_sweep(scenario, args) -> str:
    rows = [{"value": p.value, **(vars(p.report) if p.report else {}),
             "final_D": p.final_debt, "error": p.error}
            for p in analysis.sweep(scenario, args.axis, args.grid, k=args.year)]
    if args.format == "json":
        return io.write_json(rows)
    return io.write_table(_SWEEP_COLUMNS, (map(row.get, _SWEEP_COLUMNS) for row in rows))


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
_YEAR = argparse.ArgumentParser(add_help=False)
_YEAR.add_argument("-k", "--year", type=int, default=None,
                   help="condition year; required for linear/explicit schedules")
_SUB = _PARSER.add_subparsers(dest="command", required=True)

_SUB.add_parser("simulate", parents=[_COMMON],
                help="run the budget/debt recursion and emit the trajectory"
                ).set_defaults(func=cmd_simulate)

_SUB.add_parser("closed-form", parents=[_COMMON],
                help="closed-form debt series next to the recursion series "
                     "and their max relative deviation (assumes the budget "
                     "starts at the fixed point; refuses a scheduled wealth levy)"
                ).set_defaults(func=cmd_closed_form)

_SUB.add_parser("condition", parents=[_COMMON, _YEAR],
                help="evaluate the strict debt-decrease condition D_k < D_{k-1} "
                     "(verdict is data: exit 0 either way)"
                ).set_defaults(func=cmd_condition)

_SUB.add_parser("fixed-point", parents=[_COMMON],
                help="print the consumer budget fixed point b_lambda"
                ).set_defaults(func=cmd_fixed_point)

_p = _SUB.add_parser("sweep", parents=[_COMMON, _YEAR],
                     help="decrease condition + terminal simulated debt across "
                          "a one-parameter grid")
_p.add_argument("--axis", required=True, choices=analysis.SWEEP_AXES,
                help="parameter to sweep ('alpha' sets both rates: the paper's one tax rate); "
                     "without run.b0 each point starts at its own b_lambda")
_p.add_argument("--grid", required=True, type=parse_grid, help=_GRID_HELP)
_p.set_defaults(func=cmd_sweep)


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        scenario = io.load_scenario(Path(args.scenario).read_bytes())
        text = args.func(scenario, args)
        if args.output is None:
            sys.stdout.write(text)
        else:
            Path(args.output).write_text(text, encoding="utf-8")
        return 0
    except (OSError, io.ParseError, io.ValidationError, ModelError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:  # bad year/axis combinations are usage errors
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

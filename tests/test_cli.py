"""End-to-end tests of the command-line surface."""

import argparse
import csv
import json
import math
import re
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import asdict, fields, replace
from io import StringIO
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from debtdyn import (
    SWEEP_AXES,
    ConditionReport,
    ConstantSchedule,
    ModelError,
    cli,
    decrease_condition,
    fixed_point,
    load_scenario,
    simulate,
    sweep,
)
from debtdyn.io import write_json, write_record
from strategies import AXIS_VALUES, scenario_documents

BASELINE = """
consumer:
  p_a: 100.0
  alpha: 0.25
  beta: 0.0
  gamma: 0.25
  law: {a: 0.15, n: 2}
debt:
  r: 0.05
  D0: 100.0
  schedule: {kind: constant, g0: 30.0}
run:
  b0: 18.0
  horizon: 10
"""


@pytest.fixture
def baseline_path(tmp_path):
    path = tmp_path / "baseline.yaml"
    path.write_text(BASELINE)
    return str(path)


def write_variant(tmp_path, name, old, new):
    path = tmp_path / name
    path.write_text(BASELINE.replace(old, new))
    return str(path)


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_emits_monotone_budget_column(baseline_path, capsys):
    assert cli.main(["simulate", baseline_path]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "k,b,c,tau,delta,D"
    budgets = [float(row.split(",")[1]) for row in lines[1:]]
    assert budgets == sorted(budgets)
    assert abs(budgets[-1] - 20.0) < 1e-6


def test_simulate_output_is_deterministic(baseline_path, capsys):
    cli.main(["simulate", baseline_path])
    first = capsys.readouterr().out
    cli.main(["simulate", baseline_path])
    assert capsys.readouterr().out == first


@pytest.mark.parametrize("argv", [
    ["simulate", "--format", "json"],
    ["closed-form"],
    ["condition"],
    ["fixed-point"],
    ["sweep", "--axis", "g0", "--grid", "30:50:5"],
])
def test_every_subcommand_is_byte_deterministic(argv, baseline_path, capsys):
    assert cli.main([argv[0], baseline_path, *argv[1:]]) == 0
    first = capsys.readouterr().out
    assert cli.main([argv[0], baseline_path, *argv[1:]]) == 0
    assert capsys.readouterr().out == first


def test_simulate_writes_json_file(baseline_path, tmp_path, capsys):
    out = tmp_path / "traj.json"
    assert cli.main(["simulate", baseline_path, "--format", "json", "-o", str(out)]) == 0
    assert capsys.readouterr().out == ""
    doc = json.loads(out.read_text())
    assert doc["D"][0] == 100.0 and len(doc["b"]) == 11


# ---------------------------------------------------------------------------
# closed-form
# ---------------------------------------------------------------------------

def test_closed_form_reports_tiny_deviation_at_the_fixed_point(tmp_path, capsys):
    # b0 omitted: defaults to b_lambda, where the closed form is exact
    path = write_variant(tmp_path, "fp.yaml", "b0: 18.0\n  ", "")
    assert cli.main(["closed-form", path, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["max_rel_dev"] < 1e-9
    assert doc["D_recursive"][0] == doc["D_closed_form"][0] == 100.0


def test_closed_form_csv_has_deviation_footer(baseline_path, capsys):
    assert cli.main(["closed-form", baseline_path]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "k,D_recursive,D_closed_form"
    assert lines[-1].startswith("# max_rel_dev = ")


def test_closed_form_rejects_wealth_tax_scenarios(tmp_path, capsys):
    path = write_variant(tmp_path, "beta.yaml", "beta: 0.0", "beta: 0.1\n  m: 3")
    assert cli.main(["closed-form", path]) == 1
    err = capsys.readouterr().err
    assert "beta = 0" in err


def test_closed_form_uses_schedule_form_for_linear(tmp_path, capsys):
    path = write_variant(tmp_path, "lin.yaml",
                         "schedule: {kind: constant, g0: 30.0}",
                         "schedule: {kind: linear, g1: 30.0, deltaG: 1.0}")
    assert cli.main(["closed-form", path, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["D_closed_form"]) == 11


# ---------------------------------------------------------------------------
# condition
# ---------------------------------------------------------------------------

def test_condition_low_debt_corollary_holds(tmp_path, capsys):
    path = tmp_path / "low_debt.yaml"
    path.write_text(BASELINE.replace("D0: 100.0", "D0: 0.0")
                        .replace("g0: 30.0", "g0: 39.0"))
    assert cli.main(["condition", str(path)]) == 0
    out = capsys.readouterr().out
    assert "holds = true" in out
    assert "lhs = 40" in out
    assert "rhs = 39" in out


def test_condition_failing_verdict_still_exits_zero(tmp_path, capsys):
    path = write_variant(tmp_path, "fail.yaml", "g0: 30.0", "g0: 45.0")
    assert cli.main(["condition", str(path)]) == 0
    out = capsys.readouterr().out
    assert "holds = false" in out


def test_condition_json_block(baseline_path, capsys):
    assert cli.main(["condition", baseline_path, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"lhs": 40.0, "rhs": 35.0, "margin": 5.0, "holds": True,
                   "k": None, "rhs_limit": None}


def test_condition_linear_requires_year(tmp_path, capsys):
    path = write_variant(tmp_path, "lin.yaml",
                         "schedule: {kind: constant, g0: 30.0}",
                         "schedule: {kind: linear, g1: 30.0, deltaG: 1.0}")
    assert cli.main(["condition", path]) == 2
    assert "year k is required" in capsys.readouterr().err
    assert cli.main(["condition", path, "-k", "3"]) == 0
    out = capsys.readouterr().out
    assert [line.split(" = ")[0] for line in out.splitlines()] == [
        "lhs", "rhs", "margin", "holds", "k", "rhs_limit"]
    assert "k = 3" in out
    assert "rhs_limit = " in out


# ---------------------------------------------------------------------------
# fixed-point
# ---------------------------------------------------------------------------

def test_fixed_point_text_and_json(baseline_path, capsys):
    assert cli.main(["fixed-point", baseline_path]) == 0
    assert capsys.readouterr().out == "b_lambda = 20\n"
    assert cli.main(["fixed-point", baseline_path, "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"b_lambda": 20.0}


REPO = Path(__file__).parent.parent
SCENARIO_FILES = sorted([*(REPO / "scenarios").glob("*.yaml"),
                         *(REPO / "tests" / "data").glob("*.yaml")])


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command", ["condition", "fixed-point"])
@pytest.mark.parametrize("path", SCENARIO_FILES, ids=lambda path: str(path.relative_to(REPO)))
def test_a_record_command_prints_its_value(path, command, fmt, capsys):
    scenario = load_scenario(path.read_bytes())
    k = None if isinstance(scenario.debt.schedule, ConstantSchedule) else 1
    argv = [command, str(path), "--format", fmt]
    try:
        if command == "fixed-point":
            value = fixed_point(scenario.consumer)
        else:
            value = decrease_condition(scenario.consumer, scenario.debt, k)
            argv += [] if k is None else ["-k", str(k)]
    except ModelError:  # the levy year of wealth_tax.yaml: the condition is refused
        assert cli.main(argv) == 1
        return
    assert cli.main(argv) == 0
    write = write_json if fmt == "json" else write_record
    assert capsys.readouterr().out == write(vars(value))


def test_holds_is_the_verdict_of_year_k_alone(tmp_path, capsys):
    # deltaG < 0: the threshold falls year by year, so year 6 holds after the debt
    # has risen in years 1..4
    path = tmp_path / "falling.yaml"
    path.write_text((REPO / "scenarios" / "linear_expenditure.yaml").read_text()
                    .replace("g1: 30.0", "g1: 45.0").replace("deltaG: 1.0", "deltaG: -3.0"))
    scenario = load_scenario(path.read_bytes())
    margins = [decrease_condition(scenario.consumer, scenario.debt, k).margin
               for k in range(1, 9)]
    assert margins == pytest.approx([-10.0, -7.14, -4.42, -1.83, 0.64, 2.99, 5.23, 7.36],
                                    abs=0.005)
    debt = simulate(replace(scenario, horizon=8)).debt  # from b_lambda = 20
    assert list(np.sign(np.diff(debt))) == list(-np.sign(margins))
    assert debt[4] == pytest.approx(124.49, abs=0.005)
    assert cli.main(["condition", str(path), "-k", "6"]) == 0
    out = capsys.readouterr().out
    assert "holds = true" in out and "steadily" not in out


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_sweep_g0_rows(baseline_path, capsys):
    assert cli.main(["sweep", baseline_path, "--axis", "g0",
                     "--grid", "30,40,50"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "value,lhs,rhs,margin,holds,final_D,error"
    verdicts = [row.split(",")[4] for row in lines[1:]]
    assert verdicts == ["true", "false", "false"]


def test_sweep_linspace_grid_and_json(baseline_path, capsys):
    assert cli.main(["sweep", baseline_path, "--axis", "D0",
                     "--grid", "0:200:3", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [e["value"] for e in doc] == [0.0, 100.0, 200.0]
    assert all("holds" in e for e in doc)


def test_sweep_captured_errors_appear_in_rows(baseline_path, capsys):
    assert cli.main(["sweep", baseline_path, "--axis", "alpha", "--grid", "1.5,0.25"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "alpha" in lines[1].split(",")[6]
    assert lines[2].endswith(",")  # no error for the valid point


def test_sweep_csv_keeps_error_messages_verbatim(tmp_path, capsys):
    # a two-year schedule over ten years: the ScheduleTooShort message has a comma
    path = write_variant(tmp_path, "short.yaml", "{kind: constant, g0: 30.0}",
                         "{kind: explicit, values: [30.0, 31.0]}")
    assert cli.main(["sweep", path, "--axis", "D0", "--grid", "30,40", "-k", "1"]) == 0
    rows = list(csv.reader(capsys.readouterr().out.splitlines()))
    points = sweep(load_scenario(Path(path).read_text()), "D0", [30.0, 40.0], k=1)
    assert "," in points[0].error
    assert [row[6] for row in rows[1:]] == [p.error for p in points]


def test_sweep_bad_grid_is_cli_misuse(baseline_path):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["sweep", baseline_path, "--axis", "g0", "--grid", "1:2"])
    assert excinfo.value.code == 2


@pytest.mark.parametrize("spec,problem", [
    ("0:1:0", "grid count must be >= 1"),
    ("a:1:3", "bad grid 'a:1:3'; "),
    (",", "bad grid ',': no values; "),
    ("", "bad grid '': no values; "),
    ("nan,inf", "bad grid 'nan,inf': a value is not finite; "),
    ("nan,0.1", "bad grid 'nan,0.1': a value is not finite; "),
    ("0:1e400:3", "bad grid '0:1e400:3': a value is not finite; "),  # 0 + 0 * inf is nan
])
def test_parse_grid_rejects_a_grid_with_no_usable_values(baseline_path, capsys,
                                                         spec, problem):
    with pytest.raises(argparse.ArgumentTypeError, match=f"^{re.escape(problem)}"):
        cli.parse_grid(spec)
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["sweep", baseline_path, "--axis", "g0", "--grid", spec])
    assert excinfo.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and problem in err


def test_parse_grid_with_one_point_is_its_start():
    assert cli.parse_grid("5:9:1") == [5.0]


def test_structural_misuse_exits_two(tmp_path, baseline_path, capsys):
    for year in ("0", "-3"):  # a given year is checked whatever the schedule
        assert cli.main(["condition", baseline_path, "-k", year]) == 2
        assert capsys.readouterr().err == f"error: year k must be >= 1, got {year}\n"
    linear = write_variant(tmp_path, "lin.yaml",
                           "schedule: {kind: constant, g0: 30.0}",
                           "schedule: {kind: linear, g1: 30.0, deltaG: 1.0}")
    assert cli.main(["condition", linear, "-k", "0"]) == 2
    assert cli.main(["sweep", linear, "--axis", "g0", "--grid", "30,40"]) == 2
    assert cli.main(["sweep", linear, "--axis", "D0", "--grid", "0,1", "-k", "0"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["condition"], ["sweep", "--axis", "r", "--grid", "0,1"]])
@pytest.mark.parametrize("rates", [{"beta": 0.1, "m": 3}, {"beta": 0.5, "m": 1000}])
def test_a_missing_year_is_misuse_before_any_regime_error(tmp_path, capsys, argv, rates):
    # a linear schedule with no -k, and a consumer the condition refuses
    # (RegimeError for a scheduled levy, within the horizon or past it)
    text = BASELINE.replace("schedule: {kind: constant, g0: 30.0}",
                            "schedule: {kind: linear, g1: 30.0, deltaG: 1.0}")
    levy = "".join(f"{key}: {value}\n  " for key, value in rates.items())
    text = text.replace("beta: 0.0\n  ", levy)
    path = tmp_path / "lin.yaml"
    path.write_text(text)
    assert cli.main([argv[0], str(path), *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: year k is required for a non-constant schedule\n"


# ---------------------------------------------------------------------------
# error handling
# ---------------------------------------------------------------------------

# 10**29 is above sys.maxsize; 10**17 is not, but its year list (8e17 bytes) exceeds any
# 64-bit address space, so its allocation fails at once without using memory
HORIZON_ERRORS = [(10**29, "horizon 10{29} has more years than a list can hold"),
                  (10**17, "horizon 10{17} has more years than memory can hold")]


@pytest.mark.parametrize("command,horizon,message", [
    (command, *case) for case in HORIZON_ERRORS for command in ("simulate", "closed-form")],
    ids=["simulate", "closed-form", "simulate-1e17", "closed-form-1e17"])
def test_a_horizon_beyond_the_index_range_is_a_model_error(tmp_path, capsys, command,
                                                           horizon, message):
    path = write_variant(tmp_path, "long.yaml", "horizon: 10", f"horizon: {horizon}")
    assert cli.main([command, path]) == 1
    out, err = capsys.readouterr()
    assert out == "" and re.fullmatch(f"error: {message}\n", err)


@pytest.mark.parametrize("horizon,message", HORIZON_ERRORS, ids=["1e29", "1e17"])
def test_a_sweep_over_a_horizon_beyond_the_index_range_fails_each_row(tmp_path, capsys,
                                                                      horizon, message):
    path = write_variant(tmp_path, "long.yaml", "horizon: 10", f"horizon: {horizon}")
    assert cli.main(["sweep", path, "--axis", "r", "--grid", "0,0.05", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert [row["final_D"] for row in rows] == [None, None]
    assert all(re.fullmatch(message, row["error"]) for row in rows)
    assert [row["holds"] for row in rows] == [True, True]  # the condition needs no horizon

def test_missing_scenario_file_exits_one(capsys):
    assert cli.main(["simulate", "/nonexistent/scenario.yaml"]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("target", ["scenario", "output"])
def test_a_directory_in_place_of_a_file_exits_one(baseline_path, tmp_path, capsys,
                                                  target):
    argv = ["simulate", str(tmp_path)] if target == "scenario" \
        else ["simulate", baseline_path, "-o", str(tmp_path)]
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and str(tmp_path) in err


def test_a_scenario_that_is_not_utf8_exits_one(tmp_path, capsys):
    path = tmp_path / "latin1.yaml"
    path.write_bytes(("# d\u00e9bit" + BASELINE).encode("latin-1"))
    assert cli.main(["simulate", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: malformed scenario document: ")
    assert "position 3" in err  # the byte 0xe9 of the latin-1 e-acute


def test_invalid_scenario_exits_one(tmp_path, capsys):
    path = write_variant(tmp_path, "bad.yaml", "alpha: 0.25", "alpha: 1.5")
    assert cli.main(["simulate", path]) == 1
    assert "consumer.alpha" in capsys.readouterr().err


def test_an_integer_beyond_the_float_range_exits_one(tmp_path, capsys):
    path = write_variant(tmp_path, "huge.yaml", "p_a: 100.0", "p_a: 1" + "0" * 400)
    assert cli.main(["simulate", path]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: consumer.p_a: must be finite")


def test_an_exponent_beyond_the_float_range_is_a_solver_failure(tmp_path, capsys):
    # n = 10**400 is a valid integer >= 2; 1/n is 0.0, so b_lambda is 1
    path = write_variant(tmp_path, "huge_n.yaml", "n: 2", "n: 1" + "0" * 400)
    assert cli.main(["fixed-point", path]) == 0
    assert capsys.readouterr().out == "b_lambda = 1\n"
    no_b0 = tmp_path / "huge_n_no_b0.yaml"
    no_b0.write_text(Path(path).read_text().replace("b0: 18.0\n  ", ""))
    assert cli.main(["simulate", str(no_b0)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: budget root of ")
    assert cli.main(["sweep", path, "--axis", "r", "--grid", "0:0.1:3"]) == 0
    rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
    assert len(rows) == 3
    assert all(row["holds"] and row["final_D"] == "" and row["error"].startswith(
        "budget root of ") for row in rows)


@pytest.mark.parametrize("value", ["1" * 5000, "2020-13-45"], ids=["digits", "date"])
def test_a_value_the_yaml_reader_cannot_build_exits_one(tmp_path, capsys, value):
    path = write_variant(tmp_path, "unbuildable.yaml", "p_a: 100.0", f"p_a: {value}")
    assert cli.main(["simulate", path]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: malformed scenario document: ")


@pytest.mark.parametrize("path", sorted((Path(__file__).parent / "data" / "malformed")
                                         .glob("*.yaml")), ids=lambda path: path.name)
def test_every_malformed_corpus_file_exits_one(path, capsys):
    assert cli.main(["simulate", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ")


def test_fixed_point_underflow_without_b0_exits_one(tmp_path, capsys):
    path = tmp_path / "tiny.yaml"
    path.write_text(BASELINE.replace("p_a: 100.0", "p_a: 1.0e-300")
                    .replace("a: 0.15", "a: 1.0e+300").replace("b0: 18.0\n  ", ""))
    assert cli.main(["simulate", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: b_lambda must be finite and > 0")
    assert cli.main(["condition", str(path)]) == 0  # the condition reads no b0


@pytest.mark.parametrize("argv", [
    ["simulate", "--format", "json"],
    ["closed-form"],
])
def test_debt_overflow_exits_one_with_no_output(argv, tmp_path, capsys):
    path = tmp_path / "overflow.yaml"
    path.write_text(BASELINE.replace("r: 0.05", "r: 0.9").replace("D0: 100.0", "D0: 1.0e+6")
                    .replace("horizon: 10", "horizon: 2000"))
    assert cli.main([argv[0], str(path), *argv[1:]]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "float range" in err


# income at the float maximum: Newton stops one ulp above b_lambda = 2**512 * (1 - 2**-53),
# the largest b whose b**2 is a float, and the step refuses that root
FLOAT_MAX_INCOME = {"consumer": {"p_a": 1.7976931348623157e308, "alpha": 0.0, "beta": 0.0,
                                 "gamma": 0.0, "law": {"a": 1.0, "n": 2}},
                    "debt": {"r": 0.0, "D0": 0.0, "schedule": {"kind": "constant", "g0": 0.0}},
                    "run": {"b0": 1.0, "horizon": 3}}
ROOT_OVERFLOW = ("budget root of 1.0*b**2 + 1.0*b = 1.7976931348623157e+308 in year 1 "
                 "not reached in floating point (Newton stopped at 1.3407807929942597e+154)")
# a*b**2 overflows to inf on the way down from b0 = float max, and Newton stops at -inf
OVERFLOWED_STEP = {"consumer": {"p_a": 1.0, "alpha": 0.0, "beta": 0.0, "gamma": 0.0,
                                "law": {"a": 1e200, "n": 2}},
                   "debt": FLOAT_MAX_INCOME["debt"],
                   "run": {"b0": 1.7976931348623157e308, "horizon": 3}}
# the budget holds at 5e-324 until the levy year 24, whose root is below the floats
ALMOST_ONE = 1.0 - 2.0 ** -53
ROOT_BELOW_FLOATS = {"consumer": {"p_a": 2.2250738585072014e-308, "alpha": ALMOST_ONE,
                                  "beta": ALMOST_ONE, "gamma": ALMOST_ONE, "m": 24,
                                  "law": {"a": ALMOST_ONE, "n": 5}},
                     "debt": FLOAT_MAX_INCOME["debt"],
                     "run": {"b0": 5e-324, "horizon": 24}}


@pytest.mark.parametrize("doc,message,condition_error", [
    (FLOAT_MAX_INCOME, ROOT_OVERFLOW, ""),
    (OVERFLOWED_STEP, "budget root of 1e+200*b**2 + 1.0*b = 1.7976931348623157e+308 in year 1 "
                      "not reached in floating point (Newton stopped at -inf)", ""),
    (ROOT_BELOW_FLOATS, "budget root of 1.9999999999999998*b**5 + 2.0*b = 5e-324 in year 24 "
                        "not reached in floating point (Newton stopped at 0.0)",
     "the decrease condition requires beta = 0, got beta = 0.9999999999999999; "),
], ids=["float-max income", "overflowed step", "root below the floats"])
def test_a_budget_root_out_of_the_floats_is_one_error_naming_its_year(
        doc, message, condition_error, tmp_path, capsys):
    path = tmp_path / "root.yaml"
    path.write_text(json.dumps(doc))
    for command in ("simulate", "closed-form"):
        assert cli.main([command, str(path)]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")
    assert cli.main(["sweep", str(path), "--axis", "D0", "--grid", "0,1", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert [row["error"] for row in rows] == [condition_error + message] * 2


def strict_json(text):
    """json.loads that refuses the non-standard NaN and Infinity tokens."""
    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")
    return json.loads(text, parse_constant=refuse)


def test_condition_near_the_float_limit_prints_finite_json(tmp_path, capsys):
    path = tmp_path / "rich.yaml"
    path.write_text(BASELINE.replace("p_a: 100.0", "p_a: 1.5e+308")
                    .replace("alpha: 0.25", "alpha: 0.9").replace("gamma: 0.25", "gamma: 0.9"))
    assert cli.main(["condition", str(path), "--format", "json"]) == 0
    doc = strict_json(capsys.readouterr().out)
    assert doc["lhs"] == pytest.approx(1.5e308 / 19.0 * 18.0, rel=1e-15)
    assert doc["holds"] is True


@pytest.mark.parametrize("delta_g", ["1.0", "-1.0"])
def test_a_linear_limit_outside_the_float_range_is_left_out(tmp_path, capsys, delta_g):
    # deltaG/r overflows at r = 1e-320: the limit is +-inf, the verdict finite
    path = tmp_path / "tiny_rate.yaml"
    path.write_text(BASELINE.replace("r: 0.05", "r: 1.0e-320").replace(
        "schedule: {kind: constant, g0: 30.0}",
        f"schedule: {{kind: linear, g1: 30.0, deltaG: {delta_g}}}"))
    assert cli.main(["condition", str(path), "-k", "5", "--format", "json"]) == 0
    doc = strict_json(capsys.readouterr().out)
    assert doc["rhs_limit"] is None and doc["rhs"] == 30.0 + 4 * float(delta_g)
    assert cli.main(["condition", str(path), "-k", "5"]) == 0
    out = capsys.readouterr().out
    assert "rhs = " in out and "rhs_limit" not in out


# a year past the float range: the annuity A_{k-1} is 1/r at r > 0 (so rhs = rhs_limit),
# unbounded at r = 0, and multiplies nothing at deltaG = 0
@pytest.mark.parametrize("k", [2**1024, 10**400], ids=["2**1024", "10**400"])
@pytest.mark.parametrize("old,new,rhs", [("r: 0.05", "r: 0.05", 55.0), ("r: 0.05", "r: 0", None),
                                         ("deltaG: 1.0", "deltaG: 0.0", 35.0)],
                         ids=["r=0.05", "r=0", "deltaG=0"])
def test_a_year_past_the_float_range_is_a_verdict_or_a_named_error(tmp_path, capsys, k,
                                                                    old, new, rhs):
    path = tmp_path / "far.yaml"
    path.write_text((REPO / "tests" / "data" / "linear.yaml").read_text().replace(old, new))
    code = cli.main(["condition", str(path), "-k", str(k), "--format", "json"])
    out, err = capsys.readouterr()
    if rhs is None:
        assert (code, out, err) == (1, "", "error: the decrease condition leaves the float "
                                           "range (rhs = inf, margin = -inf)\n")
    else:
        assert code == 0 and strict_json(out) == {"lhs": 40.0, "rhs": rhs, "margin": 40.0 - rhs,
                                                   "holds": rhs < 40.0, "k": k, "rhs_limit": rhs}
    assert cli.main(["sweep", str(path), "--axis", "D0", "--grid", "0,1", "-k", str(k),
                     "--format", "json"]) == 0
    for row in strict_json(capsys.readouterr().out):
        if rhs is None:
            assert row["error"].startswith("the decrease condition leaves the float range")
        else:
            assert row["error"] is None and row["rhs"] == row["rhs_limit"]


def test_condition_outside_the_float_range_exits_one(tmp_path, capsys):
    path = tmp_path / "steep.yaml"
    path.write_text(BASELINE.replace("r: 0.05", "r: 1.0e+300").replace("D0: 100.0", "D0: 1.0e+10"))
    assert cli.main(["condition", str(path), "--format", "json"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "the decrease condition leaves the float range" in err
    assert cli.main(["sweep", str(path), "--axis", "D0", "--grid", "0,1e10",
                     "--format", "json"]) == 0
    rows = strict_json(capsys.readouterr().out)
    assert "rhs" in rows[0] and "decrease condition" not in rows[0]["error"]
    assert "the decrease condition leaves the float range" in rows[1]["error"]
    assert "rhs" not in rows[1]


def test_high_rate_over_long_horizons_exits_zero(tmp_path, capsys):
    linear = tmp_path / "linear.yaml"
    linear.write_text(BASELINE.replace("r: 0.05", "r: 0.9").replace(
        "schedule: {kind: constant, g0: 30.0}",
        "schedule: {kind: linear, g1: 30.0, deltaG: 1.0}"))
    assert cli.main(["condition", str(linear), "-k", "2000", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["rhs"] == pytest.approx(doc["rhs_limit"], rel=1e-12)
    assert cli.main(["sweep", str(linear), "--axis", "D0", "--grid", "0,1", "-k", "2000",
                     "--format", "json"]) == 0
    for point in json.loads(capsys.readouterr().out):
        assert point["error"] is None
        assert all(math.isfinite(point[key]) for key in ("rhs", "margin", "final_D"))
    # zero drift from D0 = 0: the closed form stays at 0 past the overflow
    # of (1+r)**k
    zero = tmp_path / "zero.yaml"
    zero.write_text(BASELINE.replace("r: 0.05", "r: 0.9").replace("D0: 100.0", "D0: 0.0")
                    .replace("g0: 30.0", "g0: 40.0").replace("b0: 18.0", "b0: 20.0")
                    .replace("horizon: 10", "horizon: 2000"))
    assert cli.main(["closed-form", str(zero), "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["D_recursive"] == doc["D_closed_form"] == [0.0] * 2001


def test_main_is_reusable_within_one_process(baseline_path, tmp_path, capsys):
    linear = write_variant(tmp_path, "linear.yaml", "{kind: constant, g0: 30.0}",
                           "{kind: linear, g1: 30.0, deltaG: 1.0}")
    runs = [["simulate", baseline_path], ["simulate", baseline_path, "--format", "json"],
            ["closed-form", baseline_path], ["condition", linear, "-k", "7"],
            ["fixed-point", baseline_path, "--format", "json"],
            ["sweep", linear, "--axis", "r", "--grid", "0:0.2:5", "-k", "3"]]

    def run_all():
        outputs = []
        for argv in runs:
            assert cli.main(argv) == 0
            outputs.append(capsys.readouterr())
        return outputs

    first = run_all()
    assert cli.main(["condition", linear]) == 2  # usage error: no --year
    with pytest.raises(SystemExit):
        cli.main(["sweep", baseline_path, "--axis", "r", "--grid", "x"])
    capsys.readouterr()
    assert run_all() == first


def test_unknown_subcommand_is_cli_misuse(baseline_path):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["frobnicate", baseline_path])
    assert excinfo.value.code == 2


# ---------------------------------------------------------------------------
# golden outputs
# ---------------------------------------------------------------------------

GOLDEN_DIR = Path(__file__).parent / "data" / "golden"

# golden file -> argv; scenario paths are relative to the repository root
GOLDEN = {
    "closed_form_baseline.csv": ["closed-form", "scenarios/baseline.yaml"],
    "closed_form_baseline.json": ["closed-form", "scenarios/baseline.yaml",
                                  "--format", "json"],
    "condition_baseline.txt": ["condition", "scenarios/baseline.yaml"],
    "condition_baseline.json": ["condition", "scenarios/baseline.yaml", "--format", "json"],
    "condition_linear_k7.txt": ["condition", "scenarios/linear_expenditure.yaml", "-k", "7"],
    "condition_linear_k7.json": ["condition", "scenarios/linear_expenditure.yaml", "-k", "7",
                                 "--format", "json"],
    "fixed_point_baseline.txt": ["fixed-point", "scenarios/baseline.yaml"],
    "fixed_point_baseline.json": ["fixed-point", "scenarios/baseline.yaml", "--format", "json"],
    "sweep_r_baseline.csv": ["sweep", "scenarios/baseline.yaml", "--axis", "r",
                             "--grid", "0:0.2:5"],
    "sweep_r_baseline.json": ["sweep", "scenarios/baseline.yaml", "--axis", "r",
                              "--grid", "0:0.2:5", "--format", "json"],
    # alpha != gamma: the intake (alpha+gamma)*p_a/(1+gamma)
    "condition_unequal_rates.txt": ["condition", "tests/data/unequal_rates.yaml"],
    "condition_unequal_rates.json": ["condition", "tests/data/unequal_rates.yaml",
                                     "--format", "json"],
    "sweep_g0_unequal_rates.csv": ["sweep", "tests/data/unequal_rates.yaml", "--axis", "g0",
                                   "--grid", "20:40:3"],
    # alpha = 0 has no intake; 1.5 fails; 0.25 repeats
    "sweep_alpha_baseline.json": ["sweep", "scenarios/baseline.yaml", "--axis", "alpha",
                                  "--grid", "0,0.1,0.25,0.25,0.5,0.9,1.5", "--format", "json"],
    # a levy year: one budget path per consumer, 100 repeats
    "sweep_p_a_wealth_tax.json": ["sweep", "tests/data/wealth_tax.yaml", "--axis", "p_a",
                                  "--grid", "0,50,100,150,100", "--format", "json"],
    # D0 = -1 is invalid and the debt from D0 = 1.75e308 overflows in year 1
    "sweep_D0_linear_k5.json": ["sweep", "tests/data/linear.yaml", "--axis", "D0", "-k", "5",
                                "--grid=-1,0,50,100,200,1e308,1.75e308", "--format", "json"],
    # two values for ten years: the ScheduleTooShort error holds a comma, so its cell is quoted
    "sweep_D0_short_explicit_k1.csv": ["sweep", "tests/data/short_explicit.yaml", "--axis", "D0",
                                       "--grid", "30,40", "-k", "1"],
    # no b0: each point starts at its own b_lambda, so 0.4 reads simulate's -178.510477573
    "sweep_alpha_default_b0.csv": ["sweep", "tests/data/baseline_default_b0.yaml",
                                   "--axis", "alpha", "--grid", "0.25,0.4"],
    "simulate_baseline.csv": ["simulate", "tests/data/baseline.yaml"],
    # r = 0: the annuity is k - 1, so year 10**12 costs what year 2 does
    "condition_linear_r0_far.txt": ["condition", "tests/data/linear_r0.yaml",
                                    "-k", "1000000000000"],
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_matches_golden_file_byte_for_byte(name, capsys):
    command, scenario, *rest = GOLDEN[name]
    assert cli.main([command, str(REPO / scenario), *rest]) == 0
    golden = (GOLDEN_DIR / name).read_text(encoding="utf-8")
    assert capsys.readouterr().out == golden
    if name.endswith(".json"):
        strict_json(golden)


def test_every_golden_file_is_checked():
    # scenario_faults.txt is tests/test_io.py's; CI runs every GOLDEN entry
    names = {path.name for path in GOLDEN_DIR.iterdir()}
    assert names == {*GOLDEN, "scenario_faults.txt"}


def test_a_sweep_json_row_is_its_points_condition_report(capsys):
    # the field names come from the report type, so a new field needs no edit here
    command, scenario, *rest = GOLDEN["sweep_D0_linear_k5.json"]
    assert cli.main([command, str(REPO / scenario), *rest]) == 0
    rows = json.loads(capsys.readouterr().out)
    base = load_scenario((REPO / scenario).read_bytes())
    names = [f.name for f in fields(ConditionReport)]
    assert [list(row) for row in rows[:1]] == [["value", "final_D", "error"]]  # D0 = -1
    for row in rows[1:]:
        assert list(row) == ["value", *names, "final_D", "error"]
        report = decrease_condition(base.consumer, replace(base.debt, d0=row["value"]), 5)
        assert {name: row[name] for name in names} == json.loads(write_json(asdict(report)))
    assert rows[2]["value"] == 50.0 and rows[2]["holds"] and rows[2]["rhs_limit"] == 52.5


# ---------------------------------------------------------------------------
# every subcommand over the full valid domain
# ---------------------------------------------------------------------------

@st.composite
def cli_cases(draw):
    """A scenario document, a condition year or none, and a grid for each sweep axis."""
    doc = draw(scenario_documents())
    k = draw(st.integers(0, doc["run"]["horizon"] + 2)  # no -k at 0; or a year past the floats
             | st.sampled_from((10**6, 2**1023, 2**1024, 10**400))) or None
    return doc, k, {axis: draw(st.lists(AXIS_VALUES[axis], min_size=1, max_size=3))
                    for axis in SWEEP_AXES}


def run_main(argv):
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@given(cli_cases())
@example((FLOAT_MAX_INCOME, None, {axis: [1.0] for axis in SWEEP_AXES}))
def test_every_subcommand_exits_0_1_or_2_over_the_valid_domain(case):
    doc, k, grids = case
    year = [] if k is None else ["-k", str(k)]
    runs = [["simulate"], ["closed-form"], ["condition", *year], ["fixed-point"],
            *(["sweep", "--axis", axis, "--grid=" + ",".join(map(repr, grids[axis])), *year]
              for axis in SWEEP_AXES)]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.yaml"
        path.write_text(json.dumps(doc))  # a JSON document is YAML flow style
        for command, *rest in runs:
            for fmt in ("csv", "json"):
                code, out, err = run_main([command, str(path), *rest, "--format", fmt])
                assert code in (0, 1, 2)
                if code:
                    assert out == "" and err.startswith("error: ")
                elif fmt == "json":
                    strict_json(out)

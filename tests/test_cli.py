"""End-to-end tests of the command-line surface."""

import csv
import json
from pathlib import Path

import pytest

from debtdyn import cli, load_scenario, sweep

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
    path = write_variant(tmp_path, "beta.yaml", "beta: 0.0", "beta: 0.1")
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
    assert "condition holds" in out
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
                   "regime": "constant-g", "k": None, "rhs_limit": None}


def test_condition_linear_requires_year(tmp_path, capsys):
    path = write_variant(tmp_path, "lin.yaml",
                         "schedule: {kind: constant, g0: 30.0}",
                         "schedule: {kind: linear, g1: 30.0, deltaG: 1.0}")
    assert cli.main(["condition", path]) == 2
    assert "--year" in capsys.readouterr().err
    assert cli.main(["condition", path, "-k", "3"]) == 0
    out = capsys.readouterr().out
    assert "regime = linear-g" in out
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
    assert cli.main(["sweep", baseline_path, "--axis", "alpha", "--grid", "0,0.25"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "alpha" in lines[1].split(",")[6]
    assert lines[2].endswith(",")  # no error for the valid point


def test_sweep_csv_keeps_error_messages_verbatim(tmp_path, capsys):
    # alpha != gamma: the condition's RegimeError message contains commas
    path = write_variant(tmp_path, "rates.yaml", "gamma: 0.25", "gamma: 0.3")
    assert cli.main(["sweep", path, "--axis", "g0", "--grid", "30,40"]) == 0
    rows = list(csv.reader(capsys.readouterr().out.splitlines()))
    points = sweep(load_scenario(Path(path).read_text()), "g0", [30.0, 40.0])
    assert "," in points[0].error
    assert [row[6] for row in rows[1:]] == [p.error for p in points]


def test_sweep_bad_grid_is_cli_misuse(baseline_path):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["sweep", baseline_path, "--axis", "g0", "--grid", "1:2"])
    assert excinfo.value.code == 2


def test_structural_misuse_exits_two(tmp_path, baseline_path, capsys):
    assert cli.main(["condition", baseline_path, "-k", "0"]) == 0  # k ignored for constant g
    capsys.readouterr()
    linear = write_variant(tmp_path, "lin.yaml",
                           "schedule: {kind: constant, g0: 30.0}",
                           "schedule: {kind: linear, g1: 30.0, deltaG: 1.0}")
    assert cli.main(["condition", linear, "-k", "0"]) == 2
    assert cli.main(["sweep", linear, "--axis", "g0", "--grid", "30,40"]) == 2
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# error handling
# ---------------------------------------------------------------------------

def test_missing_scenario_file_exits_one(capsys):
    assert cli.main(["simulate", "/nonexistent/scenario.yaml"]) == 1
    assert "error:" in capsys.readouterr().err


def test_invalid_scenario_exits_one(tmp_path, capsys):
    path = write_variant(tmp_path, "bad.yaml", "alpha: 0.25", "alpha: 1.5")
    assert cli.main(["simulate", path]) == 1
    assert "consumer.alpha" in capsys.readouterr().err


def test_fixed_point_underflow_without_b0_exits_one(tmp_path, capsys):
    path = tmp_path / "tiny.yaml"
    path.write_text(BASELINE.replace("p_a: 100.0", "p_a: 1.0e-300")
                    .replace("a: 0.15", "a: 1.0e+300").replace("b0: 18.0\n  ", ""))
    assert cli.main(["simulate", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: run.b0: ")


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


def test_unknown_subcommand_is_cli_misuse(baseline_path):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["frobnicate", baseline_path])
    assert excinfo.value.code == 2

"""Scenario loading/validation and trajectory serialization tests."""

import json
import math

import numpy as np
import pytest

from debtdyn import (
    ConstantSchedule,
    ExplicitSchedule,
    LinearSchedule,
    ParseError,
    Trajectory,
    ValidationError,
    load_scenario,
    read_trajectory,
    scenario_to_dict,
    simulate,
    write_trajectory,
)
from helpers import MALFORMED


# ---------------------------------------------------------------------------
# loading
# ---------------------------------------------------------------------------

def test_load_baseline_document(data_dir):
    s = load_scenario((data_dir / "baseline.yaml").read_text())
    assert s.consumer.p_a == 100.0
    assert s.consumer.alpha == s.consumer.gamma == 0.25
    assert s.consumer.beta == 0.0
    assert s.consumer.m is None
    assert s.consumer.law.a == 0.15 and s.consumer.law.n == 2
    assert s.debt.r == 0.05 and s.debt.d0 == 100.0
    assert isinstance(s.debt.schedule, ConstantSchedule)
    assert s.debt.schedule.g0 == 30.0
    assert s.b0 == 18.0 and s.horizon == 10


def test_load_defaults_b0_to_the_fixed_point(data_dir):
    s = load_scenario((data_dir / "baseline_default_b0.yaml").read_text())
    assert s.b0 == pytest.approx(20.0, rel=1e-12)


def test_load_linear_and_wealth_tax_documents(data_dir):
    linear = load_scenario((data_dir / "linear.yaml").read_text())
    assert isinstance(linear.debt.schedule, LinearSchedule)
    assert linear.debt.schedule.delta_g == 1.0
    taxed = load_scenario((data_dir / "wealth_tax.yaml").read_text())
    assert taxed.consumer.beta == 0.1 and taxed.consumer.m == 4


def test_load_explicit_schedule_document():
    s = load_scenario("""
consumer:
  p_a: 100.0
  alpha: 0.25
  beta: 0.0
  gamma: 0.25
  law: {a: 0.15, n: 2}
debt:
  r: 0.05
  D0: 0.0
  schedule: {kind: explicit, values: [30, 31.5, 33]}
run:
  horizon: 3
""")
    assert isinstance(s.debt.schedule, ExplicitSchedule)
    assert s.debt.schedule.values == (30.0, 31.5, 33.0)


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_corpus_yields_structured_errors(data_dir, name):
    exc_type, fragment = MALFORMED[name]
    with pytest.raises(exc_type, match=None) as excinfo:
        load_scenario((data_dir / "malformed" / name).read_text())
    assert fragment in str(excinfo.value)


@pytest.mark.parametrize("snippet,fragment", [
    ("run: {horizon: 10, b0: 0.0}", "run.b0"),
    ("run: {horizon: 0}", "run.horizon"),
    ("run: {horizon: 10, years: 3}", "years"),
])
def test_run_section_validation(snippet, fragment):
    doc = f"""
consumer:
  p_a: 100.0
  alpha: 0.25
  beta: 0.0
  gamma: 0.25
  law: {{a: 0.15, n: 2}}
debt:
  r: 0.05
  D0: 0.0
  schedule: {{kind: constant, g0: 30.0}}
{snippet}
"""
    with pytest.raises(ValidationError) as excinfo:
        load_scenario(doc)
    assert fragment in str(excinfo.value)


RANGE_DOC = """
consumer:
  p_a: 100.0
  alpha: 0.25
  beta: 0.0
  gamma: 0.25
  law: {a: 0.15, n: 2}
debt:
  r: 0.05
  D0: 0.0
  schedule: {kind: constant, g0: 30.0}
run:
  horizon: 10
"""


@pytest.mark.parametrize("old,new,path", [
    ("p_a: 100.0", "p_a: 0.0", "consumer.p_a"),
    ("alpha: 0.25", "alpha: -0.1", "consumer.alpha"),
    ("alpha: 0.25", "alpha: 1.0", "consumer.alpha"),
    ("beta: 0.0", "beta: -0.1", "consumer.beta"),
    ("beta: 0.0", "beta: 1.0", "consumer.beta"),
    ("gamma: 0.25", "gamma: -0.1", "consumer.gamma"),
    ("beta: 0.0", "beta: 0.0\n  m: 0", "consumer.m"),
    ("a: 0.15", "a: 0.0", "consumer.law.a"),
    ("n: 2", "n: 1", "consumer.law.n"),
    ("r: 0.05", "r: -0.01", "debt.r"),
    ("D0: 0.0", "D0: -1.0", "debt.D0"),
    ("g0: 30.0", "g0: -1.0", "debt.schedule.g0"),
    ("{kind: constant, g0: 30.0}", "{kind: linear, g1: 0.0, deltaG: 1.0}",
     "debt.schedule.g1"),
    ("horizon: 10", "b0: -1.0\n  horizon: 10", "run.b0"),
    ("horizon: 10", "horizon: -3", "run.horizon"),
])
def test_range_errors_name_the_file_path(old, new, path):
    doc = RANGE_DOC.replace(old, new, 1)
    assert doc != RANGE_DOC
    with pytest.raises(ValidationError) as excinfo:
        load_scenario(doc)
    assert str(excinfo.value).startswith(f"{path}: must ")


def test_fixed_point_underflow_needs_an_explicit_b0():
    doc = RANGE_DOC.replace("p_a: 100.0", "p_a: 1.0e-300").replace("a: 0.15", "a: 1.0e+300")
    with pytest.raises(ValidationError) as excinfo:
        load_scenario(doc)
    assert str(excinfo.value).startswith("run.b0: ")
    assert load_scenario(doc.replace("horizon: 10", "b0: 1.0\n  horizon: 10")).b0 == 1.0


def test_nonnumeric_field_is_a_validation_error():
    doc = """
consumer:
  p_a: 100.0
  alpha: 0.25
  beta: 0.0
  gamma: 0.25
  law: {a: 0.15, n: 2}
debt:
  r: fast
  D0: 0.0
  schedule: {kind: constant, g0: 30.0}
run:
  horizon: 10
"""
    with pytest.raises(ValidationError) as excinfo:
        load_scenario(doc)
    assert "debt.r" in str(excinfo.value)


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------

def test_csv_header_and_initial_row(baseline_scenario):
    text = write_trajectory(simulate(baseline_scenario), format="csv")
    lines = text.splitlines()
    assert lines[0] == "k,b,c,tau,delta,D"
    assert lines[1] == "0,18,,,,100"
    assert len(lines) == 12


def test_csv_zero_horizon_trajectory(baseline_scenario):
    nan = float("nan")
    traj = Trajectory(scenario=baseline_scenario,
                      b=np.array([18.0]), c=np.array([nan]), tau=np.array([nan]),
                      delta=np.array([nan]), debt=np.array([100.0]))
    assert write_trajectory(traj, format="csv") == "k,b,c,tau,delta,D\n0,18,,,,100\n"


def test_csv_baseline_budget_near_20_by_year_5(baseline_scenario):
    text = write_trajectory(simulate(baseline_scenario), format="csv")
    row5 = text.splitlines()[6].split(",")
    assert int(row5[0]) == 5
    assert abs(float(row5[1]) - 20.0) < 1e-3


def test_csv_uses_12_significant_digits(baseline_scenario):
    text = write_trajectory(simulate(baseline_scenario), format="csv")
    b1 = text.splitlines()[2].split(",")[1]
    assert b1 == "19.7634717883"


def test_csv_matches_golden_file(data_dir, baseline_scenario):
    golden = (data_dir / "baseline_golden.csv").read_bytes()
    produced = write_trajectory(simulate(baseline_scenario), format="csv").encode()
    assert produced == golden


def test_csv_is_byte_stable_across_runs(baseline_scenario):
    first = write_trajectory(simulate(baseline_scenario), format="csv")
    second = write_trajectory(simulate(baseline_scenario), format="csv")
    assert first == second


def test_unknown_format_rejected(baseline_scenario):
    with pytest.raises(ValueError):
        write_trajectory(simulate(baseline_scenario), format="xml")


# ---------------------------------------------------------------------------
# JSON round trip
# ---------------------------------------------------------------------------

def test_json_round_trip_is_exact(baseline_scenario):
    traj = simulate(baseline_scenario)
    text = write_trajectory(traj, format="json")
    back = read_trajectory(text)
    assert np.array_equal(back.b, traj.b)
    assert np.array_equal(back.debt, traj.debt)
    for original, restored in ((traj.c, back.c), (traj.tau, back.tau),
                               (traj.delta, back.delta)):
        assert math.isnan(restored[0])
        assert np.array_equal(restored[1:], original[1:])
    assert back.scenario == traj.scenario
    assert write_trajectory(back, format="json") == text


def test_json_embeds_the_scenario_echo(baseline_scenario):
    doc = json.loads(write_trajectory(simulate(baseline_scenario), format="json"))
    assert doc["scenario"] == scenario_to_dict(baseline_scenario)
    assert doc["k"] == list(range(11))
    assert doc["c"][0] is None and doc["tau"][0] is None and doc["delta"][0] is None


def test_scenario_dict_round_trips_through_the_loader(data_dir):
    import yaml
    s = load_scenario((data_dir / "wealth_tax.yaml").read_text())
    assert load_scenario(yaml.safe_dump(scenario_to_dict(s))) == s


def test_read_trajectory_rejects_malformed_documents(baseline_scenario):
    with pytest.raises(ParseError):
        read_trajectory("{not json")
    with pytest.raises(ValidationError):
        read_trajectory('{"scenario": {}, "k": [], "b": [], "c": [], '
                        '"tau": [], "delta": [], "D": []}')
    good = write_trajectory(simulate(baseline_scenario), format="json")
    doc = json.loads(good)
    doc["b"] = doc["b"][:-1]  # mismatched series lengths
    with pytest.raises(ValidationError):
        read_trajectory(json.dumps(doc))

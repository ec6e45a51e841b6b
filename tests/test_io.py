"""Scenario loading/validation and trajectory serialization tests."""

import ast
import copy
import csv
import json
import math
import sys
from dataclasses import replace
from enum import Enum
from io import StringIO
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import example, given
from hypothesis import strategies as st

from debtdyn import (
    ConstantSchedule,
    ExplicitSchedule,
    FieldError,
    FixedPointOutOfRange,
    LinearSchedule,
    ModelError,
    ParseError,
    Trajectory,
    ValidationError,
    load_scenario,
    read_trajectory,
    scenario_to_dict,
    simulate,
    write_trajectory,
)
from debtdyn import io
from helpers import MALFORMED
from strategies import scenario_documents

ROOT = Path(__file__).parent.parent
CORPUS = sorted([*ROOT.glob("scenarios/*.yaml"), *ROOT.glob("tests/data/*.yaml"),
                 *ROOT.glob("tests/data/malformed/*.yaml")])


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
    assert s.b0 is None
    assert simulate(s).series["b"][0] == pytest.approx(20.0, rel=1e-12)


def test_io_imports_nothing_of_the_package_but_the_model_types():
    # a default the dynamics work out belongs to analysis, not to the schema layer
    tree = ast.parse(Path(io.__file__).read_text(encoding="utf-8"))
    assert [node.module for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level] == ["model"]


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


def _parsed(text: str, loader):
    try:
        return yaml.load(text, Loader=loader)
    except yaml.YAMLError as exc:
        return type(exc)


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: str(p.relative_to(ROOT)))
def test_loader_agrees_with_the_pure_python_loader(path):
    text = path.read_text()
    assert _parsed(text, io._LOADER) == _parsed(text, yaml.SafeLoader)
    try:
        yaml.safe_load(text)
    except yaml.YAMLError as exc:
        # a rejected document is reported with the pure-Python parser's message
        with pytest.raises(ParseError) as excinfo:
            load_scenario(text)
        assert str(excinfo.value) == f"malformed scenario document: {exc}"


BASELINE_TEXT = (ROOT / "scenarios" / "baseline.yaml").read_text()
# YAML 1.2 exponent floats, and what each reader must make of them
EXPONENT_FORMS = {"5e-2": 0.05, "1e6": 1e6, "1E+3": 1e3, "15e-2": 0.15, "-.5e1": -5.0,
                  "+1.e2": 100.0, "1e400": math.inf, "e5": "e5", "1e": "1e",
                  "1_0e3": "1_0e3", "1e-2.0": "1e-2.0", "0.5": 0.5, "12": 12}


def test_exponent_floats_load_like_their_decimals():
    text = BASELINE_TEXT
    for old, new in {"p_a: 100.0": "p_a: 1E+2", "a: 0.15": "a: 15e-2", "r: 0.05": "r: 5e-2",
                     "D0: 100.0": "D0: 1e2", "g0: 30.0": "g0: .3e2",
                     "b0: 18.0": "b0: 1.8e1"}.items():
        assert old in text
        text = text.replace(old, new, 1)
    assert load_scenario(text) == load_scenario(BASELINE_TEXT)


@pytest.mark.parametrize("value,message", [
    ("e5", "must be a number, got 'e5'"),
    ("1e", "must be a number, got '1e'"),
    ("1e400", "must be finite, got inf"),
])
def test_an_exponent_form_that_is_no_finite_number_is_refused(value, message):
    with pytest.raises(ValidationError) as excinfo:
        load_scenario(BASELINE_TEXT.replace("r: 0.05", f"r: {value}", 1))
    assert str(excinfo.value) == f"debt.r: {message}"


@pytest.mark.parametrize("loader", ["_LOADER", "_PURE_LOADER"])
def test_both_readers_resolve_the_exponent_forms_alike(loader):
    doc = "".join(f"- {text}\n" for text in EXPONENT_FORMS)
    assert list(map(repr, yaml.load(doc, Loader=getattr(io, loader)))) == \
        list(map(repr, EXPONENT_FORMS.values()))


# level -> (a line of scenarios/baseline.yaml, the line that repeats its key, the
# key, the repeat's line number); PyYAML alone would keep the second value
REPEATED_KEYS = {
    "top": ("run:\n", "debt: {}\n", "debt", 15),
    "consumer": ("  alpha: 0.25\n", "  alpha: 0.9\n", "alpha", 4),
    "law": ("    n: 2\n", "    n: 3\n", "n", 9),
    "debt": ("  r: 0.05\n", "  r: 0.5\n", "r", 11),
    "schedule": ("    g0: 30.0\n", "    g0: 31.0\n", "g0", 15),
    "run": ("  horizon: 10\n", "  horizon: 20\n", "horizon", 18),
}


@pytest.mark.parametrize("level", REPEATED_KEYS)
def test_a_repeated_key_is_refused_at_every_level(level):
    line, repeat, key, number = REPEATED_KEYS[level]
    assert BASELINE_TEXT.count(line) == 1
    # the top-level repeat goes before its line, every other one after
    text = BASELINE_TEXT.replace(line, repeat + line if level == "top" else line + repeat)
    for loader in (io._LOADER, io._PURE_LOADER):
        with pytest.raises(yaml.constructor.ConstructorError):
            yaml.load(text, Loader=loader)
    with pytest.raises(ParseError) as excinfo:
        load_scenario(text)
    message = str(excinfo.value)
    assert message.startswith("malformed scenario document: while constructing a mapping")
    assert f"found duplicate key {key!r}\n  in \"<unicode string>\", line {number}, " in message


def test_a_key_a_merge_brings_in_may_be_given_again():
    text = BASELINE_TEXT.replace("    a: 0.15\n    n: 2\n",
                                 "    <<: {a: 0.15, n: 3}\n    n: 2\n")
    assert "<<" in text and load_scenario(text) == load_scenario(BASELINE_TEXT)


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


HUGE = "1" + "0" * 400  # an integer literal beyond the float range


@pytest.mark.parametrize("old,new,path", [
    ("p_a: 100.0", f"p_a: {HUGE}", "consumer.p_a"),
    ("D0: 0.0", f"D0: {HUGE}", "debt.D0"),
    ("{kind: constant, g0: 30.0}", f"{{kind: explicit, values: [30.0, -{HUGE}]}}",
     "debt.schedule.values[1]"),
    ("horizon: 10", f"b0: {HUGE}\n  horizon: 10", "run.b0"),
], ids=["p_a", "D0", "values", "b0"])
def test_an_integer_beyond_the_float_range_is_not_finite(old, new, path):
    doc = RANGE_DOC.replace(old, new, 1)
    assert doc != RANGE_DOC
    with pytest.raises(ValidationError) as excinfo:
        load_scenario(doc)
    assert str(excinfo.value).startswith(f"{path}: must be finite, got ")


# Every single-fault variant of a scenario document: each node of the file
# schema over the three schedule kinds (and each explicit-schedule element),
# missing or replaced by one wrong value. tests/data/golden/scenario_faults.txt
# holds load_scenario's outcome for each, one line per variant.
FAULT_BASE = {
    "consumer": {"p_a": 100.0, "alpha": 0.25, "beta": 0.1, "gamma": 0.25, "m": 3,
                 "law": {"a": 0.15, "n": 2}},
    "debt": {"r": 0.05, "D0": 100.0, "schedule": None},
    "run": {"b0": 18.0, "horizon": 5},
}
FAULT_SCHEDULES = {
    "constant": {"kind": "constant", "g0": 30.0},
    "linear": {"kind": "linear", "g1": 30.0, "deltaG": 1.0},
    "explicit": {"kind": "explicit", "values": [30.0, 31.0, 33.0]},
}
MISSING = object()
FAULTS = {"missing": MISSING, "null": None, "str": "x", "bool": True, "list": [1.0],
          "neg": -1, "frac": 1.5, "huge": int(HUGE)}


def _nodes(doc, path=()):
    for key, value in doc.items():
        yield (*path, key)
        if isinstance(value, dict):
            yield from _nodes(value, (*path, key))


def _get(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _set(doc, path, value):
    *parents, last = path
    doc = _get(doc, parents)
    if value is MISSING:
        del doc[last]
    else:
        doc[last] = value


def _outcome(doc, path) -> str:
    try:
        scenario = load_scenario(yaml.safe_dump(doc, sort_keys=False))
    except (ParseError, ValidationError) as exc:
        return f"{type(exc).__name__}: {exc}"
    try:
        return f"ok, {_get(scenario_to_dict(scenario), path)!r}"
    except KeyError:
        return "ok, absent"


def fault_outcomes() -> str:
    lines = []
    for kind, schedule in FAULT_SCHEDULES.items():
        base = copy.deepcopy(FAULT_BASE)
        base["debt"]["schedule"] = schedule
        variants = [(path, label, value) for path in _nodes(base)
                    for label, value in FAULTS.items()]
        variants += [(("debt", "schedule", "values", i), label, value)
                     for i in range(len(schedule.get("values", ())))
                     for label, value in FAULTS.items() if value is not MISSING]
        variants += [((*path, "zz"), "unknown", 1)
                     for path in [(), *_nodes(base)] if isinstance(_get(base, path), dict)]
        for path, label, value in variants:
            doc = copy.deepcopy(base)
            _set(doc, path, value)
            name = "".join(f"[{key}]" if isinstance(key, int) else f".{key}"
                           for key in path)[1:]
            lines.append(f"{kind} {name} {label}: {_outcome(doc, path)}\n")
    return "".join(lines)


def test_single_fault_outcomes_match_golden_file(data_dir):
    golden = (data_dir / "golden" / "scenario_faults.txt").read_bytes()
    assert fault_outcomes().encode() == golden


# values the YAML and JSON readers cannot construct: an integer literal past
# Python's digit limit for int-from-str conversion, and a date with month 13
UNBUILDABLE = {"digits": "1" * 5000, "date": "2020-13-45"}


@pytest.mark.parametrize("value", UNBUILDABLE.values(), ids=UNBUILDABLE.keys())
def test_a_value_the_yaml_reader_cannot_build_is_a_parse_error(value):
    doc = RANGE_DOC.replace("p_a: 100.0", f"p_a: {value}")
    with pytest.raises(ParseError, match="^malformed scenario document: "):
        load_scenario(doc)


def test_a_number_the_json_reader_cannot_build_is_a_parse_error(baseline_scenario):
    doc = json.loads(write_trajectory(simulate(baseline_scenario), format="json"))
    doc["D"][3] = "digits"
    text = json.dumps(doc).replace('"digits"', UNBUILDABLE["digits"])
    with pytest.raises(ParseError, match="^malformed trajectory document: "):
        read_trajectory(text)


def test_fixed_point_underflow_needs_an_explicit_b0():
    doc = RANGE_DOC.replace("p_a: 100.0", "p_a: 1.0e-300").replace("a: 0.15", "a: 1.0e+300")
    scenario = load_scenario(doc)  # the file is valid; only starting at b_lambda is not
    with pytest.raises(FixedPointOutOfRange, match=r"^b_lambda must be finite and > 0, got 0\.0$"):
        simulate(scenario)
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
    # a trajectory holds its scenario's years 0..K, K >= 1: a lone year-0 row is no trajectory
    nan = float("nan")
    with pytest.raises(FieldError) as excinfo:
        Trajectory(scenario=baseline_scenario,
                   b=np.array([18.0]), c=np.array([nan]), tau=np.array([nan]),
                   delta=np.array([nan]), debt=np.array([100.0]))
    assert (excinfo.value.field, excinfo.value.problem) == (
        "series", "b must have 11 entries, got 1")


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
    golden = (data_dir / "golden" / "simulate_baseline.csv").read_bytes()
    produced = write_trajectory(simulate(baseline_scenario), format="csv").encode()
    assert produced == golden


def test_csv_is_byte_stable_across_runs(baseline_scenario):
    first = write_trajectory(simulate(baseline_scenario), format="csv")
    second = write_trajectory(simulate(baseline_scenario), format="csv")
    assert first == second


def _csv_writer_table(header, rows) -> str:
    """The table as `csv.writer` writes it over the same cells: the reference
    for `io.write_table`'s quoting."""
    out = StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(map(io._text, row) for row in rows)
    return out.getvalue()


# csv.writer leaves "\r" bare through Python 3.12 and quotes it from 3.13 on, so
# it is the reference for "\r" only there; the next test pins it on every version.
_CR = ["\r"] if sys.version_info < (3, 13) else []
_CSV_TEXT = st.lists(st.sampled_from([",", '"', "\n", *_CR, " ", '""', "a"]),
                     max_size=5).map("".join)
_CSV_CELL = (st.floats() | st.just(math.nan) | st.none() | st.booleans() | st.integers()
             | _CSV_TEXT)


@st.composite
def _csv_tables(draw):
    columns = draw(st.integers(1, 4))
    header = draw(st.lists(_CSV_TEXT, min_size=columns, max_size=columns))
    rows = draw(st.lists(st.lists(_CSV_CELL, min_size=columns, max_size=columns),
                         max_size=4))
    return header, rows


@given(_csv_tables())
@example(([""], [[None], [math.nan], [""]]))  # a lone empty cell is ""
@example((["k", "a,b"], []))  # a header-only table
@example((["x", "y"], [['say "hi"', "a\nb"], [",", '""']]))
def test_write_table_matches_csv_writer_byte_for_byte(table):
    header, rows = table
    assert io.write_table(header, rows) == _csv_writer_table(header, rows)


def test_write_table_leaves_a_carriage_return_bare():
    assert io.write_table(["a", "b"], [["x\ry", "\r"], ["\r,"]]) == 'a,b\nx\ry,\r\n"\r,"\n'


def test_unknown_format_rejected(baseline_scenario):
    with pytest.raises(ValueError):
        write_trajectory(simulate(baseline_scenario), format="xml")


# ---------------------------------------------------------------------------
# JSON round trip
# ---------------------------------------------------------------------------

# tests/data/baseline.yaml is the baseline_scenario fixture; the other file leaves b0 out
ROUND_TRIP_FILES = ["baseline.yaml", "baseline_default_b0.yaml"]


@pytest.mark.parametrize("name", ROUND_TRIP_FILES)
def test_json_round_trip_is_exact(data_dir, name):
    traj = simulate(load_scenario((data_dir / name).read_text()))
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


def _hexes(traj):
    return {name: [v.hex() for v in series] for name, series in traj.series.items()}


@given(scenario_documents())
def test_any_simulated_trajectory_round_trips_exactly(doc):
    try:
        traj = simulate(io.scenario_from_mapping(doc))
    except ModelError:  # no trajectory to write
        return
    text = write_trajectory(traj, format="json")
    back = read_trajectory(text)
    assert back.scenario == traj.scenario
    assert _hexes(back) == _hexes(traj)  # the year-0 NaN flows too
    assert write_trajectory(back, format="json") == text
    assert write_trajectory(back, format="csv") == write_trajectory(traj, format="csv")


_BASELINE = load_scenario((ROOT / "scenarios" / "baseline.yaml").read_text())
_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _trajectories(draw):
    """The baseline over 1 to 30 years: finite stocks, flows finite or NaN."""
    scenario = replace(_BASELINE, horizon=draw(st.integers(1, 30)))
    stock, flow = (st.lists(elements, min_size=scenario.horizon + 1,
                            max_size=scenario.horizon + 1)
                   for elements in (_FINITE, _FINITE | st.just(math.nan)))
    return Trajectory(scenario, draw(stock), draw(flow), draw(flow), draw(flow), draw(stock))


@given(_trajectories())
def test_any_trajectory_s_json_round_trips_byte_for_byte(traj):
    text = write_trajectory(traj, format="json")
    assert write_trajectory(read_trajectory(text), format="json") == text


# A flow is NaN in year 0, so only a float series holds one: int stocks get float flows.
@pytest.mark.parametrize("stock,flow", [(list, list),
                                        (lambda v: np.array(v, dtype=np.int64), np.array),
                                        (lambda v: np.array(v, dtype=float), np.array)],
                         ids=["lists", "int arrays", "float arrays"])
def test_a_trajectory_from_any_number_sequence_writes_and_round_trips(baseline_scenario,
                                                                      stock, flow):
    flows = flow([math.nan, 5.0])
    traj = Trajectory(scenario=replace(baseline_scenario, horizon=1), b=stock([18, 19]),
                      c=flows, tau=flows, delta=flows, debt=stock([100, 105]))
    assert write_trajectory(traj, format="csv") == \
        "k,b,c,tau,delta,D\n0,18,,,,100\n1,19,5,5,5,105\n"
    text = write_trajectory(traj, format="json")
    assert '"b": [\n    18.0,\n    19.0\n  ]' in text  # floats, as read_trajectory returns
    back = read_trajectory(text)
    for series in (traj.b, traj.c, traj.tau, traj.delta, traj.debt,
                   back.b, back.c, back.tau, back.delta, back.debt):
        assert isinstance(series, np.ndarray) and series.dtype == np.float64
    assert write_trajectory(back, format="json") == text


@pytest.mark.parametrize("value", [math.inf, -math.inf])
def test_json_refuses_an_infinity_that_read_trajectory_would_refuse(baseline_scenario, value):
    # a hand-built trajectory may hold any float; standard JSON has no infinity
    flows = [math.nan, 5.0]
    traj = Trajectory(scenario=replace(baseline_scenario, horizon=1), b=[18.0, 19.0],
                      c=flows, tau=flows, delta=flows, debt=[100.0, value])
    with pytest.raises(ValueError, match="not JSON compliant"):
        write_trajectory(traj, format="json")
    doc = json.loads(write_trajectory(simulate(replace(baseline_scenario, horizon=1)),
                                      format="json"))
    doc["D"][1] = value  # what the writer printed before: Infinity
    with pytest.raises(ValidationError, match="must be finite"):
        read_trajectory(json.dumps(doc))


@pytest.mark.parametrize("name,run", zip(ROUND_TRIP_FILES,
                                         [{"b0": 18.0, "horizon": 10}, {"horizon": 10}]),
                         ids=ROUND_TRIP_FILES)
def test_json_embeds_the_scenario_echo(data_dir, name, run):
    scenario = load_scenario((data_dir / name).read_text())
    doc = json.loads(write_trajectory(simulate(scenario), format="json"))
    assert doc["scenario"] == scenario_to_dict(scenario)
    assert doc["scenario"]["run"] == run  # the echo says what the file said
    assert doc["k"] == list(range(11))
    assert doc["c"][0] is None and doc["tau"][0] is None and doc["delta"][0] is None


@pytest.mark.parametrize("path", [p for p in CORPUS if p.parent.name != "malformed"],
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_scenario_dict_round_trips_through_the_loader(path):
    # every schedule kind, a levy year and a file without b0
    s = load_scenario(path.read_text())
    assert load_scenario(yaml.safe_dump(scenario_to_dict(s))) == s


@pytest.mark.parametrize("integer", [np.int64, np.uint8])
def test_numpy_integers_are_stored_as_python_ints(baseline_scenario, integer):
    base = baseline_scenario.consumer
    consumer = replace(base, beta=0.1, law=replace(base.law, n=integer(3)), m=integer(4))
    scenario = replace(baseline_scenario, consumer=consumer, horizon=integer(10))
    values = (consumer.law.n, consumer.m, scenario.horizon)
    assert values == (3, 4, 10) and {type(v) for v in values} == {int}
    assert json.loads(json.dumps(scenario_to_dict(scenario)))["run"]["horizon"] == 10


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


def test_read_trajectory_rejects_an_integer_beyond_the_float_range(baseline_scenario):
    text = write_trajectory(simulate(baseline_scenario), format="json")
    doc = json.loads(text)
    doc["D"][3] = int(HUGE)
    with pytest.raises(ValidationError, match=r"trajectory\.D\[3\]: must be finite"):
        read_trajectory(json.dumps(doc))


@pytest.mark.parametrize("years,length,field", [
    ([7, 8, 9], 3, "trajectory.k"),       # a cut 3-row trajectory of a 10-year run
    (list(range(11)), 3, "trajectory.series"),
    (list(range(3)), 3, "trajectory.k"),
    (list(range(12)), 12, "trajectory.k"),
    (list(range(11))[::-1], 11, "trajectory.k"),
    ([False, True, *range(2, 11)], 11, "trajectory.k"),  # JSON booleans are not years
    ([float(k) for k in range(11)], 11, "trajectory.k"),
    ("0..10", 11, "trajectory.k"),
])
def test_read_trajectory_requires_every_year_of_the_horizon(baseline_scenario, years,
                                                            length, field):
    doc = json.loads(write_trajectory(simulate(baseline_scenario), format="json"))
    doc["k"] = years
    for key in ("b", "c", "tau", "delta", "D"):
        doc[key] = (doc[key] * 2)[:length]
    with pytest.raises(ValidationError, match=field):
        read_trajectory(json.dumps(doc))


def test_read_trajectory_rejects_a_horizon_beyond_the_index_range(baseline_scenario):
    # Scenario accepts run.horizon = 10**29, but no k list can hold its years
    doc = json.loads(write_trajectory(simulate(baseline_scenario), format="json"))
    doc["scenario"]["run"]["horizon"] = 10**29
    with pytest.raises(ValidationError, match=r"trajectory\.k: must be the years 0\.\.10{29} "):
        read_trajectory(json.dumps(doc))


def test_read_trajectory_names_the_short_series(baseline_scenario):
    doc = json.loads(write_trajectory(simulate(baseline_scenario), format="json"))
    doc["D"] = doc["D"][:-1]
    with pytest.raises(ValidationError, match=r"trajectory\.series: D has 10 entries"):
        read_trajectory(json.dumps(doc))


@pytest.mark.parametrize("key", ["b", "D"])
def test_read_trajectory_names_a_series_that_is_not_a_list(baseline_scenario, key):
    doc = json.loads(write_trajectory(simulate(baseline_scenario), format="json"))
    doc[key] = {"0": 18.0}
    with pytest.raises(ValidationError, match=rf"^trajectory\.{key}: must be a list$"):
        read_trajectory(json.dumps(doc))


# An element JSON can hold that is no finite number: the reader names it as _number does.
REFUSED_ELEMENTS = {"NaN": (math.nan, "must be finite, got nan"),
                    "true": (True, "must be a number, got True"),
                    "string": ("18", "must be a number, got '18'")}


@pytest.mark.parametrize("key", ["b", "D", "c", "delta"])  # stocks and flows
@pytest.mark.parametrize("element,problem", REFUSED_ELEMENTS.values(),
                         ids=REFUSED_ELEMENTS.keys())
def test_read_trajectory_names_an_element_that_is_not_a_finite_number(baseline_scenario,
                                                                      key, element, problem):
    doc = json.loads(write_trajectory(simulate(baseline_scenario), format="json"))
    doc[key][4] = element
    with pytest.raises(ValidationError) as excinfo:
        read_trajectory(json.dumps(doc))  # json.dumps writes a NaN as the NaN token
    assert str(excinfo.value) == f"trajectory.{key}[4]: {problem}"


def test_read_trajectory_reads_an_int_as_a_float_and_null_as_nan(baseline_scenario):
    doc = json.loads(write_trajectory(simulate(baseline_scenario), format="json"))
    doc["b"][2], doc["D"][3], doc["tau"][5] = 19, None, -7
    traj = read_trajectory(json.dumps(doc))
    assert traj.series["b"][2] == 19.0 and traj.series["tau"][5] == -7.0
    assert math.isnan(traj.series["debt"][3])
    for values in traj.series.values():
        assert type(values) is tuple and {type(v) for v in values} == {float}


# ---------------------------------------------------------------------------
# write_json against the stdlib's indented encoder
# ---------------------------------------------------------------------------

class _Kind(str, Enum):
    """A str subclass outside `io._SCALARS`: `write_json` takes its mixed-type path for it,
    and json writes a member as its value."""

    A = "a"
    B = "b,\n"
    C = "\u00e9"


_JSON_SCALARS = (st.none() | st.booleans() | st.integers() | st.integers(-10 ** 40, 10 ** 40)
                 | st.floats(allow_nan=False, allow_infinity=False)
                 | st.sampled_from([-0.0, 5e-324, 1.7976931348623157e308])
                 | st.text() | st.sampled_from(["\u00e9\u4e2d", '"\\\n\t\x00', "\u2028\ud800"])
                 | st.sampled_from(list(_Kind)))
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda children: (st.lists(children) | st.lists(children).map(tuple)
                      | st.dictionaries(st.text(), children)),
    max_leaves=40)


@given(_JSON_VALUES)
@example({"k": [], "d": {}, "t": (), "nested": [[1.5, {"x": [None, True]}], ()]})
@example({1: [2], 2.5: (), False: {"a": 3}, None: "x"})  # json's other key types
def test_write_json_writes_what_the_indented_stdlib_encoder_writes(doc):
    assert io.write_json(doc) == json.dumps(doc, indent=2, allow_nan=False) + "\n"


def _holding(before, item, after, kind):
    """A list, tuple or dict of ``item`` among the values ``before`` and ``after``."""
    items = [*before, item, *after]
    return {f"k{i}": value for i, value in enumerate(items)} if kind is dict else kind(items)


# a NaN or infinity, alone or at any place of any depth of a document
_NONFINITE_DOCS = st.recursive(
    st.sampled_from([math.nan, math.inf, -math.inf]),
    lambda children: st.builds(_holding, st.lists(_JSON_VALUES, max_size=3), children,
                               st.lists(_JSON_VALUES, max_size=3),
                               st.sampled_from([list, tuple, dict])),
    max_leaves=6)


@given(_NONFINITE_DOCS)
def test_write_json_refuses_a_nan_or_infinity_anywhere(doc):
    with pytest.raises(ValueError, match="not JSON compliant"):
        io.write_json(doc)

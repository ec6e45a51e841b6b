"""Scenario file schema, validation, and trajectory serialization.

Scenario files are YAML documents with three sections::

    consumer:
      p_a: 100.0
      alpha: 0.25
      beta: 0.0
      gamma: 0.25
      # m: 5              # optional wealth-tax year
      law: {a: 0.15, n: 2}
    debt:
      r: 0.05
      D0: 100.0
      schedule: {kind: constant, g0: 30.0}
      # or {kind: linear, g1: 30.0, deltaG: 1.0}
      # or {kind: explicit, values: [30.0, 31.0, 33.0]}
    run:
      b0: 18.0             # optional; defaults to the consumer fixed point
      horizon: 10

Unknown keys are rejected at every level so typos fail loudly. This module
checks what only a document can get wrong: mapping shape, unknown and
missing keys, number and integer types, finiteness. Range invariants belong
to the model types; their field errors are re-raised here under the
offending field's file path.
"""

from __future__ import annotations

import json
import math
from dataclasses import fields

import numpy as np
import yaml

from .analysis import FixedPointOutOfRange, fixed_point
from .model import (
    ConstantSchedule,
    ConsumerParams,
    ConsumptionLaw,
    DebtParams,
    ExplicitSchedule,
    FieldError,
    LinearSchedule,
    Scenario,
    Trajectory,
)

__all__ = [
    "ParseError",
    "ValidationError",
    "load_scenario",
    "scenario_from_mapping",
    "scenario_to_dict",
    "write_trajectory",
    "read_trajectory",
    "format_number",
]


class ParseError(Exception):
    """The document is not well-formed."""


class ValidationError(Exception):
    """A field violates its constraint; the message names the field path."""


# ---------------------------------------------------------------------------
# Field helpers
# ---------------------------------------------------------------------------

def _fail(path: str, message: str):
    raise ValidationError(f"{path}: {message}")


def _mapping(doc, path: str, allowed: set[str]) -> dict:
    if not isinstance(doc, dict):
        _fail(path, f"must be a mapping, got {type(doc).__name__}")
    unknown = set(doc) - allowed
    if unknown:
        _fail(path, f"unknown field(s) {sorted(map(str, unknown))}; "
                    f"allowed: {sorted(allowed)}")
    return doc


def _get(doc: dict, key: str, path: str):
    if key not in doc:
        _fail(path, "required field is missing")
    return doc[key]


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(path, f"must be a number, got {value!r}")
    if not math.isfinite(value):
        _fail(path, f"must be finite, got {value!r}")
    return float(value)


def _integer(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(path, f"must be an integer, got {value!r}")
    return value


# Model field name -> scenario-file key, for the fields whose names differ.
_FILE_KEYS = {"d0": "D0", "delta_g": "deltaG"}

_SCHEDULE_KINDS = {
    "constant": ConstantSchedule,
    "linear": LinearSchedule,
    "explicit": ExplicitSchedule,
}


def _key(name: str) -> str:
    return _FILE_KEYS.get(name, name)


def _keys(cls) -> set[str]:
    """File keys of a model type's fields."""
    return {_key(f.name) for f in fields(cls)}


def _field(doc: dict, path: str, name: str, parse=_number):
    """Required model field ``name``, read under its file key."""
    key = _key(name)
    return parse(_get(doc, key, f"{path}.{key}"), f"{path}.{key}")


def _build(cls, path: str, **values):
    """Construct a model type, restating a field error under its file path."""
    try:
        return cls(**values)
    except FieldError as exc:
        raise ValidationError(f"{path}.{_key(exc.field)}: {exc.problem}") from exc


# ---------------------------------------------------------------------------
# Scenario loading
# ---------------------------------------------------------------------------

def _parse_consumer(doc, path: str) -> ConsumerParams:
    doc = _mapping(doc, path, _keys(ConsumerParams))
    rates = {name: _field(doc, path, name)
             for name in ("p_a", "alpha", "beta", "gamma")}
    m = doc.get("m")
    if m is not None:  # explicit null reads as absent
        m = _integer(m, f"{path}.m")
    law_path = f"{path}.law"
    law_doc = _mapping(_get(doc, "law", law_path), law_path, _keys(ConsumptionLaw))
    law = _build(ConsumptionLaw, law_path, a=_field(law_doc, law_path, "a"),
                 n=_field(law_doc, law_path, "n", _integer))
    return _build(ConsumerParams, path, **rates, law=law, m=m)


def _parse_schedule(doc, path: str):
    if not isinstance(doc, dict):
        _fail(path, f"must be a mapping, got {type(doc).__name__}")
    kind = _get(doc, "kind", f"{path}.kind")
    cls = _SCHEDULE_KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        _fail(f"{path}.kind",
              f"must be one of {', '.join(map(repr, _SCHEDULE_KINDS))}, got {kind!r}")
    doc = _mapping(doc, path, {"kind", *_keys(cls)})
    if cls is not ExplicitSchedule:
        return _build(cls, path, **{f.name: _field(doc, path, f.name)
                                    for f in fields(cls)})
    values = _get(doc, "values", f"{path}.values")
    if not isinstance(values, list) or not values:
        _fail(f"{path}.values", "must be a nonempty list of numbers")
    return _build(cls, path, values=tuple(_number(v, f"{path}.values[{i}]")
                                          for i, v in enumerate(values)))


def _parse_debt(doc, path: str) -> DebtParams:
    doc = _mapping(doc, path, _keys(DebtParams))
    schedule_path = f"{path}.schedule"
    return _build(DebtParams, path, r=_field(doc, path, "r"),
                  d0=_field(doc, path, "d0"),
                  schedule=_parse_schedule(_get(doc, "schedule", schedule_path),
                                           schedule_path))


def scenario_from_mapping(doc) -> Scenario:
    """Validate a parsed scenario mapping and build the Scenario.

    When run.b0 is absent it defaults to the consumer's fixed-point budget.
    """
    doc = _mapping(doc, "scenario", {"consumer", "debt", "run"})
    consumer = _parse_consumer(_get(doc, "consumer", "consumer"), "consumer")
    debt = _parse_debt(_get(doc, "debt", "debt"), "debt")
    run = _mapping(_get(doc, "run", "run"), "run", {"b0", "horizon"})
    if run.get("b0") is not None:  # explicit null reads as absent
        b0 = _number(run["b0"], "run.b0")
    else:
        try:
            b0 = fixed_point(consumer).b_lambda
        except FixedPointOutOfRange as exc:
            _fail("run.b0", f"required, since the fixed-point default is out of "
                            f"range ({exc})")
    return _build(Scenario, "run", consumer=consumer, debt=debt, b0=b0,
                  horizon=_field(run, "run", "horizon", _integer))


def load_scenario(document: str) -> Scenario:
    """Parse and validate a YAML scenario document."""
    try:
        doc = yaml.safe_load(document)
    except yaml.YAMLError as exc:
        raise ParseError(f"malformed scenario document: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError(
            "scenario document must be a mapping with sections "
            "'consumer', 'debt', 'run'"
        )
    return scenario_from_mapping(doc)


def _as_doc(value) -> dict:
    """A model value's fields under their file keys; unset optional fields
    are left out and tuples become lists."""
    doc = {}
    for f in fields(value):
        item = getattr(value, f.name)
        if item is not None:
            doc[_key(f.name)] = list(item) if isinstance(item, tuple) else item
    return doc


def scenario_to_dict(scenario: Scenario) -> dict:
    """Scenario as a plain mapping in the file schema (inverse of loading)."""
    consumer, debt = scenario.consumer, scenario.debt
    kind = next(kind for kind, cls in _SCHEDULE_KINDS.items()
                if isinstance(debt.schedule, cls))
    return {
        "consumer": {**_as_doc(consumer), "law": _as_doc(consumer.law)},
        "debt": {**_as_doc(debt), "schedule": {"kind": kind, **_as_doc(debt.schedule)}},
        "run": {"b0": scenario.b0, "horizon": scenario.horizon},
    }


# ---------------------------------------------------------------------------
# Trajectory serialization
# ---------------------------------------------------------------------------

def format_number(x: float) -> str:
    """A number as written to text outputs: 12 significant digits."""
    return format(x, ".12g")


def _cell(x: float) -> str:
    return "" if math.isnan(x) else format_number(x)


def _trajectory_csv(traj: Trajectory) -> str:
    lines = ["k,b,c,tau,delta,D"]
    for k in range(traj.horizon + 1):
        lines.append(",".join([
            str(k),
            format_number(traj.b[k]),
            _cell(traj.c[k]),
            _cell(traj.tau[k]),
            _cell(traj.delta[k]),
            format_number(traj.debt[k]),
        ]))
    return "\n".join(lines) + "\n"


def _series(values: np.ndarray) -> list:
    return [None if math.isnan(v) else float(v) for v in values]


def _trajectory_json(traj: Trajectory) -> str:
    doc = {
        "scenario": scenario_to_dict(traj.scenario),
        "k": list(range(traj.horizon + 1)),
        "b": _series(traj.b),
        "c": _series(traj.c),
        "tau": _series(traj.tau),
        "delta": _series(traj.delta),
        "D": _series(traj.debt),
    }
    return json.dumps(doc, indent=2) + "\n"


def write_trajectory(traj: Trajectory, format: str = "csv") -> str:
    """Serialize a trajectory.

    CSV has the fixed header ``k,b,c,tau,delta,D``, one row per year 0..K,
    12 significant digits, and empty cells for the undefined year-0 flows.
    JSON carries the same series (full precision, NaN as null) plus an echo
    of the scenario, and round-trips exactly through `read_trajectory`.
    """
    if format == "csv":
        return _trajectory_csv(traj)
    if format == "json":
        return _trajectory_json(traj)
    raise ValueError(f"unknown trajectory format {format!r}; use 'csv' or 'json'")


def read_trajectory(document: str) -> Trajectory:
    """Parse a JSON trajectory written by `write_trajectory`."""
    try:
        doc = json.loads(document)
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed trajectory document: {exc}") from exc
    doc = _mapping(doc, "trajectory", {"scenario", "k", "b", "c", "tau", "delta", "D"})
    scenario = scenario_from_mapping(_get(doc, "scenario", "trajectory.scenario"))

    def array(key: str) -> np.ndarray:
        raw = _get(doc, key, f"trajectory.{key}")
        if not isinstance(raw, list):
            _fail(f"trajectory.{key}", "must be a list")
        return np.array([np.nan if v is None else _number(v, f"trajectory.{key}[{i}]")
                         for i, v in enumerate(raw)], dtype=float)

    return _build(Trajectory, "trajectory", scenario=scenario, b=array("b"),
                  c=array("c"), tau=array("tau"), delta=array("delta"),
                  debt=array("D"))

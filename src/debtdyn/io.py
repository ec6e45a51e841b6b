"""Scenario file schema, validation, and the text encodings of every output.

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
      b0: 18.0             # optional; absent, the budget starts at the consumer's fixed point
      horizon: 10

Unknown and repeated keys are rejected at every level so typos fail loudly.
This module checks only what a mapping can get wrong: its shape and its keys,
missing, unknown and repeated. Every field rule (number or integer, finite,
in range) is the model types'; `_build` maps a section's keys onto a type's
fields and restates the type's field error under the file path of the field.

Every text output is written by one of three writers: `write_table` (CSV),
`write_record` (``key = value`` lines) and `write_json` (indented JSON).
They share one cell rule: None and NaN are empty, flags are true/false,
floats go through `format_number`, a str enum is its value.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import fields
from enum import Enum

import yaml

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
    _SERIES,
    _number,
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
    "write_table",
    "write_record",
    "write_json",
]


class ParseError(Exception):
    """The document is not well-formed."""


class ValidationError(Exception):
    """A field violates its constraint; the message names the field path."""


# ---------------------------------------------------------------------------
# Scenario loading
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


# Model field name -> scenario-file key, for the fields whose names differ.
_FILE_KEYS = {"d0": "D0", "delta_g": "deltaG"}

# Trajectory file key of each of `_SERIES`; not in `_FILE_KEYS`, where debt is a section.
_SERIES_KEYS = tuple({"debt": "D"}.get(name, name) for name in _SERIES)

_SCHEDULE_KINDS = {
    "constant": ConstantSchedule,
    "linear": LinearSchedule,
    "explicit": ExplicitSchedule,
}
_KINDS = {cls: kind for kind, cls in _SCHEDULE_KINDS.items()}  # a schedule type's file kind

# Model type -> (field, file key, optional: its default is None) of each field.
_FIELDS = {cls: tuple((f.name, _FILE_KEYS.get(f.name, f.name), f.default is None)
                      for f in fields(cls))
           for cls in (ConsumerParams, ConsumptionLaw, DebtParams, Scenario,
                       *_SCHEDULE_KINDS.values())}


def _restate(exc: FieldError, path: str) -> ValidationError:
    """A model field error under the field's file path."""
    return ValidationError(f"{path}.{_FILE_KEYS.get(exc.field, exc.field)}: {exc.problem}")


def _build(cls, doc, path: str, extra: tuple = (), **given):
    """Construct model type ``cls`` from the mapping ``doc`` at file path
    ``path``. Fields in ``given`` are passed as they are; every other field
    is read under its file key, through its parser in `_NESTED` if it has
    one. A field whose default is None may be absent or null. ``extra``
    names keys the mapping may hold besides the fields."""
    read = [field for field in _FIELDS[cls] if field[0] not in given]
    doc = _mapping(doc, path, {*extra, *(key for _, key, _ in read)})
    for name, key, optional in read:
        value = doc.get(key)
        if value is None and optional:
            continue
        if value is None and key not in doc:
            _fail(f"{path}.{key}", "required field is missing")
        parse = _NESTED.get(name)
        given[name] = parse(value, f"{path}.{key}") if parse else value
    try:
        return cls(**given)
    except FieldError as exc:
        raise _restate(exc, path) from exc


def _parse_schedule(doc, path: str):
    if not isinstance(doc, dict):
        _fail(path, f"must be a mapping, got {type(doc).__name__}")
    kind = _get(doc, "kind", f"{path}.kind")
    cls = _SCHEDULE_KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        _fail(f"{path}.kind",
              f"must be one of {', '.join(map(repr, _SCHEDULE_KINDS))}, got {kind!r}")
    return _build(cls, doc, path, extra=("kind",))


# Model field name -> parser of the nested type the field holds.
_NESTED = {
    "law": lambda doc, path: _build(ConsumptionLaw, doc, path),
    "schedule": _parse_schedule,
}


def scenario_from_mapping(doc) -> Scenario:
    """Validate a parsed scenario mapping and build the Scenario. An absent
    or null run.b0 is None, which starts the budget at the fixed point."""
    doc = _mapping(doc, "scenario", {"consumer", "debt", "run"})
    consumer = _build(ConsumerParams, _get(doc, "consumer", "consumer"), "consumer")
    debt = _build(DebtParams, _get(doc, "debt", "debt"), "debt")
    return _build(Scenario, _get(doc, "run", "run"), "run", consumer=consumer, debt=debt)


class _LOADER(getattr(yaml, "CSafeLoader", yaml.SafeLoader)):  # libyaml when PyYAML has it
    """The scenario reader: PyYAML's safe schema plus YAML 1.2's exponent floats."""


class _PURE_LOADER(yaml.SafeLoader):
    """`_LOADER`'s schema in pure Python, whose syntax errors quote the line."""


def _construct_mapping(loader, node, deep=False):
    """PyYAML's mapping, which keeps the last value of a repeated key, refusing a
    key the mapping lists twice; a key a ``<<`` merge brings in may be given again.
    Only scalar keys are compared: PyYAML refuses a collection key as unhashable."""
    keys = set()
    for key_node, _ in node.value if isinstance(node, yaml.MappingNode) else ():
        if isinstance(key_node, yaml.ScalarNode) and key_node.tag != "tag:yaml.org,2002:merge":
            if (key := loader.construct_object(key_node)) in keys:  # cached per node
                raise yaml.constructor.ConstructorError(
                    "while constructing a mapping", node.start_mark,
                    f"found duplicate key {key!r}", key_node.start_mark)
            keys.add(key)
    return yaml.constructor.SafeConstructor.construct_mapping(loader, node, deep)


# PyYAML reads YAML 1.1, where a float needs a '.' and a signed exponent, so
# 5e-2 and 1e6 would be strings. Both readers resolve YAML 1.2's exponent form
# (without underscores) after every other resolver. A subclass copies the
# resolver table on its first write, so PyYAML's own loaders stay YAML 1.1.
for _loader in (_LOADER, _PURE_LOADER):
    _loader.add_implicit_resolver("tag:yaml.org,2002:float", re.compile(
        r"^[-+]?(?:\.[0-9]+|[0-9]+(?:\.[0-9]*)?)[eE][-+]?[0-9]+$"), list("-+.0123456789"))
    _loader.construct_mapping = _construct_mapping


def load_scenario(document: str | bytes) -> Scenario:
    """Parse and validate a YAML scenario document, text or the bytes of a
    file (which the YAML reader decodes, naming the position of a byte it
    cannot). A document that libyaml rejects is parsed again in pure Python,
    whose error quotes the line."""
    try:
        try:
            doc = yaml.load(document, Loader=_LOADER)
        except yaml.YAMLError:
            doc = yaml.load(document, Loader=_PURE_LOADER)
    except (yaml.YAMLError, ValueError) as exc:  # ValueError: a value YAML cannot build
        raise ParseError(f"malformed scenario document: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError(
            "scenario document must be a mapping with sections "
            "'consumer', 'debt', 'run'"
        )
    return scenario_from_mapping(doc)


def _as_doc(value) -> dict:
    """A model value's fields under their file keys, a schedule's kind first;
    a nested model value recurses, unset optional fields go, tuples become lists."""
    doc = {"kind": _KINDS[type(value)]} if type(value) in _KINDS else {}
    for name, key, _ in _FIELDS[type(value)]:
        item = getattr(value, name)
        if type(item) in _FIELDS:
            doc[key] = _as_doc(item)
        elif item is not None:
            doc[key] = list(item) if isinstance(item, tuple) else item
    return doc


def scenario_to_dict(scenario: Scenario) -> dict:
    """Scenario as a plain mapping in the file schema (inverse of loading);
    a b0 of None is left out, as the file left it out."""
    run = {"b0": scenario.b0, "horizon": scenario.horizon}
    return {"consumer": _as_doc(scenario.consumer), "debt": _as_doc(scenario.debt),
            "run": {key: value for key, value in run.items() if value is not None}}


# ---------------------------------------------------------------------------
# Text writers and trajectory serialization
# ---------------------------------------------------------------------------

def format_number(x: float) -> str:
    """A number as written to text outputs: 12 significant digits."""
    return format(x, ".12g")


def _text(value) -> str:
    """One CSV cell or record value."""
    if isinstance(value, float):  # first: nearly every cell is a float
        return "" if math.isnan(value) else format_number(value)
    if value is None:
        return ""
    if type(value) is bool:
        return "true" if value else "false"
    return value.value if isinstance(value, Enum) else str(value)


def _csv_line(cells: list) -> str:
    """One CSV line, quoted as `csv.writer` does: a cell with a comma, quote or
    newline is quoted, its quotes doubled; a lone empty cell is ``""``; CR stays bare."""
    # one test: at bench seed 1, 400 of sweep-grid's 2,100 lines quote, 0 of long-horizon's 4,212
    line = ",".join(cells)
    if line.count(",") < len(cells) and '"' not in line and "\n" not in line and line:
        return line
    return '""' if cells == [""] else ",".join([
        '"' + cell.replace('"', '""') + '"' if "," in cell or '"' in cell or "\n" in cell
        else cell for cell in cells])


def write_table(header, rows) -> str:
    """CSV with one header line of text cells; every line ends in a newline."""
    return "\n".join([_csv_line(list(header)),
                      *[_csv_line(list(map(_text, row))) for row in rows], ""])


def write_record(fields: dict) -> str:
    """One ``key = value`` line per field that is not None."""
    return "".join(f"{key} = {_text(value)}\n"
                   for key, value in fields.items() if value is not None)


_SCALARS = {str, int, float, bool, type(None)}  # the types json writes without recursing
_CONTAINERS = (list, tuple, dict)


def _json(value, indent: str) -> str:
    """``value`` as ``json.dumps(value, indent=2, allow_nan=False)`` writes it at nesting
    ``indent``: one call to json's C encoder, whose item separator holds the line break and
    indent the indented encoder writes, with a 0 in place of each nested container."""
    if not isinstance(value, _CONTAINERS) or not value:
        return json.dumps(value, allow_nan=False)
    inner, is_dict = indent + "  ", isinstance(value, dict)
    items = value.values() if is_dict else value
    mixed = not set(map(type, items)) <= _SCALARS  # one type-set pass, as in `_floats`
    if mixed:  # a container, or another type such as a str enum
        flat = [0 if isinstance(item, _CONTAINERS) else item for item in items]
        value = dict(zip(value, flat)) if is_dict else flat
    separator = ",\n" + inner
    body = json.dumps(value, separators=(separator, ": "), allow_nan=False)[1:-1]
    if mixed:  # no encoded item holds a raw newline, so the separator splits the items
        body = separator.join(entry[:-1] + _json(item, inner) if isinstance(item, _CONTAINERS)
                              else entry for entry, item in zip(body.split(separator), items))
    opening, closing = "{}" if is_dict else "[]"
    return f"{opening}\n{inner}{body}\n{indent}{closing}"


def write_json(doc) -> str:
    """Indented standard JSON with a final newline, the bytes `json.dumps` writes at indent=2;
    a NaN or infinity, which standard JSON cannot hold, raises ValueError."""
    return _json(doc, "") + "\n"


def write_trajectory(traj: Trajectory, format: str = "csv") -> str:
    """Serialize a trajectory.

    CSV has the fixed header ``k,b,c,tau,delta,D``, one row per year 0..K,
    12 significant digits, and empty cells for the undefined year-0 flows.
    JSON carries the same series (full precision, NaN as null) plus an echo
    of the scenario, and round-trips exactly through `read_trajectory`.
    """
    years = range(traj.horizon + 1)
    if format == "csv":
        return write_table(("k", *_SERIES_KEYS), zip(years, *traj.series.values()))
    if format == "json":
        return write_json({
            "scenario": scenario_to_dict(traj.scenario),
            "k": list(years),
            **{key: [None if math.isnan(v) else v for v in values]
               for key, values in zip(_SERIES_KEYS, traj.series.values())},
        })
    raise ValueError(f"unknown trajectory format {format!r}; use 'csv' or 'json'")


def read_trajectory(document: str) -> Trajectory:
    """Parse a JSON trajectory written by `write_trajectory`: ``k`` must be
    0..K and every series must have K + 1 entries, K being run.horizon."""
    try:
        doc = json.loads(document)
    except ValueError as exc:  # a JSONDecodeError, or a value JSON cannot build
        raise ParseError(f"malformed trajectory document: {exc}") from exc
    doc = _mapping(doc, "trajectory", {"scenario", "k", *_SERIES_KEYS})
    scenario = scenario_from_mapping(_get(doc, "scenario", "trajectory.scenario"))
    years = scenario.horizon + 1
    k = _get(doc, "k", "trajectory.k")
    # the length first: a horizon beyond the C index range has no list of its years
    if not isinstance(k, list) or len(k) != years or k != list(range(years)) \
            or any(type(year) is not int for year in k):
        _fail("trajectory.k", f"must be the years 0..{scenario.horizon} of run.horizon")

    series = []
    for key in _SERIES_KEYS:  # in file order: the first faulty series is the one named
        raw = _get(doc, key, f"trajectory.{key}")
        if not isinstance(raw, list):
            _fail(f"trajectory.{key}", "must be a list")
        if len(raw) != years:
            _fail("trajectory.series", f"{key} has {len(raw)} entries, "
                                       f"run.horizon = {scenario.horizon} needs {years}")
        values = [math.nan if v is None else v for v in raw]
        # one type-set pass: floats and nulls, all finite but the nulls, are taken as they are
        if not set(map(type, raw)) <= {float, type(None)} \
                or sum(map(math.isfinite, values)) != years - raw.count(None):
            try:
                values = [math.nan if v is None else _number(v, key, i)
                          for i, v in enumerate(raw)]
            except FieldError as exc:
                raise _restate(exc, "trajectory") from exc
        series.append(values)
    return Trajectory._of_floats(scenario, *series)

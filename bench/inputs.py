"""Seeded request generation for the benchmark workloads.

Every request is a plain dict: the true scenario parameters (which the oracle
reads) plus the argv tail handed to the CLI. The program itself only ever
sees the rendered YAML file and the argv. Nothing here imports ``debtdyn``.

Parameters are drawn with ``random.Random(seed).random()`` only, whose
sequence is stable across Python versions, so the same seed gives
byte-identical scenario files everywhere. Request *shapes* (axis, exponent
``n``, horizon, schedule kind) depend only on the request's index;
the seed moves only the continuous parameter values. Every run therefore
times the same mix of request shapes, whatever its seed, so run-to-run spread
reflects the program and the machine, not the draw.
"""

from __future__ import annotations

import random
from pathlib import Path

from oracle import fixed_point_budget

SWEEP_AXES = ("alpha", "g0", "r", "D0", "p_a")  # the CLI's axes, restated so no input comes from the program
SWEEP_POINTS = 20
SWEEP_HORIZONS = (10, 30)    # K ranges over these bounds, both included
SWEEP_COUNT = 100
LONG_HORIZONS = (20, 60)
LONG_COUNT = 100
SCHEDULE_KINDS = ("constant", "linear", "explicit")


class _Draw:
    """Uniform draws from one seeded stream, via ``random()`` only."""

    def __init__(self, seed: int):
        self._rng = random.Random(seed)

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self._rng.random()

    def index(self, count: int) -> int:
        return min(int(self._rng.random() * count), count - 1)


def _horizon(i: int, bounds: tuple[int, int]) -> int:
    """Request i's horizon: a fixed scatter over the bounds. Consecutive
    requests get far-apart horizons and every value comes up before any
    repeats, so request latencies form a continuum rather than a few steps
    that a percentile could sit on."""
    lo, hi = bounds
    return lo + (i * 37) % (hi - lo + 1)  # 37 shares no factor with 21 or 41


def _equal_rates(draw: _Draw, n: int, horizon: int, kind: str) -> dict:
    # Ranges of tests/helpers.py::random_fixed_point_scenario.
    alpha = draw.uniform(0.05, 0.5)
    p_a = draw.uniform(50.0, 200.0)
    p = {"p_a": p_a, "alpha": alpha, "beta": 0.0, "gamma": alpha, "m": None,
         "a": draw.uniform(0.05, 0.5), "n": n,
         "r": draw.uniform(1e-3, 0.2), "D0": draw.uniform(0.0, 10.0 * p_a),
         "horizon": horizon}
    p["schedule"] = _schedule(draw, kind, p_a, horizon)
    return p


def _general(draw: _Draw, n: int, horizon: int, kind: str) -> dict:
    # Ranges of tests/helpers.py::random_general_scenario: alpha != gamma and
    # a wealth-levy year inside the horizon.
    p_a = draw.uniform(50.0, 200.0)
    p = {"alpha": draw.uniform(0.0, 0.6), "gamma": draw.uniform(0.0, 0.8),
         "beta": draw.uniform(0.0, 0.5), "p_a": p_a, "n": n,
         "a": draw.uniform(0.01, 0.5), "m": 1 + draw.index(horizon),
         "r": draw.uniform(0.0, 0.2), "D0": draw.uniform(0.0, 10.0 * p_a),
         "horizon": horizon}
    p["schedule"] = _schedule(draw, kind, p_a, horizon)
    return p


def _schedule(draw: _Draw, kind: str, p_a: float, horizon: int) -> dict:
    if kind == "constant":
        return {"kind": "constant", "g0": draw.uniform(0.0, p_a)}
    if kind == "linear":
        return {"kind": "linear", "g1": draw.uniform(1.0, p_a),
                "deltaG": draw.uniform(-1.0, 1.0)}
    return {"kind": "explicit",
            "values": [draw.uniform(0.0, p_a) for _ in range(horizon)]}


def _grid(axis: str, p_a: float) -> tuple[float, float]:
    return {"alpha": (0.05, 0.5), "g0": (0.0, p_a), "r": (1e-3, 0.2),
            "D0": (0.0, 10.0 * p_a), "p_a": (50.0, 200.0)}[axis]


def sweep_grid_requests(seed: int, count: int = SWEEP_COUNT) -> list[dict]:
    """One `sweep` per request over SWEEP_POINTS grid values.

    The axis cycles through all five axes, n through 2..6 and the horizon
    scatters over SWEEP_HORIZONS. One base in five is a general scenario,
    with a rotating schedule kind; the five general slots of each 25-request
    cycle cover every axis and every n once.
    """
    draw = _Draw(seed)
    out = []
    for i in range(count):
        axis = SWEEP_AXES[i % 5]
        n = 2 + (i // 5) % 5
        horizon = _horizon(i, SWEEP_HORIZONS)
        if i % 5 == (i // 5) % 5:
            # The g0 axis needs a constant base schedule (a documented usage rule).
            kind = "constant" if axis == "g0" else SCHEDULE_KINDS[(i // 5) % 3]
            p = _general(draw, n, horizon, kind)
            p["b0"] = fixed_point_budget(p) * draw.uniform(0.2, 3.0)
        else:
            p = _equal_rates(draw, n, horizon, "constant")
            p["b0"] = fixed_point_budget(p)
        start, stop = _grid(axis, p["p_a"])
        argv = ["sweep", None, "--axis", axis,
                "--grid", f"{_num(start)}:{_num(stop)}:{SWEEP_POINTS}"]
        year = None
        if p["schedule"]["kind"] != "constant":
            year = 1 + draw.index(horizon)
            argv += ["-k", str(year)]
        out.append({"name": f"sweep-{i:03d}", "params": p, "argv": argv,
                    "axis": axis, "grid": (start, stop, SWEEP_POINTS), "year": year})
    return out


def long_horizon_requests(seed: int, count: int = LONG_COUNT) -> list[dict]:
    """One equal-rates scenario per request with b0 omitted (so the budget
    starts at its fixed point); the schedule kind rotates constant -> linear
    -> explicit. Each request runs closed-form, simulate as JSON (read back)
    and simulate as CSV."""
    draw = _Draw(seed)
    out = []
    for i in range(count):
        kind = SCHEDULE_KINDS[i % 3]
        horizon = _horizon(i, LONG_HORIZONS)
        n = 2 + (i // 3) % 3
        p = _equal_rates(draw, n, horizon, kind)
        p["b0"] = None
        out.append({"name": f"long-{i:03d}", "params": p})
    return out


REQUESTS = {
    "sweep-grid": sweep_grid_requests,
    "long-horizon": long_horizon_requests,
}


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def _num(x: float) -> str:
    """Shortest round-tripping float text that YAML 1.1 also reads as a float
    (PyYAML needs a '.' in the mantissa: '1e-05' would load as a string)."""
    text = repr(float(x))
    mantissa, sep, exponent = text.partition("e")
    if sep and "." not in mantissa:
        text = f"{mantissa}.0e{exponent}"
    return text


def scenario_yaml(p: dict) -> str:
    """Render a scenario file in the documented schema."""
    lines = ["consumer:",
             f"  p_a: {_num(p['p_a'])}",
             f"  alpha: {_num(p['alpha'])}",
             f"  beta: {_num(p['beta'])}",
             f"  gamma: {_num(p['gamma'])}"]
    if p["m"] is not None:
        lines.append(f"  m: {p['m']}")
    lines += ["  law:", f"    a: {_num(p['a'])}", f"    n: {p['n']}",
              "debt:", f"  r: {_num(p['r'])}", f"  D0: {_num(p['D0'])}",
              "  schedule:"]
    s = p["schedule"]
    lines.append(f"    kind: {s['kind']}")
    if s["kind"] == "constant":
        lines.append(f"    g0: {_num(s['g0'])}")
    elif s["kind"] == "linear":
        lines += [f"    g1: {_num(s['g1'])}", f"    deltaG: {_num(s['deltaG'])}"]
    else:
        lines.append("    values: [" + ", ".join(_num(v) for v in s["values"]) + "]")
    lines.append("run:")
    if p["b0"] is not None:
        lines.append(f"  b0: {_num(p['b0'])}")
    lines.append(f"  horizon: {p['horizon']}")
    return "\n".join(lines) + "\n"


def write_inputs(workload: str, seed: int, directory: Path) -> list[dict]:
    """Generate the workload's requests and write one scenario file each.

    Returns the requests with ``path`` set and the scenario path filled into
    the argv.
    """
    directory.mkdir(parents=True, exist_ok=True)
    requests = REQUESTS[workload](seed)
    for req in requests:
        path = directory / f"{req['name']}.yaml"
        path.write_text(scenario_yaml(req["params"]), encoding="utf-8")
        req["path"] = str(path)
        if "argv" in req:
            req["argv"][1] = str(path)
    return requests

"""Independent correctness oracle for the benchmark.

It re-derives every number the program prints from the scenario parameters
alone and never imports ``debtdyn``: the budget step is solved here (the
cancellation-free quadratic root for n = 2, bisection to 1e-13 relative for
larger n), the debt recursion and the fixed-point closed form are rebuilt
year by year, and the decrease condition is evaluated from its formulas.

Each ``check_*`` function returns a list of mismatch descriptions; an empty
list means the output is correct. Values are compared against a scale made
of the magnitudes of the terms that produce them, so a result that is small
because of cancellation is not held to an impossible relative tolerance.
"""

from __future__ import annotations

import json
import math
import random

TOL = 1e-9            # agreement asked of every value, relative to its scale
MAX_REL_DEV = 1e-9    # closed form vs recursion, as the README promises
_BISECT_RTOL = 1e-13


def fixed_point_budget(p: dict) -> float:
    """b_lambda = ((1 - alpha) * p_a / ((1 + gamma) * a)) ** (1/n)."""
    return ((1.0 - p["alpha"]) * p["p_a"] / ((1.0 + p["gamma"]) * p["a"])) ** (1.0 / p["n"])


def budget_step(coeff: float, n: int, slope: float, rhs: float) -> float:
    """Positive root of coeff*x**n + slope*x - rhs (all inputs > 0)."""
    if n == 2:  # cancellation-free form of the quadratic formula
        return 2.0 * rhs / (slope + math.sqrt(slope * slope + 4.0 * coeff * rhs))
    return bisect_root(coeff, n, slope, rhs)


def bisect_root(coeff: float, n: int, slope: float, rhs: float) -> float:
    """The same root by bisection to 1e-13 relative."""
    # Both terms bound the root from above; the root then also satisfies
    # rhs = x*(coeff*x**(n-1) + slope) <= x*(coeff*hi**(n-1) + slope).
    hi = min(rhs / slope, (rhs / coeff) ** (1.0 / n)) * (1.0 + 1e-12)
    lo = rhs / (coeff * hi ** (n - 1) + slope)
    for _ in range(200):
        if hi - lo <= _BISECT_RTOL * hi:
            break
        mid = 0.5 * (lo + hi)
        if coeff * mid ** n + slope * mid > rhs:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def expenditure(schedule: dict, k: int) -> float:
    if schedule["kind"] == "constant":
        return schedule["g0"]
    if schedule["kind"] == "linear":
        return (k - 1) * schedule["deltaG"] + schedule["g1"]
    return schedule["values"][k - 1]


def with_axis(p: dict, axis: str, value: float) -> dict:
    """The scenario of one sweep point; the initial budget is the base's."""
    q = dict(p)
    q["b0"] = p["b0"] if p["b0"] is not None else fixed_point_budget(p)
    if axis == "alpha":
        q["alpha"] = q["gamma"] = value
    elif axis == "g0":
        q["schedule"] = {"kind": "constant", "g0": value}
    else:
        q[axis] = value
    return q


def grid_values(start: float, stop: float, count: int) -> list[float]:
    """Inclusive linear spacing, as the CLI documents 'start:stop:count'."""
    if count == 1:
        return [start]
    step = (stop - start) / (count - 1)
    return [start + i * step for i in range(count)]


def trajectory(p: dict) -> dict:
    """Rebuild the coupled recursion. Besides the series it returns, per
    year, ``scale`` (income plus previous budget plus |g_k|, which bounds
    every flow of that year) and ``S`` (the debt recursion run on term
    magnitudes, which bounds the rounding any correct debt value carries)."""
    alpha, gamma, beta, p_a = p["alpha"], p["gamma"], p["beta"], p["p_a"]
    a, n, m, r = p["a"], p["n"], p["m"], p["r"]
    coeff = (1.0 + gamma) * a
    income = (1.0 - alpha) * p_a
    b0 = p["b0"] if p["b0"] is not None else fixed_point_budget(p)
    out = {"b": [b0], "c": [None], "tau": [None], "delta": [None],
           "D": [p["D0"]], "scale": [b0 + p_a], "S": [abs(p["D0"])]}
    for k in range(1, p["horizon"] + 1):
        beta_k = beta if k == m else 0.0
        b_prev = out["b"][-1]
        b = budget_step(coeff, n, 1.0 + beta_k, income + b_prev)
        c = a * b ** n
        tau = alpha * p_a + beta_k * b + gamma * c
        g = expenditure(p["schedule"], k)
        out["b"].append(b)
        out["c"].append(c)
        out["tau"].append(tau)
        out["delta"].append(g - tau)
        out["D"].append((1.0 + r) * out["D"][-1] + (g - tau))
        out["scale"].append(p_a + b_prev + abs(g))
        out["S"].append((1.0 + r) * out["S"][-1] + abs(g) + tau)
    return out


def closed_form(p: dict) -> tuple[list[float], list[float]]:
    """Debt with the budget pinned at its fixed point (equal rates, no
    levy): each year's drift is g_k - 2*alpha*p_a/(1+alpha). Returns the
    series D_0..D_K and its magnitude bound."""
    r = p["r"]
    intake = 2.0 * p["alpha"] * p["p_a"] / (1.0 + p["alpha"])
    debt, bound = [p["D0"]], [abs(p["D0"])]
    for k in range(1, p["horizon"] + 1):
        g = expenditure(p["schedule"], k)
        debt.append((1.0 + r) * debt[-1] + g - intake)
        bound.append((1.0 + r) * bound[-1] + abs(g) + intake)
    return debt, bound


def condition(p: dict, year: int | None):
    """(lhs, rhs, scale) of the decrease condition, or None where the
    program must refuse it (levy on, unequal rates, or alpha = 0)."""
    if p["beta"] != 0.0 or p["alpha"] != p["gamma"] or p["alpha"] == 0.0:
        return None
    r, d0, s = p["r"], p["D0"], p["schedule"]
    lhs = 2.0 * p["alpha"] * p["p_a"] / (1.0 + p["alpha"])
    if s["kind"] == "constant":
        rhs, scale = s["g0"] + r * d0, abs(s["g0"]) + r * d0
    elif s["kind"] == "linear":
        annuity = sum((1.0 + r) ** -i for i in range(1, year))
        rhs = s["g1"] + r * d0 + s["deltaG"] * annuity
        scale = abs(s["g1"]) + r * d0 + abs(s["deltaG"]) * annuity
    else:
        v = s["values"]
        steps = [(v[j] - v[j - 1]) / (1.0 + r) ** j for j in range(1, year)]
        rhs = v[0] + r * d0 + sum(steps)
        scale = abs(v[0]) + r * d0 + sum(abs(x) for x in steps)
    return lhs, rhs, lhs + scale


def _strict_json(text: str):
    """json.loads that refuses the non-standard NaN/Infinity tokens."""
    def reject(token):
        raise ValueError(f"non-standard token {token}")
    return json.loads(text, parse_constant=reject)


def _near(got: float, want: float, scale: float) -> bool:
    return abs(got - want) <= TOL * scale


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

_SERIES = ("b", "c", "tau", "delta", "D")


def check_series(series: dict, p: dict, where: str) -> list[str]:
    """Every year of every series against the rebuilt recursion."""
    want = trajectory(p)
    errors = []
    length = p["horizon"] + 1
    for name in _SERIES:
        got = series.get(name)
        if got is None or len(got) != length:
            return [f"{where}: series {name} has {0 if got is None else len(got)} "
                    f"entries, expected {length}"]
    for k in range(length):
        for name in _SERIES:
            got, ref = series[name][k], want[name][k]
            if ref is None:
                if got is not None:
                    errors.append(f"{where}: {name}[0] = {got!r}, expected empty")
                continue
            scale = want["S"][k] if name == "D" else want["scale"][k]
            if got is None or not _near(got, ref, scale):
                errors.append(f"{where}: {name}[{k}] = {got!r}, oracle {ref!r}")
        if len(errors) > 3:
            break
    return errors


def check_trajectory_json(text: str, p: dict) -> tuple[list[str], dict | None]:
    """A `simulate --format json` document: shape, year index and values."""
    try:
        doc = _strict_json(text)
    except ValueError as exc:
        return [f"simulate json: not standard JSON ({exc})"], None
    expected_keys = {"scenario", "k", "b", "c", "tau", "delta", "D"}
    if not isinstance(doc, dict) or set(doc) != expected_keys:
        return [f"simulate json: keys {sorted(doc) if isinstance(doc, dict) else doc!r}"], None
    if doc["k"] != list(range(p["horizon"] + 1)):
        return ["simulate json: year index is not 0..K"], None
    if doc["scenario"]["run"]["horizon"] != p["horizon"]:
        return ["simulate json: scenario echo has the wrong horizon"], None
    return check_series(doc, p, "simulate json"), doc


def _cell(x) -> str:
    return "" if x is None else format(x, ".12g")


def check_trajectory_csv(text: str, doc: dict) -> list[str]:
    """`simulate --format csv` must be the JSON document's values at twelve
    significant digits, one row per year, under the fixed header."""
    lines = text.splitlines()
    if not lines or lines[0] != "k,b,c,tau,delta,D":
        return ["simulate csv: wrong header"]
    if len(lines) != len(doc["k"]) + 1:
        return [f"simulate csv: {len(lines) - 1} rows, expected {len(doc['k'])}"]
    for k, line in enumerate(lines[1:]):
        want = ",".join([str(k)] + [_cell(doc[s][k]) for s in _SERIES])
        if line != want:
            return [f"simulate csv: row {k} is {line!r}, expected {want!r}"]
    return []


def rel_deviation(a: list[float], b: list[float]) -> float:
    """Largest gap relative to the peak magnitude of either series (the
    definition the README gives for ``max_rel_dev``)."""
    scale = max(max(abs(x) for x in a), max(abs(x) for x in b))
    if scale == 0.0:
        return 0.0
    return max(abs(x - y) for x, y in zip(a, b)) / scale


def check_closed_form_json(text: str, p: dict) -> tuple[list[str], float]:
    """`closed-form --format json`: both series against the oracle, the
    reported deviation against its recomputation and the README bound."""
    try:
        doc = _strict_json(text)
    except ValueError as exc:
        return [f"closed-form: not standard JSON ({exc})"], math.nan
    length = p["horizon"] + 1
    if (not isinstance(doc, dict)
            or set(doc) != {"k", "D_recursive", "D_closed_form", "max_rel_dev"}
            or doc["k"] != list(range(length))
            or len(doc["D_recursive"]) != length
            or len(doc["D_closed_form"]) != length):
        return ["closed-form: wrong document shape"], math.nan
    errors = []
    rec = trajectory(p)
    cf, cf_bound = closed_form(p)
    for k in range(length):
        if not _near(doc["D_recursive"][k], rec["D"][k], rec["S"][k]):
            errors.append(f"closed-form: D_recursive[{k}] = {doc['D_recursive'][k]!r}, "
                          f"oracle {rec['D'][k]!r}")
        if not _near(doc["D_closed_form"][k], cf[k], cf_bound[k]):
            errors.append(f"closed-form: D_closed_form[{k}] = "
                          f"{doc['D_closed_form'][k]!r}, oracle {cf[k]!r}")
        if len(errors) > 3:
            break
    deviation = rel_deviation(doc["D_recursive"][1:], doc["D_closed_form"][1:])
    reported = doc["max_rel_dev"]
    if not abs(reported - deviation) <= 1e-12 + 1e-9 * deviation:
        errors.append(f"closed-form: max_rel_dev = {reported!r}, recomputed {deviation!r}")
    if not deviation <= MAX_REL_DEV:
        errors.append(f"closed-form: max_rel_dev = {deviation!r} exceeds {MAX_REL_DEV}")
    return errors, deviation


SWEEP_HEADER = "value,lhs,rhs,margin,holds,final_D,error"


def check_sweep_csv(text: str, req: dict, rng: random.Random,
                    samples: int = 8) -> list[str]:
    """A `sweep` CSV: every row's shape, value, verdict sign and which points
    may refuse the condition; a seeded sample of rows (plus the last) is
    re-simulated and its condition re-evaluated."""
    p, axis, year = req["params"], req["axis"], req["year"]
    start, stop, count = req["grid"]
    values = grid_values(start, stop, count)
    lines = text.splitlines()
    if not lines or lines[0] != SWEEP_HEADER:
        return ["sweep: wrong header"]
    if len(lines) - 1 != count:
        return [f"sweep: {len(lines) - 1} rows, expected {count}"]
    value_scale = max(abs(start), abs(stop))
    sampled = set(rng.sample(range(count), min(samples, count))) | {count - 1}
    errors = []
    for i, line in enumerate(lines[1:]):
        cells = line.split(",", 6)
        if len(cells) != 7:
            return [f"sweep: row {i} has {len(cells)} cells"]
        value, lhs, rhs, margin, holds, final, error = cells
        try:
            if not abs(float(value) - values[i]) <= 1e-11 * value_scale:
                errors.append(f"sweep: row {i} value {value}, expected {values[i]!r}")
            point = with_axis(p, axis, values[i])
            expected = condition(point, year)
            if (expected is None) != (lhs == "") or (expected is None) != (error != ""):
                errors.append(f"sweep: row {i} condition {'refused' if lhs == '' else 'given'}"
                              f" but the oracle {'refuses' if expected is None else 'gives'} it")
            elif expected is not None and holds != ("true" if float(margin) > 0 else "false"):
                errors.append(f"sweep: row {i} holds={holds} with margin {margin}")
            if final == "":
                errors.append(f"sweep: row {i} has no final_D ({error})")
            elif i in sampled:
                want = trajectory(point)
                if not _near(float(final), want["D"][-1], want["S"][-1]):
                    errors.append(f"sweep: row {i} final_D {final}, oracle {want['D'][-1]!r}")
                if expected is not None:
                    o_lhs, o_rhs, scale = expected
                    for name, got, ref in (("lhs", lhs, o_lhs), ("rhs", rhs, o_rhs),
                                           ("margin", margin, o_lhs - o_rhs)):
                        if not _near(float(got), ref, scale):
                            errors.append(f"sweep: row {i} {name} {got}, oracle {ref!r}")
        except ValueError as exc:
            errors.append(f"sweep: row {i}: {exc}")
        if len(errors) > 3:
            break
    return errors

"""Fixed points, closed-form debt solutions, decrease conditions, and sweeps.

The closed forms and the decrease condition are stated for the simplified
tax regime (no wealth levy, equal income and consumption tax rates) with the
consumer budget sitting at its fixed point; they take no initial budget on
purpose. The recursion (`simulate`) is the general path and has none of
those restrictions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .model import (
    ConstantSchedule,
    ConsumerParams,
    DebtParams,
    LinearSchedule,
    ModelError,
    Scenario,
    Trajectory,
    consumer_step,
    debt_step,
    tax,
)

__all__ = [
    "AlphaIsZero",
    "DebtNotFinite",
    "FixedPointOutOfRange",
    "RegimeError",
    "FixedPoint",
    "ConditionRegime",
    "ConditionReport",
    "SweepPoint",
    "SWEEP_AXES",
    "fixed_point",
    "simulate",
    "debt_closed_form_general",
    "debt_closed_form",
    "decrease_condition",
    "sweep",
    "max_rel_deviation",
]


class AlphaIsZero(ModelError):
    """The decrease condition degenerates at alpha = 0 (no income-tax inflow)."""


class RegimeError(ModelError):
    """Operation restricted to the simplified tax regime (beta = 0, alpha = gamma)."""


class FixedPointOutOfRange(ModelError):
    """The budget fixed point underflows to 0 or overflows in floating point."""


class DebtNotFinite(ModelError):
    """A debt series left the floating-point range."""


def _finite_debt(series: np.ndarray, first_year: int) -> np.ndarray:
    """``series`` (the debt from ``first_year`` on) when all of it is finite;
    otherwise DebtNotFinite naming the first year that is not."""
    bad = np.flatnonzero(~np.isfinite(series))
    if bad.size:
        year = first_year + int(bad[0])
        raise DebtNotFinite(
            f"debt leaves the float range in year {year} (D = {float(series[bad[0]])!r})"
        )
    return series


# ---------------------------------------------------------------------------
# Fixed point and simulation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FixedPoint:
    """Budget level that the consumer recursion maps to itself."""

    b_lambda: float

    def __post_init__(self):
        if not 0 < self.b_lambda < math.inf:
            raise FixedPointOutOfRange(
                f"b_lambda must be finite and > 0, got {self.b_lambda!r}")


def fixed_point(params: ConsumerParams) -> FixedPoint:
    """Fixed point of the budget recursion with the wealth-tax term off:

        b_lambda = ((1 - alpha) * p_a / ((1 + gamma) * a)) ** (1/n)

    For alpha = gamma this is the equal-rates form
    ((1-alpha)/(1+alpha) * p_a/a) ** (1/n). Raises FixedPointOutOfRange when
    that value underflows to 0 or overflows.
    """
    law = params.law
    b = ((1.0 - params.alpha) * params.p_a
         / ((1.0 + params.gamma) * law.a)) ** (1.0 / law.n)
    return FixedPoint(b_lambda=b)


def simulate(scenario: Scenario) -> Trajectory:
    """Run the coupled budget/debt recursion over the full horizon.

    Year k computes, in order: the implicit budget step, consumption, the tax
    bill, the debt drift (the year's scheduled expenditure minus the tax
    bill), and the debt update. Raises ScheduleTooShort up front if an
    explicit schedule does not cover the horizon, and DebtNotFinite if the
    debt leaves the float range.
    """
    cons = scenario.consumer
    dbt = scenario.debt
    law = cons.law
    horizon = scenario.horizon
    g = [dbt.schedule.value_at(k) for k in range(1, horizon + 1)]

    b = np.empty(horizon + 1)
    c = np.full(horizon + 1, np.nan)
    tau = np.full(horizon + 1, np.nan)
    delta = np.full(horizon + 1, np.nan)
    debt = np.empty(horizon + 1)
    b[0] = scenario.b0
    debt[0] = dbt.d0

    for k in range(1, horizon + 1):
        b_k = consumer_step(cons, float(b[k - 1]), k)
        c_k = law.consumption(b_k)
        b[k] = b_k
        c[k] = c_k
        tau[k] = tax(cons, b_k, c_k, k)
        delta[k] = g[k - 1] - tau[k]
        debt[k] = debt_step(dbt, float(debt[k - 1]), float(delta[k]))

    return Trajectory(scenario=scenario, b=b, c=c, tau=tau, delta=delta,
                      debt=_finite_debt(debt, first_year=0))


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------

def debt_closed_form_general(debt: DebtParams, drifts) -> np.ndarray:
    """Debt series from an arbitrary drift sequence:

        D_k = (1+r)**k * (D0 + sum_{i=1..k} drift_i / (1+r)**i)

    Valid for any drifts, any r >= 0; returns D_1..D_K. Raises DebtNotFinite
    once the growth factors, and so the series, leave the float range.
    """
    drifts = np.asarray(drifts, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        growth = (1.0 + debt.r) ** np.arange(1, len(drifts) + 1)
        series = growth * (debt.d0 + np.cumsum(drifts / growth))
    return _finite_debt(series, first_year=1)


def _require_simple_regime(consumer: ConsumerParams, what: str) -> None:
    if consumer.beta != 0.0:
        raise RegimeError(f"{what} requires beta = 0, got beta = {consumer.beta:g}")
    if consumer.alpha != consumer.gamma:
        raise RegimeError(
            f"{what} requires alpha = gamma, got alpha = {consumer.alpha:g}, "
            f"gamma = {consumer.gamma:g}"
        )


def _fixed_point_surplus(consumer: ConsumerParams) -> float:
    # Yearly tax intake with the budget at its fixed point: 2*alpha*p_a/(1+alpha).
    return 2.0 * consumer.alpha * consumer.p_a / (1.0 + consumer.alpha)


def debt_closed_form(debt: DebtParams, consumer: ConsumerParams,
                     horizon: int) -> np.ndarray:
    """Debt D_1..D_K with the budget pinned at its fixed point:

        D_k = (1+r)**k * (D0 + sum_{i=1..k} (g_i - 2*alpha*p_a/(1+alpha)) / (1+r)**i)

    which is `debt_closed_form_general` with the fixed-point drift. For a
    constant schedule it equals the paper's
    (1+r)**k * D0 + (g0 - 2*alpha*p_a/(1+alpha)) * ((1+r)**k - 1)/r, and it
    stays exact at r = 0. Requires beta = 0 and alpha = gamma; raises
    ScheduleTooShort if an explicit schedule does not cover the horizon.
    """
    _require_simple_regime(consumer, "the fixed-point closed form")
    g = np.array([debt.schedule.value_at(k) for k in range(1, horizon + 1)])
    return debt_closed_form_general(debt, g - _fixed_point_surplus(consumer))


# ---------------------------------------------------------------------------
# Decrease condition
# ---------------------------------------------------------------------------

class ConditionRegime(str, Enum):
    CONSTANT_G = "constant-g"
    LINEAR_G = "linear-g"
    GENERAL_SCHEDULE = "general-schedule"


@dataclass(frozen=True)
class ConditionReport:
    """Verdict on whether the public debt decreases year over year.

    ``lhs`` is the fixed-point tax intake 2*alpha*p_a/(1+alpha); ``rhs`` is
    the expenditure-plus-interest threshold it must strictly exceed. For the
    linear regime, ``rhs_limit`` is the k -> infinity value of ``rhs``
    (None when r = 0, where it diverges).
    """

    lhs: float
    rhs: float
    margin: float
    holds: bool
    regime: ConditionRegime
    k: int | None = None
    rhs_limit: float | None = None


def _discounted_annuity(r: float, j: int) -> float:
    # sum_{i=1..j} (1+r)**-i; continuous extension j at r = 0.
    if j <= 0:
        return 0.0
    if r == 0.0:
        return float(j)
    growth = (1.0 + r) ** j
    return (growth - 1.0) / (r * growth)


def decrease_condition(consumer: ConsumerParams, debt: DebtParams,
                       k: int | None = None) -> ConditionReport:
    """Evaluate the strict decrease condition D_{k+1} < D_k at the fixed point.

    For a Constant schedule the condition is year-independent and ``k`` is
    ignored. Linear and Explicit schedules make it year-dependent, so ``k``
    (>= 1) is required; Explicit schedules must cover year k.

    Raises AlphaIsZero at alpha = 0 (the tax intake is zero, so taxation can
    never shrink the debt) and RegimeError outside beta = 0, alpha = gamma.
    """
    _require_simple_regime(consumer, "the decrease condition")
    if consumer.alpha == 0.0:
        raise AlphaIsZero("the decrease condition is degenerate at alpha = 0")

    lhs = _fixed_point_surplus(consumer)
    schedule = debt.schedule
    rd0 = debt.r * debt.d0

    if isinstance(schedule, ConstantSchedule):
        rhs = schedule.g0 + rd0
        return ConditionReport(lhs=lhs, rhs=rhs, margin=lhs - rhs,
                               holds=lhs - rhs > 0, regime=ConditionRegime.CONSTANT_G)

    if k is None:
        raise ValueError("year k is required for a non-constant schedule")
    if k < 1:
        raise ValueError(f"year k must be >= 1, got {k!r}")

    if isinstance(schedule, LinearSchedule):
        rhs = schedule.g1 + rd0 + schedule.delta_g * _discounted_annuity(debt.r, k - 1)
        limit = None
        if debt.r > 0.0:
            limit = schedule.g1 + rd0 + schedule.delta_g / debt.r
        return ConditionReport(lhs=lhs, rhs=rhs, margin=lhs - rhs,
                               holds=lhs - rhs > 0, regime=ConditionRegime.LINEAR_G,
                               k=k, rhs_limit=limit)

    schedule.value_at(k)  # raises ScheduleTooShort past the listed years
    values = schedule.values
    rhs = values[0] + rd0 + sum(
        (values[j] - values[j - 1]) / (1.0 + debt.r) ** j for j in range(1, k)
    )
    return ConditionReport(lhs=lhs, rhs=rhs, margin=lhs - rhs,
                           holds=lhs - rhs > 0,
                           regime=ConditionRegime.GENERAL_SCHEDULE, k=k)


# ---------------------------------------------------------------------------
# Parameter sweeps
# ---------------------------------------------------------------------------

SWEEP_AXES = ("alpha", "g0", "r", "D0", "p_a")


@dataclass(frozen=True)
class SweepPoint:
    """One grid entry: condition report and terminal simulated debt.

    Either result may be None with ``error`` explaining why; a failure on one
    grid point never aborts the rest of the sweep.
    """

    value: float
    report: ConditionReport | None
    final_debt: float | None
    error: str | None


def _with_value(base: Scenario, axis: str, value: float) -> Scenario:
    if axis == "alpha":
        # Joint move keeps the scenario inside the equal-rates regime.
        return replace(base, consumer=replace(base.consumer, alpha=value, gamma=value))
    if axis == "p_a":
        return replace(base, consumer=replace(base.consumer, p_a=value))
    if axis == "r":
        return replace(base, debt=replace(base.debt, r=value))
    if axis == "D0":
        return replace(base, debt=replace(base.debt, d0=value))
    if axis == "g0":
        return replace(base, debt=replace(base.debt, schedule=ConstantSchedule(g0=value)))
    raise ValueError(f"unknown sweep axis {axis!r}; expected one of {SWEEP_AXES}")


def sweep(base: Scenario, axis: str, grid, k: int | None = None) -> list[SweepPoint]:
    """Evaluate the decrease condition and the simulated terminal debt for
    each grid value of one parameter, in input order.

    The "alpha" axis moves alpha and gamma together (the condition requires
    equal rates); "g0" requires the base schedule to be Constant.
    """
    if axis not in SWEEP_AXES:
        raise ValueError(f"unknown sweep axis {axis!r}; expected one of {SWEEP_AXES}")
    if axis == "g0" and not isinstance(base.debt.schedule, ConstantSchedule):
        raise ValueError("sweep axis 'g0' requires a constant expenditure schedule")

    points = []
    for raw in grid:
        value = float(raw)
        try:
            scenario = _with_value(base, axis, value)
        except (ModelError, ValueError) as exc:
            points.append(SweepPoint(value=value, report=None, final_debt=None,
                                     error=str(exc)))
            continue
        errors = []
        report = None
        final_debt = None
        try:
            report = decrease_condition(scenario.consumer, scenario.debt, k)
        except (ModelError, ValueError) as exc:
            errors.append(str(exc))
        try:
            final_debt = float(simulate(scenario).debt[-1])
        except ModelError as exc:
            errors.append(str(exc))
        points.append(SweepPoint(value=value, report=report, final_debt=final_debt,
                                 error="; ".join(errors) or None))
    return points


# ---------------------------------------------------------------------------
# Series comparison
# ---------------------------------------------------------------------------

def max_rel_deviation(a, b) -> float:
    """Largest pointwise gap between two series, relative to their peak
    magnitude. Debt paths can cross zero, so pointwise |a-b|/|b| would be
    ill-defined; the peak of either series sets the scale instead."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"series shapes differ: {a.shape} vs {b.shape}")
    if a.size == 0:
        return 0.0
    scale = max(np.max(np.abs(a)), np.max(np.abs(b)))
    if scale == 0.0:
        return 0.0
    return float(np.max(np.abs(a - b)) / scale)

"""Fixed points, closed-form debt solutions, decrease conditions, and sweeps.

The closed forms and the decrease condition are stated for a consumer with
no wealth levy scheduled, whose budget sits at its fixed point; they take no
initial budget on purpose. The recursion (`simulate`) is the general path
and has none of those restrictions.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from itertools import accumulate
from operator import sub
from typing import TYPE_CHECKING

from .model import (
    ConstantSchedule,
    ConsumerParams,
    DebtParams,
    ExpenditureSchedule,
    FieldError,
    LinearSchedule,
    ModelError,
    Scenario,
    Trajectory,
    _floats,
    _integer,
    _year,
    consumer_step,
    tax,
)

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "ConditionNotFinite",
    "DebtNotFinite",
    "FixedPointOutOfRange",
    "HorizonOutOfRange",
    "RegimeError",
    "FixedPoint",
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


class RegimeError(ModelError):
    """Operation that requires no wealth levy scheduled (beta = 0 or m None)."""


class FixedPointOutOfRange(ModelError):
    """The budget fixed point underflows to 0 or overflows in floating point."""


class DebtNotFinite(ModelError):
    """A debt series left the floating-point range."""


class HorizonOutOfRange(ModelError):
    """A horizon too long for a list of its years, or for memory to hold that list."""


class ConditionNotFinite(ModelError):
    """The decrease condition's threshold or margin left the floating-point range."""


def _finite_debt(series: list, first_year: int) -> list:
    """``series`` (the debt from ``first_year`` on) when all of it is finite;
    otherwise DebtNotFinite naming the first year that is not."""
    if not all(map(math.isfinite, series)):
        year, d = next((i, d) for i, d in enumerate(series, first_year) if not math.isfinite(d))
        raise DebtNotFinite(f"debt leaves the float range in year {year} (D = {d!r})")
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
         / ((1.0 + params.gamma) * law.a)) ** (1 / law.n)  # 1/n of an int n cannot overflow
    return FixedPoint(b_lambda=b)


def _expenditure(schedule: ExpenditureSchedule, horizon: int) -> list:
    """g_1..g_K; ScheduleTooShort names the first year an explicit one lacks."""
    if horizon > sys.maxsize:  # a linear schedule's list would grow until memory ran out
        raise HorizonOutOfRange(f"horizon {horizon} has more years than a list can hold")
    try:
        if isinstance(schedule, ConstantSchedule):
            return [schedule.g0] * horizon
        return list(map(schedule.value_at, range(1, horizon + 1)))
    except MemoryError:
        raise HorizonOutOfRange(f"horizon {horizon} has more years than memory can hold") from None


def _budget_path(consumer: ConsumerParams, b0: float | None,
                 horizon: int) -> tuple[list, list, list]:
    """Budget, consumption and tax bill for years 0..K (c and tau NaN in year
    0), from b0 or, when it is None, from this consumer's b_lambda. The budget
    never reads the debt, so one path serves any DebtParams.

    Once a year with no levy left maps b to itself exactly, every later year
    would repeat it bit for bit (a year depends on k only through the levy),
    so its values fill the rest of the horizon without further solves."""
    if b0 is None:  # at the fixed point: this consumer's own b_lambda
        b0 = fixed_point(consumer).b_lambda
    consumption, m = consumer.law.consumption, consumer.m
    b_k, b, c, tau = b0, [b0], [math.nan], [math.nan]
    for k in range(1, horizon + 1):
        b_prev, b_k = b_k, consumer_step(consumer, b_k, k)
        c_k = consumption(b_k)
        b.append(b_k)
        c.append(c_k)
        tau.append(tax(consumer, b_k, c_k, k))
        if b_k == b_prev and (m is None or m < k):
            break
    rest = horizon + 1 - len(b)
    return tuple(s + s[-1:] * rest for s in (b, c, tau))


def _debt_path(r: float, d0: float, drifts) -> list:
    """Debt D_0..D_K from D0 and the drifts of years 1..K by `debt_step`'s
    D_k = (1+r)*D_{k-1} + drift_k, with 1+r formed once (the same bits).
    Raises DebtNotFinite naming the first year the debt leaves the float range."""
    growth, d, series = 1.0 + r, d0, [d0]
    for drift in drifts:
        d = growth * d + drift
        series.append(d)
    # (1+r)*D + drift is inf or nan whenever D is (1+r >= 1), so the last D tells
    return series if math.isfinite(d) else _finite_debt(series, first_year=0)


def _drifts(g: list, path: tuple) -> list:
    """The drifts g_k - tau_k of years 1..K from the expenditures g_1..g_K and
    a budget path of years 0..K."""
    return list(map(sub, g, path[2][1:]))


def simulate(scenario: Scenario) -> Trajectory:
    """Run the coupled budget/debt recursion over the full horizon.

    Year k computes, in order: the implicit budget step, consumption, the tax
    bill, the debt drift (the year's scheduled expenditure minus the tax
    bill), and the debt update, from b0 or, when it is None, from b_lambda.
    Raises ScheduleTooShort up front if an explicit schedule does not cover
    the horizon, FixedPointOutOfRange if that b_lambda is out of range, and
    DebtNotFinite if the debt leaves the float range.
    """
    # the expenditures before any solve: a short schedule is reported first
    g = _expenditure(scenario.debt.schedule, scenario.horizon)
    b, c, tau = path = _budget_path(scenario.consumer, scenario.b0, scenario.horizon)
    drifts = _drifts(g, path)
    debt = _debt_path(scenario.debt.r, scenario.debt.d0, drifts)
    return Trajectory._of_floats(scenario, b, c, tau, [math.nan, *drifts], debt)


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------

def _thresholds(x, r: float, d0: float):
    """T_1, T_2, ... of a series x_1, x_2, ..., lazily; the one statement of

        T_j = x_1 + r*D0 + sum_{i<j} (x_{i+1} - x_i) * (1+r)**-i.

    Summation by parts of D_k = (1+r)*D_{k-1} + d_k gives D_k - D_{k-1} =
    (1+r)**(k-1) * T_k over the drifts d; over the expenditures g, T_k is the
    decrease condition's threshold. Steps of deltaG give g_1 + r*D0 + deltaG*A_{k-1},
    with the annuity A_m = (1 - (1+r)**-m)/r (A_m = m at r = 0)."""
    x, growth = iter(x), 1.0 + r
    prev = next(x)  # no caller passes an empty series
    t = prev + r * d0
    yield t
    for i, cur in enumerate(x, 1):
        t += (cur - prev) * growth ** -i
        yield t
        prev = cur


def _debt_closed_form_general(debt: DebtParams, drifts) -> list:
    """`debt_closed_form_general` as a list, from a sequence of float drifts."""
    growth = 1.0 + debt.r
    max_block = 256 * math.log(2.0) / math.log1p(debt.r) if debt.r else math.inf
    block = max(1, int(min(len(drifts), max_block)))
    series, start = [], debt.d0
    for lo in range(0, len(drifts), block):
        steps = _thresholds(drifts[lo:lo + block], debt.r, start)
        series.extend(start + partial for partial in
                      accumulate(t * growth ** j for j, t in enumerate(steps)))
        start = series[-1]
    return _finite_debt(series, first_year=1)


def debt_closed_form_general(debt: DebtParams, drifts) -> np.ndarray:
    """Debt D_1..D_K from any drifts at any r >= 0: D_k = D0 + sum_{j<=k}
    (1+r)**(j-1) * T_j, the running sum of the `_thresholds` increments. It
    restarts from the last value every B years, B as large as keeps (1+r)**B
    below 2**256 (one block at r = 0), so no growth factor overflows and
    T_j = 0 adds exactly 0. The growth factors come from Python's ``**``,
    as in `_thresholds`, so no digit depends on the CPU. Raises
    DebtNotFinite once the series leaves the float range."""
    import numpy as np
    return np.array(_debt_closed_form_general(debt, _floats(drifts, "drifts")))


def _require_simple_regime(consumer: ConsumerParams,
                           what: str = "the decrease condition") -> None:
    if consumer.beta != 0.0 and consumer.m is not None:
        raise RegimeError(f"{what} requires beta = 0, got beta = {consumer.beta!r}")


def _fixed_point_surplus(consumer: ConsumerParams) -> float:
    # Fixed-point tax intake alpha*p_a + gamma*c, c = (1-alpha)*p_a/(1+gamma) at
    # b_lambda; the factor below 1 cannot overflow. At alpha = gamma it is the
    # paper's 2*alpha*p_a/(1+alpha) bit for bit (alpha + alpha == 2.0 * alpha).
    return (consumer.alpha + consumer.gamma) / (1.0 + consumer.gamma) * consumer.p_a


def _debt_closed_form(debt: DebtParams, consumer: ConsumerParams, horizon: int) -> list:
    """`debt_closed_form` as a list."""
    _require_simple_regime(consumer, "the fixed-point closed form")
    surplus = _fixed_point_surplus(consumer)
    drifts = [g - surplus for g in _expenditure(debt.schedule, horizon)]
    return _debt_closed_form_general(debt, drifts)


def debt_closed_form(debt: DebtParams, consumer: ConsumerParams,
                     horizon: int) -> np.ndarray:
    """Debt D_1..D_K with the budget pinned at its fixed point, which is
    `debt_closed_form_general` with the drift g_k - (alpha+gamma)*p_a/(1+gamma);
    for a constant schedule and alpha = gamma, the paper's (1+r)**k * D0 +
    (g0 - 2*alpha*p_a/(1+alpha)) * ((1+r)**k - 1)/r. Requires beta = 0 or no
    levy year m; raises ScheduleTooShort if an explicit schedule does not
    cover the horizon."""
    import numpy as np
    return np.array(_debt_closed_form(debt, consumer, horizon))


# ---------------------------------------------------------------------------
# Decrease condition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConditionReport:
    """Verdict on whether the public debt decreases year over year.

    ``lhs`` is the fixed-point tax intake (alpha+gamma)*p_a/(1+gamma);
    ``rhs`` is the expenditure-plus-interest threshold it must strictly
    exceed. For a linear schedule, ``rhs_limit`` is the k -> infinity value
    of ``rhs`` (None when r = 0, where it diverges, and when the limit is
    outside the float range, as deltaG/r is at a tiny r; the verdict is
    still finite).
    """

    lhs: float
    rhs: float
    margin: float
    holds: bool
    k: int | None = None
    rhs_limit: float | None = None


def _condition_year(debt: DebtParams, k: int | None) -> int | None:
    """None for a constant schedule, whose condition holds in every year or
    in none, else ``k``, which it requires; a given ``k`` must be an integer >= 1."""
    if k is not None:
        k = _year(_integer(k, "k"))
    elif not isinstance(debt.schedule, ConstantSchedule):
        raise ValueError("year k is required for a non-constant schedule")
    return None if isinstance(debt.schedule, ConstantSchedule) else k


def decrease_condition(consumer: ConsumerParams, debt: DebtParams,
                       k: int | None = None) -> ConditionReport:
    """Evaluate the strict decrease condition D_k < D_{k-1} at the fixed point:
    the tax intake (alpha+gamma)*p_a/(1+gamma) must exceed T_k of the
    expenditures (see `_thresholds`), since D_k - D_{k-1} = -(1+r)**(k-1) *
    margin_k for every schedule, r >= 0 and year. A Constant schedule's
    verdict has no year (T_k = g0 + r*D0); Linear and Explicit ones need
    ``k``, which an Explicit one must cover. A Linear T_k is in annuity form,
    so it costs the same at any k; an Explicit one costs at most its listed years.

    A missing or invalid ``k`` raises ValueError (FieldError when it is not
    an integer) before anything else is checked. Raises RegimeError when a
    levy is scheduled (beta != 0 with a year m), and ConditionNotFinite if
    rhs or margin is not finite.
    """
    k = _condition_year(debt, k)
    _require_simple_regime(consumer)

    lhs = _fixed_point_surplus(consumer)
    schedule, r, limit = debt.schedule, debt.r, None
    if isinstance(schedule, LinearSchedule):  # T_k = base + deltaG * A_{k-1}, O(1) at any k
        base, delta = schedule.g1 + r * debt.d0, schedule.delta_g
        m = float(k - 1) if k <= sys.float_info.max else math.inf  # inf: past the floats
        annuity = -math.expm1(-m * math.log1p(r)) / r if r else m  # 1/r at m = inf
        rhs = base + delta * annuity if delta else base  # 0 * inf would be nan
        limit = base + delta / r if r else math.inf  # r = 0: no limit
        limit = limit if math.isfinite(limit) else None  # nor where deltaG/r overflows
    else:  # one pass over the years its data bounds: a constant one's 1, an explicit one's k
        g = schedule.value_at
        g(k or 1)  # a schedule too short for year k raises ScheduleTooShort naming k
        *_, rhs = _thresholds(map(g, range(1, (k or 1) + 1)), r, debt.d0)
    margin = lhs - rhs
    if not math.isfinite(margin):  # lhs is always finite, so this covers rhs too
        raise ConditionNotFinite(f"the decrease condition leaves the float range "
                                 f"(rhs = {rhs!r}, margin = {margin!r})")
    return ConditionReport(lhs=lhs, rhs=rhs, margin=margin, holds=margin > 0,
                           k=k, rhs_limit=limit)


# ---------------------------------------------------------------------------
# Parameter sweeps
# ---------------------------------------------------------------------------

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


# Sweep axis -> (consumer, debt, value) -> the point's consumer and debt; each
# changed type is checked by its constructor, which raises only FieldError. No
# axis moves b0 (None: the point's own b_lambda) or the horizon.
_AXES = {
    # the paper's one tax rate on income and consumption
    "alpha": lambda c, d, v: (ConsumerParams(c.p_a, v, c.beta, v, c.law, c.m), d),
    "g0": lambda c, d, v: (c, DebtParams(d.r, d.d0, ConstantSchedule(v))),
    "r": lambda c, d, v: (c, DebtParams(v, d.d0, d.schedule)),
    "D0": lambda c, d, v: (c, DebtParams(d.r, v, d.schedule)),
    "p_a": lambda c, d, v: (ConsumerParams(v, c.alpha, c.beta, c.gamma, c.law, c.m), d),
}
SWEEP_AXES = tuple(_AXES)


def _once(make):
    """``make()`` formed on the first call and returned at every later one; a
    ModelError it raised is raised again at each, with the same type and text."""
    memo = []

    def formed():
        if not memo:
            try:
                memo.append((make(), None))
            except ModelError as exc:
                memo.append((None, (type(exc), exc.args)))
        value, error = memo[0]
        if error:
            raise error[0](*error[1])
        return value
    return formed


def sweep(base: Scenario, axis: str, grid, k: int | None = None) -> list[SweepPoint]:
    """Evaluate the decrease condition and the simulated terminal debt for
    each grid value of one parameter, in input order.

    The "alpha" axis moves alpha and gamma together (the paper's one tax
    rate on income and consumption); "g0" requires the base schedule to be
    Constant; a base without b0 starts each point at its own b_lambda. Like
    an unknown axis, a missing or invalid year ``k`` and a grid element that
    is not a number (a FieldError naming ``grid[i]``) raise ValueError up front.

    What a point shares with the base is formed once, on first use (the base
    schedule's years, the base consumer's budget path and RegimeError, and
    the drifts of both), and a shared ModelError recurs with the same text at
    each point it reaches; a consumer axis solves one path per run of equal
    values. Each ``final_debt`` equals `simulate`'s on that point bit for bit.
    """
    if axis not in SWEEP_AXES:
        raise ValueError(f"unknown sweep axis {axis!r}; expected one of {SWEEP_AXES}")
    if axis == "g0" and not isinstance(base.debt.schedule, ConstantSchedule):
        raise ValueError("sweep axis 'g0' requires a constant expenditure schedule")
    _condition_year(base.debt, k)  # a point's year check passes once the base's has
    grid = _floats(grid, "grid")  # NaN and infinities pass here and fail at their point

    # `_AXES` passes an unmoved consumer or schedule through, so `is` tells what a point keeps
    move, consumer0, debt0, horizon = _AXES[axis], base.consumer, base.debt, base.horizon
    schedule0 = debt0.schedule
    refusal = _once(lambda: _require_simple_regime(consumer0))
    expenditure0 = _once(lambda: _expenditure(schedule0, horizon))
    last = [None, None]  # the last consumer asked for and its path: one path per run

    def budget_path(consumer):
        if consumer is not last[0] and consumer != last[0]:
            last[:] = consumer, _once(lambda: _budget_path(consumer, base.b0, horizon))
        return last[1]()

    drifts0 = _once(lambda: _drifts(expenditure0(), budget_path(consumer0)))
    points = []
    for value in grid:
        report, final_debt, errors = None, None, []
        try:
            consumer, debt = move(consumer0, debt0, value)
        except FieldError as exc:
            points.append(SweepPoint(value, None, None, str(exc)))
            continue
        try:
            if consumer is consumer0:
                refusal()
            report = decrease_condition(consumer, debt, k)
        except ModelError as exc:
            errors.append(str(exc))
        try:  # the expenditures before the budget path, as in `simulate`
            if debt.schedule is not schedule0:
                drifts = _drifts(_expenditure(debt.schedule, horizon), budget_path(consumer))
            elif consumer is not consumer0:
                drifts = _drifts(expenditure0(), budget_path(consumer))
            else:
                drifts = drifts0()
            final_debt = _debt_path(debt.r, debt.d0, drifts)[-1]
        except ModelError as exc:
            errors.append(str(exc))
        points.append(SweepPoint(value, report, final_debt, "; ".join(errors) or None))
    return points


# ---------------------------------------------------------------------------
# Series comparison
# ---------------------------------------------------------------------------

def max_rel_deviation(a, b) -> float:
    """Largest pointwise gap between two series, relative to their peak
    magnitude. Debt paths can cross zero, so pointwise |a-b|/|b| would be
    ill-defined; the peak of either series sets the scale instead. NaN when
    either series holds a NaN or an infinity."""
    a, b = _floats(a, "a"), _floats(b, "b")
    if len(a) != len(b):
        raise ValueError(f"series lengths differ: {len(a)} vs {len(b)}")
    gaps = list(map(abs, map(sub, a, b)))
    if any(map(math.isnan, gaps)):  # Python's max would skip a NaN that is not first
        return math.nan
    scale = max(map(abs, a + b), default=0.0)
    return max(gaps) / scale if scale else 0.0

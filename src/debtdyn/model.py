"""Domain types and exact single-step dynamics of the coupled model.

A representative consumer holds a bank budget that evolves like a leaking
bucket: disposable income flows in, consumption (plus the tax on it) leaks
out. The state carries a per-capita public debt that accrues interest and
absorbs the gap between public expenditure and the consumer's tax bill.

All quantities are per-capita; the unit of time is one year. Index 0 of any
series holds initial conditions and the dynamics run over years 1..K.

Everything here is a pure function over frozen value types, so the module is
safe to use concurrently without any locking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

__all__ = [
    "FieldError",
    "ModelError",
    "NonPositiveBudget",
    "ScheduleTooShort",
    "SolverDidNotConverge",
    "ConsumptionLaw",
    "ConsumerParams",
    "ConstantSchedule",
    "LinearSchedule",
    "ExplicitSchedule",
    "ExpenditureSchedule",
    "DebtParams",
    "Scenario",
    "Trajectory",
    "tax",
    "consumer_step",
    "debt_step",
]


# ---------------------------------------------------------------------------
# Errors
# ---------------------------------------------------------------------------

class ModelError(Exception):
    """Base class for model-domain failures."""


class NonPositiveBudget(ModelError):
    """The implicit budget step has no positive solution."""


class SolverDidNotConverge(ModelError):
    """The budget root solver did not reach its tolerance in the float range."""


class ScheduleTooShort(ModelError):
    """An explicit expenditure schedule does not cover the requested year."""


class FieldError(ValueError):
    """A field of a domain type violates its invariant.

    ``field`` is the model field name and ``problem`` the violated rule, so a
    caller can restate the error against its own naming of the field.
    """

    def __init__(self, field: str, problem: str):
        super().__init__(f"{field} {problem}")
        self.field = field
        self.problem = problem


def _check(condition: bool, field: str, problem: str) -> None:
    if not condition:
        raise FieldError(field, problem)


def _finite(value: float, name: str) -> float:
    value = float(value)
    _check(math.isfinite(value), name, f"must be finite, got {value!r}")
    return value


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConsumptionLaw:
    """Consumption as a power of the current budget: spending = a * b**n.

    The exponent is an integer >= 2; spending responds super-linearly to the
    available budget.
    """

    a: float
    n: int = 2

    def __post_init__(self):
        object.__setattr__(self, "a", _finite(self.a, "a"))
        _check(self.a > 0, "a", f"must be > 0, got {self.a!r}")
        _check(isinstance(self.n, int) and not isinstance(self.n, bool),
               "n", f"must be an integer, got {self.n!r}")
        _check(self.n >= 2, "n", f"must be >= 2, got {self.n!r}")

    def consumption(self, budget: float) -> float:
        """Yearly spending at the given budget level."""
        return self.a * budget ** self.n


@dataclass(frozen=True)
class ConsumerParams:
    """Income, taxation rates, and consumption law of the average consumer.

    Attributes
    ----------
    p_a : float
        Fixed yearly income.
    alpha : float
        Income tax rate, in [0, 1).
    beta : float
        One-off wealth tax rate in [0, 1), levied on the bank budget only in
        year ``m``; irrelevant when ``m`` is None.
    gamma : float
        Consumption tax rate, >= 0, charged on top of consumption.
    law : ConsumptionLaw
        Budget-to-consumption relation.
    m : int | None
        Year of the one-off wealth tax; None means the levy never fires.
    """

    p_a: float
    alpha: float
    beta: float
    gamma: float
    law: ConsumptionLaw
    m: int | None = None

    def __post_init__(self):
        for name in ("p_a", "alpha", "beta", "gamma"):
            object.__setattr__(self, name, _finite(getattr(self, name), name))
        _check(self.p_a > 0, "p_a", f"must be > 0, got {self.p_a!r}")
        _check(0 <= self.alpha < 1, "alpha", f"must be in [0, 1), got {self.alpha!r}")
        _check(0 <= self.beta < 1, "beta", f"must be in [0, 1), got {self.beta!r}")
        _check(self.gamma >= 0, "gamma", f"must be >= 0, got {self.gamma!r}")
        if self.m is not None:
            _check(isinstance(self.m, int) and not isinstance(self.m, bool),
                   "m", f"must be an integer year, got {self.m!r}")
            _check(self.m >= 1, "m", f"must be >= 1, got {self.m!r}")

    def wealth_tax_rate(self, k: int) -> float:
        """beta in the wealth-tax year, zero in every other year."""
        return self.beta if k == self.m else 0.0


@dataclass(frozen=True)
class ConstantSchedule:
    """The state spends the same amount every year."""

    g0: float

    def __post_init__(self):
        object.__setattr__(self, "g0", _finite(self.g0, "g0"))
        _check(self.g0 >= 0, "g0", f"must be >= 0, got {self.g0!r}")

    def value_at(self, k: int) -> float:
        return self.g0


@dataclass(frozen=True)
class LinearSchedule:
    """Expenditure with a constant yearly increment: g_k = (k-1)*delta_g + g1.

    ``delta_g`` may be negative (shrinking expenditure).
    """

    g1: float
    delta_g: float

    def __post_init__(self):
        object.__setattr__(self, "g1", _finite(self.g1, "g1"))
        object.__setattr__(self, "delta_g", _finite(self.delta_g, "delta_g"))
        _check(self.g1 > 0, "g1", f"must be > 0, got {self.g1!r}")

    def value_at(self, k: int) -> float:
        return (k - 1) * self.delta_g + self.g1


@dataclass(frozen=True)
class ExplicitSchedule:
    """Expenditure listed year by year (year 1 first)."""

    values: tuple[float, ...]

    def __post_init__(self):
        values = tuple(_finite(v, f"values[{i}]") for i, v in enumerate(self.values))
        object.__setattr__(self, "values", values)
        _check(len(values) > 0, "values", "must be nonempty")

    def value_at(self, k: int) -> float:
        if k > len(self.values):
            raise ScheduleTooShort(
                f"explicit schedule has {len(self.values)} value(s), year {k} requested"
            )
        return self.values[k - 1]


ExpenditureSchedule = Union[ConstantSchedule, LinearSchedule, ExplicitSchedule]


@dataclass(frozen=True)
class DebtParams:
    """Public-debt parameters: rate of return, initial level, expenditure plan.

    ``r = 0`` is allowed: the recursion and the closed forms are both exact
    there.
    """

    r: float
    d0: float
    schedule: ExpenditureSchedule

    def __post_init__(self):
        object.__setattr__(self, "r", _finite(self.r, "r"))
        object.__setattr__(self, "d0", _finite(self.d0, "d0"))
        _check(self.r >= 0, "r", f"must be >= 0, got {self.r!r}")
        _check(self.d0 >= 0, "d0", f"must be >= 0, got {self.d0!r}")


@dataclass(frozen=True)
class Scenario:
    """A complete simulation specification."""

    consumer: ConsumerParams
    debt: DebtParams
    b0: float
    horizon: int

    def __post_init__(self):
        object.__setattr__(self, "b0", _finite(self.b0, "b0"))
        _check(self.b0 > 0, "b0", f"must be > 0, got {self.b0!r}")
        _check(isinstance(self.horizon, int) and not isinstance(self.horizon, bool),
               "horizon", f"must be an integer, got {self.horizon!r}")
        _check(self.horizon >= 1, "horizon", f"must be >= 1, got {self.horizon!r}")


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Per-year series of one simulation run.

    All arrays share length K+1. Index 0 carries initial conditions
    (``b[0] = b0``, ``debt[0] = D0``); the flow series ``c``, ``tau`` and
    ``delta`` are undefined at index 0 and hold NaN there. The accounting
    identity b_k - b_{k-1} = (p_a - tau_k) - c_k holds at every k >= 1 up to
    the step solver's tolerance.
    """

    scenario: Scenario
    b: np.ndarray
    c: np.ndarray
    tau: np.ndarray
    delta: np.ndarray
    debt: np.ndarray

    def __post_init__(self):
        lengths = {len(self.b), len(self.c), len(self.tau),
                   len(self.delta), len(self.debt)}
        _check(lengths == {len(self.b)}, "series", f"lengths differ: {sorted(lengths)}")
        _check(len(self.b) >= 1, "series", "must include the initial year")

    @property
    def horizon(self) -> int:
        return len(self.b) - 1

    @property
    def years(self) -> np.ndarray:
        """Year index per entry, 0..K (0 is the initial-conditions row)."""
        return np.arange(len(self.b))


# ---------------------------------------------------------------------------
# Single-step operations
# ---------------------------------------------------------------------------

def tax(params: ConsumerParams, b_k: float, c_k: float, k: int) -> float:
    """Total tax paid in year k: income tax, consumption tax, and the one-off
    wealth levy when k is the wealth-tax year."""
    return params.alpha * params.p_a + params.wealth_tax_rate(k) * b_k \
        + params.gamma * c_k


_STEP_RTOL = 1e-12
_MAX_ITER = 200


def _positive_root(coeff: float, n: int, slope: float, rhs: float) -> float:
    """Unique positive root of coeff*x**n + slope*x - rhs with all inputs > 0.

    Newton starts at min(rhs/slope, (rhs/coeff)**(1/n)). Both are upper bounds
    on the root: at either point one of the two positive terms alone already
    reaches rhs, so the polynomial is >= 0 there. On x > 0 the polynomial is
    increasing and convex, so Newton steps from above stay above the root and
    fall monotonically onto it. Returns once the relative step drops below
    1e-12; raises SolverDidNotConverge if that takes more than 200 steps or
    if x**n leaves the float range.
    """
    x = min(rhs / slope, (rhs / coeff) ** (1.0 / n))
    try:
        for _ in range(_MAX_ITER):
            x_new = x - (coeff * x ** n + slope * x - rhs) \
                / (n * coeff * x ** (n - 1) + slope)
            if abs(x_new - x) <= _STEP_RTOL * abs(x_new):
                return x_new
            x = x_new
    except OverflowError:
        pass
    raise SolverDidNotConverge(
        f"budget root of {coeff!r}*b**{n} + {slope!r}*b = {rhs!r} not reached "
        f"in floating point within {_MAX_ITER} Newton steps (last iterate {x!r})"
    )


def consumer_step(params: ConsumerParams, b_prev: float, k: int) -> float:
    """Advance the consumer budget by one year.

    The new budget b solves the implicit balance

        (1 + gamma) * a * b**n + (1 + beta_k) * b = (1 - alpha) * p_a + b_prev

    where beta_k is the wealth-tax rate in year k (zero outside year m). The
    left side is strictly increasing on b > 0 and the right side is positive,
    so the positive root exists and is unique.

    Raises NonPositiveBudget if the right side is not positive (impossible
    under the type invariants; kept as a guard) and SolverDidNotConverge if
    the root cannot be found in floating point.
    """
    rhs = (1.0 - params.alpha) * params.p_a + b_prev
    if rhs <= 0.0:
        raise NonPositiveBudget(
            f"(1-alpha)*p_a + b_prev = {rhs!r} must be > 0 to admit a positive budget"
        )
    coeff = (1.0 + params.gamma) * params.law.a
    slope = 1.0 + params.wealth_tax_rate(k)
    return _positive_root(coeff, params.law.n, slope, rhs)


def debt_step(debt: DebtParams, d_prev: float, drift: float) -> float:
    """One year of debt evolution: interest accrual plus the year's drift."""
    return (1.0 + debt.r) * d_prev + drift

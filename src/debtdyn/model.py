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
import operator
import sys
from collections.abc import Mapping, Set
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import TYPE_CHECKING, Union

if TYPE_CHECKING:
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


def _check(condition: bool, field: str, rule: str, value) -> None:
    """Raise FieldError(field, "<rule>, got <value>") unless ``condition``
    holds; the message is formatted only on failure."""
    if not condition:
        raise FieldError(field, f"{rule}, got {value!r}")


def _numpy_type(name: str):
    """numpy's type ``name``; () while numpy is not loaded, when no value can be one."""
    return getattr(sys.modules.get("numpy"), name, ())


def _number(value, name: str, index: int | None = None) -> float:
    """``value`` as a finite float; a bool is not a number, a numpy integer or
    float scalar of any width is. ``index`` names an element of the field ``name``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            and not isinstance(value, (_numpy_type("integer"), _numpy_type("floating"))):
        problem = f"must be a number, got {value!r}"
    else:
        try:
            number = float(value)
        except OverflowError:  # an integer beyond the float range
            number = math.inf if value > 0 else -math.inf
        if math.isfinite(number):
            return number
        problem = f"must be finite, got {number!r}"
    raise FieldError(name if index is None else f"{name}[{index}]", problem)


def _integer(value, name: str) -> int:
    """``value`` as a Python int: whatever `operator.index` takes (an int or a
    numpy integer) except a bool, which is not an integer."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:  # numpy's bool, like any non-integer
            pass
    raise FieldError(name, f"must be an integer, got {value!r}")


def _year(k: int) -> int:
    """``k`` when it is a year of a schedule, >= 1; ValueError otherwise."""
    if k < 1:
        raise ValueError(f"year k must be >= 1, got {k!r}")
    return k


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
        object.__setattr__(self, "a", _number(self.a, "a"))
        _check(self.a > 0, "a", "must be > 0", self.a)
        object.__setattr__(self, "n", _integer(self.n, "n"))
        _check(self.n >= 2, "n", "must be >= 2", self.n)

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
            object.__setattr__(self, name, _number(getattr(self, name), name))
        _check(self.p_a > 0, "p_a", "must be > 0", self.p_a)
        _check(0 <= self.alpha < 1, "alpha", "must be in [0, 1)", self.alpha)
        _check(0 <= self.beta < 1, "beta", "must be in [0, 1)", self.beta)
        _check(self.gamma >= 0, "gamma", "must be >= 0", self.gamma)
        if self.m is not None:
            object.__setattr__(self, "m", _integer(self.m, "m"))
            _check(self.m >= 1, "m", "must be >= 1", self.m)

    def wealth_tax_rate(self, k: int) -> float:
        """beta in the wealth-tax year, zero in every other year."""
        return self.beta if k == self.m else 0.0


@dataclass(frozen=True)
class ConstantSchedule:
    """The state spends the same amount every year."""

    g0: float

    def __post_init__(self):
        object.__setattr__(self, "g0", _number(self.g0, "g0"))
        _check(self.g0 >= 0, "g0", "must be >= 0", self.g0)

    def value_at(self, k: int) -> float:
        _year(k)
        return self.g0


@dataclass(frozen=True)
class LinearSchedule:
    """Expenditure with a constant yearly increment: g_k = (k-1)*delta_g + g1.

    ``delta_g`` may be negative (shrinking expenditure).
    """

    g1: float
    delta_g: float

    def __post_init__(self):
        object.__setattr__(self, "g1", _number(self.g1, "g1"))
        object.__setattr__(self, "delta_g", _number(self.delta_g, "delta_g"))
        _check(self.g1 > 0, "g1", "must be > 0", self.g1)

    def value_at(self, k: int) -> float:
        return (_year(k) - 1) * self.delta_g + self.g1


@dataclass(frozen=True)
class ExplicitSchedule:
    """Expenditure listed year by year (year 1 first): ``values`` is a nonempty
    sequence of finite numbers by `_floats`' rule, stored as a tuple of floats."""

    values: tuple[float, ...]

    def __post_init__(self):
        values = _floats(self.values, "values")
        _check(values, "values", "must be nonempty", values)
        if not all(map(math.isfinite, values)):  # `_number` names the first that is not
            for i, v in enumerate(values):
                _number(v, "values", i)
        object.__setattr__(self, "values", values)

    def value_at(self, k: int) -> float:
        if _year(k) > len(self.values):  # below 1, values[k - 1] would count from the end
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
        object.__setattr__(self, "r", _number(self.r, "r"))
        object.__setattr__(self, "d0", _number(self.d0, "d0"))
        _check(self.r >= 0, "r", "must be >= 0", self.r)
        _check(self.d0 >= 0, "d0", "must be >= 0", self.d0)


@dataclass(frozen=True)
class Scenario:
    """A complete simulation specification; b0 None starts the budget at b_lambda."""

    consumer: ConsumerParams
    debt: DebtParams
    horizon: int
    b0: float | None = None

    def __post_init__(self):
        if self.b0 is not None:
            object.__setattr__(self, "b0", _number(self.b0, "b0"))
            _check(self.b0 > 0, "b0", "must be > 0", self.b0)
        object.__setattr__(self, "horizon", _integer(self.horizon, "horizon"))
        _check(self.horizon >= 1, "horizon", "must be >= 1", self.horizon)


def _floats(values, name: str) -> tuple:
    """Any sequence of numbers as a tuple of Python floats (an array, 0-d too, converts
    through one ``tolist()`` call); a str, bytes, bytearray, memoryview, set, mapping or
    non-iterable is not one. Each element is a float of any width (NaN and infinities
    included) or a number by `_number`'s kind rule; an element of another kind, or an int
    beyond the float range, raises FieldError naming it as ``name[i]``."""
    values = values.tolist() if isinstance(values, _numpy_type("ndarray")) else values
    if isinstance(values, (str, bytes, bytearray, memoryview, Set, Mapping)) \
            or not hasattr(values, "__iter__"):
        raise FieldError(name, f"must be a sequence of numbers, got {type(values).__name__}")
    values = tuple(values)
    if set(map(type, values)) <= {float}:  # one pass; another kind goes element by element
        return values
    floats = (float, _numpy_type("floating"))
    return tuple(float(v) if isinstance(v, floats) else _number(v, name, i)
                 for i, v in enumerate(values))


_SERIES = ("b", "c", "tau", "delta", "debt")  # a trajectory's series, in file order


def _array(name: str) -> cached_property:
    """`Trajectory` series ``name`` as a read-only float64 array, built on first read."""
    def build(traj: Trajectory) -> np.ndarray:
        import numpy as np
        series = traj.series[name]
        array = np.fromiter(series, float, len(series))  # about twice np.array's pace on a tuple
        array.flags.writeable = False  # what every reader sees stays the stored floats
        return array
    return cached_property(build)


@dataclass(frozen=True, eq=False, init=False)
class Trajectory:
    """Per-year series of one simulation run, its years 0..K with K = ``scenario.horizon``.

    Each of ``b``, ``c``, ``tau``, ``delta`` and ``debt`` goes in as any
    sequence of numbers and is kept once, as a tuple of floats in the
    read-only mapping ``series``; each has K+1 entries. The attribute of the
    same name is a read-only float64 array of it, built on first read, so
    writing a trajectory never loads numpy. Index 0 holds the initial
    conditions (``b[0] = b0``, ``debt[0] = D0``) and NaN for the flows ``c``,
    ``tau`` and ``delta``. The accounting identity b_k - b_{k-1} =
    (p_a - tau_k) - c_k holds at every k >= 1 up to the step solver's tolerance.
    """

    scenario: Scenario
    series: MappingProxyType

    def __init__(self, scenario: Scenario, b, c, tau, delta, debt):
        self._store(scenario, [_floats(values, name)
                               for name, values in zip(_SERIES, (b, c, tau, delta, debt))])

    @classmethod
    def _of_floats(cls, scenario: Scenario, *series) -> Trajectory:
        """A trajectory of float lists or tuples the package made or checked: no element check."""
        traj = cls.__new__(cls)
        traj._store(scenario, list(map(tuple, series)))
        return traj

    def _store(self, scenario: Scenario, series: list) -> None:
        years = scenario.horizon + 1  # each series holds the years 0..K; Scenario keeps K >= 1
        for name, length in zip(_SERIES, map(len, series)):  # file order: first is named
            _check(length == years, "series", f"{name} must have {years} entries", length)
        object.__setattr__(self, "scenario", scenario)
        object.__setattr__(self, "series", MappingProxyType(dict(zip(_SERIES, series))))

    b, c, tau, delta, debt = map(_array, _SERIES)

    def __reduce__(self):  # a mappingproxy does not pickle; its series do
        return Trajectory, (self.scenario, *self.series.values())

    @property
    def horizon(self) -> int:
        return self.scenario.horizon

    @property
    def years(self) -> np.ndarray:
        """Year index per entry, 0..K (0 is the initial-conditions row)."""
        import numpy as np
        return np.arange(self.horizon + 1)


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


def consumer_step(params: ConsumerParams, b_prev: float, k: int) -> float:
    """Advance the consumer budget by one year.

    The new budget b solves the implicit balance

        (1 + gamma) * a * b**n + (1 + beta_k) * b = (1 - alpha) * p_a + b_prev

    where beta_k is the wealth-tax rate in year k (zero outside year m). The
    left side is strictly increasing on b > 0 and the right side is positive,
    so the positive root exists and is unique.

    Newton starts at min(rhs/slope, (rhs/coeff)**(1/n)) for the sides
    coeff*b**n + slope*b = rhs. Both are upper bounds on the root: at either
    point one of the two positive terms alone already reaches rhs. On b > 0
    the left side is increasing and convex, so Newton steps from above stay
    above the root and fall monotonically onto it. The step stops once it
    moves b by less than 1e-12 relative, or is NaN, and that b is returned
    when it is > 0 and coeff*b**n is a float, so its consumption is one too.

    Raises NonPositiveBudget if the right side is not positive (a b_prev <=
    -(1-alpha)*p_a; every budget returned is > 0), and otherwise
    SolverDidNotConverge naming year k, the equation and where Newton
    stopped: at a b that is no such root (0.0, -inf once coeff*x**n overflowed,
    nan once coeff did), where x**n or n*coeff left the float range (as for
    any n beyond it, whose 1/n is 0.0), or after 200 steps.
    """
    rhs = (1.0 - params.alpha) * params.p_a + b_prev
    if rhs <= 0.0:
        raise NonPositiveBudget(
            f"(1-alpha)*p_a + b_prev = {rhs!r} must be > 0 to admit a positive budget"
        )
    law = params.law
    coeff, n = (1.0 + params.gamma) * law.a, law.n
    slope = 1.0 + params.wealth_tax_rate(k)
    x = min(rhs / slope, (rhs / coeff) ** (1 / n))
    stop = "(Newton stopped at"  # unless all _MAX_ITER steps run
    try:
        # n * coeff * x ** (n - 1) multiplies (n * coeff) first; it overflows for a huge n
        n_coeff, n_less = n * coeff, n - 1
        for _ in range(_MAX_ITER):
            x, x_prev = x - (coeff * x ** n + slope * x - rhs) / (n_coeff * x ** n_less + slope), x
            if not abs(x - x_prev) > _STEP_RTOL * abs(x):  # a NaN step stops too
                if 0.0 < x and coeff * x ** n < math.inf:  # x ** n raises past the floats
                    return x
                break
        else:
            stop = f"within {_MAX_ITER} Newton steps (last iterate"
    except OverflowError:
        pass
    raise SolverDidNotConverge(f"budget root of {coeff!r}*b**{n} + {slope!r}*b = {rhs!r} "
                               f"in year {k} not reached in floating point {stop} {x!r})")


def debt_step(r, d_prev, drift):
    """One year of debt evolution at rate r: interest accrual plus the
    year's drift. `analysis._debt_path` runs the same rule over the years."""
    return (1.0 + r) * d_prev + drift

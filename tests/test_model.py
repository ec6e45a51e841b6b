"""Unit tests for the single-step dynamics and the domain types."""

import math
import pickle
import sys
from collections import deque
from dataclasses import replace
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from debtdyn import (
    ConstantSchedule,
    ConsumerParams,
    ConsumptionLaw,
    DebtParams,
    ExplicitSchedule,
    FieldError,
    LinearSchedule,
    ModelError,
    NonPositiveBudget,
    Scenario,
    ScheduleTooShort,
    SolverDidNotConverge,
    Trajectory,
    consumer_step,
    debt_step,
    model,
    simulate,
    tax,
)
from helpers import make_consumer, quad_root
from strategies import exponent, nonnegative, positive, rate


# ---------------------------------------------------------------------------
# tax
# ---------------------------------------------------------------------------

def test_tax_all_rates_zero():
    cons = make_consumer(alpha=0.0, gamma=0.0)
    assert tax(cons, 50.0, 10.0, 3) == 0.0


def test_tax_income_plus_consumption():
    cons = make_consumer()
    assert tax(cons, 123.0, 60.0, 1) == 40.0


def test_tax_wealth_levy_only_in_year_m():
    cons = make_consumer(gamma=0.0, beta=0.1, m=4)
    assert tax(cons, 200.0, 60.0, 4) == 45.0
    assert tax(cons, 200.0, 60.0, 3) == 25.0


def test_tax_wealth_levy_never_fires_without_m():
    cons = make_consumer(gamma=0.0, beta=0.1, m=None)
    assert tax(cons, 200.0, 60.0, 1) == 25.0


# ---------------------------------------------------------------------------
# consumer_step
# ---------------------------------------------------------------------------

def test_step_holds_the_fixed_point():
    cons = make_consumer()
    assert consumer_step(cons, 20.0, 1) == pytest.approx(20.0, rel=1e-12)


def test_step_from_18_matches_quadratic_oracle():
    # 0.1875*b^2 + b - 93 = 0, positive root
    cons = make_consumer()
    b1 = consumer_step(cons, 18.0, 1)
    assert b1 == pytest.approx(19.76347178834763, rel=1e-12)
    assert b1 == pytest.approx(quad_root(0.1875, 1.0, 93.0), rel=1e-12)


def test_step_tax_free_matches_quadratic_oracle():
    cons = make_consumer(alpha=0.0, gamma=0.0, a=0.3)
    b1 = consumer_step(cons, 7.0, 1)
    assert b1 == pytest.approx(quad_root(0.3, 1.0, 107.0), rel=1e-12)


def test_step_wealth_tax_year_steepens_the_balance():
    cons = make_consumer(beta=0.2, m=5)
    on = consumer_step(cons, 18.0, 5)
    off = consumer_step(cons, 18.0, 4)
    assert on == pytest.approx(quad_root(0.1875, 1.2, 93.0), rel=1e-12)
    assert on < off


def test_step_rejects_nonpositive_balance():
    cons = make_consumer()
    with pytest.raises(NonPositiveBudget):
        consumer_step(cons, -200.0, 1)


def full_domain(test):
    """Draw the step's inputs from its full valid domain: a down to 1e-12, n
    up to 20, budgets up to 1e12, the levy year on and off. The examples once
    exhausted the iteration cap (rhs = 1e9 and 1e12 exactly) or overflowed
    x**n (n = 30)."""
    for a, n, b_prev, p_a, rate in ((1e-9, 12, 1e9 - 1.0, 1.0, 0.0),
                                    (1e-12, 20, 1e12 - 1.0, 1.0, 0.0),
                                    (1e-3, 30, 1e12, 100.0, 0.25)):
        test = example(alpha=rate, beta=0.0, gamma=rate, p_a=p_a, a=a, n=n,
                       b_prev=b_prev, in_levy_year=False)(test)
    return given(
        alpha=st.floats(0.0, 0.9),
        beta=st.floats(0.0, 0.9),
        gamma=st.floats(0.0, 1.0),
        p_a=st.floats(1.0, 1e4),
        a=st.floats(1e-12, 1e3),
        n=st.integers(2, 20),
        b_prev=st.floats(1e-3, 1e12),
        in_levy_year=st.booleans(),
    )(test)


@full_domain
def test_step_root_satisfies_its_polynomial(alpha, beta, gamma, p_a, a, n, b_prev,
                                            in_levy_year):
    cons = make_consumer(alpha=alpha, beta=beta, gamma=gamma, p_a=p_a, a=a, n=n, m=3)
    k = 3 if in_levy_year else 1
    rhs = (1.0 - alpha) * p_a + b_prev
    b = consumer_step(cons, b_prev, k)
    assert b > 0.0
    residual = (1.0 + gamma) * a * b ** n + (1.0 + cons.wealth_tax_rate(k)) * b - rhs
    assert abs(residual) < 1e-10 * rhs


@full_domain
def test_step_accounting_identity(alpha, beta, gamma, p_a, a, n, b_prev, in_levy_year):
    # b_k - b_{k-1} = (p_a - tau_k) - c_k, up to the root solver tolerance
    cons = make_consumer(alpha=alpha, beta=beta, gamma=gamma, p_a=p_a, a=a, n=n, m=3)
    k = 3 if in_levy_year else 1
    b = consumer_step(cons, b_prev, k)
    c = cons.law.consumption(b)
    t = tax(cons, b, c, k)
    residual = b - b_prev - (p_a - t) + c
    assert abs(residual) < 1e-9 * max(p_a, b, b_prev)


def test_step_outside_the_float_range_is_a_named_error():
    # the root is near 2e8, where b**40 overflows
    cons = make_consumer(alpha=0.0, gamma=0.0, a=5e-324, n=40)
    with pytest.raises(SolverDidNotConverge):
        consumer_step(cons, 1e12, 1)


def test_step_never_returns_an_unconverged_root(monkeypatch):
    monkeypatch.setattr(model, "_MAX_ITER", 1)
    with pytest.raises(SolverDidNotConverge):
        consumer_step(make_consumer(), 18.0, 1)


@given(p_a=positive, alpha=rate, beta=rate, gamma=nonnegative, a=positive, n=exponent,
       b_prev=positive, in_levy_year=st.booleans())
# income at the float maximum: Newton stops one ulp above b_lambda, whose b**2 overflows
@example(p_a=sys.float_info.max, alpha=0.0, beta=0.0, gamma=0.0, a=1.0, n=2, b_prev=1.0,
         in_levy_year=False)
# there b**2 is a float, but a*b**2 rounds past the float maximum
@example(p_a=sys.float_info.max, alpha=0.0, beta=0.0, gamma=0.0, a=1e9, n=2, b_prev=5e-324,
         in_levy_year=False)
def test_a_step_returns_a_budget_whose_consumption_is_a_float(p_a, alpha, beta, gamma, a, n,
                                                               b_prev, in_levy_year):
    cons = make_consumer(p_a=p_a, alpha=alpha, beta=beta, gamma=gamma, a=a, n=n, m=3)
    try:
        b = consumer_step(cons, b_prev, 3 if in_levy_year else 1)
    except ModelError:
        return
    assert 0.0 < b < math.inf
    assert math.isfinite(cons.law.consumption(b))


def test_step_contracts_toward_the_fixed_point():
    cons = make_consumer()
    for b in (18.0, 22.0):
        for _ in range(8):
            b_next = consumer_step(cons, b, 1)
            assert abs(b_next - 20.0) < abs(b - 20.0)
            b = b_next


def test_step_ignores_wealth_tax_before_year_m():
    # identical inputs and code path below year m: bitwise equal budgets
    with_levy = make_consumer(beta=0.3, m=6)
    without = make_consumer(beta=0.0)
    b_with, b_without = 18.0, 18.0
    for k in range(1, 6):
        b_with = consumer_step(with_levy, b_with, k)
        b_without = consumer_step(without, b_without, k)
        assert b_with == b_without
    assert consumer_step(with_levy, b_with, 6) != consumer_step(without, b_without, 6)


# ---------------------------------------------------------------------------
# drift / debt_step
# ---------------------------------------------------------------------------

def drift(cons, g_k, b_k, k):
    return g_k - tax(cons, b_k, cons.law.consumption(b_k), k)


def test_simulate_drift_is_expenditure_minus_tax():
    cons = make_consumer(beta=0.1, m=3)
    schedule = ExplicitSchedule(values=(30.0, 35.0, 25.0, 40.0))
    traj = simulate(Scenario(consumer=cons, b0=18.0, horizon=4,
                             debt=DebtParams(r=0.05, d0=100.0, schedule=schedule)))
    assert np.array_equal(traj.delta[1:], np.array(schedule.values) - traj.tau[1:])
    assert traj.tau[3] > traj.tau[2]  # the levy year is taxed


def test_drift_untaxed_state_is_pure_expenditure():
    cons = make_consumer(alpha=0.0, gamma=0.0)
    assert drift(cons, 30.0, 12.0, 1) == 30.0


def test_drift_at_the_baseline_fixed_point():
    cons = make_consumer()
    assert drift(cons, 30.0, 20.0, 1) == pytest.approx(-10.0, rel=1e-12)


def test_drift_in_the_wealth_tax_year():
    cons = make_consumer(gamma=0.0, beta=0.1, m=7)
    assert drift(cons, 25.0, 200.0, 7) == pytest.approx(-20.0, rel=1e-12)
    assert drift(cons, 25.0, 200.0, 6) == 0.0


def test_debt_step_zero_initial_debt():
    assert debt_step(0.05, 0.0, 30.0) == 30.0


def test_debt_step_arithmetic():
    assert debt_step(0.05, 100.0, -10.0) == pytest.approx(95.0, rel=1e-12)
    assert debt_step(0.05, 100.0, 0.0) == pytest.approx(105.0, rel=1e-12)


# ---------------------------------------------------------------------------
# schedules
# ---------------------------------------------------------------------------

def test_linear_schedule_expansion():
    sched = LinearSchedule(g1=30.0, delta_g=2.0)
    assert [sched.value_at(k) for k in (1, 2, 3)] == [30.0, 32.0, 34.0]


def test_explicit_schedule_lookup_and_bounds():
    sched = ExplicitSchedule(values=(10.0, 20.0))
    assert sched.value_at(2) == 20.0
    with pytest.raises(ScheduleTooShort):
        sched.value_at(3)


@pytest.mark.parametrize("schedule", [
    # values[k - 1] would count from the end: 33.0, 31.0 and 30.0, then IndexError
    ExplicitSchedule(values=(30.0, 31.0, 33.0)),
    LinearSchedule(g1=1.0, delta_g=5.0),  # (k-1)*delta_g + g1 would be 1.0, -4.0, -9.0, -14.0
    ConstantSchedule(g0=30.0),
], ids=["explicit", "linear", "constant"])
@pytest.mark.parametrize("k", [0, -1, -2, -3])
def test_every_schedule_refuses_a_year_below_1(schedule, k):
    with pytest.raises(ValueError, match=rf"^year k must be >= 1, got {k}$"):
        schedule.value_at(k)


# ---------------------------------------------------------------------------
# type invariants
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kwargs", [
    dict(a=0.0), dict(a=-1.0), dict(n=1), dict(n=2.0), dict(n=True),
])
def test_consumption_law_invariants(kwargs):
    with pytest.raises(ValueError):
        ConsumptionLaw(**{"a": 0.15, "n": 2, **kwargs})


@pytest.mark.parametrize("kwargs", [
    dict(p_a=0.0), dict(p_a=-5.0), dict(alpha=1.0), dict(alpha=-0.1),
    dict(beta=1.0), dict(beta=-0.1), dict(gamma=-0.1), dict(m=0),
    dict(m=1.5), dict(p_a=float("nan")),
])
def test_consumer_params_invariants(kwargs):
    with pytest.raises(ValueError):
        make_consumer(**kwargs)


@pytest.mark.parametrize("build", [
    lambda: ConstantSchedule(g0=-1.0),
    lambda: LinearSchedule(g1=0.0, delta_g=1.0),
    lambda: LinearSchedule(g1=-3.0, delta_g=1.0),
    lambda: ExplicitSchedule(values=()),
    lambda: DebtParams(r=-0.01, d0=0.0, schedule=ConstantSchedule(g0=1.0)),
    lambda: DebtParams(r=0.05, d0=-1.0, schedule=ConstantSchedule(g0=1.0)),
])
def test_debt_side_invariants(build):
    with pytest.raises(ValueError):
        build()


def test_scenario_invariants(baseline_consumer):
    debt = DebtParams(r=0.05, d0=100.0, schedule=ConstantSchedule(g0=30.0))
    with pytest.raises(ValueError):
        Scenario(consumer=baseline_consumer, debt=debt, b0=0.0, horizon=10)
    with pytest.raises(ValueError):
        Scenario(consumer=baseline_consumer, debt=debt, b0=18.0, horizon=0)
    with pytest.raises(ValueError):
        Scenario(consumer=baseline_consumer, debt=debt, b0=18.0, horizon=1.0)


HUGE = 10 ** 400  # an integer literal beyond the float range


@pytest.mark.parametrize("build,field,value", [
    (lambda: make_consumer(p_a=HUGE), "p_a", "inf"),
    (lambda: ConsumptionLaw(a=HUGE, n=2), "a", "inf"),
    (lambda: DebtParams(r=0.05, d0=HUGE, schedule=ConstantSchedule(g0=1.0)), "d0", "inf"),
    (lambda: ExplicitSchedule(values=(1.0, -HUGE)), "values[1]", "-inf"),
    # and floats that are not finite, which an explicit schedule names element by element
    (lambda: ExplicitSchedule(values=(30.0, math.inf)), "values[1]", "inf"),
    (lambda: ExplicitSchedule(values=(math.nan,)), "values[0]", "nan"),
    (lambda: ExplicitSchedule(values=[1.0, np.float32("inf")]), "values[1]", "inf"),
    (lambda: ExplicitSchedule(values=np.array([1.0, math.nan])), "values[1]", "nan"),
])
def test_an_integer_beyond_the_float_range_is_not_finite(build, field, value):
    with pytest.raises(FieldError) as excinfo:
        build()
    assert (excinfo.value.field, excinfo.value.problem) == (field, f"must be finite, got {value}")


BASELINE_LAW = ConsumptionLaw(a=0.15, n=2)
BASELINE_DEBT = DebtParams(r=0.05, d0=100.0, schedule=ConstantSchedule(g0=30.0))
# a valid keyword set per type; every field but a nested type's is numeric
VALID_FIELDS = {
    ConsumptionLaw: dict(a=0.15, n=2),
    ConsumerParams: dict(p_a=100.0, alpha=0.25, beta=0.1, gamma=0.25, law=BASELINE_LAW,
                         m=3),
    ConstantSchedule: dict(g0=30.0),
    LinearSchedule: dict(g1=30.0, delta_g=1.0),
    DebtParams: dict(r=0.05, d0=100.0, schedule=BASELINE_DEBT.schedule),
    Scenario: dict(consumer=make_consumer(), debt=BASELINE_DEBT, b0=18.0, horizon=10),
}
NUMERIC_FIELDS = [(cls, name) for cls, kwargs in VALID_FIELDS.items() for name in kwargs
                  if name not in ("law", "schedule", "consumer", "debt")]
WRONG_TYPES = {"str": "x", "bool": True, "none": None, "list": [1.0]}


@pytest.mark.parametrize("cls,name,value", [
    pytest.param(cls, name, value, id=f"{cls.__name__}.{name}-{label}")
    for cls, name in NUMERIC_FIELDS for label, value in WRONG_TYPES.items()
    if (name, value) not in (("m", None), ("b0", None))  # no levy; start at b_lambda
])
def test_a_field_of_the_wrong_type_is_a_field_error(cls, name, value):
    with pytest.raises(FieldError) as excinfo:
        cls(**{**VALID_FIELDS[cls], name: value})
    assert excinfo.value.field == name
    assert excinfo.value.problem.endswith(f", got {value!r}")


@pytest.mark.parametrize("cls,name", [(ConsumptionLaw, "n"), (ConsumerParams, "m"),
                                      (Scenario, "horizon")])
def test_a_numpy_bool_is_not_an_integer(cls, name):
    with pytest.raises(FieldError) as excinfo:
        cls(**{**VALID_FIELDS[cls], name: np.True_})
    assert (excinfo.value.field, excinfo.value.problem) == (
        name, f"must be an integer, got {np.True_!r}")


# a 0-d array is its one element, here a float
@pytest.mark.parametrize("values,kind", [("123", "str"), (5, "int"), ({}, "dict"),
                                         (None, "NoneType"), (True, "bool"),
                                         (np.array(1.0), "float")], ids=repr)
def test_explicit_values_must_be_a_nonempty_list(values, kind):
    with pytest.raises(FieldError) as excinfo:
        ExplicitSchedule(values=values)
    assert (excinfo.value.field, excinfo.value.problem) == (
        "values", f"must be a sequence of numbers, got {kind}")


@pytest.mark.parametrize("empty", [(), [], np.array([]), range(0), iter(())],
                         ids=["tuple", "list", "ndarray", "range", "iterator"])
def test_explicit_values_must_not_be_empty(empty):
    with pytest.raises(FieldError) as excinfo:
        ExplicitSchedule(values=empty)
    assert (excinfo.value.field, excinfo.value.problem) == ("values", "must be nonempty, got ()")


# factories, so that the schedule and `model._floats` each get a fresh generator
SEQUENCES = {
    "list": lambda: [30.0, 31, np.float32(0.1), np.int64(7)],
    "tuple": lambda: (30.0, 31.5),
    **{f"ndarray-{dtype.__name__}": lambda dtype=dtype: np.array([30.5, 0.1, 1e-3], dtype)
       for dtype in (np.float16, np.float32, np.float64, np.longdouble)},
    "generator": lambda: (k / 10 for k in range(1, 4)),
    "range": lambda: range(1, 4),
    "deque": lambda: deque([30.0, 0.1]),
}


@pytest.mark.parametrize("make", SEQUENCES.values(), ids=SEQUENCES.keys())
def test_explicit_values_take_any_sequence_of_numbers_as_floats_does(make):
    stored = ExplicitSchedule(values=make()).values
    assert type(stored) is tuple and {type(v) for v in stored} == {float}
    assert [v.hex() for v in stored] == [v.hex() for v in model._floats(make(), "values")]


def test_explicit_values_name_the_wrong_element():
    with pytest.raises(FieldError) as excinfo:
        ExplicitSchedule(values=[30.0, "31"])
    assert (excinfo.value.field, excinfo.value.problem) == (
        "values[1]", "must be a number, got '31'")


def test_numpy_numbers_are_accepted_as_floats():
    consumer = make_consumer(p_a=np.int64(100), alpha=np.float64(0.25),
                             a=np.float64(0.15))
    assert (consumer.p_a, consumer.alpha, consumer.law.a) == (100.0, 0.25, 0.15)
    assert {type(consumer.p_a), type(consumer.alpha), type(consumer.law.a)} == {float}
    for values in (np.array([30.0, 31.5]), np.array([30, 31]), (np.float64(30.0),)):
        schedule = ExplicitSchedule(values=values)
        assert schedule.values == tuple(float(v) for v in values)
        assert {type(v) for v in schedule.values} == {float}


FLOAT_FIELDS = [(cls, name) for cls, name in NUMERIC_FIELDS if name not in ("n", "m", "horizon")]
NUMPY_FLOATS = [np.float16, np.float32, np.longdouble]


@pytest.mark.parametrize("dtype", NUMPY_FLOATS, ids=repr)
@pytest.mark.parametrize("cls,name", FLOAT_FIELDS,
                         ids=[f"{cls.__name__}.{name}" for cls, name in FLOAT_FIELDS])
def test_a_numpy_float_scalar_of_any_width_is_a_number(cls, name, dtype):
    value = dtype(VALID_FIELDS[cls][name])
    stored = getattr(cls(**{**VALID_FIELDS[cls], name: value}), name)
    assert type(stored) is float and stored.hex() == float(value).hex()
    for bad in (dtype("nan"), dtype("inf"), -dtype("inf")):
        with pytest.raises(FieldError) as excinfo:
            cls(**{**VALID_FIELDS[cls], name: bad})
        assert (excinfo.value.field, excinfo.value.problem) == (
            name, f"must be finite, got {float(bad)!r}")


@pytest.mark.parametrize("dtype", NUMPY_FLOATS, ids=repr)
def test_explicit_values_take_numpy_float_scalars_as_their_array(dtype):
    array = np.array([30.5, 0.1, 1e-3], dtype=dtype)
    schedule = ExplicitSchedule(values=list(array))
    assert [v.hex() for v in schedule.values] == [v.hex() for v in
                                                   ExplicitSchedule(values=array).values]
    assert {type(v) for v in schedule.values} == {float}
    assert ConstantSchedule(g0=dtype(30.5)).g0 == 30.5


def test_a_long_double_beyond_the_float_range_is_not_finite():
    with pytest.raises(FieldError) as excinfo:
        ConstantSchedule(g0=np.longdouble("1e4000"))
    assert (excinfo.value.field, excinfo.value.problem) == ("g0", "must be finite, got inf")


@pytest.mark.parametrize("value", [np.complex64(1.0), np.complex128(30.5),
                                   np.clongdouble(2.0), 1 + 0j], ids=repr)
def test_a_complex_value_is_not_a_number(value):
    with pytest.raises(FieldError) as excinfo:
        ConstantSchedule(g0=value)
    assert (excinfo.value.field, excinfo.value.problem) == (
        "g0", f"must be a number, got {value!r}")
    with pytest.raises(FieldError) as excinfo:
        ExplicitSchedule(values=[30.0, value])
    assert (excinfo.value.field, excinfo.value.problem) == (
        "values[1]", f"must be a number, got {value!r}")


@pytest.mark.parametrize("lengths,problem", [
    ((11, 11, 11, 11, 10), "debt must have 11 entries, got 10"),
    ((0, 0, 0, 0, 0), "b must have 11 entries, got 0"),
])
def test_trajectory_series_must_share_a_nonempty_length(lengths, problem):
    scenario = Scenario(consumer=make_consumer(), debt=BASELINE_DEBT, b0=18.0, horizon=10)
    b, c, tau, delta, debt = (np.zeros(n) for n in lengths)
    with pytest.raises(FieldError) as excinfo:
        Trajectory(scenario=scenario, b=b, c=c, tau=tau, delta=delta, debt=debt)
    assert (excinfo.value.field, excinfo.value.problem) == ("series", problem)


def test_a_trajectory_spans_its_scenario_s_years(baseline_scenario):
    # two rows on a 10-year scenario would write "k": [0, 1] under run.horizon: 10
    flows = [float("nan"), 1.0]
    with pytest.raises(FieldError) as excinfo:
        Trajectory(scenario=baseline_scenario, b=[1.0, 2.0], c=flows, tau=flows,
                   delta=flows, debt=[1.0, 2.0])
    assert (excinfo.value.field, excinfo.value.problem) == (
        "series", "b must have 11 entries, got 2")
    traj = Trajectory(scenario=replace(baseline_scenario, horizon=1), b=[1.0, 2.0],
                      c=flows, tau=flows, delta=flows, debt=[1.0, 2.0])
    assert traj.horizon == 1 and list(traj.years) == [0, 1]


@pytest.mark.parametrize("text", ["12", b"12", 5, None, np.array(5.0), {0.1, 0.2},
                                  {0.1: 1.0}, bytearray(b"12"), memoryview(b"12")],
                         ids=["str", "bytes", "int", "None", "0-d-array", "set", "mapping",
                              "bytearray", "memoryview"])
def test_a_trajectory_series_given_as_text_is_rejected(baseline_scenario, text):
    # iterating "12" would give the numbers 1, 2, b"12" or its memoryview 49, 50, a set
    # its hash order and a mapping its keys; 5, None or a 0-d array (one float) is no sequence
    flows = [float("nan"), 5.0]
    with pytest.raises(FieldError) as excinfo:
        Trajectory(scenario=baseline_scenario, b=text, c=flows, tau=flows, delta=flows,
                   debt=[100.0, 105.0])
    assert excinfo.value.field == "b"
    kind = type(text.tolist() if isinstance(text, np.ndarray) else text).__name__
    assert excinfo.value.problem == f"must be a sequence of numbers, got {kind}"


SERIES = ("b", "c", "tau", "delta", "debt")


def trajectory_with(scenario, name, values):
    """A one-year trajectory whose series ``name`` is ``values``."""
    series = dict(b=[18.0, 19.0], c=[float("nan"), 5.0], tau=[float("nan"), 5.0],
                  delta=[float("nan"), 25.0], debt=[100.0, 130.0])
    return Trajectory(replace(scenario, horizon=1), **{**series, name: values})


@pytest.mark.parametrize("name", SERIES)
@pytest.mark.parametrize("element", ["18", True, None, np.True_, b"1"], ids=repr)
def test_a_trajectory_element_that_is_not_a_number_is_named(baseline_scenario, name,
                                                            element):
    with pytest.raises(FieldError) as excinfo:
        trajectory_with(baseline_scenario, name, [18.0, element])
    assert (excinfo.value.field, excinfo.value.problem) == (
        f"{name}[1]", f"must be a number, got {element!r}")


@pytest.mark.parametrize("name", SERIES)
@pytest.mark.parametrize("element", [10 ** 400, -10 ** 400], ids=["+huge", "-huge"])
def test_a_trajectory_int_beyond_the_float_range_is_not_finite(baseline_scenario, name,
                                                               element):
    for values in ([element, 1], [1.5, element]):  # an int series, and a mixed one
        with pytest.raises(FieldError) as excinfo:
            trajectory_with(baseline_scenario, name, values)
        assert (excinfo.value.field, excinfo.value.problem) == (
            f"{name}[{values.index(element)}]",
            f"must be finite, got {'inf' if element > 0 else '-inf'}")


@pytest.mark.parametrize("values", [
    [np.float64(18.25), np.float64(-0.0)], [np.int64(18), np.int64(-3)],
    [np.float64(0.1), 7], np.array([18, 19]), np.array([18.1, 1e-310]),
    np.array([2 ** 62, -5], dtype=np.int64), (18, 19)], ids=repr)
def test_a_trajectory_keeps_numpy_and_int_elements_as_python_floats(baseline_scenario,
                                                                    values):
    want = [float(v).hex() for v in values]
    for name in SERIES:
        stored = trajectory_with(baseline_scenario, name, values).series[name]
        assert type(stored) is tuple and {type(v) for v in stored} == {float}
        assert [v.hex() for v in stored] == want


def test_a_trajectory_element_may_be_nan_or_infinite(baseline_scenario):
    for name in SERIES:
        for values in ([math.nan, math.inf], [-math.inf, np.float64(math.nan)],
                       np.array([math.inf, math.nan])):
            stored = trajectory_with(baseline_scenario, name, values).series[name]
            assert [v.hex() for v in stored] == [float(v).hex() for v in values]


@pytest.mark.parametrize("dtype", [np.float32, np.float16, np.longdouble], ids=repr)
def test_a_trajectory_keeps_numpy_float_elements_of_any_width(baseline_scenario, dtype):
    for pair in ([18.1, -0.0], [math.inf, math.nan]):
        array = np.array(pair, dtype=dtype)
        want = [float(v).hex() for v in array]  # a list of elements stores what the array does
        for name in SERIES:
            stored = trajectory_with(baseline_scenario, name, list(array)).series[name]
            assert {type(v) for v in stored} == {float}
            assert [v.hex() for v in stored] == want


def test_a_trajectory_s_arrays_are_read_only_and_built_once(baseline_scenario):
    traj = simulate(baseline_scenario)
    for name in ("b", "c", "tau", "delta", "debt"):
        array = getattr(traj, name)
        assert array is getattr(traj, name) and array.dtype == np.float64
        np.testing.assert_array_equal(array, traj.series[name])
        with pytest.raises(ValueError, match="read-only"):
            array[1] = 0.0
    assert traj.series["b"][1] != 0.0


def test_a_trajectory_survives_pickling(baseline_scenario):
    traj = simulate(baseline_scenario)
    back = pickle.loads(pickle.dumps(traj))
    assert back.scenario == traj.scenario
    assert back.series["b"] == traj.series["b"] and np.array_equal(back.debt, traj.debt)


def test_a_pickled_trajectory_keeps_its_series_bit_for_bit_and_read_only(baseline_scenario):
    traj = simulate(baseline_scenario)
    assert not traj.b.flags.writeable  # an array built before pickling is built again after
    back = pickle.loads(pickle.dumps(traj))
    assert back.scenario == traj.scenario
    assert isinstance(back.series, MappingProxyType) and list(back.series) == list(traj.series)
    with pytest.raises(TypeError):
        back.series["b"] = ()
    for name, values in traj.series.items():
        # hex, not ==: the NaN flows of year 0 are never equal to themselves
        assert [v.hex() for v in back.series[name]] == [v.hex() for v in values]
        array = getattr(back, name)
        assert [v.hex() for v in array.tolist()] == [v.hex() for v in values]
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0


def test_debt_params_allow_zero_rate():
    # the recursion and the closed forms are both defined at r = 0
    assert DebtParams(r=0.0, d0=0.0, schedule=ConstantSchedule(g0=1.0)).r == 0.0

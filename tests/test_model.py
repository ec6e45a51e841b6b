"""Unit tests for the single-step dynamics and the domain types."""

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
    LinearSchedule,
    NonPositiveBudget,
    Scenario,
    ScheduleTooShort,
    SolverDidNotConverge,
    consumer_step,
    debt_step,
    model,
    simulate,
    tax,
)
from helpers import quad_root


def make_consumer(alpha=0.25, beta=0.0, gamma=0.25, p_a=100.0, a=0.15, n=2, m=None):
    return ConsumerParams(p_a=p_a, alpha=alpha, beta=beta, gamma=gamma,
                          law=ConsumptionLaw(a=a, n=n), m=m)


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
    debt = DebtParams(r=0.05, d0=0.0, schedule=ConstantSchedule(g0=30.0))
    assert debt_step(debt, 0.0, 30.0) == 30.0


def test_debt_step_arithmetic():
    debt = DebtParams(r=0.05, d0=100.0, schedule=ConstantSchedule(g0=30.0))
    assert debt_step(debt, 100.0, -10.0) == pytest.approx(95.0, rel=1e-12)
    assert debt_step(debt, 100.0, 0.0) == pytest.approx(105.0, rel=1e-12)


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


def test_debt_params_allow_zero_rate():
    # the recursion is defined at r = 0; only closed forms reject it
    assert DebtParams(r=0.0, d0=0.0, schedule=ConstantSchedule(g0=1.0)).r == 0.0

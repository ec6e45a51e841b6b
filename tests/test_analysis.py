"""Tests for fixed points, closed forms, decrease conditions, and sweeps."""

import json
import math
import random
import re
import struct
import sys
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from itertools import accumulate, tee
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from debtdyn import (
    ConditionNotFinite,
    ConstantSchedule,
    ConsumerParams,
    ConsumptionLaw,
    DebtNotFinite,
    DebtParams,
    ExplicitSchedule,
    FieldError,
    FixedPointOutOfRange,
    LinearSchedule,
    ModelError,
    RegimeError,
    SWEEP_AXES,
    Scenario,
    ScheduleTooShort,
    Trajectory,
    consumer_step,
    debt_closed_form,
    debt_closed_form_general,
    decrease_condition,
    fixed_point,
    max_rel_deviation,
    simulate,
    sweep,
)
from debtdyn import analysis
from debtdyn.analysis import _AXES, _budget_path
from debtdyn.model import (
    _MAX_ITER,
    _STEP_RTOL,
    SolverDidNotConverge,
    debt_step,
    tax,
)
from debtdyn.io import load_scenario
from helpers import make_consumer, quad_root, random_general_scenario
from strategies import nonnegative, positive, signed

SCENARIOS = Path(__file__).parent.parent / "scenarios"


def constant_debt(r=0.05, d0=100.0, g0=30.0):
    return DebtParams(r=r, d0=d0, schedule=ConstantSchedule(g0=g0))


# ---------------------------------------------------------------------------
# fixed_point
# ---------------------------------------------------------------------------

def test_fixed_point_baseline_value():
    assert fixed_point(make_consumer()).b_lambda == pytest.approx(20.0, rel=1e-12)


def test_fixed_point_trivial_sqrt():
    cons = make_consumer(alpha=0.0, gamma=0.0, a=1.0, p_a=4.0)
    assert fixed_point(cons).b_lambda == pytest.approx(2.0, rel=1e-12)


def test_fixed_point_cubic_law():
    cons = make_consumer(n=3)
    b_lam = fixed_point(cons).b_lambda
    assert b_lam == pytest.approx(7.368062997280773, rel=1e-12)
    # step-map residual: the fixed point maps to itself
    assert consumer_step(cons, b_lam, 1) == pytest.approx(b_lam, rel=1e-10)


@pytest.mark.parametrize("p_a,a", [(1e-300, 1e300), (1e300, 1e-300)])
def test_fixed_point_outside_the_float_range_is_a_model_error(p_a, a):
    with pytest.raises(FixedPointOutOfRange):
        fixed_point(make_consumer(p_a=p_a, a=a))


def test_fixed_point_general_rates():
    # alpha != gamma uses the same derivation; the step map must still hold it
    cons = make_consumer(alpha=0.1, gamma=0.35)
    b_lam = fixed_point(cons).b_lambda
    assert consumer_step(cons, b_lam, 1) == pytest.approx(b_lam, rel=1e-10)


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_baseline_converges_monotonically(baseline_scenario):
    traj = simulate(baseline_scenario)
    assert np.all(np.diff(traj.b) > 0)
    assert abs(traj.b[5] - 20.0) < 1e-3


def test_simulate_baseline_from_the_fixed_point(baseline_scenario):
    traj = simulate(replace(baseline_scenario, b0=20.0))
    assert np.max(np.abs(traj.b - 20.0)) < 1e-10


def test_simulate_single_untaxed_step():
    cons = make_consumer(alpha=0.0, gamma=0.0, a=0.3)
    scenario = Scenario(consumer=cons,
                        debt=DebtParams(r=0.05, d0=0.0, schedule=ConstantSchedule(g0=7.0)),
                        b0=12.0, horizon=1)
    traj = simulate(scenario)
    assert traj.debt[1] == 7.0
    assert traj.b[1] == pytest.approx(quad_root(0.3, 1.0, 112.0), rel=1e-12)


def test_simulate_accepts_zero_rate(baseline_scenario):
    scenario = replace(baseline_scenario, debt=constant_debt(r=0.0))
    traj = simulate(scenario)
    assert np.all(np.isfinite(traj.debt))


def overflowing(baseline_scenario, d0=1e6, g0=30.0):
    # (1+r)**k leaves the float range near year 1,100
    return replace(baseline_scenario, b0=20.0, horizon=2000,
                   debt=constant_debt(r=0.9, d0=d0, g0=g0))


def test_debt_overflow_is_a_named_error(baseline_scenario):
    scenario = overflowing(baseline_scenario)
    with pytest.raises(DebtNotFinite, match="float range in year"):
        simulate(scenario)
    with pytest.raises(DebtNotFinite, match="float range in year 1085 "):
        debt_closed_form(scenario.debt, scenario.consumer, scenario.horizon)
    # zero drift from zero debt: the recursion and the closed form both stay
    # at 0, although (1+r)**k leaves the float range
    zero = overflowing(baseline_scenario, d0=0.0, g0=40.0)
    assert np.all(simulate(zero).debt == 0.0)
    assert np.all(debt_closed_form(zero.debt, zero.consumer, zero.horizon) == 0.0)


def test_a_budget_root_whose_consumption_overflows_is_a_solver_failure():
    # income at the float maximum: Newton stops one ulp above b_lambda, the
    # largest b whose b**2 is a float, so the step refuses that root
    consumer = make_consumer(p_a=sys.float_info.max, alpha=0.0, gamma=0.0, a=1.0)
    root = math.nextafter(fixed_point(consumer).b_lambda, math.inf)
    message = (f"budget root of 1.0*b**2 + 1.0*b = {sys.float_info.max!r} in year 1 "
               f"not reached in floating point (Newton stopped at {root!r})")
    with pytest.raises(SolverDidNotConverge, match=f"^{re.escape(message)}$"):
        consumer_step(consumer, 1.0, 1)
    scenario = Scenario(consumer=consumer, debt=constant_debt(r=0.0, d0=0.0, g0=0.0),
                        b0=1.0, horizon=3)
    with pytest.raises(SolverDidNotConverge, match=f"^{re.escape(message)}$"):
        simulate(scenario)
    assert [point.error for point in sweep(scenario, "r", [0.0, 0.05])] == [message] * 2


def test_simulate_rejects_short_explicit_schedule(baseline_scenario):
    debt = DebtParams(r=0.05, d0=100.0, schedule=ExplicitSchedule(values=(30.0, 31.0)))
    with pytest.raises(ScheduleTooShort):
        simulate(replace(baseline_scenario, debt=debt))


def test_simulate_trajectory_layout(baseline_scenario):
    traj = simulate(baseline_scenario)
    assert traj.horizon == 10
    assert len(traj.b) == len(traj.debt) == 11
    assert list(traj.years) == list(range(11))
    assert traj.b[0] == 18.0 and traj.debt[0] == 100.0
    for series in (traj.c, traj.tau, traj.delta):
        assert math.isnan(series[0]) and np.all(np.isfinite(series[1:]))


SCHEDULES = {"constant": ConstantSchedule(g0=30.0),
             "linear": LinearSchedule(g1=30.0, delta_g=1.0),
             "explicit": ExplicitSchedule(values=[30.0 + k % 3 for k in range(10)])}


@pytest.mark.parametrize("levy", [None, 4], ids=["no levy", "levy"])
@pytest.mark.parametrize("kind", SCHEDULES)
def test_simulate_stores_what_the_checked_trajectory_path_stores(baseline_scenario, kind,
                                                                 levy):
    scenario = replace(baseline_scenario, consumer=make_consumer(beta=0.2, m=levy),
                       debt=replace(baseline_scenario.debt, schedule=SCHEDULES[kind]))
    traj = simulate(scenario)
    checked = Trajectory(scenario, *traj.series.values())
    for name, values in traj.series.items():
        assert type(values) is tuple and {type(v) for v in values} == {float}
        assert [v.hex() for v in values] == [v.hex() for v in checked.series[name]]


def test_simulate_accounting_identity_along_the_path(baseline_scenario):
    traj = simulate(replace(baseline_scenario, consumer=make_consumer(beta=0.2, m=4)))
    p_a = baseline_scenario.consumer.p_a
    for k in range(1, traj.horizon + 1):
        residual = traj.b[k] - traj.b[k - 1] - (p_a - traj.tau[k]) + traj.c[k]
        assert abs(residual) < 1e-9 * p_a


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def test_general_closed_form_pure_compounding():
    debt = DebtParams(r=0.05, d0=1.0, schedule=ConstantSchedule(g0=0.0))
    out = debt_closed_form_general(debt, np.zeros(10))
    assert out == pytest.approx(1.05 ** np.arange(1, 11), rel=1e-12)


def test_general_closed_form_two_step_oracle():
    debt = DebtParams(r=0.05, d0=0.0, schedule=ConstantSchedule(g0=0.0))
    out = debt_closed_form_general(debt, [1.0, 1.0])
    assert out[1] == pytest.approx(2.05, rel=1e-12)


def test_a_closed_form_debt_that_overflows_and_returns_is_a_named_error():
    # each year is D0 plus a running sum that can fall again, so year 1 overflows
    # (1e308 + 1e308) while year 2 (1e308 + 0.5e308) is finite: every year is tested
    debt = DebtParams(r=0.0, d0=1e308, schedule=ConstantSchedule(g0=0.0))
    with pytest.raises(DebtNotFinite, match=r"float range in year 1 \(D = inf\)"):
        debt_closed_form_general(debt, [1e308, -0.5e308])


def test_general_closed_form_reproduces_baseline_recursion(baseline_scenario):
    traj = simulate(baseline_scenario)
    closed = debt_closed_form_general(baseline_scenario.debt, traj.delta[1:])
    assert max_rel_deviation(closed, traj.debt[1:]) < 1e-9


def test_general_closed_form_reproduces_arbitrary_trajectories():
    rng = np.random.default_rng(7)
    for _ in range(25):
        scenario = random_general_scenario(rng, horizon=60)
        traj = simulate(scenario)
        closed = debt_closed_form_general(scenario.debt, traj.delta[1:])
        assert max_rel_deviation(closed, traj.debt[1:]) < 1e-9


def closed_form_loop(r, d0, drifts):
    # D_k = D0 + sum_{j<=k} (1+r)**(j-1) * T_j over plain Python floats,
    # restarted from the last value every B years, (1+r)**B <= 2**256
    block = int(256 * math.log(2.0) / math.log1p(r)) if r else len(drifts)
    out, start = [], d0
    for lo in range(0, len(drifts), block):
        x = drifts[lo:lo + block]
        for j in range(len(x)):
            t = x[0] + r * start if j == 0 else t + (x[j] - x[j - 1]) * (1.0 + r) ** -j
            total = t if j == 0 else total + t * (1.0 + r) ** j
            out.append(start + total)
        start = out[-1]
    return out


@pytest.mark.parametrize("r", [0.05, 0.2])
def test_general_closed_form_equals_the_plain_loop_bit_for_bit(r):
    # every growth factor is Python's (1+r)**j, whatever the CPU; 3,000
    # years are one block at r = 0.05 (B = 3,636) and four at 0.2 (B = 973)
    rng = np.random.default_rng(11)
    drifts = rng.uniform(-20.0, 20.0, 3000).tolist()
    debt = constant_debt(r=r, d0=100.0, g0=0.0)
    assert debt_closed_form_general(debt, drifts).tolist() \
        == closed_form_loop(r, 100.0, drifts)


def test_fixed_point_closed_form_drift_cancellation():
    cons = make_consumer()
    # g0 equal to the fixed-point tax intake: debt is pure compounding
    debt = constant_debt(d0=1.0, g0=40.0)
    assert debt_closed_form(debt, cons, 10)[9] == pytest.approx(1.05 ** 10, rel=1e-12)
    debt0 = constant_debt(d0=0.0, g0=40.0)
    for k in (1, 5, 50):
        assert debt_closed_form(debt0, cons, k)[k - 1] == 0.0


def test_fixed_point_closed_form_one_year_oracle():
    assert debt_closed_form(constant_debt(), make_consumer(), 1)[0] \
        == pytest.approx(95.0, rel=1e-12)


def test_fixed_point_closed_form_matches_recursion_from_b_lambda():
    cons = make_consumer()
    debt = constant_debt()
    scenario = Scenario(consumer=cons, debt=debt,
                        b0=fixed_point(cons).b_lambda, horizon=100)
    traj = simulate(scenario)
    closed = debt_closed_form(debt, cons, 100)
    assert max_rel_deviation(closed, traj.debt[1:]) < 1e-9
    # 1,200 years of zero drift from D0 = 0, then deficits: 1.9**k leaves the
    # float range near year 1,100, the debt stays finite
    values = (40.0,) * 1200 + tuple(41.0 + j for j in range(50))
    late = DebtParams(r=0.9, d0=0.0, schedule=ExplicitSchedule(values=values))
    traj = simulate(Scenario(consumer=cons, debt=late, b0=20.0, horizon=1250))
    assert max_rel_deviation(debt_closed_form(late, cons, 1250), traj.debt[1:]) < 1e-9


def test_fixed_point_closed_form_guards():
    with pytest.raises(RegimeError):
        debt_closed_form(constant_debt(), make_consumer(beta=0.1, m=1), 1)
    # unequal rates: the intake is (0.2 + 0.25) * 100 / 1.25 = 36, so D_1 = 105 + 30 - 36
    assert debt_closed_form(constant_debt(), make_consumer(alpha=0.2), 1).tolist() == [99.0]


def test_a_regime_error_states_beta_exactly():
    consumer = make_consumer(beta=0.123456789, m=1)
    with pytest.raises(RegimeError, match=r"^the decrease condition requires beta = 0, "
                                          r"got beta = 0\.123456789$"):
        decrease_condition(consumer, constant_debt())
    with pytest.raises(RegimeError, match=r"got beta = 0\.123456789$"):
        debt_closed_form(constant_debt(), consumer, 1)


def constant_closed_form(debt, consumer, k):
    # Constant-expenditure closed form, written out independently:
    # D_k = (1+r)**k * D0 + (g0 - 2*alpha*p_a/(1+alpha)) * ((1+r)**k - 1)/r
    growth = (1.0 + debt.r) ** k
    surplus = 2.0 * consumer.alpha * consumer.p_a / (1.0 + consumer.alpha)
    return growth * debt.d0 + (debt.schedule.g0 - surplus) * (growth - 1.0) / debt.r


def test_schedule_closed_form_specializes_to_constant():
    cons = make_consumer()
    debt = constant_debt()
    for k in (1, 3, 10, 40):
        assert debt_closed_form(debt, cons, k)[k - 1] \
            == pytest.approx(constant_closed_form(debt, cons, k), rel=1e-12)


def test_schedule_closed_form_degenerate_linear_equals_constant():
    cons = make_consumer()
    linear = DebtParams(r=0.05, d0=100.0, schedule=LinearSchedule(g1=30.0, delta_g=0.0))
    for k in (1, 5, 20):
        assert debt_closed_form(linear, cons, k)[k - 1] \
            == pytest.approx(debt_closed_form(constant_debt(), cons, k)[k - 1], rel=1e-12)


def test_schedule_closed_form_three_step_hand_iteration():
    # Delta_k = g_k - 40 with g = 30, 31, 32 from D0 = 100:
    # 95 -> 90.75 -> 87.2875
    cons = make_consumer()
    linear = DebtParams(r=0.05, d0=100.0, schedule=LinearSchedule(g1=30.0, delta_g=1.0))
    assert debt_closed_form(linear, cons, 3)[2] == pytest.approx(87.2875, rel=1e-12)


def test_schedule_closed_form_guards():
    cons = make_consumer()
    short = DebtParams(r=0.05, d0=0.0, schedule=ExplicitSchedule(values=(30.0,)))
    with pytest.raises(ScheduleTooShort):
        debt_closed_form(short, cons, 2)


def test_closed_form_is_exact_at_zero_rate_and_stable_near_it():
    cons = make_consumer()
    linear = LinearSchedule(g1=30.0, delta_g=0.01)
    g = np.array([linear.value_at(k) for k in range(1, 1001)])
    at_zero = DebtParams(r=0.0, d0=100.0, schedule=linear)
    assert np.array_equal(debt_closed_form(at_zero, cons, 1000),
                          100.0 + np.cumsum(g - 40.0))
    for r in (1e-9, 1e-12):
        debt = DebtParams(r=r, d0=100.0, schedule=linear)
        traj = simulate(Scenario(consumer=cons, debt=debt,
                                 b0=fixed_point(cons).b_lambda, horizon=1000))
        assert max_rel_deviation(debt_closed_form(debt, cons, 1000),
                                 traj.debt[1:]) < 1e-9


def test_closed_form_stays_put_where_the_drift_cancels_the_interest():
    # a drift of -r*D0 every year keeps the debt at D0: every increment of
    # the closed form is exactly 0, however fast (1+r)**k grows
    cons = make_consumer()
    assert debt_closed_form(constant_debt(r=5.0, d0=1.0, g0=35.0), cons, 60)[-1] == 1.0
    debt = constant_debt(r=5.0, d0=1.0, g0=0.0)
    assert np.all(debt_closed_form_general(debt, np.full(3000, -5.0)) == 1.0)


def test_closed_form_reads_an_array_as_its_list():
    debt = constant_debt(r=0.05)
    drifts = np.random.default_rng(3).uniform(-50.0, 50.0, 3000)
    for array in (drifts, np.arange(-1500, 1500)):
        assert debt_closed_form_general(debt, array).tobytes() \
            == debt_closed_form_general(debt, array.tolist()).tobytes()


@pytest.mark.parametrize("element,problem", [
    ("1", "must be a number, got '1'"), (True, "must be a number, got True"),
    (None, "must be a number, got None"), (10 ** 400, "must be finite, got inf"),
], ids=["str", "bool", "None", "huge int"])
def test_closed_form_drifts_must_be_numbers(element, problem):
    for drifts in ([1.0, element], [1, element]):
        with pytest.raises(FieldError) as excinfo:
            debt_closed_form_general(constant_debt(), drifts)
        assert (excinfo.value.field, excinfo.value.problem) == ("drifts[1]", problem)


def test_closed_form_drifts_take_numpy_float_elements():
    drifts = np.array([1.1, -2.5, 3.0], dtype=np.float32)
    want = debt_closed_form_general(constant_debt(), drifts)
    for listed in (list(drifts), [*drifts[:2], 3]):
        assert debt_closed_form_general(constant_debt(), listed).tobytes() == want.tobytes()


def test_closed_form_and_recursion_error_against_the_condition_scale():
    # Drifts -r*D0*(1 +- eps), eps <= 1e-9, nearly cancel the interest, so the
    # problem's condition number is (1+r)**K and no formula keeps a small
    # error relative to |D_k|. The stated bound is relative to S_k, the
    # recursion run on |terms|, against an exact Fraction recursion.
    rng = np.random.default_rng(2)
    for _ in range(100):
        r, horizon = float(rng.uniform(0.5, 5.0)), int(rng.integers(20, 121))
        d0 = float(10.0 ** rng.uniform(-2.0, 4.0))
        drifts = (-r * d0 * (1.0 + rng.uniform(-1e-9, 1e-9, horizon))).tolist()
        debt = constant_debt(r=r, d0=d0, g0=0.0)
        closed = debt_closed_form_general(debt, drifts).tolist()
        recursion, exact, scale = d0, Fraction(d0), abs(d0)
        for k, drift in enumerate(drifts):
            recursion = debt_step(r, recursion, drift)
            exact = (1 + Fraction(r)) * exact + Fraction(drift)
            scale = (1.0 + r) * scale + abs(drift)
            assert abs(Fraction(recursion) - exact) <= 2.5e-16 * Fraction(scale)
            assert abs(Fraction(closed[k]) - exact) <= 1e-16 * Fraction(scale)


@settings(max_examples=200)
@given(
    alpha=st.floats(0.05, 0.5),
    p_a=st.floats(50.0, 200.0),
    a=st.floats(0.05, 0.5),
    n=st.integers(2, 6),
    r=st.floats(0.0, 0.2),
    horizon=st.integers(1, 60),
    eps=st.floats(1e-4, 0.1),
    below=st.booleans(),
)
def test_closed_form_error_off_the_fixed_point_is_first_order(
        alpha, p_a, a, n, r, horizon, eps, below):
    # b0 = b_lambda*(1 + eps): the budget gap shrinks by lambda a year and
    # moves the consumption tax by gamma*c'(b_lambda) per unit of gap, so
    # |D_rec,k - D_cf,k| <= FO_k*(1 + |eps|), FO_k being that first-order
    # tax gap compounded at 1 + r.
    eps = -eps if below else eps
    cons = make_consumer(alpha=alpha, gamma=alpha, p_a=p_a, a=a, n=n)
    b_lam = fixed_point(cons).b_lambda
    slope = alpha * n * a * b_lam ** (n - 1)
    lam = 1.0 / (1.0 + n * (1.0 + alpha) * a * b_lam ** (n - 1))
    debt = constant_debt(r=r, d0=5.0 * p_a, g0=0.4 * p_a)
    b0 = b_lam * (1.0 + eps)
    recursion = simulate(Scenario(consumer=cons, debt=debt, b0=b0, horizon=horizon)).debt
    closed = debt_closed_form(debt, cons, horizon)
    first_order = 0.0
    for k in range(1, horizon + 1):
        first_order = (1.0 + r) * first_order + slope * lam ** k * abs(b0 - b_lam)
        assert abs(recursion[k] - closed[k - 1]) <= first_order * (1.0 + abs(eps))


def test_debt_increment_is_the_condition_margin():
    # D_k - D_{k-1} = -(1+r)**(k-1) * margin_k for every schedule and year
    cons = make_consumer()
    values = tuple(30.0 + 15.0 * math.sin(k) for k in range(30))
    for r in (0.0, 0.05, 0.9):
        debt = DebtParams(r=r, d0=100.0, schedule=ExplicitSchedule(values=values))
        series = np.concatenate(([100.0], debt_closed_form(debt, cons, 30)))
        for k in range(1, 31):
            margin = decrease_condition(cons, debt, k).margin
            assert series[k] - series[k - 1] == pytest.approx(
                -(1.0 + r) ** (k - 1) * margin, rel=1e-12, abs=1e-12 * abs(series[k]))


def _tee_accumulate_thresholds(x, r, d0):
    """`analysis._thresholds` as a tee/accumulate pipeline: the reference its
    generator must match bit for bit."""
    prev, nxt = tee(x)
    first = next(nxt)
    return accumulate(((b - a) * (1.0 + r) ** -i for i, (a, b) in enumerate(zip(prev, nxt), 1)),
                      initial=first + r * d0)


@pytest.mark.parametrize("length", [1, 2, 30, 10**4])
@pytest.mark.parametrize("r", [0.0, 1e-300, 1e-3, 0.05, 0.9, 5.0])
def test_thresholds_match_the_tee_accumulate_form_bit_for_bit(r, length):
    # at r = 5, 6.0**-i underflows to 0 from i = 416 on, so the long series adds exact zeros
    rng = random.Random(length)
    x = [rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-3, 6) for _ in range(length)]
    expected = list(map(float.hex, _tee_accumulate_thresholds(x, r, 123.4)))
    assert len(expected) == length
    for series in (x, iter(x)):  # a list, as the closed form passes, or an iterator
        assert list(map(float.hex, analysis._thresholds(series, r, 123.4))) == expected


# ---------------------------------------------------------------------------
# decrease condition
# ---------------------------------------------------------------------------

def test_condition_threshold_at_reference_rates():
    # alpha = 1/4, r = 1/20: holds iff p_a > 2.5*(D0/20 + g0)
    cons = make_consumer()
    report = decrease_condition(cons, constant_debt(d0=100.0, g0=30.0))
    assert report.lhs == 40.0
    assert report.rhs == 35.0
    assert report.margin == 5.0
    assert report.holds
    assert report.k is None and report.rhs_limit is None


def test_condition_zero_debt_corollary():
    # D0 -> 0: holds iff g0 < 0.4 * p_a, strictly
    cons = make_consumer()
    for g0, expected in ((39.9, True), (40.0, False), (40.1, False)):
        report = decrease_condition(cons, constant_debt(d0=0.0, g0=g0))
        assert report.holds is expected
    at_threshold = decrease_condition(cons, constant_debt(d0=0.0, g0=40.0))
    assert at_threshold.margin == 0.0


def test_condition_boundary_margin_zero_means_constant_debt():
    cons = make_consumer()
    debt = constant_debt(d0=100.0, g0=35.0)  # lhs = 40 = g0 + r*D0 exactly
    report = decrease_condition(cons, debt)
    assert report.margin == 0.0 and not report.holds
    scenario = Scenario(consumer=cons, debt=debt,
                        b0=fixed_point(cons).b_lambda, horizon=30)
    traj = simulate(scenario)
    assert np.max(np.abs(traj.debt - 100.0)) < 1e-9 * 100.0


def test_condition_linear_k3_matches_partial_sum_oracle():
    cons = make_consumer()
    debt = DebtParams(r=0.05, d0=100.0, schedule=LinearSchedule(g1=30.0, delta_g=1.0))
    report = decrease_condition(cons, debt, k=3)
    brute = 30.0 + 0.05 * 100.0 + sum(1.0 / 1.05 ** j for j in (1, 2))
    assert report.rhs == pytest.approx(36.859410430839006, rel=1e-12)
    assert report.rhs == pytest.approx(brute, rel=1e-12)
    assert list(vars(report)) == ["lhs", "rhs", "margin", "holds", "k", "rhs_limit"]
    assert report.k == 3
    assert report.rhs_limit == pytest.approx(30.0 + 5.0 + 1.0 / 0.05, rel=1e-12)


def test_condition_degenerate_linear_matches_constant():
    cons = make_consumer()
    constant = decrease_condition(cons, constant_debt(g0=30.0))
    linear = decrease_condition(
        cons, DebtParams(r=0.05, d0=100.0, schedule=LinearSchedule(g1=30.0, delta_g=0.0)),
        k=17)
    assert (linear.lhs, linear.rhs, linear.margin, linear.holds) \
        == (constant.lhs, constant.rhs, constant.margin, constant.holds)


def test_condition_explicit_matches_linear_expansion():
    cons = make_consumer()
    g1, dg = 30.0, 1.0
    values = tuple((j - 1) * dg + g1 for j in range(1, 2001))
    for r in (0.0, 0.05, 0.9):
        linear = DebtParams(r=r, d0=100.0, schedule=LinearSchedule(g1=g1, delta_g=dg))
        explicit = DebtParams(r=r, d0=100.0, schedule=ExplicitSchedule(values=values))
        for k in (1, 2, 7, 30, 2000):
            lin = decrease_condition(cons, linear, k=k)
            exp = decrease_condition(cons, explicit, k=k)
            assert exp.rhs == pytest.approx(lin.rhs, rel=1e-12)
            assert exp.holds == lin.holds


def test_condition_guards():
    cons = make_consumer()
    # no tax: the intake is 0 and the margin is -(g0 + r*D0)
    untaxed = decrease_condition(make_consumer(alpha=0.0, gamma=0.0), constant_debt())
    assert (untaxed.lhs, untaxed.margin, untaxed.holds) == (0.0, -35.0, False)
    with pytest.raises(RegimeError):
        decrease_condition(make_consumer(beta=0.2, m=1), constant_debt())
    unequal = decrease_condition(make_consumer(gamma=0.3), constant_debt())
    assert unequal.lhs == pytest.approx(55.0 / 1.3, rel=1e-15)
    linear = DebtParams(r=0.05, d0=0.0, schedule=LinearSchedule(g1=30.0, delta_g=1.0))
    with pytest.raises(ValueError):
        decrease_condition(cons, linear)
    with pytest.raises(ValueError):
        decrease_condition(cons, linear, k=0)
    with pytest.raises(ValueError, match=r"^year k must be >= 1, got 0$"):
        decrease_condition(cons, constant_debt(), k=0)  # a given year, whatever the schedule
    short = DebtParams(r=0.05, d0=0.0, schedule=ExplicitSchedule(values=(30.0, 31.0)))
    with pytest.raises(ScheduleTooShort):
        decrease_condition(cons, short, k=3)


@pytest.mark.parametrize("k", [2.5, 2.0, True, "2"])
@pytest.mark.parametrize("kind", ["constant", "linear", "explicit"])
def test_a_year_that_is_not_an_integer_is_a_field_error(kind, k):
    schedule = {"constant": ConstantSchedule(g0=30.0),
                "linear": LinearSchedule(g1=30.0, delta_g=1.0),
                "explicit": ExplicitSchedule(values=(30.0, 31.0, 33.0))}[kind]
    debt = DebtParams(r=0.05, d0=100.0, schedule=schedule)
    base = Scenario(consumer=make_consumer(), debt=debt, b0=18.0, horizon=3)
    message = "^" + re.escape(f"k must be an integer, got {k!r}") + "$"
    with pytest.raises(FieldError, match=message):
        decrease_condition(base.consumer, debt, k)
    with pytest.raises(FieldError, match=message):
        sweep(base, "D0", [0.0, 1.0], k=k)
    assert issubclass(FieldError, ValueError)


@pytest.mark.parametrize("integer", [np.int64, np.uint8])
def test_a_numpy_integer_year_is_reported_as_a_python_int(integer):
    debt = DebtParams(r=0.05, d0=100.0, schedule=LinearSchedule(g1=30.0, delta_g=1.0))
    report = decrease_condition(make_consumer(), debt, integer(3))
    assert report == decrease_condition(make_consumer(), debt, 3)
    assert type(report.k) is int
    assert json.loads(json.dumps(vars(report)))["k"] == 3


def test_a_numpy_bool_year_is_a_field_error():
    debt = DebtParams(r=0.05, d0=100.0, schedule=LinearSchedule(g1=30.0, delta_g=1.0))
    message = "^" + re.escape(f"k must be an integer, got {np.True_!r}") + "$"
    with pytest.raises(FieldError, match=message):
        decrease_condition(make_consumer(), debt, np.True_)


def test_condition_outside_the_float_range_is_a_named_error():
    with pytest.raises(ConditionNotFinite, match=r"rhs = inf, margin = -inf"):
        decrease_condition(make_consumer(), constant_debt(r=1e300, d0=1e10))
    # a finite rhs whose margin overflows
    rich = make_consumer(alpha=0.9, gamma=0.9, p_a=1.5e308)
    debt = DebtParams(r=0.0, d0=0.0, schedule=ExplicitSchedule(values=(-1.7e308,)))
    with pytest.raises(ConditionNotFinite, match=r"rhs = -1\.7e\+308, margin = inf"):
        decrease_condition(rich, debt, k=1)
    assert issubclass(ConditionNotFinite, ModelError)


def test_fixed_point_intake_does_not_overflow():
    # 2*alpha*p_a overflows at p_a = 1.5e308, the intake itself does not
    rich = make_consumer(alpha=0.9, gamma=0.9, p_a=1.5e308)
    report = decrease_condition(rich, constant_debt())
    assert report.lhs / 1.5e308 == pytest.approx(18.0 / 19.0, rel=1e-15)
    assert report.holds


def test_condition_report_holds_iff_positive_margin():
    cons = make_consumer()
    for g0 in np.linspace(0.0, 80.0, 33):
        report = decrease_condition(cons, constant_debt(d0=0.0, g0=float(g0)))
        assert report.holds == (report.margin > 0)


@settings(max_examples=30)
@given(
    alpha=st.floats(0.05, 0.5),
    r=st.floats(0.0, 0.2),
    d0=st.floats(0.0, 1000.0),
    g0=st.floats(0.0, 100.0),
)
def test_condition_matches_debt_monotonicity(alpha, r, d0, g0):
    cons = make_consumer(alpha=alpha, gamma=alpha)
    debt = DebtParams(r=r, d0=d0, schedule=ConstantSchedule(g0=g0))
    report = decrease_condition(cons, debt)
    scenario = Scenario(consumer=cons, debt=debt,
                        b0=fixed_point(cons).b_lambda, horizon=20)
    diffs = np.diff(simulate(scenario).debt)
    if report.holds:
        assert np.all(diffs < 0)
    elif report.margin < -1e-9:
        assert np.all(diffs > -1e-9 * max(1.0, d0))


@st.composite
def fixed_point_cases(draw):
    """Any alpha in [0, 1) and gamma in [0, 5], no levy, any schedule kind and
    r >= 0, with the budget started at b_lambda; and a year k of the horizon."""
    horizon = draw(st.integers(1, 40))
    p_a = draw(st.floats(1.0, 1e3))
    consumer = make_consumer(alpha=draw(st.floats(0.0, 1.0, exclude_max=True)),
                             gamma=draw(st.floats(0.0, 5.0)), p_a=p_a,
                             a=draw(st.floats(0.01, 10.0)), n=draw(st.integers(2, 6)))
    kind = draw(st.sampled_from(["constant", "linear", "explicit"]))
    if kind == "constant":
        schedule = ConstantSchedule(g0=draw(st.floats(0.0, 2.0 * p_a)))
    elif kind == "linear":
        schedule = LinearSchedule(g1=draw(st.floats(1.0, 2.0 * p_a)),
                                  delta_g=draw(st.floats(-0.1 * p_a, 0.1 * p_a)))
    else:
        values = st.lists(st.floats(0.0, 2.0 * p_a), min_size=horizon, max_size=horizon)
        schedule = ExplicitSchedule(values=tuple(draw(values)))
    debt = DebtParams(r=draw(st.floats(0.0, 0.5)), d0=draw(st.floats(0.0, 10.0 * p_a)),
                      schedule=schedule)
    scenario = Scenario(consumer=consumer, debt=debt,
                        b0=fixed_point(consumer).b_lambda, horizon=horizon)
    return scenario, draw(st.integers(1, horizon))


@settings(max_examples=200)
@given(fixed_point_cases())
@example((Scenario(consumer=make_consumer(alpha=0.3, gamma=0.1), debt=constant_debt(),
                   b0=fixed_point(make_consumer(alpha=0.3, gamma=0.1)).b_lambda,
                   horizon=200), 1))
def test_closed_form_and_condition_match_the_recursion_at_any_rates(case):
    scenario, k = case
    consumer, debt = scenario.consumer, scenario.debt
    recursion = simulate(scenario).debt
    closed = debt_closed_form(debt, consumer, scenario.horizon)
    report = decrease_condition(consumer, debt, k)
    # within 1e-9 of S_j, the recursion run on absolute values (S_0 = D0):
    # a debt that cancels to nearly 0 leaves the rounding of D0 and the drifts
    scale = debt.d0
    for j in range(1, scenario.horizon + 1):
        scale = (1.0 + debt.r) * scale + abs(debt.schedule.value_at(j)) + report.lhs
        assert abs(closed[j - 1] - recursion[j]) <= 1e-9 * scale
    # D_k - D_{k-1} = -(1+r)**(k-1) * margin_k. The recursion also rounds at
    # |D_{k-1}|, which a threshold at r = 0 does not see, so that joins the
    # scale, discounted to the margin's year-1 units.
    step = recursion[k] - recursion[k - 1]
    rounding = abs(recursion[k - 1]) / (1.0 + debt.r) ** (k - 1)
    if abs(report.margin) > 1e-9 * (report.lhs + abs(report.rhs) + rounding):
        assert (step < 0) if report.holds else (step > 0)


# ---------------------------------------------------------------------------
# geometric identity and annuity factor
# ---------------------------------------------------------------------------

def test_condition_sum_stops_where_the_discount_underflows():
    # a linear threshold is g1 + r*D0 + deltaG*A_{k-1}, and at r = 0.05 the annuity
    # -expm1(-m*log1p(r))/r is the float 1/r from m = 768 on: years 20,000 and
    # 10**8 give rhs = rhs_limit, the limit the year-by-year sum approaches
    s = load_scenario((SCENARIOS / "linear_expenditure.yaml").read_text())
    far = decrease_condition(s.consumer, s.debt, 10**8)
    assert far.rhs == decrease_condition(s.consumer, s.debt, 20_000).rhs
    # within 11 ulp (2.5 measured) of the exact sum of year 20,000's float terms
    g = s.debt.schedule.value_at
    exact = Fraction(g(1)) + Fraction(5.0) + sum(
        Fraction((g(j + 1) - g(j)) * 1.05 ** -j) for j in range(1, 20_000))
    assert abs(Fraction(far.rhs) - exact) <= 11 * Fraction(math.ulp(far.rhs))
    assert far.k == 10**8 and far.rhs_limit == s.debt.schedule.g1 + 5.0 + 20.0
    short = replace(s.debt, schedule=ExplicitSchedule(values=(30.0, 31.0)))
    with pytest.raises(ScheduleTooShort, match="year 100000000 requested"):
        decrease_condition(s.consumer, short, 10**8)


def test_geometric_identity_through_k200():
    # With g1 = delta_g = 1 and D0 = 0, the threshold at year k+1 is 1 plus
    # the annuity factor sum_{j=1..k} (1+r)**-j.
    cons = make_consumer()
    for r in (0.001, 0.02, 0.05, 0.19):
        growth = 1.0 + r
        debt = DebtParams(r=r, d0=0.0, schedule=LinearSchedule(g1=1.0, delta_g=1.0))
        brute = 0.0
        for k in range(1, 201):
            brute += growth ** -k
            closed = (growth ** k - 1.0) / (r * growth ** k)
            assert closed == pytest.approx(brute, rel=1e-12)
            annuity = decrease_condition(cons, debt, k=k + 1).rhs - 1.0
            assert annuity == pytest.approx(brute, rel=1e-12)


U, TINY = Fraction(1, 2**53), Fraction(1, 2**1074)  # unit roundoff, smallest subnormal


@given(g1=positive, delta=signed, r=nonnegative, d0=nonnegative, k=st.integers(1, 30))
@example(g1=1.0, delta=1.0, r=1e-16, d0=0.0, k=30)  # a year-by-year sum is 13.1*u*S off
@example(g1=5e-324, delta=0.0, r=0.3, d0=1e-323, k=1)  # r*D0 rounds in the subnormals
@example(g1=5e-324, delta=0.4641588833612779, r=sys.float_info.max, d0=0.0, k=20)  # so does A
def test_a_linear_threshold_is_within_4u_of_its_exact_value(g1, delta, r, d0, k):
    # S = |g1| + r*D0 + |deltaG|*A_{k-1} bounds every term and partial sum. A result in the
    # subnormals is off by up to TINY/2 absolutely: r*D0, deltaG*A, and A, |deltaG| times over
    debt = DebtParams(r=r, d0=d0, schedule=LinearSchedule(g1=g1, delta_g=delta))
    annuity = sum((1 / (1 + Fraction(r))) ** i for i in range(1, k))
    g1, delta, r, d0 = map(Fraction, (g1, delta, r, d0))
    exact, scale = g1 + r * d0 + delta * annuity, g1 + r * d0 + abs(delta) * annuity
    try:
        rhs = decrease_condition(make_consumer(), debt, k).rhs
    except ConditionNotFinite:  # only where S, and so a term or T_k, leaves the floats
        assert (1 + 4 * U) * scale >= sys.float_info.max
        return
    assert abs(Fraction(rhs) - exact) <= 4 * U * scale + (abs(delta) + 2) * TINY


def test_a_linear_condition_reads_no_year_of_its_schedule(monkeypatch):
    # T_k in annuity form: year 10**12 at r = 0 costs what year 2 does
    calls, value_at = [], LinearSchedule.value_at
    monkeypatch.setattr(LinearSchedule, "value_at",
                        lambda self, k: calls.append(k) or value_at(self, k))
    debt = DebtParams(r=0.0, d0=100.0, schedule=LinearSchedule(g1=30.0, delta_g=1.0))
    assert decrease_condition(make_consumer(), debt, 10**12).rhs == 30.0 + (10**12 - 1)
    assert calls == []
    assert debt.schedule.value_at(3) == 32.0 and calls == [3]  # the counter counts


def test_annuity_factor_extends_continuously_to_zero_rate():
    # The annuity factor of year k is k - 1 at r = 0, and 0 in year 1 at any r.
    cons = make_consumer()
    linear = LinearSchedule(g1=30.0, delta_g=1.0)
    at_zero = DebtParams(r=0.0, d0=100.0, schedule=linear)
    assert decrease_condition(cons, at_zero, k=8).rhs == 37.0
    at_five = DebtParams(r=0.05, d0=100.0, schedule=linear)
    assert decrease_condition(cons, at_five, k=1).rhs == 35.0


# ---------------------------------------------------------------------------
# fixed-point stability
# ---------------------------------------------------------------------------

@settings(max_examples=30)
@given(
    alpha=st.floats(0.0, 0.5),
    gamma=st.floats(0.0, 0.5),
    a=st.floats(0.05, 0.5),
    p_a=st.floats(50.0, 200.0),
    n=st.integers(2, 4),
    offset=st.floats(0.5, 1.5),
)
def test_budget_converges_at_the_contraction_rate(alpha, gamma, a, p_a, n, offset):
    # The per-step error ratio tends to the map's slope at the fixed point,
    # 1/(n*(1+gamma)*a*b_lambda^(n-1) + 1).  Iterates above b_lambda stay
    # above and satisfy that bound outright; iterates below approach the
    # ratio from above, so there only strict contraction can be asserted.
    cons = make_consumer(alpha=alpha, gamma=gamma, a=a, p_a=p_a, n=n)
    b_lam = fixed_point(cons).b_lambda
    bound = 1.0 / (n * (1.0 + gamma) * a * b_lam ** (n - 1) + 1.0) + 1e-6
    b = offset * b_lam
    for _ in range(12):
        b_next = consumer_step(cons, b, 1)
        gap, gap_next = abs(b - b_lam), abs(b_next - b_lam)
        if gap < 1e-4 * b_lam:
            break  # below here the step-solver tolerance dominates the ratio
        assert gap_next < gap
        if b > b_lam:
            assert gap_next <= bound * gap
        b = b_next
    assert abs(consumer_step(cons, b, 1) - b_lam) < 1e-4 * b_lam


# ---------------------------------------------------------------------------
# budget path: solving stops once a levy-free year maps b to itself
# ---------------------------------------------------------------------------

def reference_budget_path(consumer, b0, horizon):
    """The plain loop: every year solved, no stationary exit."""
    b, c, tau = [b0], [math.nan], [math.nan]
    for k in range(1, horizon + 1):
        b.append(consumer_step(consumer, b[-1], k))
        c.append(consumer.law.consumption(b[-1]))
        tau.append(tax(consumer, b[-1], c[-1], k))
    return np.array(b), np.array(c), np.array(tau)


def assert_bitwise_equal_paths(got, want):
    for series, expected in zip(got, want):
        series = np.array(series)  # `_budget_path` returns lists; floats give float64
        assert series.dtype == expected.dtype
        assert series.tobytes() == expected.tobytes()


@st.composite
def budget_cases(draw):
    horizon = draw(st.integers(1, 300))
    consumer = ConsumerParams(
        p_a=draw(st.floats(1e-3, 1e6)), alpha=draw(st.floats(0.0, 0.99)),
        beta=draw(st.floats(0.0, 0.99)), gamma=draw(st.floats(0.0, 10.0)),
        law=ConsumptionLaw(a=10.0 ** draw(st.floats(-12.0, 3.0)),
                           n=draw(st.integers(2, 20))),
        # a levy year early in, inside, at the end of, or after the horizon
        m=draw(st.none() | st.integers(1, horizon + 50)))
    b_lambda = fixed_point(consumer).b_lambda
    b0 = b_lambda * draw(st.just(1.0) | st.floats(1e-3, 1e3))
    return consumer, b0, horizon


@settings(max_examples=300)
@given(budget_cases())
@example((make_consumer(), 20.0, 300))
@example((make_consumer(), 18.0, 300))
@example((make_consumer(beta=0.3, m=150), 20.0, 300))
@example((make_consumer(beta=0.3, m=300), 20.0, 300))
@example((make_consumer(beta=0.3, m=301), 20.0, 300))
def test_budget_path_equals_the_plain_loop(case):
    consumer, b0, horizon = case
    try:
        want = reference_budget_path(consumer, b0, horizon)
    except ModelError as exc:
        with pytest.raises(type(exc)) as raised:
            _budget_path(consumer, b0, horizon)
        assert str(raised.value) == str(exc)
        return
    assert_bitwise_equal_paths(_budget_path(consumer, b0, horizon), want)


def reference_positive_root(coeff, n, slope, rhs, k):
    """The plain Newton loop of year k: every term of the step formed in every
    step, and a stop returned only at a b > 0 whose coeff*b**n is a float."""
    x = min(rhs / slope, (rhs / coeff) ** (1 / n))
    head = f"budget root of {coeff!r}*b**{n} + {slope!r}*b = {rhs!r} in year {k} " \
        "not reached in floating point"
    try:
        for _ in range(_MAX_ITER):
            x_new = x - (coeff * x ** n + slope * x - rhs) \
                / (n * coeff * x ** (n - 1) + slope)
            x, x_prev = x_new, x
            if not abs(x - x_prev) > _STEP_RTOL * abs(x):  # a NaN step stops
                if x > 0.0 and math.isfinite(coeff * x ** n):
                    return x
                raise SolverDidNotConverge(f"{head} (Newton stopped at {x!r})")
    except OverflowError:
        raise SolverDidNotConverge(f"{head} (Newton stopped at {x!r})") from None
    raise SolverDidNotConverge(f"{head} within {_MAX_ITER} Newton steps (last iterate {x!r})")


def reference_consumer_step(params, b_prev, k):
    rhs = (1.0 - params.alpha) * params.p_a + b_prev  # > 0 over budget_cases
    coeff = (1.0 + params.gamma) * params.law.a
    slope = 1.0 + params.wealth_tax_rate(k)
    return reference_positive_root(coeff, params.law.n, slope, rhs, k)


@settings(max_examples=500)
@given(budget_cases(), st.booleans())
# n beyond the float range: n * coeff overflows, as x ** n does
@example((make_consumer(n=10 ** 400), 18.0, 1), False)
@example((make_consumer(beta=0.3, m=1, n=10 ** 400), 18.0, 1), True)
# x ** n overflows on the way down to the root
@example((make_consumer(alpha=0.0, gamma=0.0, a=5e-324, n=40), 1e12, 1), False)
def test_consumer_step_equals_the_plain_newton_loop(case, in_levy_year):
    consumer, b_prev, horizon = case
    m = consumer.m
    k = horizon if m is None else m if in_levy_year else m + 1
    try:
        want = reference_consumer_step(consumer, b_prev, k)
    except ModelError as exc:
        with pytest.raises(ModelError) as raised:
            consumer_step(consumer, b_prev, k)
        assert type(raised.value) is type(exc) and str(raised.value) == str(exc)
        return
    assert consumer_step(consumer, b_prev, k).hex() == want.hex()


ALMOST_ONE = 1.0 - 2.0 ** -53

# (consumer, b0, the year whose budget root leaves the positive floats)
ROOTS_OUT_OF_RANGE = {
    # coeff*x**n overflows to inf as a float product: the step is -inf, which
    # passed the stop test, though the root is about 1.34e54
    "overflowed step": (make_consumer(p_a=1.0, alpha=0.0, gamma=0.0, a=1e200, n=2),
                        1.7976931348623157e308, 1),
    # (1-alpha)*p_a is 0.0 and the budget holds at 5e-324 until the levy year,
    # whose root is below the float range: the step lands on 0.0
    "root below the floats": (make_consumer(p_a=2.2250738585072014e-308, alpha=ALMOST_ONE,
                                            beta=ALMOST_ONE, gamma=ALMOST_ONE,
                                            a=ALMOST_ONE, n=5, m=24), 5e-324, 24),
    # (1+gamma)*a overflows to inf: Newton starts at 0.0, and its first step is NaN
    "coefficient past the floats": (make_consumer(gamma=1e300, a=1e300, n=17), 18.0, 1),
}


@pytest.mark.parametrize("consumer,b0,year", ROOTS_OUT_OF_RANGE.values(),
                         ids=ROOTS_OUT_OF_RANGE.keys())
def test_a_budget_root_out_of_the_positive_floats_is_a_named_error(consumer, b0, year):
    with pytest.raises(SolverDidNotConverge, match=rf" in year {year} not reached in "
                       r"floating point \(Newton stopped at [^ ]+\)$") as raised:
        consumer_step(consumer, b0, year)
    message = str(raised.value)
    scenario = Scenario(consumer=consumer, debt=constant_debt(), b0=b0, horizon=year)
    with pytest.raises(SolverDidNotConverge) as raised:  # in the year it occurs, not a year later
        simulate(scenario)
    assert str(raised.value) == message
    points = sweep(scenario, "D0", [0.0, 1.0])  # a levy year adds the condition's RegimeError
    assert [point.error.split("; ")[-1] for point in points] == [message] * 2
    if year > 1:
        assert set(simulate(replace(scenario, horizon=year - 1)).series["b"]) == {b0}


def counting_steps(monkeypatch):
    years = []

    def counted(params, b_prev, k):
        years.append(k)
        return consumer_step(params, b_prev, k)

    monkeypatch.setattr(analysis, "consumer_step", counted)
    return years


def test_simulate_from_the_fixed_point_stops_solving(monkeypatch):
    cons = make_consumer()
    scenario = Scenario(consumer=cons, debt=constant_debt(r=0.0),
                        b0=fixed_point(cons).b_lambda, horizon=10_000)
    years = counting_steps(monkeypatch)
    traj = simulate(scenario)
    assert 1 <= len(years) <= 3
    assert len(traj.b) == 10_001 and np.all(traj.b[len(years):] == traj.b[-1])
    assert traj.debt[-1] == pytest.approx(100.0 - 10_000 * (traj.tau[-1] - 30.0), rel=1e-12)


def test_a_late_levy_still_fires_after_a_stationary_stretch(monkeypatch):
    cons = make_consumer(beta=0.3, m=200)
    b0, horizon = fixed_point(cons).b_lambda, 1_000
    want = reference_budget_path(cons, b0, horizon)
    years = counting_steps(monkeypatch)
    got = _budget_path(cons, b0, horizon)
    assert_bitwise_equal_paths(got, want)
    b = got[0]
    assert b[199] == b[198]  # stationary long before the levy
    assert b[200] != b[199] and got[2][200] != got[2][199]
    assert 200 in years and len(years) < horizon  # solved through m, then stationary again


@pytest.mark.parametrize("axis,grid", [("r", np.linspace(0.0, 0.2, 20)),
                                       ("D0", np.linspace(0.0, 500.0, 20)),
                                       ("g0", np.linspace(10.0, 50.0, 20))])
def test_a_sweep_that_keeps_the_consumer_solves_one_budget_path(baseline_scenario,
                                                               monkeypatch, axis, grid):
    years = counting_steps(monkeypatch)
    simulate(baseline_scenario)
    once = len(years)
    years.clear()
    sweep(baseline_scenario, axis, grid)
    assert len(years) == once > 1


@pytest.mark.parametrize("axis,grid", [("D0", np.linspace(0.0, 500.0, 20)),
                                       ("r", np.linspace(0.0, 0.2, 20))])
def test_a_sweep_that_keeps_the_schedule_lists_its_years_once(baseline_scenario,
                                                              monkeypatch, axis, grid):
    base = replace(baseline_scenario, debt=DebtParams(
        r=0.05, d0=100.0, schedule=ExplicitSchedule(values=tuple(range(30, 40)))))
    calls, expenditure = [], analysis._expenditure

    def counted(schedule, horizon):
        calls.append(schedule)
        return expenditure(schedule, horizon)

    monkeypatch.setattr(analysis, "_expenditure", counted)
    points = sweep(base, axis, grid, k=3)
    assert calls == [base.debt.schedule]
    assert all(p.error is None for p in points)


def test_a_levy_base_refuses_the_condition_without_calling_it(data_dir, monkeypatch):
    base = load_scenario((data_dir / "wealth_tax.yaml").read_bytes())
    calls = []
    monkeypatch.setattr(analysis, "decrease_condition",
                        lambda *args: calls.append(args) or decrease_condition(*args))
    points = sweep(base, "D0", np.linspace(0.0, 500.0, 20))
    assert calls == []
    assert [p.error for p in points] == ["the decrease condition requires beta = 0, "
                                         "got beta = 0.1"] * 20
    assert all(p.report is None and p.final_debt is not None for p in points)


def traced_peak(run) -> int:
    """The peak of the memory Python allocates while ``run()`` runs, in bytes."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_sweep_holds_one_budget_path(baseline_scenario):
    # every point of a consumer axis has its own path; a sweep that kept them all
    # would need 40 paths of 3 * 5,001 entries here
    base = replace(baseline_scenario, horizon=5_000, debt=constant_debt(r=0.0))
    sweep(base, "alpha", [0.1])  # anything allocated once is allocated before tracing
    one = traced_peak(lambda: sweep(base, "alpha", [0.1]))
    forty = traced_peak(lambda: sweep(base, "alpha", np.linspace(0.1, 0.4, 40)))
    assert forty < 3 * one


def test_an_alpha_sweep_solves_one_budget_path_per_run_of_equal_values(baseline_scenario,
                                                                      monkeypatch):
    grid = [0.1, 0.1, 0.25, 0.1]
    years = counting_steps(monkeypatch)
    for alpha in (0.1, 0.25, 0.1):
        simulate(replace_with_value(baseline_scenario, "alpha", alpha))
    want = len(years)
    years.clear()
    sweep(baseline_scenario, "alpha", grid)
    assert len(years) == want > 3


@pytest.mark.parametrize("axis", SWEEP_AXES)
def test_a_sweep_builds_no_scenario(baseline_scenario, monkeypatch, axis):
    # no axis moves b0 or the horizon, so the base's checks of them stand for every point
    built = []
    post_init = Scenario.__post_init__

    def counted(scenario):
        built.append(scenario)
        post_init(scenario)

    monkeypatch.setattr(Scenario, "__post_init__", counted)
    points = sweep(baseline_scenario, axis, [0.1, 0.2, -1.0])
    assert [p.report is not None and p.final_debt is not None for p in points] \
        == [True, True, False]
    assert built == []


# ---------------------------------------------------------------------------
# schedule consistency
# ---------------------------------------------------------------------------

def test_linear_and_expanded_explicit_trajectories_are_bitwise_equal():
    cons = make_consumer()
    g1, dg, horizon = 30.0, 0.7, 25
    linear = Scenario(consumer=cons,
                      debt=DebtParams(r=0.05, d0=100.0,
                                      schedule=LinearSchedule(g1=g1, delta_g=dg)),
                      b0=18.0, horizon=horizon)
    values = tuple((k - 1) * dg + g1 for k in range(1, horizon + 1))
    explicit = replace(linear,
                       debt=DebtParams(r=0.05, d0=100.0,
                                       schedule=ExplicitSchedule(values=values)))
    t_lin, t_exp = simulate(linear), simulate(explicit)
    assert np.array_equal(t_lin.b, t_exp.b)
    assert np.array_equal(t_lin.delta[1:], t_exp.delta[1:])
    assert np.array_equal(t_lin.debt, t_exp.debt)


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_sweep_g0_verdicts(baseline_scenario):
    points = sweep(baseline_scenario, "g0", [30.0, 40.0, 50.0])
    assert [p.value for p in points] == [30.0, 40.0, 50.0]
    assert [p.report.holds for p in points] == [True, False, False]
    assert all(p.error is None and p.final_debt is not None for p in points)


def test_sweep_empty_grid(baseline_scenario):
    assert sweep(baseline_scenario, "g0", []) == []


def test_sweep_single_point_matches_direct_condition(baseline_scenario):
    point, = sweep(baseline_scenario, "g0", [30.0])
    direct = decrease_condition(baseline_scenario.consumer, baseline_scenario.debt)
    assert point.report == direct
    assert point.final_debt == pytest.approx(simulate(baseline_scenario).debt[-1], rel=1e-12)


def test_sweep_alpha_moves_both_rates(baseline_scenario):
    point, = sweep(baseline_scenario, "alpha", [0.4])
    # lhs = 2*0.4*100/1.4 under the joint alpha = gamma move
    assert point.report.lhs == pytest.approx(2 * 0.4 * 100 / 1.4, rel=1e-12)
    assert point.error is None


def test_sweep_captures_per_point_errors(baseline_scenario):
    points = sweep(baseline_scenario, "alpha", [0.0, 0.25, 1.5])
    assert points[0].report.lhs == 0.0 and points[0].error is None  # no tax, no intake
    assert points[0].final_debt is not None
    assert points[1].error is None
    assert points[2].report is None and points[2].final_debt is None


def test_sweep_reports_debt_overflow_per_point(baseline_scenario):
    low, high = sweep(replace(baseline_scenario, horizon=2000), "r", [0.05, 0.9])
    assert low.error is None and math.isfinite(low.final_debt)
    assert high.final_debt is None and "float range" in high.error
    assert high.report is not None


def test_sweep_rejects_structural_misuse(baseline_scenario):
    with pytest.raises(ValueError):
        sweep(baseline_scenario, "bogus", [1.0])
    linear = replace(baseline_scenario,
                     debt=DebtParams(r=0.05, d0=100.0,
                                     schedule=LinearSchedule(g1=30.0, delta_g=1.0)))
    with pytest.raises(ValueError):
        sweep(linear, "g0", [1.0])
    for k in (None, 0):
        with pytest.raises(ValueError, match="year k"):
            sweep(linear, "D0", [1.0], k=k)


@pytest.mark.parametrize("grid,field,problem", [
    ([0.1, None], "grid[1]", "must be a number, got None"),
    (["abc"], "grid[0]", "must be a number, got 'abc'"),
    ([0.05, "0.1"], "grid[1]", "must be a number, got '0.1'"),
    ([True], "grid[0]", "must be a number, got True"),
    ([0.05, np.True_], "grid[1]", f"must be a number, got {np.True_!r}"),
    ([Fraction(1, 10)], "grid[0]", "must be a number, got Fraction(1, 10)"),
    ([0.05, 10 ** 400], "grid[1]", "must be finite, got inf"),
    ([-10 ** 400], "grid[0]", "must be finite, got -inf"),
    ("0.1", "grid", "must be a sequence of numbers, got str"),
    (5, "grid", "must be a sequence of numbers, got int"),
    (np.array(0.05), "grid", "must be a sequence of numbers, got float"),
    ({0.1, 0.2}, "grid", "must be a sequence of numbers, got set"),
    ({0.1: 1.0}, "grid", "must be a sequence of numbers, got dict"),
    (bytearray(b"12"), "grid", "must be a sequence of numbers, got bytearray"),
    (memoryview(b"\x00\x01"), "grid", "must be a sequence of numbers, got memoryview"),
], ids=["None", "str", "numeric-str", "bool", "numpy-bool", "Fraction", "+huge", "-huge",
        "text", "int", "0-d-array", "set", "mapping", "bytearray", "memoryview"])
def test_a_grid_element_that_is_not_a_number_stops_the_sweep_up_front(
        baseline_scenario, monkeypatch, grid, field, problem):
    years = counting_steps(monkeypatch)
    for axis in SWEEP_AXES:
        with pytest.raises(FieldError) as excinfo:
            sweep(baseline_scenario, axis, grid)
        assert (excinfo.value.field, excinfo.value.problem) == (field, problem)
    assert years == []  # no point ran


def test_a_non_finite_grid_value_fails_only_its_point(baseline_scenario):
    grid = [math.nan, 0.05, math.inf, np.float32("-inf")]
    points = sweep(baseline_scenario, "r", grid)
    assert [type(p.value) for p in points] == [float] * 4
    assert math.isnan(points[0].value) and points[0].error == "r must be finite, got nan"
    assert points[1].error is None and points[1].final_debt is not None
    assert points[2].error == "r must be finite, got inf"
    assert points[3].error == "r must be finite, got -inf"


@pytest.mark.parametrize("grid", [[np.int64(0), np.float32(0.25), 1], np.array([0, 0.25, 1]),
                                  (v for v in (0, 0.25, 1.0))], ids=["scalars", "array", "iter"])
def test_numpy_and_int_grid_values_sweep_as_floats(baseline_scenario, grid):
    points = sweep(baseline_scenario, "r", grid)
    assert [type(p.value) for p in points] == [float] * 3
    assert points == sweep(baseline_scenario, "r", [0.0, 0.25, 1.0])


def replace_with_value(base, axis, value):
    """The scenario whose consumer and debt `_AXES[axis]` must return, through
    `dataclasses.replace`."""
    if axis == "alpha":
        return replace(base, consumer=replace(base.consumer, alpha=value, gamma=value))
    if axis == "p_a":
        return replace(base, consumer=replace(base.consumer, p_a=value))
    if axis == "r":
        return replace(base, debt=replace(base.debt, r=value))
    if axis == "D0":
        return replace(base, debt=replace(base.debt, d0=value))
    return replace(base, debt=replace(base.debt, schedule=ConstantSchedule(g0=value)))


# every field differs from every other, so a dropped or swapped one shows
WITH_VALUE_SCHEDULES = {"constant": ConstantSchedule(g0=30.0),
                        "linear": LinearSchedule(g1=31.0, delta_g=-0.5),
                        "explicit": ExplicitSchedule(values=(32.0, 33.5, 29.0))}
WITH_VALUE_GRID = [0.0, -0.0, 5e-324, 0.125, 0.9, 1.0, 1.5, 60.0, 1e308, -1.0,
                   math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("m", [None, 4])
@pytest.mark.parametrize("kind", sorted(WITH_VALUE_SCHEDULES))
@pytest.mark.parametrize("axis", SWEEP_AXES)
def test_with_value_builds_what_replace_builds(axis, kind, m):
    base = Scenario(consumer=make_consumer(p_a=100.0, alpha=0.3, beta=0.2, gamma=0.1,
                                           a=0.15, n=3, m=m),
                    debt=DebtParams(r=0.05, d0=120.0, schedule=WITH_VALUE_SCHEDULES[kind]),
                    b0=18.0, horizon=12)
    for value in WITH_VALUE_GRID:
        try:
            want = replace_with_value(base, axis, value)
        except (ModelError, ValueError) as exc:
            with pytest.raises((ModelError, ValueError)) as raised:
                _AXES[axis](base.consumer, base.debt, value)
            assert type(raised.value) is type(exc) and str(raised.value) == str(exc)
            continue
        got, want = _AXES[axis](base.consumer, base.debt, value), (want.consumer, want.debt)
        assert got == want and repr(got) == repr(want)  # repr tells -0.0 from 0.0


def per_point_oracle(base, axis, value, k):
    """A sweep point computed on its own: `decrease_condition` and `simulate`
    on the moved scenario, errors joined in that order."""
    try:
        scenario = replace_with_value(base, axis, value)
    except (ModelError, ValueError) as exc:
        return None, None, str(exc)
    report = final_debt = None
    errors = []
    try:
        report = decrease_condition(scenario.consumer, scenario.debt, k)
    except ModelError as exc:
        errors.append(str(exc))
    try:
        final_debt = float(simulate(scenario).debt[-1])
    except ModelError as exc:
        errors.append(str(exc))
    return report, final_debt, "; ".join(errors) or None


def assert_sweep_matches_simulate(base, axis, grid, k):
    points = sweep(base, axis, grid, k=k)
    assert [p.value for p in points] == [float(v) for v in grid]
    for point in points:
        report, final_debt, error = per_point_oracle(base, axis, point.value, k)
        assert point.final_debt == final_debt  # bit for bit, None on failure
        assert point.error == error
        assert point.report == report
    return points


def test_sweep_names_the_overflow_year_in_either_direction(baseline_scenario):
    # the tax bill drives the debt to -inf from D0 = 0 and interest to +inf from D0 = 100
    base = replace(baseline_scenario, horizon=2000, debt=constant_debt(r=0.9, g0=0.0))
    low, high = assert_sweep_matches_simulate(base, "D0", [0.0, 100.0], k=None)
    assert "(D = -inf)" in low.error and "(D = inf)" in high.error
    assert low.final_debt is None and high.final_debt is None


# a consumer whose very first budget step leaves the float range
UNSOLVABLE = make_consumer(alpha=0.0, gamma=0.0, a=5e-324, n=40)

AXIS_VALUES = {
    "alpha": st.sampled_from([0.0, 0.1, 0.25, 0.6, 0.99, 1.5]),
    "g0": st.sampled_from([0.0, 10.0, 30.0, 90.0, -1.0]),
    "r": st.sampled_from([0.0, 0.01, 0.05, 0.9, -0.5]),
    "D0": st.sampled_from([0.0, 1.0, 100.0, 1e6, -5.0]),
    "p_a": st.sampled_from([0.0, 1.0, 60.0, 100.0, 1e4]),
}


@st.composite
def sweep_cases(draw):
    """A general base (alpha != gamma, a levy year inside the horizon, any
    schedule kind, explicit ones sometimes too short, now and then a budget
    that cannot be solved, now and then no b0, so each point starts at its
    own b_lambda), an axis and a grid with repeated and invalid values."""
    horizon = draw(st.integers(1, 25))
    unsolvable = draw(st.integers(0, 4)) == 0
    consumer = UNSOLVABLE if unsolvable else make_consumer(
        alpha=draw(st.floats(0.0, 0.6)), gamma=draw(st.floats(0.0, 0.8)),
        beta=draw(st.floats(0.0, 0.5)), p_a=draw(st.floats(50.0, 200.0)),
        a=draw(st.floats(0.01, 0.5)), n=draw(st.integers(2, 4)),
        m=draw(st.integers(1, horizon)))
    axis = draw(st.sampled_from(SWEEP_AXES))
    kind = "constant" if axis == "g0" else draw(
        st.sampled_from(["constant", "linear", "explicit"]))
    if kind == "constant":
        schedule = ConstantSchedule(g0=draw(st.floats(0.0, 100.0)))
    elif kind == "linear":
        schedule = LinearSchedule(g1=draw(st.floats(1.0, 100.0)),
                                  delta_g=draw(st.floats(-2.0, 2.0)))
    else:
        values = draw(st.lists(st.floats(0.0, 100.0), min_size=1, max_size=horizon + 2))
        schedule = ExplicitSchedule(values=tuple(values))
    debt = DebtParams(r=draw(st.floats(0.0, 0.2)), d0=draw(st.floats(0.0, 1e4)),
                      schedule=schedule)
    base = Scenario(consumer=consumer, debt=debt, horizon=horizon, b0=draw(
        st.none() | (st.just(1e12) if unsolvable else st.floats(1.0, 100.0))))
    grid = draw(st.lists(AXIS_VALUES[axis], min_size=1, max_size=8))
    return base, axis, grid, draw(st.integers(1, horizon + 3))


@given(sweep_cases())
def test_sweep_equals_per_point_simulate(case):
    assert_sweep_matches_simulate(*case)


@pytest.mark.parametrize("b0", [18.0, None])
@pytest.mark.parametrize("horizon", [12, 2000])
@pytest.mark.parametrize("axis", SWEEP_AXES)
def test_sweep_equals_per_point_simulate_on_failing_points(axis, horizon, b0):
    base = Scenario(consumer=make_consumer(alpha=0.3, gamma=0.1, m=2),
                    debt=constant_debt(), b0=b0, horizon=horizon)
    grid = {"alpha": [0.0, 0.25, 0.0, 1.5], "g0": [30.0, -1.0, 30.0],
            "r": [0.05, 0.9, 0.05], "D0": [0.0, 1e300, 0.0],
            "p_a": [100.0, 0.0, 100.0]}[axis]
    points = assert_sweep_matches_simulate(base, axis, grid, k=None)
    if axis == "alpha":
        assert points[0].report.lhs == 0.0 and points[0].error is None
        assert "alpha must be in [0, 1)" in points[3].error
    if axis == "r" and horizon == 2000:
        assert "float range" in points[1].error
        assert points[1].final_debt is None and points[2].final_debt is not None


def test_a_sweep_point_without_b0_starts_at_its_own_fixed_point():
    # at p_a = 1e-300 this consumer's b_lambda underflows to 0; at 100 it is 7.7e-150
    base = Scenario(consumer=make_consumer(a=1e300), debt=constant_debt(), horizon=10)
    low, high = assert_sweep_matches_simulate(base, "p_a", [1e-300, 100.0], k=None)
    assert low.error == "b_lambda must be finite and > 0, got 0.0"
    assert low.final_debt is None and low.report is not None
    assert high.error is None and format(high.final_debt, ".12g") == "37.1105373223"


def test_a_short_schedule_is_reported_before_an_out_of_range_fixed_point():
    scenario = Scenario(consumer=UNSOLVABLE, horizon=2,  # its b_lambda overflows
                        debt=DebtParams(r=0.05, d0=100.0, schedule=ExplicitSchedule((30.0,))))
    with pytest.raises(FixedPointOutOfRange):
        simulate(replace(scenario, debt=constant_debt()))
    with pytest.raises(ScheduleTooShort, match="year 2 requested"):
        simulate(scenario)


@pytest.mark.parametrize("values", [(30.0,) * 20, (30.0, 31.0, 33.0)])
@pytest.mark.parametrize("axis", ["r", "D0"])
def test_sweep_reports_a_short_schedule_before_a_solver_failure(axis, values):
    base = Scenario(consumer=UNSOLVABLE,
                    debt=DebtParams(r=0.05, d0=100.0, schedule=ExplicitSchedule(values)),
                    b0=1e12, horizon=20)
    points = assert_sweep_matches_simulate(base, axis, [0.0, 0.05, 0.0], k=3)
    short = len(values) < base.horizon
    for point in points:
        assert point.final_debt is None
        assert ("explicit schedule has 3 value(s), year 4 requested" in point.error) == short
        assert ("budget root" in point.error) != short


# ---------------------------------------------------------------------------
# series comparison helper
# ---------------------------------------------------------------------------

def test_max_rel_deviation_scales_by_peak():
    assert max_rel_deviation([0.0, 100.0], [0.0, 100.0]) == 0.0
    assert max_rel_deviation([0.0, 100.0], [1.0, 100.0]) == pytest.approx(0.01)
    assert max_rel_deviation([], []) == 0.0
    assert max_rel_deviation([0.0], [0.0]) == 0.0
    with pytest.raises(ValueError):
        max_rel_deviation([1.0], [1.0, 2.0])


def numpy_max_rel_deviation(a, b) -> float:
    """The array formula: the largest |a - b| over the largest |a| or |b|,
    with every NaN propagated."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    with np.errstate(all="ignore"):
        scale = np.maximum(np.max(np.abs(a)), np.max(np.abs(b)))
        return 0.0 if scale == 0.0 else float(np.max(np.abs(a - b)) / scale)


def random_series(rng, length: int) -> list:
    """Finite floats over the whole range: ordinary, huge (so a gap can
    overflow to inf), subnormal, and signed zeros."""
    draws = (lambda: rng.uniform(-1e3, 1e3), lambda: rng.uniform(-1.0, 1.0) * 1.7e308,
             lambda: rng.uniform(-1.0, 1.0) * 5e-324 * 2 ** 20, lambda: rng.choice((0.0, -0.0)))
    return [rng.choice(draws)() for _ in range(length)]


def test_max_rel_deviation_matches_the_array_formula_bit_for_bit():
    rng = random.Random(14)
    for _ in range(1500):
        length = rng.randint(1, 12)
        a, b = random_series(rng, length), random_series(rng, length)
        if rng.random() < 0.3:  # nearby series, as a closed form and a recursion are
            b = [x * (1.0 + rng.uniform(-1e-12, 1e-12)) for x in a]
        got, want = max_rel_deviation(a, b), numpy_max_rel_deviation(a, b)
        assert struct.pack("<d", got) == struct.pack("<d", want), (a, b)
        assert max_rel_deviation(np.array(a), np.array(b)) == got
    assert max_rel_deviation([1.7e308], [-1.7e308]) == math.inf  # the gap overflows


NAN, INF = math.nan, math.inf


@pytest.mark.parametrize("pair", [(NAN, None), (None, NAN), (NAN, NAN), (INF, INF),
                                  (-INF, -INF), (INF, None), (None, -INF)],
                         ids=["nan in a", "nan in b", "nan in both", "inf - inf",
                              "-inf - -inf", "inf in a", "-inf in b"])
def test_max_rel_deviation_is_nan_wherever_a_nan_or_an_infinity_sits(pair):
    rng = random.Random(repr(pair))
    for _ in range(200):
        length = rng.randint(1, 8)
        a, b = random_series(rng, length), random_series(rng, length)
        if rng.random() < 0.3:  # an all-zero side: the other one alone sets the scale
            a, b = rng.choice(((a, [0.0] * length), ([0.0] * length, b)))
        i = rng.randrange(length)
        for series, value in zip((a, b), pair):
            if value is not None:
                series[i] = value
        assert math.isnan(max_rel_deviation(a, b)), (a, b)
        assert math.isnan(numpy_max_rel_deviation(a, b)), (a, b)


def test_max_rel_deviation_rejects_series_of_unequal_length():
    with pytest.raises(ValueError, match="series lengths differ: 2 vs 3"):
        max_rel_deviation([1.0, 2.0], np.array([1.0, 2.0, 3.0]))


@pytest.mark.parametrize("element,problem", [
    ("1", "must be a number, got '1'"), (False, "must be a number, got False"),
    (None, "must be a number, got None"), (-10 ** 400, "must be finite, got -inf"),
], ids=["str", "bool", "None", "huge int"])
def test_max_rel_deviation_takes_only_numbers(element, problem):
    for name, pair in (("a", ([2.0, element], [2.0, 1.0])),
                       ("b", ([2.0, 1.0], [2, element]))):
        with pytest.raises(FieldError) as excinfo:
            max_rel_deviation(*pair)
        assert (excinfo.value.field, excinfo.value.problem) == (f"{name}[1]", problem)


def test_max_rel_deviation_takes_numpy_float_elements():
    assert max_rel_deviation([np.float32(1.5), np.float16(2)], [1.5, 2.0]) == 0.0
    assert math.isnan(max_rel_deviation([np.float32("nan")], [1.0]))

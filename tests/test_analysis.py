"""Tests for fixed points, closed forms, decrease conditions, and sweeps."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from debtdyn import (
    AlphaIsZero,
    ConditionRegime,
    ConstantSchedule,
    ConsumerParams,
    ConsumptionLaw,
    DebtNotFinite,
    DebtParams,
    ExplicitSchedule,
    FixedPointOutOfRange,
    LinearSchedule,
    RegimeError,
    Scenario,
    ScheduleTooShort,
    consumer_step,
    debt_closed_form,
    debt_closed_form_general,
    decrease_condition,
    fixed_point,
    max_rel_deviation,
    simulate,
    sweep,
)
from debtdyn.analysis import _discounted_annuity
from helpers import quad_root, random_general_scenario


def make_consumer(alpha=0.25, beta=0.0, gamma=0.25, p_a=100.0, a=0.15, n=2, m=None):
    return ConsumerParams(p_a=p_a, alpha=alpha, beta=beta, gamma=gamma,
                          law=ConsumptionLaw(a=a, n=n), m=m)


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
    with pytest.raises(DebtNotFinite):
        debt_closed_form(scenario.debt, scenario.consumer, scenario.horizon)
    # zero drift from zero debt: the recursion stays at 0, but the closed
    # form's growth factors still overflow
    zero = overflowing(baseline_scenario, d0=0.0, g0=40.0)
    assert np.all(simulate(zero).debt == 0.0)
    with pytest.raises(DebtNotFinite):
        debt_closed_form(zero.debt, zero.consumer, zero.horizon)


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


def test_fixed_point_closed_form_guards():
    with pytest.raises(RegimeError):
        debt_closed_form(constant_debt(), make_consumer(beta=0.1, m=1), 1)
    with pytest.raises(RegimeError):
        debt_closed_form(constant_debt(), make_consumer(alpha=0.2), 1)


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
    assert report.regime is ConditionRegime.CONSTANT_G


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
    assert report.regime is ConditionRegime.LINEAR_G
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
    linear = DebtParams(r=0.05, d0=100.0, schedule=LinearSchedule(g1=g1, delta_g=dg))
    values = tuple((j - 1) * dg + g1 for j in range(1, 31))
    explicit = DebtParams(r=0.05, d0=100.0, schedule=ExplicitSchedule(values=values))
    for k in (1, 2, 7, 30):
        lin = decrease_condition(cons, linear, k=k)
        exp = decrease_condition(cons, explicit, k=k)
        assert exp.rhs == pytest.approx(lin.rhs, rel=1e-12)
        assert exp.holds == lin.holds


def test_condition_guards():
    cons = make_consumer()
    with pytest.raises(AlphaIsZero):
        decrease_condition(make_consumer(alpha=0.0, gamma=0.0), constant_debt())
    with pytest.raises(RegimeError):
        decrease_condition(make_consumer(beta=0.2, m=1), constant_debt())
    with pytest.raises(RegimeError):
        decrease_condition(make_consumer(gamma=0.3), constant_debt())
    linear = DebtParams(r=0.05, d0=0.0, schedule=LinearSchedule(g1=30.0, delta_g=1.0))
    with pytest.raises(ValueError):
        decrease_condition(cons, linear)
    with pytest.raises(ValueError):
        decrease_condition(cons, linear, k=0)
    short = DebtParams(r=0.05, d0=0.0, schedule=ExplicitSchedule(values=(30.0, 31.0)))
    with pytest.raises(ScheduleTooShort):
        decrease_condition(cons, short, k=3)


def test_condition_report_holds_iff_positive_margin():
    cons = make_consumer()
    for g0 in np.linspace(0.0, 80.0, 33):
        report = decrease_condition(cons, constant_debt(d0=0.0, g0=float(g0)))
        assert report.holds == (report.margin > 0)


@settings(max_examples=30)
@given(
    alpha=st.floats(0.05, 0.5),
    r=st.floats(0.001, 0.2),
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


# ---------------------------------------------------------------------------
# geometric identity and annuity factor
# ---------------------------------------------------------------------------

def test_geometric_identity_through_k200():
    for r in (0.001, 0.02, 0.05, 0.19):
        growth = 1.0 + r
        brute = 0.0
        for k in range(1, 201):
            brute += growth ** -k
            closed = (growth ** k - 1.0) / (r * growth ** k)
            assert closed == pytest.approx(brute, rel=1e-12)
            assert _discounted_annuity(r, k) == pytest.approx(brute, rel=1e-12)


def test_annuity_factor_extends_continuously_to_zero_rate():
    assert _discounted_annuity(0.0, 7) == 7.0
    assert _discounted_annuity(0.05, 0) == 0.0


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
    assert points[0].report is None
    assert "alpha" in points[0].error
    assert points[0].final_debt is not None  # the recursion itself works at alpha = 0
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

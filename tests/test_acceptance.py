"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one ``criterion N PASS/FAIL`` line (visible with
``pytest -s`` or on failure).
"""

import math
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from debtdyn import (
    ConstantSchedule,
    ConsumerParams,
    ConsumptionLaw,
    DebtParams,
    LinearSchedule,
    Scenario,
    consumer_step,
    debt_closed_form,
    debt_closed_form_general,
    decrease_condition,
    fixed_point,
    load_scenario,
    max_rel_deviation,
    read_trajectory,
    simulate,
    tax,
    write_trajectory,
)
from helpers import MALFORMED, random_fixed_point_scenario, random_general_scenario

DATA = Path(__file__).parent / "data"


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"criterion {number} FAIL  {label}")
        raise
    print(f"criterion {number} PASS  {label}")


def baseline_consumer():
    return ConsumerParams(p_a=100.0, alpha=0.25, beta=0.0, gamma=0.25,
                          law=ConsumptionLaw(a=0.15, n=2))


def constant_scenario(d0, g0, b0=None, horizon=50):
    cons = baseline_consumer()
    if b0 is None:
        b0 = fixed_point(cons).b_lambda
    return Scenario(consumer=cons,
                    debt=DebtParams(r=0.05, d0=d0, schedule=ConstantSchedule(g0=g0)),
                    b0=b0, horizon=horizon)


# grid straddling the boundary p_a > 2.5*(D0/20 + g0): margins in
# {+10 ... -25}, exactly zero at (0, 40), (100, 35), (200, 30)
GRID_D0 = (0.0, 50.0, 100.0, 200.0, 400.0)
GRID_G0 = (30.0, 35.0, 38.0, 40.0, 45.0)


def test_criterion_1_fixed_point_value():
    with criterion(1, "fixed point b_lambda = 20 at the reference parameters"):
        b_lam = fixed_point(baseline_consumer()).b_lambda
        assert abs(b_lam - 20.0) <= 1e-12 * 20.0


def test_criterion_2_baseline_reproduction():
    with criterion(2, "budget paths from b0 = 18, 20, 22 reach the fixed point"):
        stay = simulate(constant_scenario(100.0, 30.0, b0=20.0, horizon=10))
        assert np.max(np.abs(stay.b - 20.0)) <= 1e-10

        rising = simulate(constant_scenario(100.0, 30.0, b0=18.0, horizon=10))
        assert np.all(np.diff(rising.b) > 0)
        assert abs(rising.b[5] - 20.0) < 1e-3

        falling = simulate(constant_scenario(100.0, 30.0, b0=22.0, horizon=10))
        assert np.all(np.diff(falling.b) < 0)
        assert abs(falling.b[5] - 20.0) < 1e-3


def test_criterion_3_closed_form_equals_recursion():
    with criterion(3, "closed forms reproduce the recursion on 200+200 random scenarios"):
        rng = np.random.default_rng(20260810)

        worst_fp = 0.0
        for _ in range(200):
            scenario = random_fixed_point_scenario(rng, horizon=100)
            traj = simulate(scenario)
            closed = debt_closed_form(scenario.debt, scenario.consumer, 100)
            worst_fp = max(worst_fp, max_rel_deviation(closed, traj.debt[1:]))
        assert worst_fp < 1e-9

        worst_general = 0.0
        for _ in range(200):
            scenario = random_general_scenario(rng, horizon=100)
            traj = simulate(scenario)
            closed = debt_closed_form_general(scenario.debt, traj.delta[1:])
            worst_general = max(worst_general, max_rel_deviation(closed, traj.debt[1:]))
        assert worst_general < 1e-9


def test_criterion_4_condition_threshold_grid():
    with criterion(4, "decrease condition matches p_a > 2.5*(D0/20 + g0) on a 5x5 grid"):
        cons = baseline_consumer()
        p_a = cons.p_a
        for d0 in GRID_D0:
            for g0 in GRID_G0:
                report = decrease_condition(
                    cons, DebtParams(r=0.05, d0=d0, schedule=ConstantSchedule(g0=g0)))
                assert report.holds == (p_a > 2.5 * (d0 / 20.0 + g0)), (d0, g0)
        # D0 -> 0 corollary: g0 must stay strictly below (2/5) * p_a
        for g0, expected in ((39.0, True), (39.999999, True), (40.0, False), (41.0, False)):
            report = decrease_condition(
                cons, DebtParams(r=0.05, d0=0.0, schedule=ConstantSchedule(g0=g0)))
            assert report.holds is expected


def test_criterion_5_condition_matches_debt_monotonicity():
    with criterion(5, "condition verdict matches simulated debt monotonicity (K = 50)"):
        cons = baseline_consumer()
        saw_zero_margin = False
        for d0 in GRID_D0:
            for g0 in GRID_G0:
                report = decrease_condition(
                    cons, DebtParams(r=0.05, d0=d0, schedule=ConstantSchedule(g0=g0)))
                traj = simulate(constant_scenario(d0, g0, horizon=50))
                diffs = np.diff(traj.debt)
                scale = max(1.0, d0)
                if report.holds:
                    assert np.all(diffs < 0), (d0, g0)
                elif report.margin == 0.0:
                    saw_zero_margin = True
                    assert np.max(np.abs(traj.debt - d0)) <= 1e-9 * scale, (d0, g0)
                else:
                    assert report.margin < -1e-9
                    assert np.all(diffs >= -1e-9 * scale), (d0, g0)
        assert saw_zero_margin  # the boundary points are constructed exactly


def test_criterion_6_generalizations():
    with criterion(6, "cubic-law fixed point, linear-schedule condition, small-slope bound"):
        # n = 3 fixed point satisfies the step map to 1e-10
        cubic = ConsumerParams(p_a=100.0, alpha=0.25, beta=0.0, gamma=0.25,
                               law=ConsumptionLaw(a=0.15, n=3))
        b_lam = fixed_point(cubic).b_lambda
        assert abs(consumer_step(cubic, b_lam, 1) - b_lam) <= 1e-10 * b_lam

        # linear-schedule condition vs brute-force partial sum, k <= 30
        cons = baseline_consumer()
        for g1, dg, r, d0 in ((30.0, 1.0, 0.05, 100.0), (25.0, -0.5, 0.12, 40.0),
                              (55.0, 3.0, 0.01, 0.0)):
            debt = DebtParams(r=r, d0=d0, schedule=LinearSchedule(g1=g1, delta_g=dg))
            for k in range(1, 31):
                rhs = decrease_condition(cons, debt, k=k).rhs
                brute = g1 + r * d0 + sum(dg / (1.0 + r) ** j for j in range(1, k))
                assert abs(rhs - brute) <= 1e-12 * max(abs(rhs), abs(brute)), (k, g1)

        # |deltaG| = 1e-6 * g1 moves the threshold by less than 1e-6 * g1 / r
        g1, r = 30.0, 0.05
        flat = DebtParams(r=r, d0=100.0, schedule=LinearSchedule(g1=g1, delta_g=0.0))
        for sign in (1.0, -1.0):
            tilted = DebtParams(r=r, d0=100.0,
                                schedule=LinearSchedule(g1=g1, delta_g=sign * 1e-6 * g1))
            for k in (1, 5, 15, 30):
                shift = abs(decrease_condition(cons, tilted, k=k).rhs
                            - decrease_condition(cons, flat, k=k).rhs)
                assert shift < 1e-6 * g1 / r, (sign, k)


def test_criterion_7_accounting_identity_sweep():
    with criterion(7, "accounting identity over 1000 random steps"):
        rng = np.random.default_rng(4)
        for _ in range(1000):
            alpha = rng.uniform(0.0, 0.9)
            cons = ConsumerParams(
                p_a=rng.uniform(1.0, 1e4),
                alpha=alpha,
                beta=rng.uniform(0.0, 0.9),
                gamma=rng.uniform(0.0, 1.5),
                law=ConsumptionLaw(a=rng.uniform(1e-4, 10.0), n=int(rng.integers(2, 7))),
                m=int(rng.integers(1, 6)),
            )
            k = int(rng.integers(1, 6))
            b_prev = rng.uniform(1e-3, 1e5)
            b = consumer_step(cons, b_prev, k)
            c = cons.law.consumption(b)
            t = tax(cons, b, c, k)
            residual = b - b_prev - (cons.p_a - t) + c
            assert abs(residual) <= 1e-9 * max(cons.p_a, b, b_prev)


def test_criterion_8_io_contract():
    with criterion(8, "golden CSV stability, exact JSON round trip, malformed corpus"):
        scenario = load_scenario((DATA / "baseline.yaml").read_text())

        golden = (DATA / "golden" / "simulate_baseline.csv").read_bytes()
        first = write_trajectory(simulate(scenario), format="csv").encode()
        second = write_trajectory(simulate(scenario), format="csv").encode()
        assert first == golden and second == golden

        traj = simulate(scenario)
        back = read_trajectory(write_trajectory(traj, format="json"))
        assert back.scenario == traj.scenario
        assert np.array_equal(back.b, traj.b)
        assert np.array_equal(back.debt, traj.debt)
        for original, restored in ((traj.c, back.c), (traj.tau, back.tau),
                                   (traj.delta, back.delta)):
            assert math.isnan(restored[0]) and np.array_equal(restored[1:], original[1:])

        corpus = sorted((DATA / "malformed").glob("*.yaml"))
        assert len(corpus) == 10
        for path in corpus:
            exc_type, fragment = MALFORMED[path.name]
            with pytest.raises(exc_type) as excinfo:
                load_scenario(path.read_text())
            assert fragment in str(excinfo.value), path.name

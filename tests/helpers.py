"""Shared builders for randomized scenarios and corpus expectations."""

from __future__ import annotations

import math

import numpy as np

from debtdyn import (
    ConstantSchedule,
    ConsumerParams,
    ConsumptionLaw,
    DebtParams,
    ExplicitSchedule,
    LinearSchedule,
    ParseError,
    Scenario,
    ValidationError,
    fixed_point,
)

# malformed-scenario corpus: expected error type and message fragment per file
MALFORMED = {
    "01_bad_syntax.yaml": (ParseError, "malformed"),
    "02_not_a_mapping.yaml": (ParseError, "must be a mapping"),
    "03_unknown_top_key.yaml": (ValidationError, "notes"),
    "04_typo_gamm.yaml": (ValidationError, "gamm"),
    "05_alpha_out_of_range.yaml": (ValidationError, "consumer.alpha"),
    "06_negative_income.yaml": (ValidationError, "consumer.p_a"),
    "07_linear_consumption_exponent.yaml": (ValidationError, "consumer.law.n"),
    "08_bad_schedule_kind.yaml": (ValidationError, "debt.schedule.kind"),
    "09_empty_explicit_schedule.yaml": (ValidationError, "debt.schedule.values"),
    "10_missing_horizon.yaml": (ValidationError, "run.horizon"),
}


def make_consumer(alpha=0.25, beta=0.0, gamma=0.25, p_a=100.0, a=0.15, n=2, m=None):
    """The baseline consumer, with any parameter replaced."""
    return ConsumerParams(p_a=p_a, alpha=alpha, beta=beta, gamma=gamma,
                          law=ConsumptionLaw(a=a, n=n), m=m)


def quad_root(coeff: float, slope: float, rhs: float) -> float:
    """Positive root of coeff*x**2 + slope*x - rhs via the quadratic formula.

    Independent oracle for the n = 2 budget step; the library itself never
    takes this path.
    """
    return (-slope + math.sqrt(slope * slope + 4.0 * coeff * rhs)) / (2.0 * coeff)


def random_fixed_point_scenario(rng: np.random.Generator, horizon: int = 100) -> Scenario:
    """Scenario in the equal-rates regime with the budget started at its
    fixed point and a constant expenditure schedule."""
    alpha = rng.uniform(0.05, 0.5)
    p_a = rng.uniform(50.0, 200.0)
    a = rng.uniform(0.05, 0.5)
    consumer = ConsumerParams(p_a=p_a, alpha=alpha, beta=0.0, gamma=alpha,
                              law=ConsumptionLaw(a=a, n=2))
    debt = DebtParams(
        r=rng.uniform(1e-3, 0.2),
        d0=rng.uniform(0.0, 10.0 * p_a),
        schedule=ConstantSchedule(g0=rng.uniform(0.0, p_a)),
    )
    return Scenario(consumer=consumer, debt=debt,
                    b0=fixed_point(consumer).b_lambda, horizon=horizon)


def random_general_scenario(rng: np.random.Generator, horizon: int = 100) -> Scenario:
    """Unrestricted scenario: wealth tax allowed, alpha != gamma, arbitrary
    starting budget, any schedule kind."""
    alpha = rng.uniform(0.0, 0.6)
    gamma = rng.uniform(0.0, 0.8)
    beta = rng.uniform(0.0, 0.5)
    p_a = rng.uniform(50.0, 200.0)
    n = int(rng.integers(2, 5))
    consumer = ConsumerParams(
        p_a=p_a, alpha=alpha, beta=beta, gamma=gamma,
        law=ConsumptionLaw(a=rng.uniform(0.01, 0.5), n=n),
        m=int(rng.integers(1, horizon + 1)),
    )
    kind = rng.integers(0, 3)
    if kind == 0:
        schedule = ConstantSchedule(g0=rng.uniform(0.0, p_a))
    elif kind == 1:
        schedule = LinearSchedule(g1=rng.uniform(1.0, p_a),
                                  delta_g=rng.uniform(-1.0, 1.0))
    else:
        schedule = ExplicitSchedule(values=tuple(rng.uniform(0.0, p_a, size=horizon)))
    debt = DebtParams(r=rng.uniform(0.0, 0.2), d0=rng.uniform(0.0, 10.0 * p_a),
                      schedule=schedule)
    b_lam = fixed_point(consumer).b_lambda
    return Scenario(consumer=consumer, debt=debt,
                    b0=b_lam * rng.uniform(0.2, 3.0), horizon=horizon)

"""Coupled consumer-budget / public-debt discrete dynamics.

Simulate the implicit budget recursion of a representative consumer coupled
to the public-debt recursion, evaluate the closed-form debt solutions, and
test the conditions under which the per-capita public debt steadily
decreases.
"""

from .analysis import (
    SWEEP_AXES,
    AlphaIsZero,
    ConditionRegime,
    ConditionReport,
    FixedPoint,
    RegimeError,
    SweepPoint,
    debt_closed_form,
    debt_closed_form_general,
    decrease_condition,
    fixed_point,
    max_rel_deviation,
    simulate,
    sweep,
)
from .io import (
    ParseError,
    ValidationError,
    load_scenario,
    read_trajectory,
    scenario_to_dict,
    write_trajectory,
)
from .model import (
    ConstantSchedule,
    ConsumerParams,
    ConsumptionLaw,
    DebtParams,
    ExpenditureSchedule,
    ExplicitSchedule,
    FieldError,
    LinearSchedule,
    ModelError,
    NonPositiveBudget,
    Scenario,
    ScheduleTooShort,
    Trajectory,
    consumer_step,
    debt_drift,
    debt_step,
    tax,
)

__version__ = "0.1.0"

__all__ = [
    "AlphaIsZero",
    "ConditionRegime",
    "ConditionReport",
    "ConstantSchedule",
    "ConsumerParams",
    "ConsumptionLaw",
    "DebtParams",
    "ExpenditureSchedule",
    "ExplicitSchedule",
    "FieldError",
    "FixedPoint",
    "LinearSchedule",
    "ModelError",
    "NonPositiveBudget",
    "ParseError",
    "RegimeError",
    "Scenario",
    "ScheduleTooShort",
    "SweepPoint",
    "SWEEP_AXES",
    "Trajectory",
    "ValidationError",
    "consumer_step",
    "debt_closed_form",
    "debt_closed_form_general",
    "debt_drift",
    "debt_step",
    "decrease_condition",
    "fixed_point",
    "load_scenario",
    "max_rel_deviation",
    "read_trajectory",
    "scenario_to_dict",
    "simulate",
    "sweep",
    "tax",
    "write_trajectory",
]

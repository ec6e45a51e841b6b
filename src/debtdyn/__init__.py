"""Coupled consumer-budget / public-debt discrete dynamics.

Simulate the implicit budget recursion of a representative consumer coupled
to the public-debt recursion, evaluate the closed-form debt solutions, and
test the conditions under which the per-capita public debt steadily
decreases.

The package re-exports the public names of `model` and `analysis` (each
module's ``__all__`` is the one list of them) and the scenario and
trajectory I/O of `io`.
"""

from . import analysis, model
from .analysis import *  # noqa: F401,F403
from .io import (
    ParseError,
    ValidationError,
    load_scenario,
    read_trajectory,
    scenario_to_dict,
    write_trajectory,
)
from .model import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    *model.__all__,
    *analysis.__all__,
    "ParseError",
    "ValidationError",
    "load_scenario",
    "read_trajectory",
    "scenario_to_dict",
    "write_trajectory",
]

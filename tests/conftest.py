import os
from pathlib import Path

import pytest
from hypothesis import settings

from debtdyn import (
    ConstantSchedule,
    ConsumerParams,
    ConsumptionLaw,
    DebtParams,
    Scenario,
)

# "suite" replays the same draws on every run; "deep" searches with fresh draws and
# prints the blob that reproduces a failure (HYPOTHESIS_PROFILE=deep)
settings.register_profile("suite", deadline=None, derandomize=True)
settings.register_profile("deep", deadline=None, derandomize=False, max_examples=5000,
                          print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "suite"))

DATA_DIR = Path(__file__).parent / "data"


@pytest.fixture
def data_dir() -> Path:
    return DATA_DIR


@pytest.fixture
def baseline_consumer() -> ConsumerParams:
    return ConsumerParams(p_a=100.0, alpha=0.25, beta=0.0, gamma=0.25,
                          law=ConsumptionLaw(a=0.15, n=2))


@pytest.fixture
def baseline_scenario(baseline_consumer) -> Scenario:
    return Scenario(
        consumer=baseline_consumer,
        debt=DebtParams(r=0.05, d0=100.0, schedule=ConstantSchedule(g0=30.0)),
        b0=18.0,
        horizon=10,
    )

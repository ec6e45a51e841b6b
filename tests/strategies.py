"""Hypothesis strategies that draw scenario documents over each field's whole
valid range: magnitudes from the subnormals to the float maximum, rates up to
the last float below 1, every schedule kind, the levy on and off, and b0
anywhere or omitted. Only the horizon is kept short, so that a run stays cheap."""

from __future__ import annotations

import sys

from hypothesis import strategies as st

# the smallest subnormal, the smallest normal, the last float below 1, the largest float
EDGES = (5e-324, 2.2250738585072014e-308, 1 - 2**-53, sys.float_info.max)
MAX_HORIZON = 60

# log-uniform from 1e-320 to 1.78e308; 10.0 ** log10(float max) itself overflows
positive = st.sampled_from(EDGES) | st.floats(-320.0, 308.25).map(lambda e: 10.0 ** e)
nonnegative = st.just(0.0) | positive
signed = nonnegative | positive.map(lambda x: -x)
rate = (st.sampled_from((0.0, 1 - 2**-52, 1 - 2**-53))  # [0, 1); 10.0 ** -1e-17 is 1.0
        | st.floats(0.0, 1.0, exclude_max=True)
        | st.floats(-320.0, -1.0).map(lambda e: 10.0 ** e))
exponent = st.sampled_from((2, 3, 5, 17, 200, 10**6))

# sweep axis -> the values of the field it moves
AXIS_VALUES = {"alpha": rate, "g0": nonnegative, "r": nonnegative, "D0": nonnegative,
               "p_a": positive}


def schedules(horizon: int):
    """A schedule mapping of every kind; an explicit one may fall short of the horizon."""
    return st.one_of(
        st.fixed_dictionaries({"kind": st.just("constant"), "g0": nonnegative}),
        st.fixed_dictionaries({"kind": st.just("linear"), "g1": positive, "deltaG": signed}),
        st.fixed_dictionaries({"kind": st.just("explicit"),
                               "values": st.lists(signed, min_size=1, max_size=horizon + 2)}))


@st.composite
def scenario_documents(draw) -> dict:
    """A scenario document that `load_scenario` accepts, as a plain mapping."""
    horizon = draw(st.integers(1, MAX_HORIZON))
    consumer = {"p_a": draw(positive), "alpha": draw(rate), "beta": draw(rate),
                "gamma": draw(nonnegative),
                "law": {"a": draw(positive), "n": draw(exponent)}}
    if draw(st.booleans()):  # the levy year, within the horizon or past it
        consumer["m"] = draw(st.integers(1, horizon + 2))
    run = {"horizon": horizon}
    if draw(st.booleans()):
        run["b0"] = draw(positive)
    return {"consumer": consumer,
            "debt": {"r": draw(nonnegative), "D0": draw(nonnegative),
                     "schedule": draw(schedules(horizon))},
            "run": run}

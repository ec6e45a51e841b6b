"""Per-layer tracing from outside the program.

The tracer replaces each public function with a timing wrapper at the name
its caller looks up (``debtdyn.analysis.consumer_step`` is what `simulate`
calls, ``debtdyn.io.write_trajectory`` is what the CLI calls, and so on) and
restores the originals afterwards. Spans nest on a stack, so each layer's
self time is its busy time minus the time of the traced calls it made.

Spans are aggregated as they close (calls, busy and self seconds per layer)
rather than stored: a sweep makes hundreds of thousands of `consumer_step`
calls, and keeping each span would cost more memory than the program uses.
"""

from __future__ import annotations

import math
from time import perf_counter

import numpy as np

LAYERS = (
    "model.consumer_step",
    "analysis.simulate",
    "analysis.sweep",
    "analysis.decrease_condition",
    "analysis.closed_form",
    "io.write_trajectory",
    "io.read_trajectory",
    "io.load_scenario",
    "cli.main",
)

COUNTERS = ("years", "points", "points_ok", "write_bytes", "read_bytes")


class Tracer:
    """Install with `install`, remove with `uninstall`; `snapshot` returns the
    aggregates as plain data."""

    def __init__(self, cli, analysis, io):
        self.calls = {name: [0, 0.0, 0.0] for name in LAYERS}  # calls, busy, self
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.root_residual_max = 0.0
        self.accounting_residual_max = 0.0
        self._trajectories = []
        self._stack = []
        self._patches = []
        self._targets = [
            (analysis, "consumer_step", "model.consumer_step", None),
            (analysis, "simulate", "analysis.simulate", self._saw_trajectory),
            (analysis, "sweep", "analysis.sweep", self._saw_sweep),
            (analysis, "decrease_condition", "analysis.decrease_condition", None),
            (analysis, "debt_closed_form_fixed_point", "analysis.closed_form", None),
            (analysis, "debt_closed_form_schedule", "analysis.closed_form", None),
            (io, "write_trajectory", "io.write_trajectory", self._saw_write),
            (io, "read_trajectory", "io.read_trajectory", self._saw_read),
            (io, "load_scenario", "io.load_scenario", None),
            (cli, "main", "cli.main", None),
        ]

    def install(self) -> None:
        for module, attr, layer, observe in self._targets:
            original = getattr(module, attr, None)
            if original is None:  # a layer the program no longer has reads as 0
                continue
            self._patches.append((module, attr, original))
            setattr(module, attr, self._wrap(layer, original, observe))

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def _wrap(self, layer, fn, observe):
        totals = self.calls[layer]
        stack = self._stack

        def traced(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                totals[0] += 1
                totals[1] += elapsed
                totals[2] += elapsed - children[0]
            if observe is not None:
                observe(args, result)
            return result

        return traced

    # Observers run after the span closes and only keep references or sizes.

    def _saw_trajectory(self, args, traj):
        self.counters["years"] += traj.horizon
        self._trajectories.append(traj)

    def _saw_sweep(self, args, points):
        self.counters["points"] += len(points)
        self.counters["points_ok"] += sum(p.error is None for p in points)

    def _saw_write(self, args, text):
        self.counters["write_bytes"] += len(text.encode("utf-8"))

    def _saw_read(self, args, traj):
        self.counters["read_bytes"] += len(args[0].encode("utf-8"))

    def score_trajectories(self) -> None:
        """Fold the trajectories seen since the last call into the quality
        maxima. Call it outside any timed region."""
        for traj in self._trajectories:
            root, accounting = residuals(traj)
            self.root_residual_max = max(self.root_residual_max, root)
            self.accounting_residual_max = max(self.accounting_residual_max, accounting)
        self._trajectories.clear()

    def snapshot(self) -> dict:
        self.score_trajectories()
        return {"calls": {k: list(v) for k, v in self.calls.items()},
                "counters": dict(self.counters),
                "root_residual_max": self.root_residual_max,
                "accounting_residual_max": self.accounting_residual_max}


def residuals(traj) -> tuple[float, float]:
    """Worst relative residual of the budget equation and of the accounting
    identity b_k - b_{k-1} = (p_a - tau_k) - c_k over a trajectory, both
    relative to the year's inflow (1 - alpha) * p_a + b_{k-1} or p_a + b_{k-1}."""
    cons = traj.scenario.consumer
    b, c, tau = traj.b, traj.c, traj.tau
    years = np.arange(1, len(b))
    if len(years) == 0:
        return 0.0, 0.0
    beta_k = np.where(years == cons.m, cons.beta, 0.0) if cons.m is not None else 0.0
    rhs = (1.0 - cons.alpha) * cons.p_a + b[:-1]
    lhs = (1.0 + cons.gamma) * cons.law.a * b[1:] ** cons.law.n + (1.0 + beta_k) * b[1:]
    root = float(np.max(np.abs(lhs - rhs) / rhs))
    accounting = float(np.max(np.abs(b[1:] - b[:-1] - (cons.p_a - tau[1:] - c[1:]))
                              / (cons.p_a + b[:-1])))
    # A non-finite residual is reported as 1e300 so the result stays standard JSON.
    return (root if math.isfinite(root) else 1e300,
            accounting if math.isfinite(accounting) else 1e300)


def layer_metrics(snap: dict, requests: int) -> dict:
    """Per-request averages of the traced aggregates (a run does as many
    requests as fit in its time, so totals would not compare across runs)."""
    n = max(requests, 1)
    calls = snap["calls"]
    counters = snap["counters"]

    def per_req(layer, field):
        return calls[layer][field] / n

    def ratio(num, den, factor=1.0):
        return num / den * factor if den else 0.0

    step, sim = calls["model.consumer_step"], calls["analysis.simulate"]
    return {
        "model.consumer_step.calls": (per_req("model.consumer_step", 0), "count"),
        "model.consumer_step.busy_s": (per_req("model.consumer_step", 1), "s"),
        "model.consumer_step.us_per_call": (ratio(step[1], step[0], 1e6), "us"),
        "analysis.simulate.calls": (per_req("analysis.simulate", 0), "count"),
        "analysis.simulate.busy_s": (per_req("analysis.simulate", 1), "s"),
        "analysis.simulate.self_s": (per_req("analysis.simulate", 2), "s"),
        "analysis.simulate.us_per_year": (ratio(sim[1], counters["years"], 1e6), "us"),
        "analysis.sweep.busy_s": (per_req("analysis.sweep", 1), "s"),
        "analysis.sweep.self_s": (per_req("analysis.sweep", 2), "s"),
        "analysis.sweep.points": (counters["points"] / n, "count"),
        "analysis.sweep.point_ok_frac": (ratio(counters["points_ok"], counters["points"]), "frac"),
        "analysis.decrease_condition.busy_s": (per_req("analysis.decrease_condition", 1), "s"),
        "analysis.closed_form.calls": (per_req("analysis.closed_form", 0), "count"),
        "analysis.closed_form.busy_s": (per_req("analysis.closed_form", 1), "s"),
        "io.write_trajectory.busy_s": (per_req("io.write_trajectory", 1), "s"),
        "io.write_trajectory.bytes": (counters["write_bytes"] / n, "B"),
        "io.read_trajectory.busy_s": (per_req("io.read_trajectory", 1), "s"),
        "io.read_trajectory.bytes": (counters["read_bytes"] / n, "B"),
        "io.load_scenario.busy_s": (per_req("io.load_scenario", 1), "s"),
        "cli.main.self_s": (per_req("cli.main", 2), "s"),
        "model.root_residual_max": (snap["root_residual_max"], "rel"),
        "analysis.accounting_residual_max": (snap["accounting_residual_max"], "rel"),
    }

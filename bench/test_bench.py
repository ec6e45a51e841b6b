"""Tests of the benchmark itself. They are not part of the Tier-1 suite
(pytest collects only ``tests/`` by default); run them from the repository
root with

    python3 -m pytest bench -q
"""

from __future__ import annotations

import functools
import importlib.util
import itertools
import json
import math
import random
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import inputs  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
from debtdyn import cli, load_scenario  # noqa: E402


def _quad_root():
    spec = importlib.util.spec_from_file_location("suite_helpers", ROOT / "tests" / "helpers.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.quad_root


def _cli(argv) -> str:
    out = StringIO()
    with redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue()


@pytest.mark.parametrize("workload", sorted(inputs.REQUESTS))
def test_same_seed_gives_byte_identical_inputs(workload, tmp_path):
    for name, seed in (("a", 7), ("b", 7), ("c", 8)):
        inputs.write_inputs(workload, seed, tmp_path / name)
    files = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert files == sorted(p.name for p in (tmp_path / "b").iterdir())
    assert all((tmp_path / "a" / f).read_bytes() == (tmp_path / "b" / f).read_bytes()
               for f in files)
    assert any((tmp_path / "a" / f).read_bytes() != (tmp_path / "c" / f).read_bytes()
               for f in files)


@pytest.mark.parametrize("workload", sorted(inputs.REQUESTS))
def test_rendered_scenarios_load_to_the_oracle_parameters(workload):
    for req in inputs.REQUESTS[workload](3):
        p = req["params"]
        scenario = load_scenario(inputs.scenario_yaml(p))
        consumer, debt = scenario.consumer, scenario.debt
        assert (consumer.p_a, consumer.alpha, consumer.beta, consumer.gamma,
                consumer.law.a, consumer.law.n, consumer.m) == \
            (p["p_a"], p["alpha"], p["beta"], p["gamma"], p["a"], p["n"], p["m"])
        assert (debt.r, debt.d0, scenario.horizon) == (p["r"], p["D0"], p["horizon"])
        if p["b0"] is not None:
            assert scenario.b0 == p["b0"]


def test_oracle_budget_step_agrees_with_quad_root():
    quad_root = _quad_root()
    rng = random.Random(11)
    for _ in range(500):
        coeff = 10.0 ** rng.uniform(-3, 1)
        slope = rng.uniform(1.0, 1.5)
        rhs = rng.uniform(1.0, 500.0)
        want = quad_root(coeff, slope, rhs)
        assert math.isclose(oracle.budget_step(coeff, 2, slope, rhs), want, rel_tol=1e-12)
        # The bisection used for n > 2 must agree on n = 2 as well.
        assert math.isclose(oracle.bisect_root(coeff, 2, slope, rhs), want, rel_tol=1e-12)


def test_oracle_bisection_solves_higher_powers():
    rng = random.Random(5)
    for n in range(3, 8):
        coeff, slope, rhs = rng.uniform(0.01, 0.6), rng.uniform(1.0, 1.5), rng.uniform(30, 400)
        x = oracle.budget_step(coeff, n, slope, rhs)
        assert abs(coeff * x ** n + slope * x - rhs) <= 1e-12 * rhs


@pytest.fixture
def long_request(tmp_path):
    req = inputs.write_inputs("long-horizon", 2, tmp_path)[2]  # explicit schedule
    assert req["params"]["schedule"]["kind"] == "explicit"
    return req


def test_oracle_accepts_the_program_and_flags_a_perturbed_trajectory(long_request):
    p, path = long_request["params"], long_request["path"]
    text = _cli(["simulate", path, "--format", "json"])
    errors, doc = oracle.check_trajectory_json(text, p)
    assert errors == []
    csv_text = _cli(["simulate", path])
    assert oracle.check_trajectory_csv(csv_text, doc) == []

    for series, k in (("D", p["horizon"] // 2 + 7), ("b", 3), ("tau", p["horizon"])):
        bad = json.loads(text)
        bad[series][k] *= 1.0 + 1e-6
        errors, _ = oracle.check_trajectory_json(json.dumps(bad), p)
        assert any(f"{series}[{k}]" in e for e in errors), (series, errors)

    lines = csv_text.splitlines()
    lines[5] = lines[5].replace(",", ",1", 1)
    assert oracle.check_trajectory_csv("\n".join(lines) + "\n", doc)


def test_oracle_checks_closed_form_output(long_request):
    p = long_request["params"]
    text = _cli(["closed-form", long_request["path"], "--format", "json"])
    errors, deviation = oracle.check_closed_form_json(text, p)
    assert errors == [] and 0.0 <= deviation <= oracle.MAX_REL_DEV
    bad = json.loads(text)
    last = p["horizon"]
    bad["D_closed_form"][last] *= 1.0 + 1e-6
    errors, _ = oracle.check_closed_form_json(json.dumps(bad), p)
    assert any(f"D_closed_form[{last}]" in e for e in errors)
    assert any("max_rel_dev" in e for e in errors)


def test_oracle_checks_sweep_rows(tmp_path):
    reqs = inputs.write_inputs("sweep-grid", 4, tmp_path)
    general = next(r for r in reqs if r["params"]["beta"] != 0.0 and r["year"] is not None)
    for req in (reqs[1], general):
        text = _cli(req["argv"])
        assert oracle.check_sweep_csv(text, req, random.Random(0)) == []
    text = _cli(reqs[1]["argv"])
    lines = text.splitlines()
    flipped = lines[7].replace("true", "false") if "true" in lines[7] \
        else lines[7].replace("false", "true")
    bad = "\n".join(lines[:7] + [flipped] + lines[8:]) + "\n"
    assert any("holds" in e for e in oracle.check_sweep_csv(bad, reqs[1], random.Random(0)))
    assert oracle.check_sweep_csv("\n".join(lines[:-1]) + "\n", reqs[1], random.Random(0))


def test_latency_p90_is_emitted_only_with_100_samples():
    assert "latency_p90_ms" not in run.latency_metrics([0.01] * 99)
    metrics = run.latency_metrics([i / 1000 for i in range(1, 101)])
    assert metrics["latency_p90_ms"] == pytest.approx(90.0)
    assert metrics["latency_p50_ms"] == pytest.approx(50.5)


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_run_emits_every_declared_metric(workload, trace, monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPEATS", 2)
    monkeypatch.setattr(run, "IMPORT_PROBES", 1)
    monkeypatch.setitem(inputs.REQUESTS, workload,
                        functools.partial(inputs.REQUESTS[workload], count=4))
    out = StringIO()
    with redirect_stdout(out):
        assert run.main(["--workload", workload, "--seed", "1", "--seconds", "1",
                         "--trace", str(trace)]) == 0
    result = json.loads(out.getvalue().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    if not trace:
        del declared["latency_p90_ms"]  # fewer than 100 samples here
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def _shape(req):
    p = req["params"]
    return (p["horizon"], p["n"], p["schedule"]["kind"], p["m"] is None, p["b0"] is None,
            req.get("argv", [None])[0], req.get("axis"), req.get("year") is None,
            req.get("grid", (0, 0, 0))[2])


@pytest.mark.parametrize("workload", sorted(inputs.REQUESTS))
def test_every_seed_gives_the_same_request_shapes(workload):
    requests = inputs.REQUESTS[workload]
    assert [_shape(r) for r in requests(1)] == [_shape(r) for r in requests(2)]


class _Scripted:
    """A workload whose requests take scripted latencies."""

    requests = [{"name": "a"}, {"name": "b"}]

    def __init__(self, latencies):
        self._latencies = iter(latencies)

    def request(self, req):
        return next(self._latencies), None

    def check(self, req, outcome, rng):
        return []

    def output(self, outcome):
        return []


def test_measure_times_each_request_by_its_fastest_pass(monkeypatch):
    # Each pass, and each gap between passes, takes one tick of this clock,
    # so a 5.5-tick run fits three passes.
    monkeypatch.setattr(run, "perf_counter", itertools.count().__next__)
    wl = _Scripted([0.5, 0.2, 0.3, 0.4, 0.1, 0.9])  # pass by pass: a, b, a, b, a, b
    shares = []
    assert run.measure(wl, 0, 5.5, shares.append) == (6, [0.1, 0.2], [0.5, 0.2], [])
    assert shares == [1 / 5.5, 3 / 5.5, 5 / 5.5]
    # The first pass always runs, even when it alone overruns the run.
    monkeypatch.setattr(run, "perf_counter", itertools.count().__next__)
    assert run.measure(_Scripted([0.5, 0.2]), 0, seconds=0.5) == (2, [0.5, 0.2], [0.5, 0.2], [])


def test_bare_directory_exits_nonzero_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "sweep-grid",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""

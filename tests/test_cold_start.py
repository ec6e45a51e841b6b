"""numpy is imported only by what returns arrays: the public closed forms,
`Trajectory.years` and the first read of a trajectory's array attributes
(``traj.b`` and the like). Each case runs in a fresh interpreter and reports
whether numpy got loaded. One more fresh interpreter runs ``python -m debtdyn``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
BASELINE = "scenarios/baseline.yaml"
RUN_CLI = "import contextlib, io\nfrom debtdyn.cli import main\n" \
          "with contextlib.redirect_stdout(io.StringIO()):\n    assert main({argv!r}) == 0\n"


def run_python(*args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter that imports debtdyn from src, run in the repository root."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)


def numpy_loaded_after(code: str) -> bool:
    proc = run_python("-c", code + "\nimport sys\nprint('numpy' in sys.modules)\n")
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1] == "True"


def test_the_package_runs_as_a_module():
    proc = run_python("-m", "debtdyn", "fixed-point", BASELINE)
    assert proc.returncode == 0, proc.stderr
    golden = ROOT / "tests" / "data" / "golden" / "fixed_point_baseline.txt"
    assert proc.stdout == golden.read_text(encoding="utf-8")


@pytest.mark.parametrize("code", [
    "import debtdyn",
    "import debtdyn.cli",
    RUN_CLI.format(argv=["condition", BASELINE]),
    RUN_CLI.format(argv=["fixed-point", BASELINE]),
    RUN_CLI.format(argv=["sweep", BASELINE, "--axis", "r", "--grid", "0:0.2:5"]),
], ids=["import debtdyn", "import debtdyn.cli", "condition", "fixed-point", "sweep"])
def test_scalar_commands_never_load_numpy(code):
    assert not numpy_loaded_after(code)


@pytest.mark.parametrize("code", [
    RUN_CLI.format(argv=["simulate", BASELINE]),
    RUN_CLI.format(argv=["simulate", BASELINE, "--format", "json"]),
    RUN_CLI.format(argv=["closed-form", BASELINE]),
    RUN_CLI.format(argv=["closed-form", BASELINE, "--format", "json"]),
    "import debtdyn\n"
    f"traj = debtdyn.simulate(debtdyn.load_scenario(open({BASELINE!r}).read()))\n"
    "text = debtdyn.write_trajectory(traj, format='json')\n"
    "assert debtdyn.write_trajectory(debtdyn.read_trajectory(text), format='json') == text\n",
], ids=["simulate csv", "simulate json", "closed-form csv", "closed-form json",
        "trajectory round trip"])
def test_trajectory_commands_never_load_numpy(code):
    assert not numpy_loaded_after(code)


def test_simulate_loads_numpy_and_returns_arrays():
    assert numpy_loaded_after(
        "import sys, debtdyn\n"
        f"traj = debtdyn.simulate(debtdyn.load_scenario(open({BASELINE!r}).read()))\n"
        "assert all(isinstance(s, sys.modules['numpy'].ndarray)\n"
        "           for s in (traj.b, traj.c, traj.tau, traj.delta, traj.debt))\n")

"""debtdyn benchmark: seeded workloads against the public API and the CLI.

Run from the repository root:

    python3 bench/run.py --workload sweep-grid --seed 1 --seconds 30 --trace 0

One client issues requests one after another (a closed loop) and the oracle
in ``oracle.py`` checks every output outside the timed region. A run times a
fixed list of requests in whole passes for ``--seconds`` seconds. The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it describes the environment, the
run and any failures. ``--trace 0`` reports the end-to-end metrics, ``--trace
1`` the per-layer ones from a separate traced run. See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import random
import shutil
import statistics
import sys
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path
from time import perf_counter

import inputs
import oracle

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent

P90_MIN_SAMPLES = 100   # ten samples lie beyond the 90th percentile
SETUP_REPEATS = 7       # setup_s is the median of this many set-ups, spread over the run
IMPORT_PROBES = 8       # fresh interpreters for cli.interpreter_ms / cli.import_ms
CHILD_TIMEOUT = 60


# ---------------------------------------------------------------------------
# Result helpers
# ---------------------------------------------------------------------------

def latency_metrics(latencies: list[float]) -> dict:
    """p50 always; p90 only from P90_MIN_SAMPLES samples on."""
    ordered = sorted(latencies)
    out = {"latency_p50_ms": statistics.median(ordered) * 1e3}
    if len(ordered) >= P90_MIN_SAMPLES:
        rank = -(-9 * len(ordered) // 10)  # nearest rank, ceil(0.9 * n)
        out["latency_p90_ms"] = ordered[rank - 1] * 1e3
    return out


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            path = ROOT / ".git" / name
            if path.is_file():
                return path.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
        return ref
    except OSError:
        return "unknown"


def environment(seed: int, load_at_start: tuple) -> dict:
    from importlib import metadata
    import platform

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    try:
        import yaml
        libyaml = bool(getattr(yaml, "__with_libyaml__", False))
    except ImportError:
        libyaml = None
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": version("numpy"),
            "pyyaml": version("PyYAML"), "libyaml": libyaml, "cpu": cpu,
            "nproc": len(os.sched_getaffinity(0)), "loadavg_start": load_at_start,
            "commit": git_commit(), "seed": seed}


def peak_rss_mb() -> float:
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


# ---------------------------------------------------------------------------
# Running the program
# ---------------------------------------------------------------------------

class Call:
    """Outcome of one CLI invocation."""

    def __init__(self, code, stdout: str, stderr: str, exc: str | None = None,
                 latency: float = 0.0):
        self.code, self.stdout, self.stderr, self.exc = code, stdout, stderr, exc
        self.latency = latency

    def error(self) -> str | None:
        """Exit code, exception and first stderr line of a failed call."""
        if self.code == 0 and self.exc is None:
            return None
        first = self.stderr.strip().splitlines()[0] if self.stderr.strip() else ""
        return f"exit {self.code}; exception {self.exc}; stderr: {first}"


def call_main(cli, argv: list[str]) -> Call:
    """`cli.main(argv)` in this process, capturing its streams."""
    out, err = StringIO(), StringIO()
    code, exc = None, None
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as stop:  # argparse usage errors
            code = stop.code if isinstance(stop.code, int) else 1
        except Exception as error:  # the loop must go on; the reason is recorded
            exc = f"{type(error).__name__}: {error}"
    return Call(code, out.getvalue(), err.getvalue(), exc)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(argv: list[str]) -> Call:
    """One fresh interpreter, killed and waited for if it overruns."""
    import subprocess

    start = perf_counter()
    proc = subprocess.run([sys.executable, *argv], stdin=subprocess.DEVNULL,
                          capture_output=True, encoding="utf-8", cwd=ROOT,
                          env=child_env(), timeout=CHILD_TIMEOUT)
    return Call(proc.returncode, proc.stdout, proc.stderr, latency=perf_counter() - start)


def import_program():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from debtdyn import analysis, cli, io
    return cli, analysis, io


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class InProcess:
    """Requests are `cli.main` calls in this process (sweep-grid, long-horizon)."""

    max_deviation = 0.0  # worst closed-form deviation seen by the oracle

    def setup(self, workload: str, seed: int, work: Path) -> None:
        self.requests = inputs.write_inputs(workload, seed, work)
        self.cli, self.analysis, self.io = import_program()
        self.request(self.requests[0])  # warm-up; the request is scored when it runs again

    def tracer(self):
        import tracing
        return tracing.Tracer(self.cli, self.analysis, self.io)

    def traced(self, req, tracer):
        tracer.install()
        try:
            outcome = self.request(req)
        finally:
            tracer.uninstall()
        tracer.score_trajectories()
        return outcome


class SweepGrid(InProcess):
    size = (f"one `sweep` of {inputs.SWEEP_POINTS} grid points at K in "
            f"{inputs.SWEEP_HORIZONS[0]}..{inputs.SWEEP_HORIZONS[1]}")

    def request(self, req):
        start = perf_counter()
        call = call_main(self.cli, req["argv"])
        return perf_counter() - start, [call]

    def check(self, req, outcome, rng):
        call = outcome[1][0]
        if call.error():
            return [call.error()]
        return oracle.check_sweep_csv(call.stdout, req, rng)

    def output(self, outcome):
        return [(c.stdout, c.error()) for c in outcome[1]]


class LongHorizon(InProcess):
    size = (f"closed-form + simulate json (read back) + simulate csv of one "
            f"scenario at K in {inputs.LONG_HORIZONS[0]}..{inputs.LONG_HORIZONS[1]}")

    def request(self, req):
        path = req["path"]
        start = perf_counter()
        closed = call_main(self.cli, ["closed-form", path, "--format", "json"])
        as_json = call_main(self.cli, ["simulate", path, "--format", "json"])
        traj = read_error = None
        try:
            traj = self.io.read_trajectory(as_json.stdout)
        except Exception as error:  # recorded as the request's failure
            read_error = f"read_trajectory: {type(error).__name__}: {error}"
        as_csv = call_main(self.cli, ["simulate", path, "--format", "csv"])
        return perf_counter() - start, [closed, as_json, as_csv, traj, read_error]

    def check(self, req, outcome, rng):
        closed, as_json, as_csv, traj, read_error = outcome[1]
        for call in (closed, as_json, as_csv):
            if call.error():
                return [call.error()]
        if read_error:
            return [read_error]
        p = req["params"]
        errors, deviation = oracle.check_closed_form_json(closed.stdout, p)
        self.max_deviation = max(self.max_deviation, deviation)
        json_errors, doc = oracle.check_trajectory_json(as_json.stdout, p)
        errors += json_errors
        if doc is not None:
            if self.io.write_trajectory(traj, format="json") != as_json.stdout:
                errors.append("simulate json: read_trajectory does not round-trip exactly")
            errors += oracle.check_trajectory_csv(as_csv.stdout, doc)
        return errors

    def output(self, outcome):
        return [(c.stdout, c.error()) for c in outcome[1][:3]] + [outcome[1][4]]


WORKLOADS = {"sweep-grid": SweepGrid, "long-horizon": LongHorizon}


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

def timed_setup(workload: str, seed: int, work: Path):
    start = perf_counter()
    wl = WORKLOADS[workload]()
    wl.setup(workload, seed, work)
    return wl, perf_counter() - start


def setup_probe_seconds(workload: str, seed: int) -> float:
    call = run_child([str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
                      "--setup-probe"])
    if call.error():
        raise RuntimeError(f"setup probe failed: {call.error()}")
    return json.loads(call.stdout.splitlines()[-1])["setup_s"]


def check(wl, req, outcome, rng) -> list[str]:
    """The oracle's verdict; output it cannot even parse is a failure too."""
    try:
        return wl.check(req, outcome, rng)
    except Exception as error:  # a broken output must not stop the run
        return [f"unreadable output: {type(error).__name__}: {error}"]


def measure(wl, seed: int, seconds: float, between_passes=lambda done: None):
    """Untraced closed loop: whole passes over the workload's fixed request
    list for `seconds` seconds, so every run times the same requests, in the
    same order, over the same length of time.

    A request's latency is its fastest pass. Shared hosts run code up to
    twice as slowly for stretches of seconds to a minute, with short fast
    spells in between; the passes of a request lie one pass apart across the
    whole run, so its fastest pass is the one nearest the host's quiet state.
    A pass starts only if, at the pace of the previous pass, it ends within
    `seconds`; the first pass always runs. After each pass, `between_passes`
    gets the share of `seconds` that has gone by. Every pass counts as
    attempted. The oracle checks a request's first pass, and each later pass
    must repeat that output exactly. Only latencies and output digests are kept, so
    outputs do not pile up in peak_rss_mb.
    """
    rng = random.Random(seed)
    times = [[] for _ in wl.requests]  # each request's latency in every pass
    digests = {}  # each request's first-pass output digest
    failures = []
    start = pass_start = perf_counter()
    while True:
        for i, req in enumerate(wl.requests):
            gc.collect()  # the oracle's garbage is not the next request's to collect
            outcome = wl.request(req)
            times[i].append(outcome[0])
            digest = hashlib.blake2b(repr(wl.output(outcome)).encode()).digest()
            if i not in digests:
                digests[i] = digest
                errors = check(wl, req, outcome, rng)
            else:
                errors = [] if digest == digests[i] else ["output differs from the first pass"]
            if errors:
                failures.append({"request": req["name"], "reason": errors[0]})
        end = perf_counter()
        between_passes((end - start) / seconds)
        now = perf_counter()
        if now - start + (end - pass_start) > seconds:  # the next pass would overrun
            break
        pass_start = now
    return (sum(map(len, times)), [min(t) for t in times], [t[0] for t in times],
            failures)


def measure_traced(wl, seed: int):
    """One pass over the request list in which each request runs untraced and
    then traced on the same input; the two outputs must agree, the oracle checks
    the untraced one, and the ratio of their summed latencies is the tracing
    overhead."""
    rng = random.Random(seed)
    tracer = wl.tracer()
    plain_s = traced_s = 0.0
    failures = []
    requests = wl.requests
    cpu0, start = cpu_seconds(), perf_counter()
    for req in requests:
        gc.collect()
        plain = wl.request(req)
        traced = wl.traced(req, tracer)
        plain_s += plain[0]
        traced_s += traced[0]
        errors = check(wl, req, plain, rng)
        if not errors and wl.output(plain) != wl.output(traced):
            errors = ["traced output differs from untraced output"]
        if errors:
            failures.append({"request": req["name"], "reason": errors[0]})
    wall = perf_counter() - start
    cpu = cpu_seconds() - cpu0
    return tracer.snapshot(), len(requests), failures, {
        "analysis.closed_form.max_rel_dev": (wl.max_deviation, "rel"),
        "run.cpu_per_wall": (cpu / wall, "ratio"),
        "trace.overhead_frac": (traced_s / plain_s - 1.0, "frac"),
    }


def interpreter_probes() -> dict:
    bare, loaded = [], []
    for _ in range(IMPORT_PROBES):
        bare.append(run_child(["-c", "pass"]).latency)
        loaded.append(run_child(["-c", "import debtdyn"]).latency)
    interpreter = statistics.median(bare) * 1e3
    return {"cli.interpreter_ms": (interpreter, "ms"),
            "cli.import_ms": (statistics.median(loaded) * 1e3 - interpreter, "ms")}


def run(args, work: Path) -> dict:
    load_at_start = os.getloadavg()
    wl, own_setup = timed_setup(args.workload, args.seed, work)
    gc.freeze()  # set-up state (inputs, imported modules) is never garbage
    summary = {"workload": args.workload, "request": wl.size, "trace": args.trace,
               "client": "closed loop, one client, one request at a time"}
    if args.trace:
        snap, attempted, failures, extra = measure_traced(wl, args.seed)
        import tracing
        metrics = tracing.layer_metrics(snap, attempted)
        metrics.update(extra)
        metrics.update(interpreter_probes())
        summary["traced_requests"] = attempted
    else:
        setups = [own_setup]

        def probe_setups(done: float) -> None:
            """Fresh `--setup-probe` children, so the import is paid each
            time, spread evenly over the run: a median of set-ups all taken in
            one moment would follow the host's state at that moment."""
            due = min(SETUP_REPEATS, 1 + int(done * (SETUP_REPEATS - 1) + 0.5))
            while len(setups) < due:
                setups.append(setup_probe_seconds(args.workload, args.seed))

        attempted, latencies, first_pass, failures = measure(
            wl, args.seed, args.seconds, probe_setups)
        probe_setups(1.0)  # the probes a run too short to hold them all missed
        setup_s = statistics.median(setups)
        ok = attempted - len(failures)
        metrics = {"setup_s": (setup_s, "s"),
                   "ops_per_s": (ok / attempted * len(latencies) / sum(latencies), "1/s"),
                   "ok_frac": (ok / attempted, "frac"),
                   "peak_rss_mb": (peak_rss_mb(), "MB")}
        metrics.update({k: (v, "ms") for k, v in latency_metrics(latencies).items()})
        summary["latency_samples"] = len(latencies)
        summary["passes"] = attempted // len(wl.requests)
        summary["requests_per_pass"] = len(wl.requests)
        summary["first_pass"] = latency_metrics(first_pass)
        summary["setup_samples"] = setups
    summary["failures"] = failures[:20]
    summary["env"] = environment(args.seed, load_at_start)
    print(json.dumps(summary))
    return {"correct": not failures, "attempted": attempted, "failed": len(failures),
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0,
                        help="how long the untraced run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "debtdyn" / "__init__.py").is_file():
        print(f"error: no debtdyn sources under {SRC}; run from a checkout of the "
              f"repository", file=sys.stderr)
        return 2
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    work = ROOT / ".bench_work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_probe:
            _, seconds = timed_setup(args.workload, args.seed, work)
            print(json.dumps({"setup_s": seconds}))
            return 0
        print(json.dumps(run(args, work)))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())

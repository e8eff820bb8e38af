"""latticelight benchmark: CLI workloads timed end to end, plus a traced run per layer.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace {0,1}

Every workload is a fixed sequence of ``latticelight`` CLI calls, each in its
own process, run from ``src/`` of this checkout.  The sequence is repeated
for about S seconds of measured time.  ``--seed`` is passed to the CLI as
``--seed`` (it draws the tilt directions and the fock-suite weights).

--trace 0  reports the end-to-end metrics (medians over the repetitions):
           wall_s, cpu_s and peak_rss_mb of the CLI sequence, and setup_s, the
           median time to import ``latticelight.cli`` in a fresh interpreter.
--trace 1  alternates an untraced and a traced pass of the sequence through
           ``traced_cli.py``, which wraps the public functions of every layer
           from outside the program, and reports the per-layer metrics.

Every artifact is checked (``checks.py``) outside the timed region, and all
repetitions must write byte-identical artifacts.  The last stdout line is
the JSON result; the line before it gives the environment, the error rate,
the raw samples and any problems found.  Exits 2 without a result
when the checkout has no ``src/latticelight``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SHIM = HERE / "traced_cli.py"

# import probes per untraced run: PROBES_PER_PASS before each repetition, then
# more at the end until there are SETUP_PROBES
SETUP_PROBES = 15
PROBES_PER_PASS = 3
# the longest call takes under 10 s; a child still running after this is killed
CHILD_TIMEOUT_S = 30.0
# no repetition starts after this many seconds; with at most four calls of
# CHILD_TIMEOUT_S in the last one, a run ends inside 180 s
RUN_DEADLINE_S = 45.0
# single-threaded runs: BLAS pools and the CLI's own thread option stay at 1
PINNED_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
DROPPED_ENV = ("LATTICELIGHT_THREADS",)

SETUP_PROBE = """\
import time
start = time.perf_counter()
import latticelight.cli
elapsed = time.perf_counter() - start
import json, os, sys, numpy, scipy, latticelight
print(json.dumps({"setup_s": elapsed, "package": os.path.dirname(latticelight.__file__),
    "python": sys.version.split()[0], "numpy": numpy.__version__, "scipy": scipy.__version__}))
"""


@dataclass(frozen=True)
class Call:
    """One CLI call of a workload: its label, arguments, artifact and checker."""

    label: str
    args: tuple
    artifact: str
    check: object  # (artifact path, seed) -> list of problems


WORKLOADS = {
    # walk + dispersion + output: 240,762 omega calls over a 21^3 grid, then the
    # cancellation-free flight route; bilinear and fock stay idle
    "dispersion-grid": (
        Call("dispersion", ("dispersion", "--points", "21"), "dispersion.csv",
             lambda path, seed: checks.check_dispersion(path, 21)),
        Call("flight", ("flight",), "flight.csv", lambda path, seed: checks.check_flight(path)),
    ),
    # bilinear two ways: few vector_tables calls over 2,109-point profiles, then
    # 8,192 single-point calls where per-call overhead dominates
    "maxwell-tilt": (
        Call("maxwell-convergence", ("maxwell-convergence", "--spacing-factor", "0.125"),
             "maxwell_convergence.csv", lambda path, seed: checks.check_maxwell(path)),
        Call("tilt", ("tilt", "--directions", "2048"), "tilt.csv",
             lambda path, seed: checks.check_tilt(path, seed, 2048)),
    ),
    # fock at two sizes (dim 256 and 4,096) to separate per-dimension cost from
    # fixed per-process cost; walk, dispersion and bilinear stay idle
    "fock-oracle": (
        Call("fock-suite-m2", ("fock-suite", "--momenta", "2"), "fock_suite_m2.json",
             lambda path, seed: checks.check_fock(path, 2)),
        Call("fock-suite-m3", ("fock-suite", "--momenta", "3"), "fock_suite_m3.json",
             lambda path, seed: checks.check_fock(path, 3)),
    ),
}
WARMUP = ("flight",)
LABELS = [call.label for calls in WORKLOADS.values() for call in calls]


@dataclass
class Child:
    code: int
    wall_s: float
    cpu_s: float
    max_rss_mb: float


def child_env():
    env = {k: v for k, v in os.environ.items() if k not in DROPPED_ENV}
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(argv, cwd, env, log_path):
    """Run one child to completion; its own rusage comes from wait4, not RUSAGE_CHILDREN."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=log, stderr=subprocess.STDOUT)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted or terminated: take the child down too
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)


def cli_argv(call, seed, out, report, trace):
    """The plain CLI when ``trace`` is None, else traced_cli.py writing ``report``."""
    if trace is None:
        head = [sys.executable, "-m", "latticelight.cli"]
    else:
        head = [sys.executable, str(SHIM), str(report), "1" if trace else "0"]
    return head + list(call.args) + ["--seed", str(seed), "--out", str(out)]


@dataclass
class Pass:
    """One run of a workload's call sequence."""

    directory: Path
    wall_s: float
    children: list
    reports: list  # one traced_cli.py report per call (None if it failed); empty for plain passes

    @property
    def cpu_s(self):
        return sum(c.cpu_s for c in self.children)

    @property
    def peak_rss_mb(self):
        return max(c.max_rss_mb for c in self.children)


def run_pass(calls, seed, directory, env, trace=None):
    """Run the call sequence once: the plain CLI when ``trace`` is None, else through
    traced_cli.py with tracing off (False) or on (True)."""
    directory.mkdir(parents=True)
    children = []
    start = time.perf_counter()
    for call in calls:
        argv = cli_argv(call, seed, directory / call.artifact, directory / f"{call.label}.report.json", trace)
        children.append(spawn(argv, directory, env, directory / f"{call.label}.log"))
    wall = time.perf_counter() - start
    reports = []
    if trace is not None:
        for call, child in zip(calls, children):
            path = directory / f"{call.label}.report.json"
            reports.append(json.loads(path.read_text()) if child.code == 0 else None)
    return Pass(directory, wall, children, reports)


def probe_setup(env, directory):
    """Run SETUP_PROBE in a fresh interpreter: {setup_s, versions, nproc}."""
    log = directory / "setup.log"
    if spawn([sys.executable, "-c", SETUP_PROBE], directory, env, log).code != 0:
        raise RuntimeError(f"import probe failed:\n{log.read_text()}")
    info = json.loads(log.read_text().strip().splitlines()[-1])
    if Path(info.pop("package")).resolve() != (SRC / "latticelight").resolve():
        raise RuntimeError(f"imported latticelight from outside {SRC}")
    info["nproc"] = os.cpu_count()
    return info


def check_passes(calls, seed, passes):
    """Check each call's first artifact, and that every other pass wrote the same bytes.

    Returns (failed call count, problems); every call of every pass is one attempt.
    """
    failed, problems = 0, []
    for i, call in enumerate(calls):
        reference, verdict = None, None
        for p in passes:
            path = p.directory / call.artifact
            if p.children[i].code != 0:
                found = [f"{call.label}: exit code {p.children[i].code} in {p.directory.name}"]
                problems += found
            elif reference is None:
                reference, verdict = path, call.check(path, seed)
                found = verdict
                problems += found
            elif path.read_bytes() != reference.read_bytes():
                found = [f"{call.label}: artifact of {p.directory.name} differs from {reference.parent.name}"]
                problems += found
            else:
                found = verdict
            failed += bool(found)
    return failed, problems


def artifact_facts(calls, directory):
    """Counts read from the artifacts: bytes written, NaN group-speed rows, Fock dimension."""
    facts = {"bytes": 0, "nan_vg_rows": 0, "grid_rows": 0, "fock_dim": {}}
    for call in calls:
        path = directory / call.artifact
        facts["bytes"] += path.stat().st_size
        if call.label == "dispersion":
            facts["nan_vg_rows"], facts["grid_rows"] = checks.nan_vg_rows(path)
        if call.args[0] == "fock-suite":
            facts["fock_dim"][call.label] = checks.fock_dimension(path)
    return facts


# ---------------------------------------------------------------------------
# per-layer metrics from one traced pass


def _fn(functions, name, field):
    return functions.get(name, {}).get(field, 0)


def _layer_self(functions, layer):
    return sum(v["self_s"] for k, v in functions.items() if k.startswith(layer + "."))


def _entry_total(edges, layer):
    """Inclusive time of calls into ``layer`` from outside it."""
    prefix = layer + "."
    return sum(
        e["total_s"] for e in edges if e["callee"].startswith(prefix) and not e["caller"].startswith(prefix)
    )


def _per(numerator_s, count, scale=1e6):
    return numerator_s * scale / count if count else 0.0


def _merge(reports):
    merged = {}
    for report in reports:
        for name, agg in report["functions"].items():
            into = merged.setdefault(name, dict.fromkeys(agg, 0))
            for field, value in agg.items():
                into[field] += value
    return merged


def _bilinear(functions):
    grid_points = _fn(functions, "bilinear.vector_tables", "items")
    return {
        "vector_tables.calls": _fn(functions, "bilinear.vector_tables", "calls"),
        "vector_tables.self_s": _fn(functions, "bilinear.vector_tables", "self_s"),
        "grid_points": grid_points,
        "us_per_grid_point": _per(_fn(functions, "bilinear.vector_tables", "total_s"), grid_points),
        "maxwell_emergence_report.calls": _fn(functions, "bilinear.maxwell_emergence_report", "calls"),
        "maxwell_emergence_report.self_s": _fn(functions, "bilinear.maxwell_emergence_report", "self_s"),
        "polarization_frame.self_s": _fn(functions, "bilinear.polarization_frame", "self_s"),
        "make_uniform_profile.self_s": _fn(functions, "bilinear.make_uniform_profile", "self_s"),
    }


def layer_metrics(calls, traced, facts):
    """Per-layer metrics of one traced pass; layers a workload leaves idle read 0."""
    by_label = {call.label: report for call, report in zip(calls, traced.reports)}
    empty = {"functions": {}, "edges": []}
    functions = _merge(traced.reports)
    m = {}
    for fn in ("bloch_data", "step_power"):
        m[f"walk.{fn}.calls"] = _fn(functions, f"walk.{fn}", "calls")
        m[f"walk.{fn}.self_s"] = _fn(functions, f"walk.{fn}", "self_s")
    m["walk.evals"] = _fn(functions, "walk.bloch_data", "items") + _fn(functions, "walk.step_power", "items")
    m["walk.us_per_eval"] = _per(m["walk.bloch_data.self_s"] + m["walk.step_power.self_s"], m["walk.evals"])

    for fn in ("omega", "group_velocity"):
        m[f"dispersion.{fn}.calls"] = _fn(functions, f"dispersion.{fn}", "calls")
        m[f"dispersion.{fn}.self_s"] = _fn(functions, f"dispersion.{fn}", "self_s")
    m["dispersion.speed_deviation.calls"] = _fn(functions, "dispersion.speed_deviation", "calls")
    grid = by_label.get("dispersion", empty)
    m["dispersion.us_per_k"] = _per(_entry_total(grid["edges"], "dispersion"), facts["grid_rows"])
    m["dispersion.nan_vg_rows"] = facts["nan_vg_rows"]

    for key, value in _bilinear(functions).items():
        m[f"bilinear.{key}"] = value
    for part, label in (("maxwell", "maxwell-convergence"), ("tilt", "tilt")):
        for key, value in _bilinear(by_label.get(label, empty)["functions"]).items():
            m[f"bilinear.{part}.{key}"] = value

    m["fock.dim"] = sum(facts["fock_dim"].values())
    for fn in ("build_fock", "schwartz_exhaustive", "polarization_boson_check"):
        m[f"fock.{fn}.self_s"] = _fn(functions, f"fock.{fn}", "self_s")
    for fn in ("gamma_for_profile", "commutator_report", "composite_boson_suite"):
        m[f"fock.{fn}.calls"] = _fn(functions, f"fock.{fn}", "calls")
        m[f"fock.{fn}.self_s"] = _fn(functions, f"fock.{fn}", "self_s")
    for size in ("m2", "m3"):
        m[f"fock.{size}.self_s"] = _layer_self(by_label.get(f"fock-suite-{size}", empty)["functions"], "fock")

    m["output.write_table.self_s"] = _fn(functions, "output.write_table", "self_s")
    m["output.write_json.self_s"] = _fn(functions, "output.write_json", "self_s")
    m["output.bytes"] = facts["bytes"]
    # main plus the cmd_* handlers, whose bodies do the fock-suite plain commutators
    m["cli.main.self_s"] = _layer_self(functions, "cli")
    m["trace.spans"] = sum(v["calls"] for v in functions.values())
    return m


def unit_of(name):
    if name.endswith("_s"):
        return "s"
    if ".us_per_" in name:
        return "us"
    if name == "output.bytes":
        return "bytes"
    if name == "peak_rss_mb":
        return "MB"
    return "count"


def median(values):
    return float(statistics.median(values))


# ---------------------------------------------------------------------------


def end_to_end_metrics(plain, setup_times):
    """Medians over the untraced passes, and over the import probes for setup_s."""
    return {
        "wall_s": median([p.wall_s for p in plain]),
        "cpu_s": median([p.cpu_s for p in plain]),
        "peak_rss_mb": median([p.peak_rss_mb for p in plain]),
        "setup_s": median(setup_times),
    }


def measure(calls, seed, seconds, trace, work, env, deadline):
    """Repeat the sequence (plain, or an untraced and a traced pass) for about ``seconds``.

    A repetition starts only if it is expected to end nearer to ``seconds``
    than stopping now would, so a run measures about ``seconds`` however long
    one repetition takes.  Untraced runs time PROBES_PER_PASS import probes
    before each repetition, so setup_s samples the same stretch of time as
    the passes; traced runs report no setup_s and time none.
    """
    plain, untraced, traced, walls, setup_times = [], [], [], [], []
    while not walls or (
        sum(walls) + median(walls) / 2.0 < seconds and time.perf_counter() < deadline
    ):
        name = f"pass{len(walls)}"
        if trace:
            untraced.append(run_pass(calls, seed, work / f"{name}-untraced", env, trace=False))
            traced.append(run_pass(calls, seed, work / f"{name}-traced", env, trace=True))
            walls.append(untraced[-1].wall_s + traced[-1].wall_s)
        else:
            setup_times += [probe_setup(env, work)["setup_s"] for _ in range(PROBES_PER_PASS)]
            plain.append(run_pass(calls, seed, work / name, env))
            walls.append(plain[-1].wall_s)
    while not trace and len(setup_times) < SETUP_PROBES:
        setup_times.append(probe_setup(env, work)["setup_s"])
    return plain, untraced, traced, sum(walls), setup_times


def run(workload, seed, seconds, trace):
    calls = WORKLOADS[workload]
    env = child_env()
    deadline = time.perf_counter() + RUN_DEADLINE_S
    work = WORK / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        warm = work / "warmup"
        warm.mkdir()
        argv = [sys.executable, "-m", "latticelight.cli", *WARMUP, "--out", str(warm / "out")]
        if spawn(argv, warm, env, warm / "log").code != 0:
            raise RuntimeError(f"warm-up call failed:\n{(warm / 'log').read_text()}")
        environment = probe_setup(env, warm)
        del environment["setup_s"]

        plain, untraced, traced, measured, setup_times = measure(
            calls, seed, seconds, trace, work, env, deadline
        )
        passes = plain + untraced + traced
        failed, problems = check_passes(calls, seed, passes)
        attempted = len(passes) * len(calls)
        if trace:
            metrics, samples = traced_metrics(calls, untraced, traced, problems)
        else:
            metrics = end_to_end_metrics(plain, setup_times)
            samples = {
                "wall_s": [p.wall_s for p in plain],
                "cpu_s": [p.cpu_s for p in plain],
                "peak_rss_mb": [p.peak_rss_mb for p in plain],
            }
        context = {
            "workload": workload,
            "seed": seed,
            "trace": int(trace),
            "environment": environment,
            "measured_s": measured,
            "error_rate": failed / attempted,
            "problems": problems[:20],
            "setup_s_samples": setup_times,
            "samples": samples,
        }
        print(json.dumps(context))
        return {
            "correct": failed == 0 and not problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)


def traced_metrics(calls, untraced, traced, problems):
    """Medians over traced passes; counts must repeat exactly or a problem is recorded."""
    usable = [
        (u, t) for u, t in zip(untraced, traced)
        if all(r is not None for r in u.reports + t.reports)
    ]
    if not usable:
        problems.append("trace: no pass completed")
        return {}, {}
    facts = artifact_facts(calls, usable[0][1].directory)
    per_pass = [layer_metrics(calls, t, facts) for _, t in usable]
    counts = {k for k in per_pass[0] if unit_of(k) in ("count", "bytes")}
    for other in per_pass[1:]:
        moved = sorted(k for k in counts if other[k] != per_pass[0][k])
        if moved:
            problems.append(f"trace: counts differ between passes: {moved}")
    metrics = {k: (per_pass[0][k] if k in counts else median([p[k] for p in per_pass])) for k in per_pass[0]}
    overhead = [
        sum(r["in_process_s"] for r in t.reports) - sum(r["in_process_s"] for r in u.reports)
        for u, t in usable
    ]
    metrics["trace.overhead_s"] = median(overhead)
    for label in LABELS:
        walls = [c.wall_s for u, _ in usable for call, c in zip(calls, u.children) if call.label == label]
        metrics[f"cli.{label}.wall_s"] = median(walls) if walls else 0.0
    samples = {"trace.overhead_s": overhead, "passes": len(usable)}
    return metrics, samples


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None):
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "latticelight" / "cli.py").is_file():
        print(f"error: no latticelight sources under {SRC}", file=sys.stderr)
        return 2
    # the checks recompute results with the checkout's own library
    sys.path.insert(0, str(SRC))
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

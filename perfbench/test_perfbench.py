"""Tests of the benchmark's own code: tracer arithmetic, output checks, metric names.

Run from the repository root with ``python -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import checks
import run
from tracer import ROOT, Tracer, install

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))


def benchmark_spec():
    return json.loads((REPO / "BENCHMARK.json").read_text())


def cli(tmp_path, *args, shim=None):
    """Run the CLI (or traced_cli.py with report path ``shim``) in ``tmp_path``."""
    head = [sys.executable, "-m", "latticelight.cli"] if shim is None else [
        sys.executable, str(run.SHIM), str(shim), "1"]
    subprocess.run(head + list(args), cwd=tmp_path, env=run.child_env(), check=True)


# ---------------------------------------------------------------------------
# tracer


def test_self_time_subtracts_direct_children_on_nested_spans():
    # outer [0, 10] holds mid [2, 5] and side [6, 7]; mid holds leaf [3, 4]
    ticks = iter([0.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    leaf = tracer.wrap("leaf", lambda: None)
    mid = tracer.wrap("mid", lambda: leaf())
    side = tracer.wrap("side", lambda: None)

    def outer_body():
        mid()
        side()

    tracer.wrap("outer", outer_body)()
    fns = tracer.functions()
    assert {name: (f["calls"], f["total_s"], f["self_s"]) for name, f in fns.items()} == {
        "outer": (1, 10.0, 6.0),
        "mid": (1, 3.0, 2.0),
        "leaf": (1, 1.0, 1.0),
        "side": (1, 1.0, 1.0),
    }
    assert sorted((e["caller"], e["callee"]) for e in tracer.edge_list()) == [
        (ROOT, "outer"), ("mid", "leaf"), ("outer", "mid"), ("outer", "side")]


def test_span_that_raises_is_recorded_and_unwound():
    ticks = iter([0.0, 1.0, 2.0, 4.0, 5.0, 6.0])

    def fail():
        raise ValueError("degenerate")

    tracer = Tracer(clock=lambda: next(ticks))
    inner = tracer.wrap("inner", fail)

    def outer_body():
        with pytest.raises(ValueError):
            inner()

    tracer.wrap("outer", outer_body)()
    tracer.wrap("after", lambda: None)()
    fns = tracer.functions()
    assert (fns["inner"]["calls"], fns["inner"]["self_s"]) == (1, 1.0)
    assert fns["outer"]["self_s"] == 3.0
    # the stack unwound: the next call is attributed to the root again
    assert (ROOT, "after") in tracer.edges


def _module(name, source):
    module = types.ModuleType(name)
    exec(source, vars(module))
    return module


def test_install_wraps_every_binding_and_skips_private_names():
    lib = _module("fake.lib", "def helper(x):\n    return x + 1\n"
                              "def api(x):\n    return helper(x) * 2\n"
                              "def _private():\n    return 0\n")
    front = _module("fake.front", "")
    front.api = lib.api
    front.TABLE = {"run": lib.api}
    tracer = Tracer()
    replaced = install(tracer, {"lib": lib}, [lib, front], {"lib.helper": lambda x: x})
    assert replaced == 4  # lib.api, lib.helper, front.api, front.TABLE["run"]
    assert front.api(1) == 4 and front.TABLE["run"](2) == 6 and lib._private() == 0
    fns = tracer.functions()
    assert fns["lib.api"]["calls"] == 2
    assert (fns["lib.helper"]["calls"], fns["lib.helper"]["items"]) == (2, 3)
    assert "lib._private" not in fns


def test_traced_counts_on_a_tiny_dispersion_grid(tmp_path):
    report = tmp_path / "report.json"
    cli(tmp_path, "dispersion", "--points", "3", "--out", "d.csv", shim=report)
    fns = json.loads(report.read_text())["functions"]
    # 27 k-points x 2 branches, plus 12 omega per FD gradient on the 26 non-degenerate points
    assert fns["dispersion.omega"]["calls"] == 27 * 2 + 26 * 24 == 678
    assert fns["dispersion.group_velocity"]["calls"] == 54
    assert fns["walk.bloch_data"]["calls"] == 678 + 54
    assert fns["walk.bloch_data"]["items"] == 678 + 54
    assert fns["cli.main"]["calls"] == fns["cli.cmd_dispersion"]["calls"] == 1
    assert fns["output.write_table"]["calls"] == 1


# ---------------------------------------------------------------------------
# output checks


def _rewrite_cell(path, row, column, change):
    lines = path.read_text().splitlines()
    body = [i for i, line in enumerate(lines) if not line.startswith("#")]
    cells = lines[body[row + 1]].split(",")
    cells[column] = repr(change(float(cells[column])))
    lines[body[row + 1]] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def test_dispersion_check_accepts_the_cli_and_rejects_a_perturbed_omega(tmp_path):
    cli(tmp_path, "dispersion", "--points", "3", "--out", "d.csv")
    path = tmp_path / "d.csv"
    assert checks.check_dispersion(path, 3) == []
    assert checks.nan_vg_rows(path) == (1, 27)
    _rewrite_cell(path, 5, 3, lambda omega: omega + 1e-9)
    problems = checks.check_dispersion(path, 3)
    assert len(problems) == 1 and "omega" in problems[0]


def test_dispersion_check_rejects_a_wrong_group_speed(tmp_path):
    cli(tmp_path, "dispersion", "--points", "3", "--out", "d.csv")
    path = tmp_path / "d.csv"
    _rewrite_cell(path, 7, 6, lambda vg: vg * (1 + 1e-7))
    problems = checks.check_dispersion(path, 3)
    assert len(problems) == 1 and "v_g" in problems[0]


def test_reference_kernel_agrees_with_the_library():
    from latticelight.dispersion import group_velocity_analytic, omega
    from latticelight.walk import bloch_data

    k = np.random.default_rng(3).uniform(-2.0, 2.0, (64, 3))
    for sign in (checks.PLUS, checks.MINUS):
        om, speed = checks.reference_dispersion(k, sign)
        _, n_tilde, lam = checks.reference_bloch(k, sign)
        for i, kvec in enumerate(k):
            b = bloch_data(kvec, sign)
            assert np.allclose(n_tilde[i], b.n_tilde, rtol=0, atol=1e-15) and abs(lam[i] - b.lam) <= 1e-15
            assert abs(om[i] - omega(kvec, sign)) <= 1e-15
            assert speed[i] == pytest.approx(np.linalg.norm(group_velocity_analytic(kvec, sign)), rel=1e-13)
    assert np.isnan(checks.reference_dispersion(np.zeros((1, 3)), checks.MINUS)[1][0])


def test_tilt_check_recomputes_any_seed(tmp_path):
    cli(tmp_path, "tilt", "--directions", "16", "--seed", "11", "--out", "t.csv")
    assert checks.check_tilt(tmp_path / "t.csv", 11, 16) == []
    assert checks.check_tilt(tmp_path / "t.csv", 12, 16) != []


def test_fock_check_rejects_a_failed_report(tmp_path):
    report = json.loads((checks.REFERENCE / "fock_suite_m2.json").read_text())
    path = tmp_path / "fock.json"
    path.write_text(json.dumps(report))
    assert checks.check_fock(path, 2) == []
    report["passed"] = False
    path.write_text(json.dumps(report))
    assert any("passed=False" in p for p in checks.check_fock(path, 2))
    assert checks.check_fock(path, 3) != []  # the values of the other size


def test_fock_check_compares_every_seed_independent_value(tmp_path):
    reference = json.loads((checks.REFERENCE / "fock_suite_m3.json").read_text())
    path = tmp_path / "fock.json"
    report = json.loads(json.dumps(reference))
    report["seed"] = 5
    report["checks"][4]["conjecture_worst_slack"] = 0.41
    path.write_text(json.dumps(report))
    assert checks.check_fock(path, 3) == []
    for edit in (
        lambda r: r["checks"][4].update(purity=0.2),
        lambda r: r["checks"][3]["deviation_by_particles"].update({"1": 0.5 + 1e-9}),
        lambda r: r["checks"][4]["sandwich"][1].__setitem__(1, 0.3),
        lambda r: r["checks"][2].update(worst_margin=1e-6),
        lambda r: r["checks"][1].update(max_assembly_deviation=1e-8),
        lambda r: r["checks"][4].update(commutator_identity_deviation=1e-9),
        lambda r: r["checks"][4].pop("purity"),
    ):
        report = json.loads(json.dumps(reference))
        edit(report)
        path.write_text(json.dumps(report))
        assert checks.check_fock(path, 3) != [], report["checks"]


def test_maxwell_and_flight_checks_accept_the_reference_and_reject_a_shift(tmp_path):
    for name, check in (("maxwell_convergence.csv", checks.check_maxwell),
                        ("flight.csv", checks.check_flight)):
        path = tmp_path / name
        shutil.copy(checks.REFERENCE / name, path)
        assert check(path) == []
        _rewrite_cell(path, 0, len(checks.read_artifact(path)[1]) - 1, lambda v: v * 1.01 + 1e-9)
        assert check(path) != []


def test_unreadable_artifact_is_a_problem_not_a_crash(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    assert checks.check_flight(path)[0].startswith("check_flight: unreadable")


def test_differing_artifacts_between_passes_count_as_failures(tmp_path):
    calls = run.WORKLOADS["fock-oracle"]
    passes = []
    for i in range(2):
        directory = tmp_path / f"pass{i}"
        directory.mkdir()
        for call in calls:
            shutil.copy(checks.REFERENCE / call.artifact, directory / call.artifact)
        passes.append(run.Pass(directory, 1.0, [run.Child(0, 0.5, 0.5, 50.0)] * 2, []))
    assert run.check_passes(calls, 0, passes) == (0, [])
    with open(passes[1].directory / calls[1].artifact, "a") as fh:
        fh.write(" ")
    failed, problems = run.check_passes(calls, 0, passes)
    assert failed == 1 and "differs" in problems[0]


# ---------------------------------------------------------------------------
# metric names agree with BENCHMARK.json


def test_end_to_end_metric_names_and_units_match_the_spec():
    p = run.Pass(Path("."), 2.0, [run.Child(0, 1.0, 0.9, 50.0), run.Child(0, 1.0, 0.8, 60.0)], [])
    metrics = run.end_to_end_metrics([p, p], [0.4, 0.5, 0.45])
    assert (metrics["wall_s"], metrics["cpu_s"], metrics["peak_rss_mb"], metrics["setup_s"]) == (
        2.0, pytest.approx(1.7), 60.0, 0.45)
    spec = {m["name"]: m["unit"] for m in benchmark_spec()["end_to_end"]}
    assert {name: run.unit_of(name) for name in metrics} == spec


def test_per_layer_metric_names_and_units_match_the_spec(tmp_path):
    calls = run.WORKLOADS["fock-oracle"]
    for call in calls:
        shutil.copy(checks.REFERENCE / call.artifact, tmp_path / call.artifact)
    report = {"functions": {}, "edges": [], "in_process_s": 1.0}
    child = run.Child(0, 1.0, 1.0, 50.0)
    p = run.Pass(tmp_path, 2.0, [child, child], [report, report])
    problems = []
    metrics, _ = run.traced_metrics(calls, [p], [p], problems)
    assert problems == []
    assert metrics["fock.dim"] == 256 + 4096
    spec = {m["name"]: m["unit"] for m in benchmark_spec()["per_layer"]}
    assert {name: run.unit_of(name) for name in metrics} == spec


def test_benchmark_refuses_a_tree_without_sources(tmp_path):
    shutil.copytree(REPO / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fock-oracle", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0 and done.stdout == ""

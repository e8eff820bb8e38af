"""End-to-end tests of the command-line front end."""

import functools
import itertools
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import latticelight
from artifacts import read_table
from latticelight import MINUS
from latticelight.cli import (
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_OK,
    INTEGER,
    MAX_WAVEVECTORS,
    SCHEMA,
    _build_parser,
    _effective_config,
    main,
)


def run(args):
    return main([str(a) for a in args])


def test_dispersion_origin_row_and_header(tmp_path):
    out = tmp_path / "d.csv"
    assert run(["dispersion", "--points", 3, "--kmax", 0.5, "--out", out]) == EXIT_OK
    header, columns, rows = read_table(out)
    assert header["command"] == "dispersion"
    assert header["seed"] == 0
    assert "artifact_version" in header
    assert columns == ["kx", "ky", "kz", "omega_plus", "omega_minus", "vg_plus", "vg_minus"]
    origin = [r for r in rows if float(r[0]) == 0.0 and float(r[1]) == 0.0 and float(r[2]) == 0.0]
    assert len(origin) == 1
    assert float(origin[0][3]) == 0.0 and float(origin[0][4]) == 0.0


def test_dispersion_diagonal_split(tmp_path):
    out = tmp_path / "d.csv"
    assert run(["dispersion", "--diagonal", "--points", 5, "--kmax", 0.04, "--out", out]) == EXIT_OK
    _, _, rows = read_table(out)
    for row in rows[1:]:  # skip the origin
        vg_plus, vg_minus = float(row[5]), float(row[6])
        assert vg_minus > 1.0 / np.sqrt(3.0) > vg_plus  # opposite-sign split


@pytest.mark.parametrize(
    "args",
    [
        # the first row, (-kmax, -kmax, -kmax) with kmax = 2 pi sqrt3, has lam(k/2) = pi
        ["--points", 3, "--kmax", 2.0 * math.pi * math.sqrt(3.0)],
        # the second row, (pi sqrt3, pi sqrt3, pi sqrt3), has lam(k/2) = pi on the minus branch
        ["--diagonal", "--points", 3, "--kmax", 6.0 * math.pi],
    ],
)
def test_dispersion_degenerate_grid_point_exits_two(tmp_path, capsys, args):
    out = tmp_path / "d.csv"
    assert run(["dispersion", *args, "--out", out]) == EXIT_CONFIG
    assert "error: degenerate wavevector:" in capsys.readouterr().err
    assert not out.exists()  # a row streamed before the degenerate one leaves no partial artifact


def test_dispersion_degenerate_grid_point_leaves_an_existing_out_file_as_it_was(tmp_path):
    out = tmp_path / "d.csv"
    out.write_bytes(b"an earlier artifact\n")
    assert run(["dispersion", "--points", 3, "--kmax", 2.0 * math.pi * math.sqrt(3.0), "--out", out]) == EXIT_CONFIG
    assert out.read_bytes() == b"an earlier artifact\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d.csv"]  # no temporary file is left beside it


def test_dispersion_counts_nan_speeds_on_stderr(tmp_path, capsys):
    out = tmp_path / "d.csv"
    assert run(["dispersion", "--points", 3, "--out", out]) == EXIT_OK
    err = capsys.readouterr().err
    assert err == "note: 1 of 27 rows have a NaN group speed, where sin lam(k/2) < 1e-12\n"
    _, _, rows = read_table(out)
    assert [row[:3] for row in rows if "nan" in row] == [["0", "0", "0"]]  # the origin, on both branches
    assert run(["dispersion", "--diagonal", "--points", 4, "--kmax", 0.5, "--out", out]) == EXIT_OK
    assert capsys.readouterr().err.startswith("note: 1 of 4 rows ")


def test_dispersion_refuses_a_kmax_whose_grid_overflows(tmp_path, capsys):
    # np.linspace(-1e308, 1e308, 3) spans 2e308 = inf and wrote rows of inf and nan with exit 0
    out = tmp_path / "d.csv"
    assert run(["dispersion", "--points", 3, "--kmax", 1e308, "--out", out]) == EXIT_CONFIG
    assert capsys.readouterr().err == "error: kmax must be in (0, 1e+300], got 1e+308\n"
    assert not out.exists()


def test_tilt_at_a_huge_k_matches_the_batched_oracle_on_unit_directions(tmp_path):
    # |n x k|^2 overflowed from about k = 1e154: both columns read pi/2, with numpy's overflow warnings
    from walk_oracles import tilt_angle

    out = tmp_path / "t.csv"
    src = os.path.dirname(os.path.dirname(latticelight.__file__))
    args = ["tilt", "--k-values", "1e200", "--directions", "64", "--seed", "3", "--out", str(out)]
    result = subprocess.run(
        [sys.executable, "-m", "latticelight.cli", *args], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=120,
    )
    assert (result.returncode, result.stderr) == (EXIT_OK, "")
    _, _, rows = read_table(out)
    dirs = np.random.default_rng(3).standard_normal((64, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    want = tilt_angle(1e200 * dirs, MINUS)
    assert float(rows[0][1]) == pytest.approx(want.max(), abs=1e-15)
    assert float(rows[0][2]) == pytest.approx(want.mean(), abs=1e-15)
    assert float(rows[0][2]) < float(rows[0][1]) < math.pi / 2.0


def test_tilt_refuses_a_k_value_whose_estimate_overflows(tmp_path, capsys):
    out = tmp_path / "t.csv"
    assert run(["tilt", "--k-values", "0.05,1e301", "--out", out]) == EXIT_CONFIG
    assert capsys.readouterr().err == "error: k_values must be in 0..1e+300, got 1e+301\n"
    assert not out.exists()


def test_determinism_byte_identical(tmp_path):
    pairs = [
        (["dispersion", "--points", 2, "--kmax", 0.3], "d"),
        (["dispersion", "--diagonal", "--points", 9, "--kmax", 3.0], "dd"),
        (["maxwell-convergence", "--levels", 2, "--t", 5], "m"),
        (["flight"], "f"),
        (["tilt", "--directions", 8], "t"),
        (["fock-suite", "--momenta", 1, "--conjecture-samples", 3], "fs"),
    ]
    for args, stem in pairs:
        out1 = tmp_path / f"{stem}1.out"
        out2 = tmp_path / f"{stem}2.out"
        assert run(args + ["--seed", 9, "--out", out1]) == EXIT_OK
        assert run(args + ["--seed", 9, "--out", out2]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()


def test_maxwell_convergence_content(tmp_path):
    out = tmp_path / "m.csv"
    assert run(["maxwell-convergence", "--levels", 4, "--t", 50, "--out", out]) == EXIT_OK
    header, _, rows = read_table(out)
    assert float(rows[0][0]) == 0.0  # single-point row first
    assert float(rows[0][1]) <= 1e-10
    assert abs(header["fitted_residual_slope"] - 1.0) <= 0.15


def test_maxwell_convergence_stays_on_the_benchmark_reference(tmp_path):
    # the benchmark's own tolerances, so that a wrong closed form fails here first
    reference = Path(__file__).resolve().parent.parent / "perfbench" / "reference" / "maxwell_convergence.csv"
    out = tmp_path / "m.csv"
    assert run(["maxwell-convergence", "--spacing-factor", 0.125, "--out", out]) == EXIT_OK
    (header, columns, rows), (ref_header, ref_columns, ref_rows) = read_table(out), read_table(reference)
    assert columns == ref_columns and len(rows) == len(ref_rows) and header["config"] == ref_header["config"]
    got, want = np.array(rows, dtype=float), np.array(ref_rows, dtype=float)
    assert got[0, 0] == 0.0 and got[0, 1] <= 1e-12
    np.testing.assert_allclose(got[1:, 0], want[1:, 0], rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(got[1:, 1], want[1:, 1], rtol=1e-6, atol=0.0)
    np.testing.assert_allclose(got[:, 2:], want[:, 2:], rtol=0.0, atol=1e-9)
    assert header["fitted_residual_slope"] == pytest.approx(ref_header["fitted_residual_slope"], rel=1e-6)


def test_plus_branch_tilt_is_small_at_small_k(tmp_path):
    # the plus axis tends to (k_x, -k_y, k_z): measured against k these rows read 1.568 max, 0.827 mean
    out = tmp_path / "t.csv"
    assert run(["tilt", "--sign", "plus", "--k-values", 0.05, "--directions", 256, "--out", out]) == EXIT_OK
    _, _, rows = read_table(out)
    assert 0.0 < float(rows[0][2]) < float(rows[0][1]) < 0.16 * 0.05
    out = tmp_path / "m.csv"
    assert run(["maxwell-convergence", "--sign", "plus", "--levels", 2, "--out", out]) == EXIT_OK
    _, _, rows = read_table(out)
    assert float(rows[0][2]) < 0.1 < 1.0 < float(rows[0][3])


def test_tilt_at_small_k_stays_on_the_leading_law(tmp_path):
    # arccos of the cosine wrote 0 here, and 149 |k| at |k| = 1e-10
    out = tmp_path / "t.csv"
    assert run(["tilt", "--k-values", 1e-8, "--directions", 4, "--out", out]) == EXIT_OK
    _, _, rows = read_table(out)
    assert 0.0 < float(rows[0][1]) <= np.sqrt(2.0) / 9.0 * 1e-8


def test_fock_suite_report(tmp_path):
    out = tmp_path / "fock.json"
    assert run(["fock-suite", "--momenta", 2, "--conjecture-samples", 5, "--seed", 11, "--out", out]) == EXIT_OK
    report = json.loads(out.read_text())
    assert report["passed"] is True
    assert report["seed"] == 11
    assert report["space"]["dimension"] == 256
    names = [c["name"] for c in report["checks"]]
    assert names == [
        "anticommutators",
        "pair_commutators",
        "schwartz_bound",
        "polarization_modes",
        "composite_bosons",
    ]


def test_fock_suite_size_guard(tmp_path):
    assert run(["fock-suite", "--momenta", 17, "--out", tmp_path / "x.json"]) == EXIT_CONFIG


@pytest.mark.parametrize(
    "args,key",
    [
        (["--n-max", 0], "n_max"),
        (["--n-max", -2], "n_max"),
        (["--conjecture-samples", 0], "conjecture_samples"),
        (["--conjecture-samples", -5], "conjecture_samples"),
    ],
)
def test_fock_suite_rejects_empty_counts(tmp_path, capsys, args, key):
    # zero samples used to write "conjecture_worst_slack": Infinity, which is not JSON
    out = tmp_path / "fock.json"
    assert run(["fock-suite", "--momenta", 1, *args, "--out", out]) == EXIT_CONFIG
    assert not out.exists()
    assert f"error: {key} must be >= 1" in capsys.readouterr().err


def test_fock_suite_smallest_counts_write_valid_json(tmp_path):
    out = tmp_path / "fock.json"
    args = ["fock-suite", "--momenta", 1, "--n-max", 1, "--conjecture-samples", 1, "--out", out]
    assert run(args) == EXIT_OK
    report = json.loads(out.read_text(), parse_constant=lambda name: pytest.fail(f"non-JSON {name}"))
    composite = report["checks"][-1]
    assert composite["conjecture_samples"] == 1
    assert len(composite["sandwich"]) == 1
    assert 0.0 < composite["conjecture_worst_slack"] < 2.0


@pytest.mark.parametrize("t", [1000001, 100000000])
def test_maxwell_step_count_beyond_documented_range_is_rejected(tmp_path, capsys, t):
    # t used to reach walk.step_power only after every smearing profile was built
    out = tmp_path / "m.csv"
    tracemalloc.start()
    try:
        code = run(["maxwell-convergence", "--levels", 2, "--t", t, "--out", out])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_CONFIG
    assert not out.exists()
    assert f"error: t must be in 1..1000000, got {t}" in capsys.readouterr().err
    assert peak < 1_000_000


@pytest.mark.parametrize("t", [0, -1])
def test_maxwell_step_count_below_one_is_rejected(tmp_path, capsys, t):
    # at t = 0 every residual is 0: the slope fit used to write NaN into the header and exit 0
    out = tmp_path / "m.csv"
    assert run(["maxwell-convergence", "--t", t, "--out", out]) == EXIT_CONFIG
    assert not out.exists()
    assert f"error: t must be in 1..1000000, got {t}" in capsys.readouterr().err


def test_maxwell_step_count_at_documented_limit_runs(tmp_path):
    out = tmp_path / "m.csv"
    assert run(["maxwell-convergence", "--levels", 2, "--t", 1000000, "--out", out]) == EXIT_OK
    _, _, rows = read_table(out)
    assert float(rows[0][1]) <= 1e-10  # the single-point residual stays exact


def test_maxwell_notes_a_fit_outside_the_linear_regime(tmp_path, capsys):
    # at t qbar >= 1 a t qbar^2 term takes over and the slope heads for 2 (1.752 here); the run still succeeds
    out = tmp_path / "m.csv"
    assert run(["maxwell-convergence", "--t", 10000, "--out", out]) == EXIT_OK
    header, _, _ = read_table(out)
    assert header["fitted_residual_slope"] > 1.5
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "t * qbar = 4 " in err
    assert run(["maxwell-convergence", "--out", out]) == EXIT_OK
    assert capsys.readouterr().err == ""


def test_flight_equal_energies_and_linearity(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"energies": [["a", 1e9], ["b", 1e9]]}))
    out = tmp_path / "f.csv"
    assert run(["flight", "--config", cfg, "--out", out]) == EXIT_OK
    _, _, rows = read_table(out)
    assert float(rows[0][6]) == 0.0

    out1 = tmp_path / "f1.csv"
    out2 = tmp_path / "f2.csv"
    assert run(["flight", "--distance-m", 1e25, "--out", out1]) == EXIT_OK
    assert run(["flight", "--distance-m", 2e25, "--out", out2]) == EXIT_OK
    d1 = float(read_table(out1)[2][0][6])
    d2 = float(read_table(out2)[2][0][6])
    assert d2 == pytest.approx(2.0 * d1, rel=1e-12)
    assert d1 != 0.0


def test_tilt_rows(tmp_path):
    out = tmp_path / "t.csv"
    assert run(["tilt", "--k-values", "0.05,0.1", "--directions", 64, "--out", out]) == EXIT_OK
    _, columns, rows = read_table(out)
    assert columns == ["k", "tilt_exact_max", "tilt_exact_mean", "estimate_2k"]
    for row in rows:
        k = float(row[0])
        assert float(row[3]) == pytest.approx(2.0 * k)
        assert 0.0 < float(row[1]) < 2.0 * k


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"points": 3, "kmax": 0.4}))
    out = tmp_path / "d.csv"
    assert run(["dispersion", "--config", cfg, "--points", 2, "--out", out]) == EXIT_OK
    header, _, rows = read_table(out)
    assert header["config"]["points"] == 2  # flag wins
    assert header["config"]["kmax"] == 0.4  # config file value kept
    assert len(rows) == 8


def test_no_diagonal_flag_overrides_a_config_file(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"diagonal": True, "points": 3}))
    out = tmp_path / "d.csv"
    assert run(["dispersion", "--config", cfg, "--no-diagonal", "--out", out]) == EXIT_OK
    header, _, rows = read_table(out)
    assert header["config"]["diagonal"] is False
    assert len(rows) == 27  # the cube, not the 3-point diagonal


def test_config_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["dispersion", "--config", bad, "--out", tmp_path / "x.csv"]) == EXIT_CONFIG
    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"no_such_key": 1}))
    assert run(["dispersion", "--config", unknown, "--out", tmp_path / "x.csv"]) == EXIT_CONFIG
    assert run(["dispersion", "--config", tmp_path / "missing.json", "--out", tmp_path / "x.csv"]) == EXIT_CONFIG
    assert run(["flight", "--energies", "nonsense", "--out", tmp_path / "x.csv"]) == EXIT_CONFIG


def test_io_error_exit_code(tmp_path):
    out = tmp_path / "no" / "such" / "dir" / "d.csv"
    assert run(["dispersion", "--points", 2, "--out", out]) == EXIT_IO


def test_bad_flag_exits_two(tmp_path):
    with pytest.raises(SystemExit) as err:
        run(["tilt", "--sign", "sideways"])
    assert err.value.code == EXIT_CONFIG


def test_dispersion_has_no_sign_key(tmp_path, capsys):
    # dispersion writes both branches, so a sign would be read nowhere: the flag and the config key are unknown
    with pytest.raises(SystemExit) as err:
        run(["dispersion", "--sign", "minus"])
    assert err.value.code == EXIT_CONFIG
    (tmp_path / "config.json").write_text(json.dumps({"sign": "minus"}))
    assert run(["dispersion", "--config", tmp_path / "config.json", "--out", tmp_path / "d.csv"]) == EXIT_CONFIG
    assert "unknown config keys for dispersion: ['sign']" in capsys.readouterr().err
    assert not (tmp_path / "d.csv").exists()


@pytest.mark.parametrize(
    "args,key",
    [
        (["dispersion", "--kmax", "nan"], "kmax"),
        (["dispersion", "--kmax", "inf"], "kmax"),
        (["maxwell-convergence", "--k", "0.4", "nan", "0.2"], "k"),
        (["maxwell-convergence", "--base-radius", "inf"], "base_radius"),
        (["maxwell-convergence", "--spacing-factor", "nan"], "spacing_factor"),
        (["tilt", "--k-values", "0.05,nan"], "k_values"),
        (["tilt", "--k-values", "inf"], "k_values"),
        (["flight", "--distance-m", "nan"], "distance_m"),
        (["flight", "--distance-m", "inf"], "distance_m"),
        (["flight", "--energies", "GeV=nan,MeV=1e6"], "energies"),
        (["flight", "--energies", "GeV=inf,MeV=1e6"], "energies"),
    ],
)
def test_non_finite_input_is_rejected(tmp_path, capsys, args, key):
    out = tmp_path / "x.out"
    assert run(args + ["--out", out]) == EXIT_CONFIG
    assert not out.exists()
    assert f"error: {key} must be finite" in capsys.readouterr().err


def test_non_finite_config_file_value_is_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"k_values": [0.05, NaN]}')  # Python's json reads NaN
    out = tmp_path / "t.csv"
    assert run(["tilt", "--config", cfg, "--out", out]) == EXIT_CONFIG
    assert not out.exists()
    assert "k_values must be finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command,text",
    [
        ("dispersion", '{"points": Infinity}'),
        ("dispersion", '{"kmax": [1.0, 2.0]}'),
        ("tilt", '{"k_values": 0.05}'),
        ("maxwell-convergence", '{"k": "north"}'),
    ],
)
def test_malformed_config_value_is_a_config_error(tmp_path, command, text):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    out = tmp_path / "x.out"
    assert run([command, "--config", cfg, "--out", out]) == EXIT_CONFIG
    assert not out.exists()


def test_degenerate_wavevector_is_named(tmp_path, capsys):
    out = tmp_path / "t.csv"
    assert run(["tilt", "--k-values", "0", "--out", out]) == EXIT_CONFIG
    assert not out.exists()
    err = capsys.readouterr().err
    assert "degenerate wavevector" in err and "invalid configuration" not in err


@pytest.mark.parametrize(
    "args,config,message",
    [
        (["tilt", "--k-values", "0.05,-0.1"], None, "error: k_values must be in 0..1e+300, got -0.1"),
        (["tilt"], {"k_values": [-0.05]}, "error: k_values must be in 0..1e+300, got -0.05"),
        (["flight", "--energies", "GeV=1e9,MeV=-1e6"], None, "energies must be > 0 eV, got -1000000.0 for 'MeV'"),
        (["flight"], {"energies": [["GeV", 0], ["MeV", 1e6]]}, "energies must be > 0 eV, got 0.0 for 'GeV'"),
        (["flight", "--energies", "GeV=1e9,GeV=1e6"], None, "energies must have distinct labels"),
        (["dispersion", "--points", "0"], None, "error: points must be >= 1, got 0"),
        (["dispersion", "--kmax", "-1"], None, "error: kmax must be in (0, 1e+300], got -1.0"),
        (["dispersion"], {"points": 0, "kmax": 0}, "error: points must be >= 1, got 0"),
        (["maxwell-convergence", "--levels", "1"], None, "error: levels must be >= 2, got 1"),
        (["maxwell-convergence", "--base-radius", "0"], None, "error: base_radius must be > 0, got 0.0"),
        (["maxwell-convergence", "--spacing-factor", "0"], None, "error: spacing_factor must be in (0, 1], got 0.0"),
        (["maxwell-convergence"], {"spacing_factor": 1.5}, "error: spacing_factor must be in (0, 1], got 1.5"),
        (["tilt", "--directions", "0"], None, "error: directions must be in 1..1048576, got 0"),
        (["fock-suite", "--momenta", "17"], None, "error: momenta must be in 1..16, got 17"),
        (["fock-suite"], {"momenta": 0}, "error: momenta must be in 1..16, got 0"),
        (["flight", "--distance-m", "-1"], None, "error: distance_m must be > 0, got -1.0"),
    ],
    ids=[
        "tilt-k-values-negative", "tilt-k-values-negative-config", "flight-energies-negative",
        "flight-energies-zero-config", "flight-energies-duplicate-labels",
        "dispersion-points-zero", "dispersion-kmax-negative", "dispersion-points-and-kmax-zero-config",
        "maxwell-levels-one", "maxwell-base-radius-zero", "maxwell-spacing-factor-zero",
        "maxwell-spacing-factor-above-one-config", "tilt-directions-zero", "fock-suite-momenta-above",
        "fock-suite-momenta-zero-config", "flight-distance-m-negative-with-value",
    ],
)
def test_range_messages_name_the_key(tmp_path, capsys, args, config, message):
    out = tmp_path / "x.csv"
    if config is not None:
        (tmp_path / "config.json").write_text(json.dumps(config))
        args = args + ["--config", tmp_path / "config.json"]
    assert run(args + ["--out", out]) == EXIT_CONFIG
    assert not out.exists()
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("factor", ["1e-300", "0.005"])
def test_oversized_profile_grid_is_rejected_before_allocating(tmp_path, capsys, factor):
    # 0.005 asks for a 401^3 cube: 1.5 GB of offsets before any temporaries
    out = tmp_path / "m.csv"
    tracemalloc.start()
    try:
        code = run(["maxwell-convergence", "--spacing-factor", factor, "--out", out])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_CONFIG
    assert not out.exists()
    assert "spacing_factor" in capsys.readouterr().err
    assert peak < 1_000_000


@pytest.mark.parametrize("levels", [30, 45, 501, 1100, 10**6])
def test_levels_past_the_radius_floor_are_rejected_before_allocating(tmp_path, capsys, levels):
    # at t = 100, 4e-4 * 2^(1 - 30) is the first last-level radius below the rounding floor 1e-14 (1 + t);
    # --levels 45 would fit a slope of 0.898 to floored residuals, and past about 1,075 halvings the radius is 0
    out = tmp_path / "m.csv"
    tracemalloc.start()
    try:
        code = run(["maxwell-convergence", "--levels", levels, "--out", out])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_CONFIG
    assert not out.exists()
    err = capsys.readouterr().err
    assert f"error: levels = {levels} " in err and "spacing_factor" not in err
    assert peak < 1_000_000


def test_levels_at_the_radius_floor_fit_a_unit_slope(tmp_path):
    out = tmp_path / "m.csv"
    assert run(["maxwell-convergence", "--levels", 29, "--out", out]) == EXIT_OK
    header, _, rows = read_table(out)
    assert len(rows) == 30
    assert abs(header["fitted_residual_slope"] - 1.0) <= 1e-4


@pytest.mark.parametrize(
    "args,key",
    [
        (["dispersion", "--points", 102], "points"),  # 102^3 is the first cube over 2^20
        (["dispersion", "--points", 100000], "points"),
        (["dispersion", "--diagonal", "--points", MAX_WAVEVECTORS + 1], "points"),
        (["tilt", "--directions", MAX_WAVEVECTORS + 1], "directions"),
        (["tilt", "--directions", 100000000000], "directions"),
    ],
)
def test_oversized_wavevector_batches_are_rejected_before_allocating(tmp_path, capsys, args, key):
    # 100000 points and 10^11 directions used to end in numpy's _ArrayMemoryError traceback
    assert 101**3 <= MAX_WAVEVECTORS < 102**3
    assert 100 * max(21**3, 2048) < MAX_WAVEVECTORS  # the benchmark's grid and directions
    out = tmp_path / "o.csv"
    tracemalloc.start()
    try:
        code = run([*args, "--out", out])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_CONFIG
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key} ") and str(MAX_WAVEVECTORS) in err and f" {args[-1]}" in err
    assert peak < 1_000_000


def modules_loaded(code, packages):
    """Run ``code`` in a fresh interpreter on this src; the sorted loaded modules in any of ``packages``."""
    src = os.path.dirname(os.path.dirname(latticelight.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    probe = (
        f"import json, sys\n{code}\n"
        f"print(json.dumps(sorted(m for m in sys.modules if any(m == p or m.startswith(p + '.') for p in {packages!r}))))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True, timeout=120
    )
    return json.loads(result.stdout.strip().splitlines()[-1])


def cli_run(args):
    """Probe code that runs the CLI on ``args`` in-process and asserts exit 0."""
    return f"from latticelight.cli import main\nassert main({[str(a) for a in args]!r}) == 0"


# (probe, the latticelight modules it loads besides the package): python code, or the arguments of a CLI run.
# Each subcommand imports only the modules it uses, and no probe loads numpy or scipy (their imports were most of
# a process), nor dataclasses or, through it, inspect.
FOCK_SUITE = ["fock-suite", "--momenta", 3, "--conjecture-samples", 3]
LOADS = [
    pytest.param("import latticelight.cli", ["cli", "output"], id="import-cli"),
    pytest.param("import latticelight.dispersion", ["dispersion"], id="import-dispersion"),
    pytest.param(["dispersion", "--points", 3], ["cli", "dispersion", "output"], id="dispersion"),
    pytest.param(["dispersion", "--diagonal", "--points", 9], ["cli", "dispersion", "output"], id="dispersion-diagonal"),
    pytest.param(["flight"], ["cli", "dispersion", "output"], id="flight"),
    pytest.param(["maxwell-convergence", "--levels", 2], ["bilinear", "cli", "output"], id="maxwell-convergence"),
    pytest.param(["tilt", "--directions", 4], ["bilinear", "cli", "dispersion", "normal", "output"], id="tilt"),
    pytest.param(FOCK_SUITE, ["cli", "onebody", "output"], id="fock-suite"),
]


@functools.cache
def loaded_by(probe):
    """The sorted latticelight, numpy, scipy, dataclasses and inspect modules that ``probe`` loads, run once.

    ``probe`` is python code, or a tuple of CLI arguments whose run must write its ``--out``.
    """
    packages = ("latticelight", "numpy", "scipy", "dataclasses", "inspect")
    if isinstance(probe, str):
        return tuple(modules_loaded(probe, packages))
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out")
        loaded = modules_loaded(cli_run([*probe, "--out", out]), packages)  # a fock-suite run exits 0 if it passed
        assert os.path.exists(out)
    return tuple(loaded)


def loaded(probe):
    return loaded_by(probe if isinstance(probe, str) else tuple(str(a) for a in probe))


@pytest.mark.parametrize("probe,modules", LOADS)
def test_what_each_probe_loads(probe, modules):
    assert loaded(probe) == ("latticelight", *(f"latticelight.{name}" for name in modules))


# Three tests of what the table asserts, kept under their names; they read the table's probes, run once each.
def test_cli_import_and_a_fock_suite_run_leave_numpy_unloaded():
    # numpy's import is about half of a fock-suite process at 3 momenta; the engine needs only the standard library
    assert "numpy" not in loaded("import latticelight.cli") + loaded(FOCK_SUITE)


@pytest.mark.parametrize("args", [["dispersion", "--points", 3]])
def test_dispersion_and_flight_runs_leave_bilinear_unloaded(args):
    assert "latticelight.bilinear" not in loaded(args)


@pytest.mark.parametrize("args", [["dispersion", "--points", 3], ["tilt", "--directions", 4]])
def test_walk_runs_leave_dataclasses_unloaded(args):
    # dispersion streams its rows and tilt evaluates one direction at a time, both through standard-library
    # routines: neither loads walk, nor dataclasses
    assert not {"latticelight.walk", "dataclasses"} & set(loaded(args))


def test_default_flight_row_holds_its_floats(tmp_path):
    out = tmp_path / "flight.csv"
    assert run(["flight", "--seed", 0, "--out", out]) == EXIT_OK
    _, columns, rows = read_table(out)
    assert columns == ["label_1", "label_2", "energy_1_ev", "energy_2_ev", "k_1", "k_2", "delta_seconds"]
    assert rows == [
        ["GeV", "MeV", "1000000000", "1000000", "1.4186788354820607e-19", "1.4186788354820608e-22",
         "-0.0016208398926445906"]
    ]
    assert float(rows[0][6]) == -0.0016208398926445906


@pytest.mark.parametrize("command", sorted(SCHEMA))
def test_negative_seed_is_refused(tmp_path, capsys, command):
    # dispersion, maxwell-convergence and flight wrote "seed": -3 into the header, and tilt
    # ended in numpy's "expected non-negative integer", which names no key
    out = tmp_path / "out"
    assert run([command, "--seed", -3, "--out", out]) == EXIT_CONFIG
    assert not out.exists()
    assert "error: seed must be >= 0, got -3" in capsys.readouterr().err


def test_fock_suite_refuses_a_negative_seed(tmp_path, capsys):
    # random.Random(-s) would repeat the draws of random.Random(s)
    assert run(["fock-suite", "--momenta", 1, "--seed", -3, "--out", tmp_path / "f.json"]) == EXIT_CONFIG
    assert "seed must be >= 0, got -3" in capsys.readouterr().err
    assert not (tmp_path / "f.json").exists()


@pytest.mark.parametrize("momenta", [2, 3])
def test_fock_suite_draws_follow_the_seed(tmp_path, momenta):
    # one seed writes one report, byte for byte; another seed moves only the sampled conjecture slack
    paths = {name: tmp_path / f"{name}.json" for name in ("a", "b", "other")}
    for name, seed in (("a", 5), ("b", 5), ("other", 6)):
        assert run(["fock-suite", "--momenta", momenta, "--seed", seed, "--out", paths[name]]) == EXIT_OK
    assert paths["a"].read_bytes() == paths["b"].read_bytes()
    first, other = (json.loads(paths[name].read_text()) for name in ("a", "other"))
    slack = [report["checks"][4]["conjecture_worst_slack"] for report in (first, other)]
    assert slack[0] != slack[1]
    first["seed"], first["checks"][4]["conjecture_worst_slack"] = other["seed"], slack[1]
    assert first == other


def test_fock_suite_builds_no_fock_table(tmp_path):
    # the Jordan-Wigner route peaked at 6.3 MB at 3 momenta
    out = tmp_path / "fock.json"
    tracemalloc.start()
    try:
        code = run(["fock-suite", "--momenta", 3, "--out", out])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_OK
    assert json.loads(out.read_text())["space"]["dimension"] == 4096
    assert peak < 2_000_000


INTEGER_KEYS = [
    ("dispersion", "points"),
    ("maxwell-convergence", "t"),
    ("maxwell-convergence", "levels"),
    ("fock-suite", "momenta"),
    ("fock-suite", "n_max"),
    ("fock-suite", "conjecture_samples"),
    ("tilt", "directions"),
]


@pytest.mark.parametrize("bad", [True, False, 1.9, 2.5, "3", None, [2]])
@pytest.mark.parametrize("command,key", INTEGER_KEYS)
def test_integer_keys_reject_non_integers(tmp_path, capsys, command, key, bad):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({key: bad}))
    out = tmp_path / "out"
    assert run([command, "--config", config, "--out", out]) == EXIT_CONFIG
    assert not out.exists()
    assert f"error: {key} must be an integer, got {bad!r}" in capsys.readouterr().err


def test_integral_float_counts_keep_running(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"momenta": 1.0, "n_max": 2.0, "conjecture_samples": 3.0}))
    out = tmp_path / "fock.json"
    assert run(["fock-suite", "--config", config, "--out", out]) == EXIT_OK
    report = json.loads(out.read_text())
    assert report["space"]["dimension"] == 16
    assert report["checks"][-1]["conjecture_samples"] == 3.0
    assert len(report["checks"][-1]["sandwich"]) == 2


@pytest.mark.parametrize(
    "command,config,flags,key",
    [
        ("dispersion", {"diagonal": "false", "points": 3}, [], "diagonal"),
        ("dispersion", {"diagonal": 1}, [], "diagonal"),
        ("dispersion", {"diagonal": None}, [], "diagonal"),
        ("dispersion", {"sign": "minus"}, [], "sign"),
        ("fock-suite", {"sign": 7}, [], "sign"),
        ("tilt", {"sign": ["minus"]}, [], "sign"),
        ("flight", None, ["--energies", "GeV=1e9=junk,MeV=1e6"], "energies"),
        ("flight", {"energies": []}, [], "energies"),
        ("flight", {"energies": [["GeV", 1e9]]}, [], "energies"),
        ("flight", None, ["--energies", "GeV=1e9"], "energies"),
        ("tilt", {"k_values": []}, [], "k_values"),
    ],
)
def test_schema_rejects_values_that_used_to_run(tmp_path, capsys, command, config, flags, key):
    # each of these used to exit 0 (or, for a list as sign, end in a TypeError
    # traceback): a string or null taken as a bool, an unchecked sign, a sign
    # that dispersion reads nowhere, a dropped "=junk", or a table with no rows
    args = [command, *flags, "--out", tmp_path / "out"]
    if config is not None:
        (tmp_path / "config.json").write_text(json.dumps(config))
        args += ["--config", tmp_path / "config.json"]
    assert run(args) == EXIT_CONFIG
    assert not (tmp_path / "out").exists()
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err


DEFAULT_CONFIGS = {
    "dispersion": {"kmax": 1.0, "points": 5, "diagonal": False},
    "maxwell-convergence": {
        "k": [0.4, 0.3, 0.2],
        "t": 100,
        "base_radius": 4e-4,
        "levels": 5,
        "spacing_factor": 0.5,
        "sign": "minus",
    },
    "fock-suite": {"momenta": 2, "n_max": 3, "conjecture_samples": 50, "sign": "minus"},
    "flight": {"distance_m": 3.0857e25, "energies": [["GeV", 1e9], ["MeV", 1e6]], "sign": "minus"},
    "tilt": {"k_values": [0.05, 0.1], "directions": 128, "sign": "minus"},
}


@pytest.mark.parametrize(
    "command,config",
    [
        *DEFAULT_CONFIGS.items(),
        # the header echoes checked values: 5.0 reads as the integer 5, 1 as the float 1.0
        ("dispersion", {"kmax": 1, "points": 5.0}),
    ],
)
def test_config_file_of_defaults_matches_a_flagless_run(tmp_path, command, config):
    (tmp_path / "config.json").write_text(json.dumps(config))
    assert run([command, "--seed", 3, "--out", tmp_path / "flagless"]) == EXIT_OK
    assert run([command, "--seed", 3, "--config", tmp_path / "config.json", "--out", tmp_path / "file"]) == EXIT_OK
    assert (tmp_path / "file").read_bytes() == (tmp_path / "flagless").read_bytes()


@pytest.mark.parametrize("command", sorted(DEFAULT_CONFIGS))
def test_help_lists_exactly_the_schema_keys(capsys, command):
    with pytest.raises(SystemExit) as exit_info:
        run([command, "--help"])
    assert exit_info.value.code == EXIT_OK
    flags = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
    keys = {"--" + key.replace("_", "-") for key in DEFAULT_CONFIGS[command]}
    keys |= {"--no-" + key for key, default in DEFAULT_CONFIGS[command].items() if isinstance(default, bool)}
    assert set(SCHEMA[command][1]) == set(DEFAULT_CONFIGS[command])
    assert flags == keys | {"--help", "--config", "--out", "--seed"}


# (command, key, reader, bounds) of every key that SCHEMA gives a range
RANGED = [
    (command, key, reader, bounds)
    for command, (_, keys) in SCHEMA.items()
    for key, (_, reader, *declared) in keys.items()
    for bounds in declared
]


def boundary_values(reader, bounds):
    """(the values inside at each finite end, the values just outside them) that ``reader`` can return."""
    low, high, strict = bounds.low, bounds.high, bounds.strict

    def step(value, direction):
        return value + direction if reader is INTEGER else math.nextafter(value, direction * math.inf)

    inside, outside = [step(low, 1) if strict else low], [low if strict else step(low, -1)]
    if high is not None:
        inside.append(high)
        outside.append(step(high, 1))
    return inside, outside


def checked(reader, value):
    return value if reader is INTEGER else float(value)


def flag_args(command, key, value):
    return [command, f"--{key.replace('_', '-')}={value}"]  # one token, so that a negative value is no option


@pytest.mark.parametrize("command,key,reader,bounds", RANGED, ids=[f"{c}-{k}" for c, k, _, _ in RANGED])
def test_schema_bounds_accept_each_finite_end(command, key, reader, bounds):
    # parsed only, so directions = 2^20 and t = 10^6 cost nothing
    for value in boundary_values(reader, bounds)[0]:
        cfg = _effective_config(command, _build_parser().parse_args(flag_args(command, key, value)))
        assert cfg[key] == ([checked(reader, value)] if isinstance(cfg[key], list) else checked(reader, value))


@pytest.mark.parametrize("command,key,reader,bounds", RANGED, ids=[f"{c}-{k}" for c, k, _, _ in RANGED])
def test_schema_bounds_refuse_just_outside_each_finite_end(tmp_path, capsys, command, key, reader, bounds):
    for value in boundary_values(reader, bounds)[1]:
        out = tmp_path / "out"
        assert run([*flag_args(command, key, value), "--out", out]) == EXIT_CONFIG
        assert not out.exists()
        assert f"error: {key} must be {bounds}, got {checked(reader, value)!r}\n" == capsys.readouterr().err


README = Path(__file__).resolve().parent.parent / "README.md"
README_TABLE_HEADER = "| command | key | type (flag form) | default | range |"


def readme_cli_rows():
    """(command, key, cells) for each row of the README's CLI table; an empty command cell repeats the one above."""
    lines = README.read_text(encoding="utf-8").splitlines()
    start = lines.index(README_TABLE_HEADER) + 2  # past the header and its rule
    rows = []
    command = None
    for line in itertools.takewhile(lambda text: text.startswith("|"), lines[start:]):
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        command = cells[0].strip("`") or command
        rows.append((command, cells[1].strip("`"), cells))
    return rows


def test_readme_cli_table_matches_the_schema():
    documented = [((name, key), json.loads(cells[3].strip("`"))) for name, key, cells in readme_cli_rows()]
    expected = {(name, key): default for name, (_, keys) in SCHEMA.items() for key, (default, *_) in keys.items()}
    assert sorted(pair for pair, _ in documented) == sorted(expected)
    for pair, default in documented:
        assert default == expected[pair] and type(default) is type(expected[pair]), pair


def test_readme_range_column_starts_with_the_schema_range():
    # the cell of a ranged key opens with the text its error message uses; no other cell opens like a range
    declared = {(command, key): f"`{bounds}`" for command, key, _, bounds in RANGED}
    for command, key, cells in readme_cli_rows():
        if (command, key) in declared:
            assert cells[4].startswith(declared[command, key]), (command, key, cells[4])
        else:
            assert not cells[4].startswith(("`>", "`<", "`in ")), (command, key, cells[4])

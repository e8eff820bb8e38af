"""Correctness checks on the artifacts of the benchmark's CLI calls.

Each ``check_*`` function returns a list of problems; an empty list means the
artifact is correct.  No check calls latticelight: omega, the group speed and
the tilt table are recomputed with this module's own copy of the walk's
closed forms (``reference_bloch``, ``reference_dispersion``), and the other
artifacts are compared with artifacts recorded at the commit that introduced
the benchmark, under ``reference/``.  Tolerances leave room for a batched
kernel that reorders floating-point work, and no more.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

REFERENCE = Path(__file__).resolve().parent / "reference"

OMEGA_ATOL = 1e-12
# the finite-difference group speed agrees with the closed form to about 7e-11
# relative; an analytic replacement moves it by about 1e-10
VG_RTOL = 1e-9
# q = 0 profile: the back-rotated kernel must match to rounding
Q0_RESIDUAL_MAX = 1e-12
# the residual scales as O(qbar/|n|): the fitted log-log slope is about 1
SLOPE_WINDOW = (0.95, 1.05)
REFERENCE_RTOL = 1e-6
ANGLE_ATOL = 1e-9
TILT_ATOL = 1e-12


def read_artifact(path):
    """Parse a CSV artifact: ('#'-prefixed JSON header, column names, float-or-str rows)."""
    header, body = [], []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                header.append(line[1:].lstrip(" "))
            elif line:
                body.append(line.split(","))
    if not body:
        raise ValueError(f"{path}: no column line")

    def cell(text):
        try:
            return float(text)
        except ValueError:
            return text

    return json.loads("\n".join(header)), body[0], [[cell(c) for c in row] for row in body[1:]]


def _guard(check):
    """Turn a parse failure into a reported problem instead of a crash."""

    def guarded(*args, **kwargs):
        try:
            return check(*args, **kwargs)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            return [f"{check.__name__}: unreadable artifact: {exc!r}"]

    guarded.__name__ = check.__name__
    return guarded


def _close(a, b, rtol, atol=0.0):
    return abs(a - b) <= atol + rtol * abs(b)


# The checks must not call the kernels they check.  These are the walk's
# closed forms d(k) and n_tilde(k) and the chain-rule gradient of omega as they
# stood when this benchmark was introduced, written for arrays of k-points.

SQRT3 = math.sqrt(3.0)
PLUS, MINUS = 1, -1
# the group speed is undefined (NaN in the artifact) where sin lam(k/2) is below this
DEGENERATE_TOL = 1e-12


def _trig(k):
    a = np.asarray(k, dtype=float) / SQRT3
    return (*np.moveaxis(np.cos(a), -1, 0), *np.moveaxis(np.sin(a), -1, 0))


def reference_bloch(k, sign):
    """(d, n_tilde, lam) of one walk step at each k-point, the rows of ``k``."""
    cx, cy, cz, sx, sy, sz = _trig(k)
    d = cx * cy * cz + sign * sx * sy * sz
    n_tilde = np.stack(
        [
            sx * cy * cz - sign * cx * sy * sz,
            -sign * cx * sy * cz - sx * cy * sz,
            cx * cy * sz - sign * sx * sy * cz,
        ],
        axis=-1,
    )
    return d, n_tilde, np.arctan2(np.linalg.norm(n_tilde, axis=-1), d)


def reference_dispersion(k, sign):
    """(omega, |v_g|) at each k-point: omega = 2 lam(k/2), v_g = -grad d(k/2) / sin lam(k/2)."""
    half = np.asarray(k, dtype=float) / 2.0
    _, _, lam = reference_bloch(half, sign)
    cx, cy, cz, sx, sy, sz = _trig(half)
    grad_d = np.stack(
        [
            -sx * cy * cz + sign * cx * sy * sz,
            -cx * sy * cz + sign * sx * cy * sz,
            -cx * cy * sz + sign * sx * sy * cz,
        ],
        axis=-1,
    ) / SQRT3
    sin_lam = np.sin(lam)
    with np.errstate(divide="ignore", invalid="ignore"):
        speed = np.linalg.norm(grad_d, axis=-1) / sin_lam
    return 2.0 * lam, np.where(sin_lam < DEGENERATE_TOL, np.nan, speed)


@_guard
def check_dispersion(path, points, kmax=1.0):
    """Grid layout, then omega and |v_g| against ``reference_dispersion``."""
    _, columns, rows = read_artifact(path)
    if columns != ["kx", "ky", "kz", "omega_plus", "omega_minus", "vg_plus", "vg_minus"]:
        return [f"dispersion: unexpected columns {columns}"]
    axis = np.linspace(-kmax, kmax, points)
    grid = np.array([(x, y, z) for x in axis for y in axis for z in axis])
    table = np.array(rows, dtype=float)
    if table.shape != (len(grid), len(columns)):
        return [f"dispersion: table of shape {table.shape}, expected {(len(grid), len(columns))}"]
    misplaced = np.flatnonzero(np.any(table[:, :3] != grid, axis=1))
    if misplaced.size:
        i = misplaced[0]
        return [f"dispersion: row k={table[i, :3]} out of grid order, expected {grid[i]}"]
    problems = []
    for sign, om_col, vg_col in ((PLUS, 3, 5), (MINUS, 4, 6)):
        omega, speed = reference_dispersion(grid, sign)
        got_om, got_vg = table[:, om_col], table[:, vg_col]
        for i in np.flatnonzero(~(np.abs(got_om - omega) <= OMEGA_ATOL))[:5]:
            problems.append(f"dispersion: omega {got_om[i]:.17g} != {omega[i]:.17g} at k={grid[i]} sign={sign}")
        vg_ok = np.where(
            np.isnan(speed), np.isnan(got_vg), np.abs(got_vg - speed) <= 1e-15 + VG_RTOL * np.abs(speed)
        )
        for i in np.flatnonzero(~vg_ok)[:5]:
            problems.append(f"dispersion: |v_g| {got_vg[i]:.17g} != {speed[i]:.17g} at k={grid[i]} sign={sign}")
    return problems[:5]


def nan_vg_rows(path):
    """(rows whose group speed is NaN on either branch, all rows) of a dispersion artifact."""
    _, _, rows = read_artifact(path)
    return sum(1 for row in rows if math.isnan(row[5]) or math.isnan(row[6])), len(rows)


@_guard
def check_tilt(path, seed, directions, k_values=(0.05, 0.1)):
    """Recompute the tilt table with ``reference_bloch`` on the seeded directions."""
    _, columns, rows = read_artifact(path)
    if columns != ["k", "tilt_exact_max", "tilt_exact_mean", "estimate_2k"]:
        return [f"tilt: unexpected columns {columns}"]
    if len(rows) != len(k_values):
        return [f"tilt: {len(rows)} rows, expected {len(k_values)}"]
    dirs = np.random.default_rng(seed).standard_normal((directions, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    problems = []
    for row, kmag in zip(rows, k_values):
        # the tilt is the angle between the rotation axis n(k/2) and k, folded into [0, pi/2]
        _, n_tilde, _ = reference_bloch(kmag * dirs / 2.0, MINUS)
        cosang = np.sum(n_tilde * dirs, axis=1) / np.linalg.norm(n_tilde, axis=1)
        angle = np.arccos(np.clip(cosang, -1.0, 1.0))
        tilts = np.minimum(angle, math.pi - angle)
        expected = [kmag, float(tilts.max()), float(np.mean(tilts)), 2.0 * kmag]
        for name, got, want in zip(columns, row, expected):
            if not abs(got - want) <= TILT_ATOL:
                problems.append(f"tilt: {name} {got!r} != recomputed {want!r} at k={kmag}")
    return problems


@_guard
def check_maxwell(path):
    """Seed-commit reference, the exact q = 0 rotation and a residual slope of about 1."""
    header, columns, rows = read_artifact(path)
    ref_header, ref_columns, ref_rows = read_artifact(REFERENCE / "maxwell_convergence.csv")
    if columns != ref_columns or len(rows) != len(ref_rows):
        return [f"maxwell: layout {columns} x {len(rows)} differs from the reference"]
    problems = []
    if rows[0][0] != 0.0 or not rows[0][1] <= Q0_RESIDUAL_MAX:
        problems.append(f"maxwell: q=0 row {rows[0][:2]} is not an exact rotation")
    for row, ref in zip(rows[1:], ref_rows[1:]):
        if not (_close(row[0], ref[0], 1e-12) and _close(row[1], ref[1], REFERENCE_RTOL)):
            problems.append(f"maxwell: (qbar, residual) {row[:2]} != reference {ref[:2]}")
    for row, ref in zip(rows, ref_rows):
        if not all(abs(a - b) <= ANGLE_ATOL for a, b in zip(row[2:], ref[2:])):
            problems.append(f"maxwell: angles {row[2:]} != reference {ref[2:]}")
    slope = header.get("fitted_residual_slope")
    if not isinstance(slope, float) or not SLOPE_WINDOW[0] <= slope <= SLOPE_WINDOW[1]:
        problems.append(f"maxwell: fitted slope {slope!r} outside {SLOPE_WINDOW}")
    elif not _close(slope, ref_header["fitted_residual_slope"], REFERENCE_RTOL):
        problems.append(f"maxwell: fitted slope {slope!r} differs from the reference")
    return problems


@_guard
def check_flight(path):
    """Seed-commit reference for the cancellation-free time-of-flight table."""
    _, columns, rows = read_artifact(path)
    _, ref_columns, ref_rows = read_artifact(REFERENCE / "flight.csv")
    if columns != ref_columns or len(rows) != len(ref_rows):
        return [f"flight: layout {columns} x {len(rows)} differs from the reference"]
    problems = []
    for row, ref in zip(rows, ref_rows):
        if row[:2] != ref[:2] or not all(_close(a, b, 1e-9) for a, b in zip(row[2:], ref[2:])):
            problems.append(f"flight: row {row} != reference {ref}")
    return problems


# keys of a fock-suite report left unchecked: the values drawn from the seed,
# and free text
FOCK_UNCHECKED = frozenset({"seed", "conjecture_worst_slack", "detail"})
# the other numbers do not depend on the seed; deviations of about 1e-16 and
# exact fractions (0.5, 0.25) must match the reference to this
FOCK_ATOL = 1e-12


def _leaves(value, path=""):
    """(path, value) of every scalar in a JSON value, skipping FOCK_UNCHECKED keys."""
    if isinstance(value, dict):
        for key, item in value.items():
            if key not in FOCK_UNCHECKED:
                yield from _leaves(item, f"{path}/{key}")
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _leaves(item, f"{path}/{i}")
    else:
        yield path, value


def _same_leaf(got, want):
    numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (got, want))
    return abs(got - want) <= FOCK_ATOL if numbers else (type(got), got) == (type(want), want)


@_guard
def check_fock(path, momenta):
    """``"passed": true`` on every check, and every seed-independent value of the reference."""
    with open(path, "r", encoding="utf-8") as fh:
        report = json.load(fh)
    with open(REFERENCE / f"fock_suite_m{momenta}.json", "r", encoding="utf-8") as fh:
        reference = json.load(fh)
    problems = []
    if report.get("passed") is not True:
        problems.append(f"fock-suite m={momenta}: report says passed={report.get('passed')!r}")
    failing = [c.get("name") for c in report.get("checks", []) if c.get("passed") is not True]
    if failing:
        problems.append(f"fock-suite m={momenta}: failing checks {failing}")
    got, want = dict(_leaves(report)), dict(_leaves(reference))
    if got.keys() != want.keys():
        missing, extra = sorted(want.keys() - got.keys()), sorted(got.keys() - want.keys())
        return problems + [f"fock-suite m={momenta}: missing {missing}, unexpected {extra}"]
    for key, value in want.items():
        if not _same_leaf(got[key], value):
            problems.append(f"fock-suite m={momenta}: {key} = {got[key]!r}, reference {value!r}")
    return problems[:10]


def fock_dimension(path):
    with open(path, "r", encoding="utf-8") as fh:
        return int(json.load(fh)["space"]["dimension"])

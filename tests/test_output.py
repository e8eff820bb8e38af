"""Tests of the artifact writer."""

import numpy as np
import pytest

from artifacts import read_table
from latticelight.output import format_value, write_table


def awkward_floats():
    """1e5 seeded values over the whole float range, plus NaN, +-inf, -0.0 and subnormals."""
    rng = np.random.default_rng(2024)
    mantissas = rng.standard_normal(100_000)
    exponents = rng.integers(-330, 309, size=100_000).astype(float)
    with np.errstate(over="ignore", under="ignore"):
        values = mantissas * 10.0**exponents
    special = [
        np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
        1e-310, -3e-320, 1.7976931348623157e308, 0.1, 1.0 / 3.0, 1e16, 123456789012345678.0,
    ]
    values[: len(special)] = special
    return values


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_float_array_body_matches_per_value_formatting(tmp_path, dtype):
    with np.errstate(over="ignore"):  # float32 turns the largest values into inf
        rows = awkward_floats().astype(dtype).reshape(-1, 8)
    header = {"command": "test"}
    columns = [f"c{i}" for i in range(rows.shape[1])]
    fast, slow = tmp_path / "fast.csv", tmp_path / "slow.csv"
    write_table(fast, header, columns, rows)
    # a list of lists takes the format_value route
    write_table(slow, header, columns, [list(row) for row in rows])
    assert fast.read_bytes() == slow.read_bytes()
    _, _, body = read_table(fast)
    assert body[0][:5] == [format_value(v) for v in rows[0][:5]]
    assert body[0][4] == "-0"


def test_mixed_rows_keep_per_value_formatting(tmp_path):
    out = tmp_path / "mixed.csv"
    write_table(out, {}, ["label", "flag", "count", "x"], [["a", True, 3, 0.1]])
    _, _, body = read_table(out)
    assert body == [["a", "true", "3", "0.10000000000000001"]]


def grid_table():
    """The 21^3 grid and seven columns of the dispersion artifact's shape: 64,827 floats, few distinct."""
    axis = np.linspace(-1.0, 1.0, 21)
    grid = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    norm = np.linalg.norm(grid, axis=1)
    with np.errstate(invalid="ignore"):  # 0/0 at the origin
        cosine = grid[:, 2] / norm
    # -norm and the products hold -0.0 beside 0.0; cosine holds a NaN
    return np.column_stack([grid, norm, -norm, grid[:, 0] * grid[:, 1], cosine])


@pytest.mark.parametrize(
    "make",
    [
        grid_table,
        lambda: np.asfortranarray(grid_table()),
        lambda: grid_table()[:, ::-1],
        lambda: grid_table()[:0],
        lambda: grid_table()[:1],
        lambda: grid_table().astype(np.float32),
        lambda: grid_table()[:3, :0],
    ],
    ids=["grid", "fortran", "reversed-columns", "no-rows", "one-row", "float32", "no-columns"],
)
def test_distinct_value_body_matches_per_value_formatting(tmp_path, make):
    rows = make()
    header = {"command": "test"}
    columns = [f"c{i}" for i in range(rows.shape[1])]
    fast, slow = tmp_path / "fast.csv", tmp_path / "slow.csv"
    write_table(fast, header, columns, rows)
    write_table(slow, header, columns, [list(row) for row in rows])
    assert fast.read_bytes() == slow.read_bytes()

"""Tests of the artifact writer."""

import math
import os
import stat

import numpy as np
import pytest

from artifacts import read_table
from latticelight import output
from latticelight.output import format_value, write_json, write_table


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


def assert_body_is_per_value_formatting(tmp_path, rows):
    """write_table of the array ``rows``, of its Python floats and of a generator of them gives the body of
    format_value applied to one value at a time."""
    header = {"command": "test"}
    columns = [f"c{i}" for i in range(rows.shape[1])]
    want = "".join(",".join(format_value(float(v)) for v in row) + "\n" for row in rows)
    for i, table in enumerate([rows, rows.tolist(), (tuple(row) for row in rows.tolist())]):
        out = tmp_path / f"table{i}.csv"
        write_table(out, header, columns, table)
        text = out.read_text(encoding="utf-8")
        assert text.endswith(",".join(columns) + "\n" + want) and text.startswith("# {"), i


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_float_array_body_matches_per_value_formatting(tmp_path, dtype):
    with np.errstate(over="ignore"):  # float32 turns the largest values into inf
        rows = awkward_floats().astype(dtype).reshape(-1, 8)
    assert_body_is_per_value_formatting(tmp_path, rows)
    _, _, body = read_table(tmp_path / "table0.csv")
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
    assert_body_is_per_value_formatting(tmp_path, make())


def test_repeated_floats_beside_equal_values_of_other_text(tmp_path):
    # a kept float's text is reused only for equal cells with the same text: 0.0 == -0.0, True == 1 == 1.0,
    # 10**20 == 1e20 and nan != nan each keep their own
    cells = [0.1, -0.0, 0.0, True, 1, 1.0, 1.5, 10**20, 1e20, math.nan, "0.1", False, 2.5e-320, math.inf, -math.inf]
    rows = [cells, cells[::-1], [np.float64(0.1), np.float32(1.5), 0.1, 1.5, -0.0]]
    out = tmp_path / "mixed.csv"
    write_table(out, {}, ["c"] * len(cells), rows)
    _, _, body = read_table(out)
    assert body == [[format_value(v) for v in row] for row in rows]
    assert body[0][:10] == ["0.10000000000000001", "-0", "0", "true", "1", "1", "1.5", "100000000000000000000",
                            "1e+20", "nan"]


def test_a_table_of_more_distinct_floats_than_are_kept(tmp_path, monkeypatch):
    monkeypatch.setattr(output, "_TEXTS_HELD", 8)
    rows = [[i / 7.0, -i / 7.0, i / 7.0] for i in range(1, 100)]
    out = tmp_path / "many.csv"
    write_table(out, {}, ["a", "b", "c"], rows)
    _, _, body = read_table(out)
    assert body == [[format_value(v) for v in row] for row in rows]


def test_a_failing_row_stream_leaves_no_partial_artifact(tmp_path):
    def rows():
        yield [1.5, 2.5]
        raise ValueError("row 2")

    out = tmp_path / "partial.csv"
    with pytest.raises(ValueError, match="row 2"):
        write_table(out, {"command": "test"}, ["a", "b"], rows())
    assert not out.exists()


def test_a_failing_row_stream_leaves_an_existing_file_as_it_was(tmp_path):
    def rows():
        yield [1.5, 2.5]
        raise ValueError("row 2")

    out = tmp_path / "kept.csv"
    out.write_bytes(b"an earlier artifact\n")
    with pytest.raises(ValueError, match="row 2"):
        write_table(out, {"command": "test"}, ["a", "b"], rows())
    assert out.read_bytes() == b"an earlier artifact\n"
    assert [p.name for p in tmp_path.iterdir()] == ["kept.csv"]


def test_a_payload_that_cannot_be_serialized_leaves_an_existing_file_as_it_was(tmp_path):
    out = tmp_path / "kept.json"
    out.write_bytes(b"an earlier report\n")
    with pytest.raises(TypeError, match="not JSON serializable"):
        write_json(out, {"a": 1.5, "b": object()})
    assert out.read_bytes() == b"an earlier report\n"
    assert [p.name for p in tmp_path.iterdir()] == ["kept.json"]
    write_json(out, {"b": [1.5, None], "a": "x"})
    assert out.read_text() == '{\n  "a": "x",\n  "b": [\n    1.5,\n    null\n  ]\n}\n'


def test_a_json_report_to_a_fifo_is_written_directly_and_never_removed(tmp_path):
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)  # a reader, so that opening the FIFO to write does not block
    try:
        with pytest.raises(TypeError, match="not JSON serializable"):
            write_json(fifo, {"a": 1.5, "b": object()})
        assert os.read(reader, 1024).startswith(b'{\n  "a": 1.5,')
    finally:
        os.close(reader)
    assert stat.S_ISFIFO(fifo.stat().st_mode)
    assert [p.name for p in tmp_path.iterdir()] == ["fifo"]


def test_a_replaced_file_keeps_its_permissions_and_a_symlink_stays_a_link(tmp_path):
    out = tmp_path / "t.csv"
    out.write_text("old\n")
    out.chmod(0o640)
    link = tmp_path / "link.csv"
    link.symlink_to(out)
    write_table(link, {}, ["a"], [[1.5]])
    assert link.is_symlink() and stat.S_IMODE(out.stat().st_mode) == 0o640
    assert out.read_text() == "# {}\na\n1.5\n"


def test_a_path_that_is_not_a_regular_file_is_written_directly_and_never_removed(tmp_path):
    def rows():
        yield [1.5]
        raise ValueError("row 2")

    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)  # a reader, so that opening the FIFO to write does not block
    try:
        with pytest.raises(ValueError, match="row 2"):
            write_table(fifo, {}, ["a"], rows())
        assert os.read(reader, 1024) == b"# {}\na\n1.5\n"
    finally:
        os.close(reader)
    assert stat.S_ISFIFO(fifo.stat().st_mode)
    assert [p.name for p in tmp_path.iterdir()] == ["fifo"]

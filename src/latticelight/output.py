"""Deterministic run artifacts: CSV tables with a JSON header block.

Every output file starts with the run configuration as '#'-prefixed JSON
lines (sorted keys, no timestamps), followed by a CSV body with '.'-decimal
floats at 17 significant digits.  Identical configurations therefore yield
byte-identical files.
"""

from __future__ import annotations

import json

import numpy as np


def format_value(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return format(value, ".17g")
    if isinstance(value, (int, str)):
        return str(value)
    return format(float(value), ".17g")


def header_lines(header: dict) -> list:
    text = json.dumps(header, indent=2, sort_keys=True)
    return ["# " + line for line in text.splitlines()]


def write_table(path: str, header: dict, columns, rows):
    """Write a self-describing CSV artifact (JSON header + rows).

    A float ndarray body is formatted one row at a time through a "%.17g"
    template, which gives the same text as format_value on every float.
    """
    lines = header_lines(header)
    lines.append(",".join(columns))
    if isinstance(rows, np.ndarray) and rows.ndim == 2 and rows.dtype.kind == "f":
        template = ",".join(["%.17g"] * rows.shape[1])
        lines.extend(template % tuple(row.tolist()) for row in rows)
    else:
        lines.extend(",".join(format_value(v) for v in row) for row in rows)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_json(path: str, payload: dict):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


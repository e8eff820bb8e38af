"""Deterministic run artifacts: CSV tables with a JSON header block.

Every file starts with the run configuration as '#'-prefixed JSON lines
(sorted keys, no timestamps), then a CSV body of '.'-decimal floats at 17
significant digits, so identical configurations yield byte-identical files.
A float ndarray body is formatted once per distinct value, then streamed.
"""

from __future__ import annotations

import json


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

    A float ndarray body formats each distinct float64 bit pattern once, padded to the 24
    characters of the widest "%.17g", then gathers and writes 1,024 rows at a time.
    """
    lines = header_lines(header)
    lines.append(",".join(columns))
    blocks = ()
    if getattr(rows, "ndim", None) == 2 and rows.dtype.kind == "f" and rows.shape[1] > 0:  # a float ndarray
        import numpy as np
        bits, inverse = np.unique(rows.astype(np.float64, copy=False).view(np.int64), return_inverse=True)
        text = ("%24.17g," * len(bits)) % tuple(bits.view(np.float64).tolist())
        cells = np.frombuffer(text.encode("ascii"), dtype=np.uint8).reshape(len(bits), 25)
        blocks = np.split(inverse.reshape(rows.shape), range(1024, len(rows), 1024))
    else:
        lines.extend(",".join(format_value(v) for v in row) for row in rows)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
        for index in blocks:
            block = np.take(cells, index, axis=0)  # (rows, columns, 25): a padded value, then ','
            block[:, -1, -1] = ord("\n")  # each row's last ',' ends its line
            fh.write(block[block != ord(" ")].tobytes().decode("ascii"))


def write_json(path: str, payload: dict):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


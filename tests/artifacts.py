"""Test helper: parse the CSV artifacts that latticelight.output writes."""

import json


def read_table(path):
    """Parse an artifact back into (header dict, column names, string rows)."""
    header_text = []
    body = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                header_text.append(line[1:].lstrip(" "))
            elif line:
                body.append(line)
    header = json.loads("\n".join(header_text)) if header_text else {}
    columns = body[0].split(",") if body else []
    rows = [line.split(",") for line in body[1:]]
    return header, columns, rows

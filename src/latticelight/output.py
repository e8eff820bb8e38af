"""Deterministic run artifacts: CSV tables with a JSON header block, and JSON reports.

Every file starts with the run configuration as '#'-prefixed JSON lines
(sorted keys, no timestamps), then a CSV body of '.'-decimal floats at 17
significant digits, so identical configurations yield byte-identical files.
Rows are streamed, and each distinct float is formatted once.
"""

from __future__ import annotations

import contextlib
import json
import os
import stat

# most float texts one write_table call keeps: a table of many distinct floats holds no more
_TEXTS_HELD = 1 << 16


def format_value(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return format(value, ".17g")
    if isinstance(value, (int, str)):
        return str(value)
    return format(float(value), ".17g")


class _Texts(dict):
    """Cell -> its text for one table.  Up to _TEXTS_HELD non-integral floats are kept, so a cell equal to a kept
    key has the key's text; 0.0 == -0.0, True == 1.0 and nan != nan are formatted every time."""

    def __missing__(self, value):
        if value.__class__ is not float:
            return format_value(value)
        text = format(value, ".17g")
        if len(self) < _TEXTS_HELD and value == value and not value.is_integer():
            self[value] = text
        return text


@contextlib.contextmanager
def _replacing(path: str):
    """A text file for the artifact at ``path``.  A regular or new ``path`` is written to a temporary file beside it,
    which replaces ``path`` once the block completes: if the block raises, ``path`` is left as it was.  Any other path
    (a device, a FIFO) is written directly and never removed."""
    target = os.path.realpath(path)
    try:
        mode = os.stat(target).st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        fd, partial = os.open(target, os.O_WRONLY | os.O_CREAT | os.O_TRUNC), None
    else:
        head, tail = os.path.split(target)
        partial = os.path.join(head, f".{tail}.{os.getpid()}.partial")
        fd = os.open(partial, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
        if partial is not None:
            if mode is not None:
                os.chmod(partial, stat.S_IMODE(mode))  # the replaced file keeps its permissions
            os.replace(partial, target)
    except BaseException:
        if partial is not None:
            with contextlib.suppress(OSError):  # the error that stopped the write is the one raised
                os.remove(partial)
        raise


def write_table(path: str, header: dict, columns, rows):
    """Write a self-describing CSV artifact (JSON header + rows), one row at a time: ``rows`` may be a generator, so
    the table is never held, and if it raises, ``path`` is left as it was."""
    text = _Texts().__getitem__
    with _replacing(path) as fh:
        fh.writelines("# " + line + "\n" for line in json.dumps(header, indent=2, sort_keys=True).splitlines())
        fh.write(",".join(columns) + "\n")
        fh.writelines(",".join(map(text, row)) + "\n" for row in rows)


def write_json(path: str, payload: dict):
    """Write a JSON artifact with sorted keys; a payload that cannot be serialized leaves ``path`` as it was."""
    with _replacing(path) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")

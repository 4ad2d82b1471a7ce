"""How the package's files are framed, and how their faults are reported:
as ParseError, with the line of a byte that is not UTF-8, a bad table row
or a JSON syntax error, or naming the JSON field that is missing or of
the wrong type.  Text tables and JSON objects are written here too."""

from __future__ import annotations

import contextlib
import json
import math
import os

import numpy as np

from .errors import ParseError

_REQUIRED = object()


@contextlib.contextmanager
def open_text(path: str | os.PathLike):
    """``open(path, encoding="utf-8")`` for reading, except that a byte
    that is not UTF-8 raises ParseError with its line: the count of
    newline bytes before it, plus 1."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            yield f
    except UnicodeDecodeError:
        # The decoder's position counts from the chunk it was reading, so
        # find the byte in the whole file.
        with open(path, "rb") as f:
            data = f.read()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as e:
            line = data.count(b"\n", 0, e.start) + 1
            raise ParseError(f"not UTF-8: byte {data[e.start]:#04x} ({e.reason})", line=line) from e
        raise


def read_json(path: str | os.PathLike, fmt: str) -> dict:
    """The JSON object in a file, checked to carry ``"format": fmt``."""
    with open_text(path) as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as e:
            raise ParseError(f"invalid {fmt} file: {e.msg}", line=e.lineno) from e
    if field(doc, "format", str) != fmt:
        raise ParseError(f"unsupported format {doc['format']!r}, expected {fmt!r}")
    return doc


def write_json(path: str | os.PathLike, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")


def write_table(path: str | os.PathLike, head: list[str], rows, sep: str) -> None:
    """Write the ``head`` lines, then each row's fields joined by ``sep``:
    a str as it is, anything else as ``repr(float(v))``, which reads back
    to the same float."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.writelines(line + "\n" for line in head)
        for row in rows:
            f.write(sep.join(v if isinstance(v, str) else repr(float(v)) for v in row) + "\n")


def field(doc, key: str, kind: type, default=_REQUIRED):
    """``doc[key]``, or ``default`` if absent, as a ``kind``: nothing is
    coerced, except that a JSON int within float range passes for a float."""
    if type(doc) is not dict or (key not in doc and default is _REQUIRED):
        raise ParseError(f"missing field {key!r}")
    value = doc.get(key, default)
    if kind is float and type(value) is int and abs(value) < 2**1023:
        value = float(value)
    if type(value) is not kind:
        raise ParseError(f"field {key!r} must be {kind.__name__}, got {type(value).__name__}")
    return value


def numbers(doc, key: str, shape: tuple[int, ...] | None = None, default=_REQUIRED) -> np.ndarray:
    """The list field ``doc[key]``, nested to any depth, as a float array
    of finite numbers (of the given shape)."""
    try:
        arr = np.asarray(field(doc, key, list, default), dtype=float)
    except (OverflowError, TypeError, ValueError) as e:
        raise ParseError(f"field {key!r} must be a rectangular list of numbers: {e}") from e
    if shape is not None and arr.shape != shape:
        raise ParseError(f"field {key!r} must have shape {shape}, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ParseError(f"field {key!r} holds a non-finite number")
    return arr


def table_rows(texts, start: int, width: int, sep: str | None = None):
    """Yield (line number, first field, the others as finite floats) for
    each non-blank row of ``width`` fields; ``texts`` begins at line ``start``."""
    for lineno, text in enumerate(texts, start):
        if not text.strip():
            continue
        parts = text.split(sep)
        if len(parts) != width:
            raise ParseError(f"expected {width} fields, got {len(parts)}", line=lineno)
        try:
            values = list(map(float, parts[1:]))
        except ValueError as e:
            raise ParseError(str(e), line=lineno) from e
        if not all(map(math.isfinite, values)):
            raise ParseError("non-finite value", line=lineno)
        yield lineno, parts[0], values

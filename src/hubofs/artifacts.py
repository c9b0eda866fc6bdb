"""The two text formats of the stage artifacts; an unreadable file or another schema
raises :class:`DataError`.

JSON documents carry a ``schema`` key and write each term family as ``[i, ..., value]``
rows. Tagged CSV files open with ``# key=value`` lines, ``schema`` first, then a header row.
"""

from __future__ import annotations

import csv
import io
import json
import math

from .errors import DataError


def read_json(path, schema: str, what: str) -> dict:
    """The JSON object of a ``schema`` artifact; anything else raises :class:`DataError`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise DataError(f"cannot read {what} file {path!r}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError, int digit limit
        raise DataError(f"malformed {what} file {path!r}: {exc}") from exc
    found = doc.get("schema") if isinstance(doc, dict) else None
    if found != schema:
        raise DataError(f"unknown {what} schema {found!r} in {path!r}")
    return doc


def write_json(path, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def json_int(value) -> int:
    """``value`` if it is a JSON integer (not a bool), else :class:`TypeError`."""
    if type(value) is not int:
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def json_number(value) -> float:
    """``value`` as a float if it is a finite JSON number, else :class:`ValueError`."""
    if type(value) not in (int, float) or not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {value!r}")
    return float(value)


def term_rows(index, values) -> list[list]:
    """``[i, ..., value]`` JSON rows of one term family."""
    return [row + [value] for row, value in zip(index.tolist(), values.tolist())]


def read_terms(rows, order: int) -> list[tuple[tuple[int, ...], float]]:
    """``(indices, value)`` pairs of ``[i, ..., value]`` rows of ``order`` integer indices."""
    terms = []
    for row in rows:
        if not isinstance(row, list) or len(row) != order + 1:
            raise ValueError(f"term row {row!r} needs {order} indices and a value")
        terms.append((tuple(map(json_int, row[:order])), json_number(row[order])))
    return terms


def read_tagged(path, schema: str, what: str) -> tuple[dict[str, str], list[str]]:
    """The ``# key=value`` metadata (``schema`` included) and the non-empty other lines."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            # Only "\n" ends a line (the writer's terminator; reading maps "\r\n" to it):
            # splitlines() would also break inside a field at U+2028, U+0085 or \x1c-\x1e.
            raw = fh.read().split("\n")
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {what} file {path!r}: {exc}") from exc
    meta: dict[str, str] = {}
    body: list[str] = []
    for line in raw:
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            meta[key] = value
        elif line:
            body.append(line)
    if meta.get("schema") != schema:
        raise DataError(f"unknown {what} schema {meta.get('schema')!r} in {path!r}")
    return meta, body


def write_tagged(path, schema: str, meta, header, rows) -> None:
    """``# schema=``, a ``# key=value`` line per ``(key, value)`` of ``meta`` in
    order, then ``header`` and ``rows`` as CSV (quoted where a field needs it)."""
    out = io.StringIO()
    out.writelines(f"# {key}={value}\n" for key, value in [("schema", schema), *meta])
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(out.getvalue())

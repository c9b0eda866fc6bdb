"""The two text formats of the stage artifacts; an unreadable file or another schema
raises :class:`DataError`, an unwritable path :class:`UsageError`.

JSON documents carry a ``schema`` key and write each term family as ``[i, ..., value]``
rows. Tagged CSV files open with ``# key=value`` lines, ``schema`` first, then a header row.
"""

from __future__ import annotations

import csv
import io
import json
import math

from .errors import DataError, UsageError


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
    """The bytes of ``json.dump(doc, indent=1)`` and a newline, in pieces; the term rows
    (``J``, ``K``, ``pairs``, ``triples``) are laid out here by ``repr``, faster than ``json``."""
    pieces = []
    for key, value in doc.items():
        pieces.append(f"{',' if pieces else '{'}\n {json.dumps(key)}: ")
        term = key in ("J", "K", "pairs", "triples")
        rows = "\n  ],\n  [\n   ".join(",\n   ".join(map(repr, r)) for r in value) if term else ""
        if rows and "n" not in rows:  # repr is json's for an int or a finite float
            pieces += ["[\n  [\n   ", rows, "\n  ]\n ]"]
        else:  # nested one level; every newline of JSON text is layout, none is in a string
            pieces.append(json.dumps(value, indent=1).replace("\n", "\n "))
    write_text(path, *pieces, "\n}\n" if pieces else "{}\n")


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


def read_tagged(path, schema: str, what: str) -> tuple[dict[str, str], list[list[str]]]:
    """The ``# key=value`` lines that open the file (``schema`` included) and the
    non-empty CSV rows after them, header first."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            # A text file's lines end only at "\n" (the writer's terminator; reading maps
            # "\r\n" to it): splitlines() would also break at U+2028, U+0085 or \x1c-\x1e.
            lines = list(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {what} file {path!r}: {exc}") from exc
    meta: dict[str, str] = {}
    head = 0
    while head < len(lines) and lines[head].startswith("# "):
        key, _, value = lines[head][2:].rstrip("\n").partition("=")
        meta[key] = value
        head += 1
    if meta.get("schema") != schema:
        raise DataError(f"unknown {what} schema {meta.get('schema')!r} in {path!r}")
    try:
        # The lines keep their ends, so a quoted field that holds "\n" reads back whole.
        rows = [row for row in csv.reader(lines[head:]) if row]
    except csv.Error as exc:
        raise DataError(f"malformed {what} file {path!r}: {exc}") from exc
    return meta, rows


def write_tagged(path, schema: str, meta, header, rows) -> None:
    """``# schema=``, a ``# key=value`` line per ``(key, value)`` of ``meta`` in
    order, then ``header`` and ``rows`` as CSV (quoted where a field needs it)."""
    out = io.StringIO()
    out.writelines(f"# {key}={value}\n" for key, value in [("schema", schema), *meta])
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    write_text(path, out.getvalue())


def write_text(path, *texts: str) -> None:
    """Write ``texts`` to ``path`` as UTF-8; a path that cannot be written (a
    directory, a missing parent, no permission) raises :class:`UsageError`."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(texts)
    except OSError as exc:
        raise UsageError(f"cannot write '{path}': {exc.strerror or exc}") from exc

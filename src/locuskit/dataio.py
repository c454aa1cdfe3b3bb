"""CSV/JSON/PGM reading and atomic writing for the CLI.

CSV data files carry a header row and decimal floats; data written back
uses %.17g so a round trip reproduces every float64 exactly.  All writers
go through ``atomic_write``: byte chunks to a temp file, then a rename.
"""

from __future__ import annotations

import csv
import json
import math
import os
from itertools import islice, zip_longest

import numpy as np

from .errors import InvalidParameter, ParseError, SchemaMismatch
from .estimators import Dataset
from .sequence import Sequence

__all__ = ["ingest_csv", "write_csv", "Columns", "write_json", "read_pgm", "write_pgm", "atomic_write"]

SCHEMAS = ("features-only", "features+target", "features+label", "sequence")
_CHUNK_ROWS = 1024  # rows formatted and written at a time by write_csv


def atomic_write(path, chunks) -> None:
    """Write the byte chunks in turn to a temp file beside ``path``, then rename it to ``path``; if a chunk
    fails to arrive, neither file is left.  The temp file is created as ``open`` creates a file, so the umask
    sets its mode (``tempfile.mkstemp`` would make it 0600)."""
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}{os.path.basename(path)}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0), 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _parse_cell(raw: str, row: int, col: int) -> float:
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ParseError(
            f"row {row}, column {col}: {raw!r} is not a finite decimal float",
            row=row,
            column=col,
        )
    return value


def ingest_csv(path, schema: str):
    """Read a headered CSV into a Dataset or Sequence per the schema.

    features-only: every column is a feature.
    features+target: last column is a real target.
    features+label: last column is an integer class label.
    sequence: first column is a strictly increasing time index.
    """
    if schema not in SCHEMAS:
        raise SchemaMismatch(f"unknown schema {schema!r}; expected one of {SCHEMAS}")
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError("file is empty (header row required)", row=0) from None
        width = len(header)
        min_width = 2 if schema in ("features+target", "features+label", "sequence") else 1
        if width < min_width:
            raise SchemaMismatch(
                f"schema {schema!r} needs at least {min_width} columns, header has {width}"
            )
        rows = []
        for r, line in enumerate(reader, start=1):
            if not line:
                continue
            if len(line) != width:
                raise ParseError(
                    f"row {r}: expected {width} cells, found {len(line)}", row=r
                )
            rows.append([_parse_cell(cell, r, c) for c, cell in enumerate(line)])
    if not rows:
        raise SchemaMismatch("no data rows")
    table = np.asarray(rows, dtype=float)

    if schema == "features-only":
        return Dataset(table)
    if schema == "features+target":
        return Dataset(table[:, :-1], table[:, -1])
    if schema == "features+label":
        labels = table[:, -1]
        if (labels != np.round(labels)).any():
            raise SchemaMismatch("label column contains non-integer values")
        return Dataset(table[:, :-1], labels.astype(int))
    times = table[:, 0]
    if (np.diff(times) <= 0).any():
        raise SchemaMismatch("sequence times must be strictly increasing")
    return Sequence(tokens=table[:, 1:], times=times)


class Columns(tuple):
    """A table for :func:`write_csv` given column by column: 1-D columns, or 2-D arrays of several."""


def _column(cells):
    """``(format, values)`` of one column by the per-cell rule: ``%s`` for a string, ``%d`` for an integer or
    bool, ``%.17g`` for anything else.  An array's dtype picks it once; mixed cells are formatted one by one."""
    if isinstance(cells, np.ndarray) and cells.dtype.kind in "biufU":
        return {"f": "%.17g", "U": "%s"}.get(cells.dtype.kind, "%d"), cells.tolist()
    kinds = ["%s" if isinstance(c, str) else "%d" if isinstance(c, (int, np.integer)) else "%.17g" for c in cells]
    return (kinds[0], cells) if len(set(kinds)) == 1 else ("%s", [k % c for k, c in zip(kinds, cells)])


def _chunks(rows):
    """The table's rows in chunks of ``_CHUNK_ROWS``, each as a list of columns; ragged rows raise TypeError."""
    if isinstance(rows, (Columns, np.ndarray)):
        blocks = rows if isinstance(rows, Columns) else (rows,)
        columns = [c for b in blocks for c in (b.T if isinstance(b, np.ndarray) and b.ndim == 2 else (b,))]
        n = min(map(len, columns), default=0)
        for start in range(0, n, _CHUNK_ROWS):
            yield [c[start : start + _CHUNK_ROWS] for c in columns]
        return
    rows, width = iter(rows), None
    while chunk := list(islice(rows, _CHUNK_ROWS)):
        columns = list(zip_longest(*chunk))  # a short row's missing cells are None, which no format takes
        if width is not None and len(columns) != width:
            raise TypeError(f"ragged rows: {len(columns)} cells after rows of {width}")
        width = len(columns)
        yield columns


def write_csv(path, header, rows) -> None:
    """Write a table under a header, one format per column (``_column``).  ``rows`` is a :class:`Columns`,
    or any iterable of rows (a 2-D array, a list of lists) read column by column; ragged rows raise TypeError.
    The table goes to disk ``_CHUNK_ROWS`` rows at a time; ``_column`` picks each chunk's formats, which
    write every cell as the per-cell rule does."""

    def text():
        yield (",".join(header) + "\n").encode("utf-8")
        for columns in _chunks(rows):
            columns = [_column(c) for c in columns]
            line = ",".join([fmt for fmt, _ in columns]) + "\n"
            yield "".join(map(line.__mod__, zip(*[values for _, values in columns]))).encode("utf-8")

    atomic_write(path, text())


def write_json(path, payload: dict) -> None:
    atomic_write(path, [(json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("utf-8")])


def read_pgm(path) -> np.ndarray:
    """Binary 8-bit PGM (P5) to a 2-D uint8 array."""
    with open(path, "rb") as fh:
        data = fh.read()
    tokens = []
    i = 0
    while len(tokens) < 4 and i < len(data):
        while i < len(data) and data[i : i + 1].isspace():
            i += 1
        if data[i : i + 1] == b"#":
            while i < len(data) and data[i] != 0x0A:
                i += 1
            continue
        start = i
        while i < len(data) and not data[i : i + 1].isspace():
            i += 1
        tokens.append(data[start:i])
    if not tokens or tokens[0] != b"P5":
        raise ParseError("not a binary PGM (P5) file")
    if len(tokens) < 4:
        raise ParseError("truncated PGM header")
    try:
        width, height, maxval = (int(t) for t in tokens[1:4])
    except ValueError:
        fields = b" ".join(tokens[1:4]).decode("ascii", "replace")
        raise ParseError(f"PGM width, height and maxval must be integers, got {fields!r}") from None
    if width < 1 or height < 1:
        raise ParseError(f"PGM width and height must be >= 1, got {width}x{height}")
    if maxval != 255:
        raise ParseError(f"only 8-bit PGM supported, maxval={maxval}")
    i += 1  # single whitespace after maxval
    pixels = np.frombuffer(data[i : i + width * height], dtype=np.uint8)
    if pixels.size != width * height:
        raise ParseError("truncated PGM pixel data")
    return pixels.reshape(height, width).copy()


def write_pgm(path, image) -> None:
    img = np.asarray(image)
    if img.ndim != 2:
        raise InvalidParameter("PGM image must be 2-D")
    clipped = np.clip(np.round(img), 0, 255).astype(np.uint8)
    header = f"P5\n{clipped.shape[1]} {clipped.shape[0]}\n255\n".encode("ascii")
    atomic_write(path, [header, clipped.tobytes()])

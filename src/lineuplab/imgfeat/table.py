"""The feature-CSV reader: ``image_id, label``, then one column per feature.

``read_feature_csv`` returns the ``(ids, labels, matrix)`` triple that
``lineuplab.imgfeat.features.write_feature_csv`` writes. This module needs
only ``csv``, numpy and the error types, so ``train`` and ``predict`` read
their table without loading the image features; ``imgfeat.features``
re-exports the function.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from lineuplab.errors import DataError, open_text


def read_feature_csv(path):
    """Returns (image_ids, labels, matrix) with 0/1 int64 labels and float64
    features.

    The rows are parsed in one ``np.loadtxt`` pass, whose values equal
    ``float()``'s bit for bit. Anything that pass refuses (a quoted cell, a
    ragged row, an empty line, a cell ``float()`` reads but numpy does not,
    a label other than ``0``/``1``, no rows at all) is read again by
    ``_read_rows``, the row loop that either returns ``float()``'s arrays or
    names ``file:line``.
    """
    path = Path(path)
    if not path.is_file():
        raise DataError(f"feature file not found: {path}")
    with open_text(path, newline="") as fh:
        header = _read_header(path, fh)
        try:
            return _parse_rows(fh, len(header) - 2)
        except ValueError:  # UnicodeDecodeError included: the loop names it
            pass
    with open_text(path, newline="") as fh:
        return _read_rows(path, fh, _read_header(path, fh))


def _read_header(path: Path, fh) -> list[str]:
    try:
        header = next(csv.reader(fh), None)
    except csv.Error:
        header = None
    if not header or header[:2] != ["image_id", "label"]:
        raise DataError(f"{path}: missing or malformed feature header")
    if len(header) == 2:
        raise DataError(f"{path}: feature header names no feature column")
    return header


def _parse_rows(fh, width: int):
    """One float-only ``np.loadtxt`` pass, straight into the C-contiguous
    (rows, width) matrix. Each line after the header is cut here into its
    id, label and feature cells, and loadtxt reads the feature cells alone.
    What that pass would let through raises ``ValueError`` here: a line
    holding a quote (the row loop reads ``csv`` quoting), an empty line or
    feature part (loadtxt skips it), no lines at all (it only warns), a line
    longer than the ``csv`` field limit, a label whose text is not ``0`` or
    ``1`` and rows of another width."""
    limit = csv.field_size_limit()
    ids: list[str] = []
    ones: list[bool] = []

    def cells():
        for line in fh:
            if len(line) > limit or '"' in line:
                raise ValueError("an over-long line, or a quote")
            ident, label, values = line.split(",", 2)
            if label not in ("0", "1") or values in ("", "\n", "\r\n", "\r"):
                raise ValueError("a label other than 0 or 1, or no feature cells")
            ids.append(ident)
            ones.append(label == "1")
            yield values
        if not ids:
            raise ValueError("no rows")

    matrix = np.loadtxt(cells(), dtype=np.float64, delimiter=",", comments=None, ndmin=2)
    if matrix.shape != (len(ids), width):
        raise ValueError("a row of another width")
    return ids, np.asarray(ones, dtype=np.int64), matrix


def _read_rows(path: Path, fh, header: list[str]):
    """The row loop behind ``read_feature_csv``: every feature-CSV fault is
    a ``DataError`` naming ``file:line`` (the CSV record's number)."""
    width = len(header) - 2
    ids: list[str] = []
    labels: list[int] = []
    rows: list[list[float]] = []
    lineno = 1
    try:
        for row in csv.reader(fh):
            lineno += 1
            if len(row) != len(header):
                raise DataError(f"{path}:{lineno}: expected {len(header)} columns, got {len(row)}")
            if row[1] not in ("0", "1"):
                raise DataError(f"{path}:{lineno}: label must be 0 or 1, got {row[1]!r}")
            ids.append(row[0])
            labels.append(row[1] == "1")
            try:
                rows.append([float(x) for x in row[2:]])
            except ValueError:
                raise DataError(f"{path}:{lineno}: non-numeric value") from None
    except csv.Error as exc:
        raise DataError(f"{path}:{lineno + 1}: {exc}") from None
    if not ids:
        raise DataError(f"{path}: no feature rows")
    return ids, np.asarray(labels, dtype=np.int64), np.asarray(rows, dtype=np.float64).reshape(len(ids), width)

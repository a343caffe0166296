"""Point-set loading, validation and normalization.

A Dataset is an immutable snapshot of N points in R^d.  Row order is the
object identity: nothing in the package ever reorders rows, so scores,
labels and transformed positions stay aligned by index.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError

__all__ = ["Dataset", "Labels", "load_csv", "min_max_normalize"]


# eq=False on the array holders: equality and hashing go by identity, as
# knngraph shares graphs per instance, never by content.
@dataclass(frozen=True, eq=False)
class Dataset:
    """N points in R^d, stored as a read-only (N, d) float64 array."""

    points: np.ndarray

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2:
            raise DataError(f"points must be a 2-d array, got shape {pts.shape}")
        if pts.shape[0] < 2:
            raise DataError("a dataset needs at least 2 objects")
        if pts.shape[1] < 1:
            raise DataError("a dataset needs at least 1 feature column")
        if not np.all(np.isfinite(pts)):
            bad = np.argwhere(~np.isfinite(pts))[0]
            raise DataError(f"non-finite value at row {bad[0]}, column {bad[1]}")
        pts = pts.copy()
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def count(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def diameter(self) -> float:
        """Length of the bounding-box diagonal (0 for coincident points)."""
        span = self.points.max(axis=0) - self.points.min(axis=0)
        return float(np.sqrt(np.sum(span * span)))


@dataclass(frozen=True, eq=False)
class Labels:
    """Binary outlier marks aligned to dataset rows (1 = outlier)."""

    flags: np.ndarray

    def __post_init__(self) -> None:
        flags = np.asarray(self.flags)
        if flags.ndim != 1:
            raise DataError(f"labels must be 1-d, got shape {flags.shape}")
        if not np.all(np.isin(flags, (0, 1))):
            raise DataError("labels must contain only 0 and 1")
        flags = flags.astype(np.int8)
        flags.setflags(write=False)
        object.__setattr__(self, "flags", flags)

    @property
    def count(self) -> int:
        return self.flags.shape[0]

    @property
    def n_outliers(self) -> int:
        return int(self.flags.sum())


def _is_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def load_csv(
    path: str | Path, label_column: str | int | None = None
) -> tuple[Dataset, Labels | None]:
    """Load a comma-separated point set, optionally splitting off a label column.

    A header row is assumed present iff the first row contains any
    non-numeric cell.  ``label_column`` selects labels by header name or by
    0-based column index (an int or a numeric string); selecting by name
    requires a header.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"no such file: {path}")

    # utf-8-sig drops the byte-order mark some spreadsheet exports write, which
    # would otherwise make the first cell non-numeric and the first row a header.
    # Each row keeps its file line number for messages; blank lines are dropped.
    try:
        with path.open(newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            rows = [(reader.line_num, row) for row in reader if row]
    except (OSError, UnicodeDecodeError) as exc:  # a directory, no permission, not UTF-8
        raise DataError(f"cannot read {path}: {exc}") from None
    if not rows:
        raise DataError(f"empty file: {path}")

    # Measured before any header is split off, so a header of another width is a ragged row.
    width = len(rows[0][1])
    header: list[str] | None = None
    if any(not _is_number(cell) for cell in rows[0][1]):
        header = [cell.strip() for cell in rows[0][1]]
        rows = rows[1:]
        if not rows:
            raise DataError(f"no data rows in {path}")
    label_idx: int | None = None
    if label_column is not None:
        if isinstance(label_column, str) and not _is_number(label_column):
            if header is None:
                raise DataError(
                    f"label column {label_column!r} requested but file has no header"
                )
            if label_column not in header:
                raise DataError(f"label column {label_column!r} not found in header")
            label_idx = header.index(label_column)
        else:
            try:
                index = float(label_column)
            except OverflowError:  # an int beyond the float range
                index = np.inf
            if np.isinf(index):  # also a string beyond it, such as '1e400'
                raise DataError("label column index out of range")
            if not index.is_integer():
                raise DataError(f"label column index {label_column!r} is not an integer")
            label_idx = int(index)
            if not 0 <= label_idx < width:
                raise DataError(f"label column index {label_idx} out of range")

    values = np.empty((len(rows), width), dtype=np.float64)
    for r, (line, row) in enumerate(rows):
        if len(row) != width:
            raise DataError(f"ragged row {line}: expected {width} cells, got {len(row)}")
        for c, cell in enumerate(row):
            try:
                values[r, c] = float(cell)
            except ValueError:
                raise DataError(
                    f"non-numeric cell {cell!r} at row {line}, column {c + 1}"
                ) from None

    bad = ~np.isfinite(values)
    if label_idx is not None:
        bad[:, label_idx] = False  # a label cell fails the 0-or-1 check below
    if bad.any():
        r, c = np.argwhere(bad)[0]
        raise DataError(f"non-finite cell {rows[r][1][c]!r} at row {rows[r][0]}, column {c + 1}")

    if label_idx is None:
        return Dataset(values), None

    raw = values[:, label_idx]
    if not np.all(np.isin(raw, (0.0, 1.0))):
        bad = int(np.argwhere(~np.isin(raw, (0.0, 1.0)))[0][0])
        raise DataError(f"label value {float(raw[bad])} at row {rows[bad][0]} is not 0 or 1")
    feats = np.delete(values, label_idx, axis=1)
    return Dataset(feats), Labels(raw.astype(np.int8))


def min_max_normalize(ds: Dataset) -> Dataset:
    """Affine-map each feature to [0, 1]; constant features map to all zeros.

    Idempotent: applying it twice gives exactly the same array.
    """
    pts = ds.points
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    # A column whose span overflows is halved first, which is exact for normal
    # numbers; the other columns are scaled by 1.0, which changes no bit.
    scale = np.where(hi / 2 - lo / 2 > np.finfo(pts.dtype).max / 2, 0.5, 1.0)
    lo, span = lo * scale, hi * scale - lo * scale
    out = np.zeros_like(pts)
    live = span > 0
    out[:, live] = (pts[:, live] * scale[live] - lo[live]) / span[live]
    return Dataset(out)

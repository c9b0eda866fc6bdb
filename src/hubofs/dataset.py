"""Tabular data loading, encoding, standardization, splitting, and binning.

Everything here is deterministic and seed-free: one-hot columns are ordered
lexicographically, the train/test split is an arithmetic rule on within-class
row indices, and binning is rank-based. Identical inputs therefore produce
identical downstream artifacts in any implementation.
"""

from __future__ import annotations

import csv
import math
import sys
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import CapabilityError, DataError, UsageError

# One triple's histogram has MAX_BINS**3 cells (262 144), read three ways.
MAX_BINS = 64


@dataclass(frozen=True)
class Dataset:
    """Numeric feature matrix with a binary target, as loaded, standardized or split.

    ``features`` is (N, n) float64 with no missing entries; ``target`` holds
    labels in {0, 1} with both classes present; ``n_dropped_rows`` counts the
    CSV rows that :func:`load_csv` skipped.
    """

    features: np.ndarray
    target: np.ndarray
    feature_names: tuple[str, ...]
    n_dropped_rows: int = 0

    def __post_init__(self):
        self.features.setflags(write=False)
        self.target.setflags(write=False)

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class DiscretizedDataset:
    """Integer bin codes per feature, for histogram-based MI estimation."""

    codes: np.ndarray
    bin_counts: np.ndarray
    target: np.ndarray

    @property
    def n_samples(self) -> int:
        return self.codes.shape[0]

    @property
    def n_features(self) -> int:
        return self.codes.shape[1]


def load_csv(path, target_column: str) -> Dataset:
    """Load a UTF-8 CSV with a header row into a :class:`Dataset`; a leading
    byte-order mark (Excel's "CSV UTF-8") is not part of the first column's name.

    The header is read and judged once, before any body row: an empty file, a
    missing target, a repeated name or a feature name holding a carriage return
    (``importance.csv`` cannot carry one) is refused.
    Rows with any empty cell are dropped (and counted). Feature columns whose
    remaining values all parse as floats pass through; other columns are
    one-hot expanded into ``"<col>=<value>"`` indicators with values sorted
    lexicographically; one that also holds numbers is named in a ``note [build]:``
    line on stderr. The target column must take exactly two distinct raw
    values; the lexicographically smaller one maps to 0. An all-numeric body is
    parsed in C (``np.loadtxt`` skips the header's lines), any other by the same
    ``csv`` reader that read the header: both give one result.
    """
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            rows = csv.reader(fh)
            header = next(rows, None)
            if header is None:
                raise DataError(f"{path!r} is empty (no header row)")
            if target_column not in header:
                raise DataError(f"target column {target_column!r} not found in header")
            if len(set(header)) != len(header):
                raise DataError(f"ambiguous header: duplicated column names in {path!r}")
            for name in header:
                if "\r" in name and name != target_column:
                    raise DataError(f"feature name {name!r} holds a carriage return")
            t_idx = header.index(target_column)
            return (_load_numeric(path, rows.line_num, header, t_idx)
                    or _load_rows(rows, header, t_idx))
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"cannot read CSV file {path!r}: {exc}") from exc


def _load_numeric(path, skip: int, header: list[str], t_idx: int) -> Dataset | None:
    """The body of :func:`load_csv`, below its first ``skip`` lines, in one ``np.loadtxt``
    pass, or None where ``csv`` may read it otherwise: a ragged row, an empty or quoted
    cell, ``1_0``, ``nan``, no rows, not two classes."""
    ids: dict[str, int] = {}  # target values, numbered as they appear
    try:
        with warnings.catch_warnings():  # loadtxt warns on a body with no rows
            warnings.simplefilter("error")
            table = np.loadtxt(
                path, delimiter=",", comments=None, ndmin=2, encoding="utf-8-sig", skiprows=skip,
                converters={t_idx: lambda v: ids.setdefault(v, len(ids))},
            )
    except (OSError, ValueError, UserWarning):
        return None
    features = np.delete(table, t_idx, axis=1)
    if (table.shape[1] != len(header) or len(ids) != 2 or "" in ids or '"' in "".join(ids)
            or not np.isfinite(features).all()):
        return None
    target = (table[:, t_idx] != ids[min(ids)]).astype(np.int64)
    return Dataset(features, target, tuple(header[:t_idx] + header[t_idx + 1 :]))


def _load_rows(rows, header: list[str], t_idx: int) -> Dataset:
    """The body ``rows`` of :func:`load_csv` as ``csv.reader`` gives them, one Python
    string per cell, turned into columns."""
    kept, dropped = [], 0
    for row in rows:
        if len(row) != len(header) or "" in row:
            dropped += bool(row)  # blank lines are skipped, not dropped
            continue
        kept.append(row)
    if not kept:
        raise DataError("zero usable rows after dropping rows with missing cells")

    raw_target = [row[t_idx] for row in kept]
    classes = sorted(set(raw_target))
    if len(classes) != 2:
        raise DataError(f"target column {header[t_idx]!r} has {len(classes)} distinct values, "
                        "need exactly 2")
    target = np.array([classes.index(v) for v in raw_target], dtype=np.int64)

    columns: list[np.ndarray] = []
    names: list[str] = []
    for j, col_name in enumerate(header):
        if j == t_idx:
            continue
        values = [row[j] for row in kept]
        try:
            parsed = np.array([float(v) for v in values], dtype=np.float64)
        except ValueError:
            parsed = None
        # Non-finite tokens ("nan", "inf", "1e999") make a column categorical:
        # the loaded matrix must be free of non-finite entries.
        if parsed is not None and np.isfinite(parsed).all():
            columns.append(parsed)
            names.append(col_name)
        else:
            levels = sorted(set(values))
            if any(map(_finite, values)):  # a column of numbers with a stray token
                token = next(v for v in values if not _finite(v))
                print(
                    f"note [build]: column {col_name!r} holds numbers and {token!r}, which is "
                    f"not a finite number; it became {len(levels)} one-hot indicators",
                    file=sys.stderr,
                )
            for level in levels:
                columns.append(np.array([1.0 if v == level else 0.0 for v in values]))
                names.append(f"{col_name}={level}")
    if len(set(names)) != len(names):
        raise DataError("one-hot expansion produced duplicate feature names")
    for name in names:  # a level's "\r"; the header's were refused before the body was read
        if "\r" in name:
            raise DataError(f"feature name {name!r} holds a carriage return")

    features = np.column_stack(columns) if columns else np.empty((len(kept), 0))
    return Dataset(features, target, tuple(names), n_dropped_rows=dropped)


def _finite(token: str) -> bool:
    try:
        return math.isfinite(float(token))
    except ValueError:
        return False


def standardize(d: Dataset) -> Dataset:
    """Z-score every column (mean over N, std with N-1 in the denominator).

    Constant columns become all-zeros instead of being removed, keeping
    feature indices stable.
    """
    if d.n_samples < 2:
        raise DataError("standardization needs at least 2 samples")
    means = d.features.mean(axis=0)
    stds = d.features.std(axis=0, ddof=1)
    centered = d.features - means
    out = np.where(stds == 0.0, 0.0, centered / np.where(stds == 0.0, 1.0, stds))
    return replace(d, features=out)


def stratified_split(d: Dataset, test_fraction: float) -> tuple[Dataset, Dataset]:
    """Deterministic, seed-free stratified split.

    Within each class, the r-th row (0-indexed, original order) goes to the
    test split iff ``floor((r+1)*f) > floor(r*f)``; everything else trains.
    Both splits preserve the original relative row order.
    """
    if not 0.0 < test_fraction < 1.0:
        raise UsageError(f"test_fraction must be in (0,1), got {test_fraction}")
    to_test = np.zeros(d.n_samples, dtype=bool)
    for label in np.unique(d.target, return_counts=True)[0]:  # plain np.unique imports numpy.ma
        rows = np.flatnonzero(d.target == label)
        if rows.size < 2:
            raise DataError(f"class {label} has fewer than 2 samples")
        r = np.arange(rows.size)
        picked = np.floor((r + 1) * test_fraction) > np.floor(r * test_fraction)
        if not picked.any():  # row 0 always trains, as test_fraction < 1
            raise DataError(
                f"class {label} would get an empty test split at test_fraction={test_fraction}"
            )
        to_test[rows] = picked
    return tuple(
        replace(d, features=d.features[m], target=d.target[m]) for m in (~to_test, to_test)
    )


def _bin_column(values: np.ndarray, max_bins: int) -> tuple[np.ndarray, int]:
    """Equal-frequency, rank-based binning of one column.

    Sorted position m maps to provisional bin floor(m*B/N) (edges at the
    empirical B-quantiles); a tie group takes the bin of its midpoint
    position, so equal values always share a bin, and bin labels are
    re-compressed to consecutive integers. Assignment depends only on value
    ranks, so any strictly monotone transform of the column yields identical
    codes.
    """
    n = values.shape[0]
    _, inverse, sizes = np.unique(values, return_inverse=True, return_counts=True)  # one sort
    b = min(max_bins, sizes.shape[0])
    if b <= 1:
        return np.zeros(n, dtype=np.int64), 1
    # The bin of each tie group's middle position (it ends at cumsum - 1); nondecreasing.
    group_bin = ((2 * np.cumsum(sizes) - sizes - 1) // 2 * b) // n
    group_code = np.cumsum(np.r_[True, group_bin[1:] != group_bin[:-1]]) - 1
    return group_code[inverse], int(group_code[-1]) + 1


def discretize(d: Dataset, max_bins: int) -> DiscretizedDataset:
    """Per-feature equal-frequency binning with B = min(max_bins, #distinct)."""
    if max_bins < 2:
        raise UsageError(f"max_bins must be >= 2, got {max_bins}")
    if max_bins > MAX_BINS:
        raise CapabilityError(f"max_bins must be <= {MAX_BINS}, got {max_bins}")
    codes = np.empty((d.n_samples, d.n_features), dtype=np.int64)
    bin_counts = np.empty(d.n_features, dtype=np.int64)
    for j in range(d.n_features):
        codes[:, j], bin_counts[j] = _bin_column(d.features[:, j], max_bins)
    return DiscretizedDataset(codes=codes, bin_counts=bin_counts, target=d.target.copy())


def subset_codes(dd: DiscretizedDataset, indices) -> DiscretizedDataset:
    """The given feature columns of ``dd`` (order preserved).

    :func:`discretize` bins each column on its own, so this equals
    discretizing the same columns of the dataset.
    """
    idx = list(indices)
    return DiscretizedDataset(
        codes=dd.codes[:, idx],
        bin_counts=dd.bin_counts[idx],
        target=dd.target.copy(),
    )

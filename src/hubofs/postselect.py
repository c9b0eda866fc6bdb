"""Turn low-energy samples into feature-importance scores and a subset.

The retained set keeps the lowest-energy fraction rho of shots (ties broken
lexicographically on spins); the importance of a feature is its empirical
selection frequency inside that set; the final subset keeps features whose
importance reaches the inclusive threshold delta.
"""

from __future__ import annotations

import math

import numpy as np

from .artifacts import read_tagged, write_tagged
from .errors import DataError, UsageError
from .samplers import SampleSet, _row_keys

IMPORTANCE_SCHEMA = "hubofs-importance/1"
IMPORTANCE_FIELDS = ("feature_index", "feature_name", "importance", "selected")


def retain_low_energy(s: SampleSet, rho: float) -> SampleSet:
    """Keep the k = max(1, floor(rho * shots)) lowest-energy shots.

    Rows rank by (energy, lexicographic spins with -1 < +1); the row that
    crosses k keeps only the shots that fit.
    """
    if not 0.0 < rho <= 1.0:
        raise UsageError(f"rho must be in (0, 1], got {rho}")
    if s.total_shots < 1:
        raise DataError("cannot retain from an empty sample set")
    k = max(1, math.floor(rho * s.total_shots))
    order = np.lexsort((_row_keys(s.spins), s.energies))
    counts = s.counts[order]
    before = np.cumsum(counts) - counts  # shots ranked ahead of each row
    keep = before < k
    return SampleSet(
        spins=s.spins[order[keep]],
        counts=np.minimum(counts[keep], k - before[keep]),
        energies=s.energies[order[keep]],
        sampler_name=s.sampler_name,
        seed=s.seed,
        metadata=dict(s.metadata),
    )


def importance(s_retained: SampleSet) -> np.ndarray:
    """Count-weighted mean of the binary selection variables x_i = (Z_i < 0): one
    float64 score in [0, 1] per feature."""
    if not s_retained.counts.size:
        raise DataError("cannot score an empty sample set")
    return (s_retained.counts @ (s_retained.spins < 0)) / s_retained.total_shots


def threshold_select(scores: np.ndarray, delta: float) -> tuple[int, ...]:
    """All features with importance >= delta (inclusive), ascending indices."""
    if not 0.0 <= delta <= 1.0:
        raise UsageError(f"delta must be in [0, 1], got {delta}")
    return tuple(np.flatnonzero(scores >= delta).tolist())


def write_importance_csv(path, scores: np.ndarray, feature_names, selected, meta) -> None:
    """Importance table sorted by importance descending, ties by index, under the
    ``(key, value)`` lines of ``meta``."""
    names = list(feature_names)
    if len(names) != len(scores):
        raise UsageError(f"{len(names)} names for {len(scores)} scores")
    chosen = set(selected)
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    rows = ([i, names[i], f"{scores[i]:.12g}", int(i in chosen)] for i in order)
    write_tagged(path, IMPORTANCE_SCHEMA, meta, IMPORTANCE_FIELDS, rows)


def read_importance_csv(path) -> tuple[list[dict], dict[str, str]]:
    """Rows (as dicts) and '#' metadata of an importance file."""
    meta, table = read_tagged(path, IMPORTANCE_SCHEMA, "importance")
    header = table[0] if table else []
    rows = []
    try:
        missing = [f for f in IMPORTANCE_FIELDS if f not in header]
        if missing:
            raise ValueError(f"missing column(s) {', '.join(missing)}")
        for number, values in enumerate(table[1:], 1):
            if len(values) != len(header):
                raise ValueError(f"row {number} has the wrong number of fields")
            row = dict(zip(header, values))
            value = float(row["importance"])
            if not math.isfinite(value):
                raise ValueError(f"non-finite importance {row['importance']!r}")
            if row["selected"] not in ("0", "1"):
                raise ValueError(f"selected must be 0 or 1, got {row['selected']!r}")
            rows.append(
                {
                    "feature_index": int(row["feature_index"]),
                    "feature_name": row["feature_name"],
                    "importance": value,
                    "selected": row["selected"] == "1",
                }
            )
    except ValueError as exc:
        raise DataError(f"malformed importance file {path!r}: {exc}") from exc
    return rows, meta

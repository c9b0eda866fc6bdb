"""Turn low-energy samples into feature-importance scores and a subset.

The retained set keeps the lowest-energy fraction rho of shots (ties broken
lexicographically on spins); the importance of a feature is its empirical
selection frequency inside that set; the final subset keeps features whose
importance reaches the inclusive threshold delta.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, UsageError
from .samplers import SampleSet

IMPORTANCE_SCHEMA = "hubofs-importance/1"
IMPORTANCE_FIELDS = ("feature_index", "feature_name", "importance", "selected")


@dataclass(frozen=True)
class ImportanceScores:
    """Per-feature selection frequencies within the retained low-energy shots."""

    scores: np.ndarray
    retained_count: int
    rho: float

    def __post_init__(self):
        self.scores.setflags(write=False)
        if self.retained_count < 1:
            raise DataError("retained_count must be >= 1")
        if self.scores.size and (self.scores.min() < 0.0 or self.scores.max() > 1.0):
            raise DataError("importance scores must lie in [0, 1]")

    @property
    def n(self) -> int:
        return int(self.scores.shape[0])


@dataclass(frozen=True)
class SelectionResult:
    selected: tuple[int, ...]
    delta: float
    scores: ImportanceScores


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
    order = np.lexsort((*s.spins.T[::-1], s.energies))
    counts = s.counts[order]
    before = np.cumsum(counts) - counts  # shots ranked ahead of each row
    keep = before < k
    metadata = dict(s.metadata)
    metadata["rho"] = f"{rho:.12g}"
    return SampleSet(
        spins=s.spins[order[keep]],
        counts=np.minimum(counts[keep], k - before[keep]),
        energies=s.energies[order[keep]],
        total_shots=k,
        sampler_name=s.sampler_name,
        seed=s.seed,
        metadata=metadata,
    )


def importance(s_retained: SampleSet) -> ImportanceScores:
    """Count-weighted mean of the binary selection variables x_i = (Z_i < 0).

    The rho recorded by :func:`retain_low_energy` is carried through; a raw
    (unretained) sample set scores with rho = 1.
    """
    if not s_retained.counts.size:
        raise DataError("cannot score an empty sample set")
    return ImportanceScores(
        scores=(s_retained.counts @ (s_retained.spins < 0)) / s_retained.total_shots,
        retained_count=s_retained.total_shots,
        rho=float(s_retained.metadata.get("rho", 1.0)),
    )


def threshold_select(scores: ImportanceScores, delta: float) -> SelectionResult:
    """All features with importance >= delta (inclusive), ascending indices."""
    if not 0.0 <= delta <= 1.0:
        raise UsageError(f"delta must be in [0, 1], got {delta}")
    selected = tuple(i for i in range(scores.n) if scores.scores[i] >= delta)
    return SelectionResult(selected=selected, delta=delta, scores=scores)


def threshold_sweep(scores: ImportanceScores, deltas) -> list[SelectionResult]:
    deltas = list(deltas)
    if not deltas:
        raise UsageError("delta sweep needs at least one value")
    return [threshold_select(scores, d) for d in deltas]


def write_importance_csv(
    path,
    scores: ImportanceScores,
    feature_names,
    selection: SelectionResult,
    extra_metadata: dict[str, str] | None = None,
) -> None:
    """Importance table sorted by importance descending, ties by index."""
    names = list(feature_names)
    if len(names) != scores.n:
        raise UsageError(f"{len(names)} names for {scores.n} scores")
    chosen = set(selection.selected)
    order = sorted(range(scores.n), key=lambda i: (-scores.scores[i], i))
    lines = [
        f"# schema={IMPORTANCE_SCHEMA}",
        f"# rho={scores.rho:.12g}",
        f"# retained={scores.retained_count}",
        f"# delta={selection.delta:.12g}",
    ]
    if extra_metadata:
        lines.extend(f"# {k}={extra_metadata[k]}" for k in sorted(extra_metadata))
    body = io.StringIO()
    writer = csv.writer(body, lineterminator="\n")  # names may contain commas
    writer.writerow(IMPORTANCE_FIELDS)
    for i in order:
        writer.writerow([i, names[i], f"{scores.scores[i]:.12g}", 1 if i in chosen else 0])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n" + body.getvalue())


def read_importance_csv(path) -> tuple[list[dict], dict[str, str]]:
    """Rows (as dicts) and '#' metadata of an importance file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read importance file {path!r}: {exc}") from exc
    meta: dict[str, str] = {}
    body: list[str] = []
    for line in raw:
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            meta[key] = value
        elif line:
            body.append(line)
    if meta.get("schema") != IMPORTANCE_SCHEMA:
        raise DataError(f"unknown importance schema {meta.get('schema')!r} in {path!r}")
    reader = csv.DictReader(body)
    rows = []
    try:
        missing = [f for f in IMPORTANCE_FIELDS if f not in (reader.fieldnames or ())]
        if missing:
            raise ValueError(f"missing column(s) {', '.join(missing)}")
        for row in reader:
            if None in row or None in row.values():
                raise ValueError(f"row {reader.line_num} has the wrong number of fields")
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
    except (ValueError, csv.Error) as exc:
        raise DataError(f"malformed importance file {path!r}: {exc}") from exc
    return rows, meta

"""Seeded synthetic table shaped like UCI Spambase (4601 rows x 57 features).

Recipe: 8 standard-normal latent factors mixed into 57 columns through a
random loading matrix, plus per-cell noise; half of the columns are taken in
absolute value (Spambase's frequency columns are non-negative and skewed);
the binary label is the sign of two factors plus noise. The program under
test only ever sees the CSV this module writes.

The mix is accumulated factor by factor with elementwise numpy operations
(no BLAS call), and cells are written with a fixed ``%.6f`` format, so one
seed gives the same bytes on any machine with the same numpy generator.
"""

from __future__ import annotations

import hashlib

import numpy as np

ROWS = 4601
FEATURES = 57
FACTORS = 8
NOISE = 1.0
LABEL_NOISE = 1.5
TARGET = "label"
STRUCTURE_SEED = 0


def make_table(seed: int, rows: int = ROWS, features: int = FEATURES) -> tuple[np.ndarray, np.ndarray]:
    """(features matrix, 0/1 label vector) for ``seed``.

    The loading matrix and the abs() columns come from a fixed structure
    seed, so every ``seed`` draws rows from the same population: seeds differ
    in sampling noise only, and the selection the pipeline should find stays
    put across seeds.
    """
    structure = np.random.default_rng(STRUCTURE_SEED)
    loading = structure.standard_normal((FACTORS, features))
    abs_cols = np.sort(structure.permutation(features)[: features // 2])
    rng = np.random.default_rng(seed)
    factors = rng.standard_normal((rows, FACTORS))
    x = NOISE * rng.standard_normal((rows, features))
    for f in range(FACTORS):
        x += factors[:, f : f + 1] * loading[f]
    x[:, abs_cols] = np.abs(x[:, abs_cols])
    score = factors[:, 0] + factors[:, 1] + LABEL_NOISE * rng.standard_normal(rows)
    return x, (score > 0.0).astype(np.int64)


def table_csv(seed: int, rows: int = ROWS, features: int = FEATURES) -> bytes:
    """The CSV bytes for ``seed``: header ``f0..f{features-1},label``."""
    x, y = make_table(seed, rows, features)
    header = ",".join([f"f{i}" for i in range(features)] + [TARGET])
    row_fmt = ",".join(["%.6f"] * features) + ",%d"
    lines = [header]
    lines.extend(row_fmt % (*x[r], y[r]) for r in range(rows))
    return ("\n".join(lines) + "\n").encode("ascii")


def write_table(path, seed: int, rows: int = ROWS, features: int = FEATURES) -> str:
    """Write the CSV for ``seed`` to ``path``; returns its sha256."""
    data = table_csv(seed, rows, features)
    with open(path, "wb") as fh:
        fh.write(data)
    return hashlib.sha256(data).hexdigest()

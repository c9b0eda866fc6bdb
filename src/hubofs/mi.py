"""Plug-in (histogram) entropy and mutual information on discretized features.

All quantities are in bits. MI is computed in the ratio form
``sum_ab p(a,b) * log2(c_ab * N / (c_a * c_b))`` over contingency counts:
mathematically identical to ``H(a) + H(b) - H(a,b)``, but an exactly
independent empirical table (``c_ab * N == c_a * c_b`` cell-wise) yields
exactly 0.0 because every log argument is exactly 1. Negative rounding
residue is clamped to 0 so downstream coefficient building can rely on
non-negativity.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

import numpy as np

from .dataset import DiscretizedDataset
from .errors import DataError, UsageError

TENSOR_SCHEMA = "hubofs-mi-tensors/2"


@dataclass(frozen=True)
class MiTensors:
    """Relevance / redundancy / triadic MI values keyed by sorted index tuples."""

    relevance: np.ndarray
    redundancy: dict[tuple[int, int], float]
    triadic: dict[tuple[int, int, int], float]

    def __post_init__(self):
        if self.relevance.ndim != 1:
            raise UsageError(f"relevance must be 1-D, got shape {self.relevance.shape}")
        self.relevance.setflags(write=False)
        n = self.n
        for key in self.redundancy:
            if not (0 <= key[0] < key[1] < n):
                raise UsageError(f"bad redundancy key {key} for n={n}")
        for key in self.triadic:
            if not (0 <= key[0] < key[1] < key[2] < n):
                raise UsageError(f"bad triadic key {key} for n={n}")

    @property
    def n(self) -> int:
        return int(self.relevance.shape[0])

    def all_values(self) -> np.ndarray:
        """Every stored value (all three families) as one flat array."""
        return np.concatenate(
            [
                self.relevance,
                np.fromiter(self.redundancy.values(), dtype=np.float64, count=len(self.redundancy)),
                np.fromiter(self.triadic.values(), dtype=np.float64, count=len(self.triadic)),
            ]
        )


def _entropy_from_counts(counts: np.ndarray) -> float:
    counts = counts[counts > 0]
    total = float(counts.sum())
    return float(np.sum((counts / total) * np.log2(total / counts)))


def _mi_from_joint(joint: np.ndarray) -> float:
    """Plug-in MI (bits) of a 2-D contingency count table, clamped at 0.

    Per-cell terms are sorted before summation: the term multiset is
    invariant under transposition, so MI(a,b) == MI(b,a) bitwise.
    """
    total = float(joint.sum())
    row = joint.sum(axis=1, keepdims=True).astype(np.float64)
    col = joint.sum(axis=0, keepdims=True).astype(np.float64)
    cells = joint.astype(np.float64)
    mask = cells > 0
    ratio = np.ones_like(cells)
    np.divide(cells * total, row * col, out=ratio, where=mask)
    terms = (cells[mask] / total) * np.log2(ratio[mask])
    return max(float(np.sort(terms).sum()), 0.0)


def _compress(codes) -> tuple[np.ndarray, int]:
    arr = np.asarray(codes)
    uniq, inv = np.unique(arr, return_inverse=True)
    return inv.astype(np.int64), int(uniq.shape[0])


def entropy(codes) -> float:
    """Shannon entropy (bits) of the empirical distribution of ``codes``."""
    arr = np.asarray(codes)
    if arr.size == 0:
        raise DataError("entropy of an empty vector is undefined")
    _, counts = np.unique(arr, return_counts=True)
    return _entropy_from_counts(counts)


def mi_pair(a, b) -> float:
    """Plug-in mutual information (bits) between two integer code vectors."""
    av = np.asarray(a)
    bv = np.asarray(b)
    if av.size == 0:
        raise DataError("mutual information of empty vectors is undefined")
    if av.shape != bv.shape:
        raise DataError(f"length mismatch: {av.shape} vs {bv.shape}")
    inv_a, n_a = _compress(av)
    inv_b, n_b = _compress(bv)
    joint = np.bincount(inv_a * n_b + inv_b, minlength=n_a * n_b).reshape(n_a, n_b)
    return _mi_from_joint(joint)


def _mi_known_cardinality(a: np.ndarray, n_a: int, b: np.ndarray, n_b: int) -> float:
    joint = np.bincount(a * n_b + b, minlength=n_a * n_b).reshape(n_a, n_b)
    return _mi_from_joint(joint)


def _check_triple(dd: DiscretizedDataset, i: int, j: int, k: int):
    n = dd.n_features
    if len({i, j, k}) != 3:
        raise UsageError(f"indices must be distinct, got ({i}, {j}, {k})")
    for idx in (i, j, k):
        if not 0 <= idx < n:
            raise UsageError(f"feature index {idx} out of range for n={n}")


def mi_joint_pair_single(dd: DiscretizedDataset, i: int, j: int, k: int) -> float:
    """MI (bits) between the composite variable (X_i, X_j) and X_k.

    The composite is coded as ``code_i * bin_counts[j] + code_j``.
    """
    _check_triple(dd, i, j, k)
    bc = dd.bin_counts
    composite = dd.codes[:, i] * bc[j] + dd.codes[:, j]
    return _mi_known_cardinality(composite, int(bc[i] * bc[j]), dd.codes[:, k], int(bc[k]))


def _triadic(dd: DiscretizedDataset, i: int, j: int, k: int) -> float:
    """Cyclic triple MI from one (b_i, b_j, b_k) histogram, read three ways."""
    bi, bj, bk = (int(dd.bin_counts[idx]) for idx in (i, j, k))
    codes = (dd.codes[:, i] * bj + dd.codes[:, j]) * bk + dd.codes[:, k]
    cube = np.bincount(codes, minlength=bi * bj * bk).reshape(bi, bj, bk)
    return (
        _mi_from_joint(cube.reshape(bi * bj, bk))
        + _mi_from_joint(cube.transpose(0, 2, 1).reshape(bi * bk, bj))
        + _mi_from_joint(cube.transpose(1, 2, 0).reshape(bj * bk, bi))
    ) / 3.0


def cyclic_mi(dd: DiscretizedDataset, i: int, j: int, k: int) -> float:
    """Cyclic average of the three pair-vs-single MI groupings of a triple.

    Indices are canonicalized (sorted) before evaluation, so any permutation
    of the same triple returns the exact same float.
    """
    _check_triple(dd, i, j, k)
    return _triadic(dd, *sorted((i, j, k)))


def relevance(dd: DiscretizedDataset) -> np.ndarray:
    """MI (bits) between each feature and the target, in feature order."""
    target, n_t = _compress(dd.target)
    return np.array(
        [
            _mi_known_cardinality(dd.codes[:, i], int(dd.bin_counts[i]), target, n_t)
            for i in range(dd.n_features)
        ]
    )


def compute_tensors(dd: DiscretizedDataset) -> MiTensors:
    """Relevance, pairwise, and triadic MI values of every feature of ``dd``.

    O(n^3 * N): pass only the features the Hamiltonian keeps.
    """
    n = dd.n_features
    if n < 1:
        raise DataError("need at least one feature")
    bc = [int(v) for v in dd.bin_counts]
    redundancy = {
        (i, j): _mi_known_cardinality(dd.codes[:, i], bc[i], dd.codes[:, j], bc[j])
        for i, j in itertools.combinations(range(n), 2)
    }
    triadic = {key: _triadic(dd, *key) for key in itertools.combinations(range(n), 3)}
    return MiTensors(relevance=relevance(dd), redundancy=redundancy, triadic=triadic)


def save_tensors(path, t: MiTensors, provenance: dict | None = None) -> None:
    """Write tensors as JSON: relevance array plus [i,j,v] / [i,j,k,v] lists."""
    doc = {
        "schema": TENSOR_SCHEMA,
        "relevance": [float(v) for v in t.relevance],
        "pairs": [[i, j, float(v)] for (i, j), v in sorted(t.redundancy.items())],
        "triples": [[i, j, k, float(v)] for (i, j, k), v in sorted(t.triadic.items())],
    }
    if provenance is not None:
        doc["provenance"] = provenance
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_tensors(path) -> MiTensors:
    """Read a tensor file; malformed content raises :class:`DataError`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise DataError(f"cannot read tensor file {path!r}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError, int digit limit
        raise DataError(f"malformed tensor file {path!r}: {exc}") from exc
    schema = doc.get("schema") if isinstance(doc, dict) else None
    if schema != TENSOR_SCHEMA:
        raise DataError(f"unknown tensor schema {schema!r} in {path!r}")
    try:
        t = MiTensors(
            relevance=np.array(doc["relevance"], dtype=np.float64),
            redundancy={(int(i), int(j)): float(v) for i, j, v in doc["pairs"]},
            triadic={(int(i), int(j), int(k)): float(v) for i, j, k, v in doc["triples"]},
        )
    except (KeyError, TypeError, ValueError, OverflowError, UsageError) as exc:
        raise DataError(f"malformed tensor file {path!r}: {exc!r}") from exc
    if not np.isfinite(t.all_values()).all():
        raise DataError(f"non-finite MI value in tensor file {path!r}")
    return t

"""Plug-in (histogram) entropy and mutual information on discretized features.

All quantities are in bits. MI is computed in the ratio form
``sum_ab p(a,b) * log2(c_ab * N / (c_a * c_b))`` over contingency counts:
mathematically identical to ``H(a) + H(b) - H(a,b)``, but an exactly
independent empirical table (``c_ab * N == c_a * c_b`` cell-wise) yields
exactly 0.0 because every log argument is exactly 1. Negative rounding
residue is clamped to 0 so downstream coefficient building can rely on
non-negativity.

Every MI goes through one kernel, ``_mi_tables``, which takes a ``(T, R, C)``
stack of count tables. Relevance is one ``bincount`` per chunk of features,
pairs one per feature i over every j > i, and triples one per pair (i, j)
over every k > j, each such histogram read as the three pair-vs-single
groupings. Features are padded to the largest bin count; empty cells add no
term. A call takes as many tables as keep both its count stack and its
``(tables, N)`` index array within ``MAX_CELLS`` entries, and at least one
table (or one triple's three groupings), so the scratch of one call does not
grow with the number of features, and with the number of samples N only as
a single table's index array does.

Each table's terms are summed in ascending order, which makes MI(a, b) ==
MI(b, a) bitwise. The kernel sorts every table's terms at once and sums the
tables with the same number L of terms as the rows of one ``(count, L)``
array: numpy sums each row exactly as it sums a 1-D array of length L, so
batched values equal per-table values bitwise. ``np.add.reduceat`` over the
concatenated terms does not (it gave other bits for most tables tried).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .artifacts import json_number, read_json, read_terms, term_rows, write_json
from .dataset import DiscretizedDataset
from .errors import DataError, UsageError

TENSOR_SCHEMA = "hubofs-mi-tensors/2"

# Cells per count-table stack, and entries per index array, of one MI kernel
# call; a single table (or one triple's three groupings) larger than this goes
# alone.
MAX_CELLS = 1 << 17


def check_terms(obj, index_field: str, value_field: str, order: int, n: int) -> None:
    """Store ``(m, order)`` int64 index rows and their ``(m,)`` float64 values read-only.

    Each row must be strictly increasing within ``[0, n)`` and the rows strictly
    ascending, so a repeated row raises :class:`UsageError` like a bad one."""
    index = np.asarray(getattr(obj, index_field), dtype=np.int64)
    values = np.asarray(getattr(obj, value_field), dtype=np.float64)
    m = len(values)
    if values.ndim != 1 or index.shape != (m, order):
        raise UsageError(f"{index_field} must be ({m}, {order}) beside {value_field} ({m},)")
    ok = (index[:, 0] >= 0) & (index[:, -1] < n) & (np.diff(index, axis=1) > 0).all(axis=1)
    if not ok.all():
        raise UsageError(f"bad {index_field} row {tuple(index[~ok][0].tolist())} for n={n}")
    step = np.diff(index, axis=0)  # each row's first nonzero step from the row before
    if (step[np.arange(len(step)), np.argmax(step != 0, axis=1)] <= 0).any():
        raise UsageError(f"{index_field} rows must be strictly ascending, without repeats")
    for name, array in ((index_field, index), (value_field, values)):
        array.setflags(write=False)
        object.__setattr__(obj, name, array)


def sort_terms(terms, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Ascending ``(m, order)`` index rows and ``(m,)`` values of a dict or of
    ``(key, value)`` pairs; a key given twice stays twice, for :func:`check_terms`."""
    items = list(terms.items() if isinstance(terms, dict) else terms)
    index = np.array([key for key, _ in items], dtype=np.int64).reshape(len(items), order)
    values = np.array([value for _, value in items], dtype=np.float64)
    rows = np.lexsort(index.T[::-1])
    return index[rows], values[rows]


@dataclass(frozen=True)
class MiTensors:
    """Relevance ``(n,)`` plus redundancy and triadic MI in the sparse term layout.

    ``pairs (m2, 2)`` and ``triples (m3, 3)`` are int64 index rows, each row
    strictly increasing and the rows in ascending order; ``redundancy (m2,)``
    and ``triadic (m3,)`` are their values.
    """

    relevance: np.ndarray
    pairs: np.ndarray
    redundancy: np.ndarray
    triples: np.ndarray
    triadic: np.ndarray

    def __post_init__(self):
        relevance = np.asarray(self.relevance, dtype=np.float64)
        if relevance.ndim != 1:
            raise UsageError(f"relevance must be 1-D, got shape {relevance.shape}")
        relevance.setflags(write=False)
        object.__setattr__(self, "relevance", relevance)
        check_terms(self, "pairs", "redundancy", 2, self.n)
        check_terms(self, "triples", "triadic", 3, self.n)

    @classmethod
    def from_terms(cls, relevance, redundancy, triadic) -> "MiTensors":
        """Tensors from ``{(i, j): value}`` and ``{(i, j, k): value}`` terms in any order."""
        pairs, redundancy = sort_terms(redundancy, 2)
        triples, triadic = sort_terms(triadic, 3)
        return cls(relevance, pairs, redundancy, triples, triadic)

    @property
    def n(self) -> int:
        return int(self.relevance.shape[0])

    def all_values(self) -> np.ndarray:
        """Every stored value (all three families) as one flat array."""
        return np.concatenate([self.relevance, self.redundancy, self.triadic])


def _mi_tables(joint: np.ndarray) -> np.ndarray:
    """Plug-in MI (bits, clamped at 0) of each table of a ``(T, R, C)`` count stack.

    Per nonzero cell: ``(cells / total) * log2(cells * total / (row * col))``.
    Each table's terms are sorted (empty cells pad with +inf, which sorts
    last) and summed in that order, so a value depends only on the table's
    term multiset: MI(a, b) == MI(b, a) bitwise, and empty padding rows or
    columns change nothing.
    """
    t = len(joint)
    row = np.einsum("trc->tr", joint)[:, :, None]
    col = np.einsum("trc->tc", joint)[:, None, :]
    total = row.sum(axis=1, keepdims=True).astype(np.float64)
    cells = joint.astype(np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):  # empty cells, replaced below
        terms = (cells / total) * np.log2(cells * total / (row * col).astype(np.float64))
    terms = np.where(joint > 0, terms, np.inf).reshape(t, -1)
    terms.sort(axis=1)
    lengths = np.count_nonzero(joint.reshape(t, -1), axis=1)
    sums = np.empty(t)
    for length in np.unique(lengths):
        rows = lengths == length
        sums[rows] = terms[rows, :length].sum(axis=1)
    return np.where(sums < 0.0, 0.0, sums)


def _counts(a: np.ndarray, n_a: int, cols: np.ndarray, n_b: int) -> np.ndarray:
    """``(m, n_a, n_b)`` count tables of codes ``a (N,)`` against each row of ``cols (m, N)``."""
    m = len(cols)
    flat = np.add(cols, np.arange(0, m * n_a * n_b, n_a * n_b)[:, None], order="C")
    flat += a * n_b
    return np.bincount(flat.ravel(), minlength=m * n_a * n_b).reshape(m, n_a, n_b)


def _mi_columns(a: np.ndarray, n_a: int, cols: np.ndarray, n_b: int) -> np.ndarray:
    """MI of codes ``a`` against each row of ``cols (m, N)`` (codes below ``n_b``)."""
    step = max(1, MAX_CELLS // max(n_a * n_b, len(a)))
    return np.concatenate(
        [np.empty(0)]
        + [_mi_tables(_counts(a, n_a, cols[s : s + step], n_b)) for s in range(0, len(cols), step)]
    )


def _cyclic_columns(pair: np.ndarray, cols: np.ndarray, b: int) -> np.ndarray:
    """Cyclic MI of (X_i, X_j, X_k) for each row X_k of ``cols (m, N)``.

    Every feature is padded to ``b`` bins and ``pair`` is ``code_i * b +
    code_j``. One ``(m, b, b, b)`` histogram per chunk is read as the three
    pair-vs-single groupings.
    """
    step = max(1, MAX_CELLS // max(3 * b**3, len(pair)))
    out = [np.empty(0)]
    for s in range(0, len(cols), step):
        cube = _counts(pair, b * b, cols[s : s + step], b).reshape(-1, b, b, b)
        m = len(cube)
        groupings = [
            cube.reshape(m, b * b, b),  # (i, j) vs k
            cube.transpose(0, 1, 3, 2).reshape(m, b * b, b),  # (i, k) vs j
            cube.transpose(0, 2, 3, 1).reshape(m, b * b, b),  # (j, k) vs i
        ]
        mi = _mi_tables(np.concatenate(groupings)).reshape(3, m)
        out.append((mi[0] + mi[1] + mi[2]) / 3.0)
    return np.concatenate(out)


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
    total = float(counts.sum())
    return float(np.sum((counts / total) * np.log2(total / counts)))


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
    return float(_mi_columns(inv_a, n_a, inv_b[None], n_b)[0])


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
    bi, bj, bk = (int(dd.bin_counts[idx]) for idx in (i, j, k))
    composite = dd.codes[:, i] * bj + dd.codes[:, j]
    return float(_mi_columns(composite, bi * bj, dd.codes[:, k][None], bk)[0])


def cyclic_mi(dd: DiscretizedDataset, i: int, j: int, k: int) -> float:
    """Cyclic average of the three pair-vs-single MI groupings of a triple.

    Indices are canonicalized (sorted) before evaluation, so any permutation
    of the same triple returns the exact same float.
    """
    _check_triple(dd, i, j, k)
    i, j, k = sorted((i, j, k))
    b = int(dd.bin_counts[[i, j, k]].max())
    pair = dd.codes[:, i] * b + dd.codes[:, j]
    return float(_cyclic_columns(pair, dd.codes[:, k][None], b)[0])


def relevance(dd: DiscretizedDataset) -> np.ndarray:
    """MI (bits) between each feature and the target, in feature order."""
    target, n_t = _compress(dd.target)
    b = int(dd.bin_counts.max(initial=1))
    return _mi_columns(target, n_t, dd.codes.T, b)


def compute_tensors(dd: DiscretizedDataset) -> MiTensors:
    """Relevance, pairwise, and triadic MI values of every feature of ``dd``.

    O(n^3 * N): pass only the features the Hamiltonian keeps.
    """
    n = dd.n_features
    if n < 1:
        raise DataError("need at least one feature")
    cols = np.ascontiguousarray(dd.codes.T)
    b = int(dd.bin_counts.max())
    pairs = _combinations(n, 2)
    triadic = [_cyclic_columns(cols[i] * b + cols[j], cols[j + 1 :], b) for i, j in pairs.tolist()]
    return MiTensors(
        relevance=relevance(dd),
        pairs=pairs,
        redundancy=np.concatenate([_mi_columns(cols[i], b, cols[i + 1 :], b) for i in range(n)]),
        triples=_combinations(n, 3),
        triadic=np.concatenate([np.empty(0)] + triadic),
    )


def _combinations(n: int, r: int) -> np.ndarray:
    """Every r-subset of ``range(n)`` as ascending ``(C(n, r), r)`` index rows."""
    return np.array(list(itertools.combinations(range(n), r)), dtype=np.int64).reshape(-1, r)


def save_tensors(path, t: MiTensors, provenance: dict | None = None) -> None:
    """Write tensors as JSON: relevance array plus [i,j,v] / [i,j,k,v] rows in ascending order."""
    doc = {
        "schema": TENSOR_SCHEMA,
        "relevance": t.relevance.tolist(),
        "pairs": term_rows(t.pairs, t.redundancy),
        "triples": term_rows(t.triples, t.triadic),
    }
    if provenance is not None:
        doc["provenance"] = provenance
    write_json(path, doc)


def load_tensors(path) -> MiTensors:
    """Read a tensor file, rows in any order; a malformed one (a repeated row, a
    non-integer index or a non-finite value too) raises :class:`DataError`."""
    doc = read_json(path, TENSOR_SCHEMA, "tensor")
    try:
        return MiTensors.from_terms(
            relevance=[json_number(v) for v in doc["relevance"]],
            redundancy=read_terms(doc["pairs"], 2),
            triadic=read_terms(doc["triples"], 3),
        )
    except (KeyError, TypeError, ValueError, OverflowError, UsageError) as exc:
        raise DataError(f"malformed tensor file {path!r}: {exc!r}") from exc

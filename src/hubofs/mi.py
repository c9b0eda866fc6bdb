"""Plug-in (histogram) entropy and mutual information on discretized features.

All quantities are in bits. MI is computed in the ratio form
``sum_ab p(a,b) * log2(c_ab * N / (c_a * c_b))`` over contingency counts:
mathematically identical to ``H(a) + H(b) - H(a,b)``, but an exactly
independent empirical table (``c_ab * N == c_a * c_b`` cell-wise) yields
exactly 0.0 because every log argument is exactly 1. Negative rounding
residue is clamped to 0 so downstream coefficient building can rely on
non-negativity.

Every MI goes through one kernel, ``_mi_sums``, which takes a ``(T, ...)``
stack of count tables and reads each table G ways, each grouping with its own
row and column margins. Relevance is one ``bincount`` per chunk of features,
and the pair tables one per feature i over every j > i; a pair table is read
once, with its own margins. The triples are taken in ascending order, in
batches that cross pair boundaries: a batch is one ``bincount`` into
``(t, b, b, b)`` histograms, each read as the three pair-vs-single groupings,
whose margins are the pair tables and the single-feature counts counted once
per call of :func:`compute_tensors`. Features are padded to the largest bin
count b; empty cells add no term. A call takes as many tables as keep its
``(tables, N)`` index array and its term stack (G terms per cell) within
``MAX_CELLS`` entries, and at least one table, so the scratch of one call does
not grow with the number of features, and with the number of samples N only
as a single table's index array does. The pair tables held for the triples
take ``C(n, 2) * b * b`` counts.

Each table's terms are summed in ascending order, which makes MI(a, b) ==
MI(b, a) bitwise and lets a grouping's terms lie in any layout. The kernel
sorts every table's terms at once and sums the tables with the same number L
of terms, in all G groupings, as the rows of one ``(G, count, L)`` slice:
numpy sums each row exactly as it sums a 1-D array of length L, so batched
values equal per-table values bitwise. ``np.add.reduceat`` over the
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

# Terms per term stack, and entries per index array, of one MI kernel call; a
# single table (or one triple's three groupings) larger than this goes alone.
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
    """Plug-in MI (bits, clamped at 0) of each table of a ``(T, R, C)`` count stack."""
    row = np.einsum("trc->tr", joint)[:, :, None]
    col = np.einsum("trc->tc", joint)[:, None, :]
    return _mi_sums(joint, [(row, col)])[0]


def _mi_sums(joint: np.ndarray, margins) -> np.ndarray:
    """``(G, T)`` plug-in MI (bits, clamped at 0) of a ``(T, ...)`` count stack read
    G ways: grouping g's margins are the count arrays ``margins[g] = (row, col)``,
    each with the stack's leading axis, whose product broadcasts to its shape.

    Per nonzero cell: ``(cells / total) * log2(cells * total / (row * col))``.
    Each table's terms are sorted (empty cells pad with +inf, which sorts
    last) and summed in that order, so a value depends only on the table's
    term multiset: MI(a, b) == MI(b, a) bitwise, the cells may lie in any
    layout, and empty padding rows or columns change nothing.
    """
    t = len(joint)
    lengths = np.count_nonzero(joint.reshape(t, -1), axis=1)
    order = np.argsort(lengths, kind="stable")  # equal lengths are summed as one slice
    joint, lengths = joint[order], lengths[order]
    margins = [(row[order], col[order]) for row, col in margins]
    total = margins[0][0].sum(axis=tuple(range(1, joint.ndim)), keepdims=True).astype(np.float64)
    cells = np.where(joint > 0, joint, np.inf)  # an empty cell's term comes out +inf
    terms = np.empty((len(margins),) + joint.shape)
    with np.errstate(invalid="ignore"):  # a table with no counts (total 0) comes out NaN
        scaled, share = cells * total, np.divide(cells, total, out=cells)
        for out, (row, col) in zip(terms, margins):
            np.multiply(row, col, out=out)
            np.divide(scaled, out, out=out)
        np.log2(terms, out=terms)
        terms *= share
    terms = terms.reshape(len(margins), t, -1)
    terms.sort(axis=2)
    sums = np.empty((len(margins), t))
    bounds = [0, *(np.flatnonzero(np.diff(lengths)) + 1).tolist(), t]
    for lo, hi in zip(bounds, bounds[1:]):
        np.add.reduce(terms[:, lo:hi, : lengths[lo]], axis=2, out=sums[:, lo:hi])
    sums[:, order] = np.where(sums < 0.0, 0.0, sums)
    return sums


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


def _pair_tables(cols: np.ndarray, b: int) -> np.ndarray:
    """``(C(n, 2), b, b)`` count tables of the ascending feature pairs of ``cols (n, N)``."""
    n, size = cols.shape
    step = max(1, MAX_CELLS // max(b * b, size))
    chunks = [(i, s) for i in range(n) for s in range(i + 1, n, step)]
    return np.concatenate(
        [np.empty((0, b, b), dtype=np.int64)]
        + [_counts(cols[i], b, cols[s : s + step], b) for i, s in chunks]
    )


def _cyclic(cols: np.ndarray, b: int, tables: np.ndarray, triples: np.ndarray) -> np.ndarray:
    """Cyclic MI of each ascending triple (i, j, k) of ``triples`` over rows of ``cols (n, N)``.

    Every feature is padded to ``b`` bins and ``tables`` holds the pair tables
    of :func:`_pair_tables`. A batch of triples is counted by one ``bincount``
    into ``(t, b, b, b)`` histograms, each read as the three pair-vs-single
    groupings with the pair tables and single counts as margins.
    """
    n, size = cols.shape
    cube = b**3
    step = max(1, MAX_CELLS // max(3 * cube, size))
    codes = cols.astype(np.min_scalar_type(step * cube - 1))  # the smallest type that holds a key
    keys = np.empty((step, size), dtype=codes.dtype)
    offsets = np.arange(0, step * cube, cube, dtype=codes.dtype)[:, None]
    singles = np.stack([np.bincount(col, minlength=b) for col in cols]).astype(np.float64)
    pair_row = np.zeros((n, n), dtype=np.int64)
    pair_row[tuple(_combinations(n, 2).T)] = np.arange(len(tables))
    out = [np.empty(0)]
    for s in range(0, len(triples), step):
        batch = triples[s : s + step]
        t = len(batch)
        # A pair's triples are consecutive, k rising by one: each run adds the pair's
        # code to a slice of rows.
        cuts = (np.flatnonzero(np.diff(batch[:, 2]) != 1) + 1).tolist()
        for lo, hi in zip([0, *cuts], [*cuts, t]):
            i, j, k = batch[lo].tolist()
            np.add(codes[k : k + hi - lo], (codes[i] * b + codes[j]) * b, out=keys[lo:hi])
        keys[:t] += offsets[:t]
        hist = np.bincount(keys[:t].ravel(), minlength=t * cube).reshape(t, b, b, b)
        i, j, k = batch.T
        ij, ik, jk = tables[pair_row[[i, i, j], [j, k, k]]].astype(np.float64)
        mi = _mi_sums(
            hist,
            [
                (ij[:, :, :, None], singles[k][:, None, None, :]),  # (i, j) vs k
                (ik[:, :, None, :], singles[j][:, None, :, None]),  # (i, k) vs j
                (jk[:, None, :, :], singles[i][:, :, None, None]),  # (j, k) vs i
            ],
        )
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
    index = sorted((i, j, k))
    cols = np.ascontiguousarray(dd.codes[:, index].T)
    b = int(dd.bin_counts[index].max())
    return float(_cyclic(cols, b, _pair_tables(cols, b), _combinations(3, 3))[0])


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
    tables = _pair_tables(cols, b)
    step = max(1, MAX_CELLS // (b * b))
    triples = _combinations(n, 3)
    return MiTensors(
        relevance=relevance(dd),
        pairs=_combinations(n, 2),
        redundancy=np.concatenate(
            [np.empty(0)] + [_mi_tables(tables[s : s + step]) for s in range(0, len(tables), step)]
        ),
        triples=triples,
        triadic=_cyclic(cols, b, tables, triples),
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

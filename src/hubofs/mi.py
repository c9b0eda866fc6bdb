"""Plug-in (histogram) entropy and mutual information on discretized features.

All quantities are in bits. Every MI is a sum of entropies,
``I(A; B) = (H(A) + H(B)) - H(A, B)``, and every plug-in entropy of N samples
is read from its count table as ``H = (xlogx[N] - sum_c xlogx[c]) / N``, with
``xlogx[c] = c * log2(c)`` one table for c = 0..N built once per call (Cover &
Thomas, *Elements of Information Theory*, 2nd ed. (2006), ch. 2). No cell
takes a log, a division or a float sort. Two contracts hold:

* An entropy depends only on the multiset of its nonzero counts: a table's
  counts are sorted as integers and their terms added one by one, empty cells
  first, each adding exactly 0.0. So MI(a, b) == MI(b, a) bitwise, a cyclic MI
  is the same for every order of its triple, a triadic value is bitwise the
  mean of its three :func:`mi_joint_pair_single` values, and padding a feature
  to more bins changes nothing.
* An exactly independent empirical table (``c_ab * N == c_a * c_b`` on every
  cell) gives exactly 0.0. The entropies alone leave a rounding residue of
  either sign there, so a value below a rounding gate is checked in int64 and
  set to 0.0 when its table is independent. Any other negative residue is
  clamped to 0, so coefficient building can rely on non-negativity.

Every two-variable MI (relevance, the pairs, :func:`mi_pair` and
:func:`mi_joint_pair_single`) comes from one kernel: one ``bincount`` of
``(n_a, n_b)`` tables per chunk of columns, returning each table's entropy
beside its MI. The pairs are one call per feature i over every j > i; their
entropies and the singles' feed the triples. The triples are taken in
ascending order, in batches that cross pair boundaries, each one ``bincount``
into ``(t, b, b, b)`` histograms (features padded to the largest bin count b).
Each triple adds one entropy, H_ijk, for its three groupings such as
``(H_ij + H_k) - H_ijk``. A call takes as many tables as keep its
``(tables, N)`` index array and its entropy terms (one per cell) within
``MAX_CELLS`` entries, and at least one, so its scratch grows with neither the
number of features nor, beyond one table's index array, N.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .artifacts import json_number, read_json, read_terms, term_rows, write_json
from .dataset import DiscretizedDataset
from .errors import DataError, UsageError

TENSOR_SCHEMA = "hubofs-mi-tensors/3"

# Entropy terms, and entries per index array, of one MI kernel call; a single
# table larger than this goes alone.
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


def _xlogx(total: int) -> np.ndarray:
    """``c * log2(c)`` for c = 0..total (0 at c = 0): the one log table of a call."""
    c = np.arange(total + 1, dtype=np.float64)
    return c * np.log2(np.maximum(c, 1.0))


def _entropies(tables: np.ndarray, xlogx: np.ndarray) -> np.ndarray:
    """Plug-in entropy (bits) ``(xlogx[N] - sum_c xlogx[c]) / N`` of each table of a
    ``(T, ...)`` count stack of N = ``len(xlogx) - 1`` samples each, its counts sorted
    as integers and their terms added one by one, empty cells (0.0 each) first."""
    total = len(xlogx) - 1
    counts = tables.reshape(len(tables), -1).astype(np.min_scalar_type(total))
    counts.sort(axis=1)
    if len(counts) == 1:  # numpy adds a lone row pairwise: keep a second column
        counts = np.repeat(counts, 2, axis=0)
    # A reduction over the outer axis of a C-ordered (cells, T) array adds cell by cell.
    sums = np.add.reduce(xlogx.take(counts.T), axis=0)[: len(tables)]
    return (xlogx[total] - sums) / total


def _mi(h_sum: np.ndarray, h_joint: np.ndarray, joint: np.ndarray, b_axis: int, total: int):
    """``(H(A) + H(B)) - H(A, B)`` from ``h_sum`` and ``h_joint`` for each table of a
    ``(T, ...)`` count stack ``joint`` of ``total`` samples each, B on ``b_axis`` and A
    on its other table axes; clamped at 0, and exactly 0.0 for an independent table.

    Rounding leaves an independent table (``c_ab * N == c_a * c_b`` on every cell)
    a residue of either sign, so a value below the gate is checked in int64. With
    u = 2**-53, L = log2(N) and to first order in N*u: np.log2 is within 2 ulp, so
    each ``xlogx[c]`` is within 5u of c*log2(c); the sum S <= N*L of at most N
    nonzero terms is within (N + 5)u*S; ``xlogx[N] - S`` and the division add 2u*L,
    so an entropy is within (N + 12)u*L; an MI of three entropies and two roundings
    of values up to 2L is within (3N + 40)u*L. The gate, 64(N + 32)u*L (3.1e-10 at
    N = 3681), is over 20 times that.
    """
    mi = h_sum - h_joint
    near = np.flatnonzero(mi < (total + 32) * math.log2(max(total, 2)) * 2.0**-47)
    if near.size:
        cells, axes = joint[near], tuple(range(1, joint.ndim))
        a_axes = tuple(axis for axis in axes if axis != b_axis)
        margins = cells.sum(axis=a_axes, keepdims=True) * cells.sum(axis=b_axis, keepdims=True)
        mi[near[(cells * total == margins).all(axis=axes)]] = 0.0
    return np.where(mi < 0.0, 0.0, mi)


def _counts(a: np.ndarray, n_a: int, cols: np.ndarray, n_b: int) -> np.ndarray:
    """``(m, n_a, n_b)`` count tables of codes ``a (N,)`` against each row of ``cols (m, N)``."""
    m = len(cols)
    flat = np.add(cols, np.arange(0, m * n_a * n_b, n_a * n_b)[:, None], order="C")
    flat += a * n_b
    return np.bincount(flat.ravel(), minlength=m * n_a * n_b).reshape(m, n_a, n_b)


def _mi_columns(a: np.ndarray, n_a: int, cols: np.ndarray, n_b: int):
    """``(mi, h_joint)``: the MI of codes ``a`` against each row of ``cols (m, N)``
    (codes below ``n_b``), and the entropy of each of their count tables."""
    xlogx = _xlogx(len(a))
    h_a = _entropies(np.bincount(a, minlength=n_a)[None], xlogx)[0]
    step = max(1, MAX_CELLS // max(n_a * n_b, len(a)))
    mi, h_joint = [np.empty(0)], [np.empty(0)]
    for s in range(0, len(cols), step):
        joint = _counts(a, n_a, cols[s : s + step], n_b)
        h_b = _entropies(joint.sum(axis=1), xlogx)
        h_joint.append(_entropies(joint, xlogx))
        mi.append(_mi(h_a + h_b, h_joint[-1], joint, 2, len(a)))
    return np.concatenate(mi), np.concatenate(h_joint)


def _pairs_and_triples(binned: np.ndarray, b: int, triples: np.ndarray):
    """MI of every ascending feature pair of ``binned (N, n)``, and the cyclic MI of each
    ascending triple (i, j, k) of ``triples``; every feature is padded to ``b`` bins."""
    cols = np.ascontiguousarray(binned.T)
    n, size = cols.shape
    xlogx = _xlogx(size)
    singles = np.stack([np.bincount(col, minlength=b) for col in cols])
    h = _entropies(singles, xlogx)
    pairs = [_mi_columns(cols[i], b, cols[i + 1 :], b) for i in range(n)]
    redundancy, h_pairs = map(np.concatenate, zip(*pairs))
    first, second = _combinations(n, 2).T
    pair_row = np.zeros((n, n), dtype=np.int64)
    pair_row[first, second] = np.arange(len(first))
    i, j, k = triples.T
    h_sums = [h_pairs[pair_row[p, q]] + h[r] for p, q, r in ((i, j, k), (i, k, j), (j, k, i))]
    cube = b**3
    step = max(1, MAX_CELLS // max(cube, size))
    codes = cols.astype(np.min_scalar_type(step * cube - 1))  # the smallest type that holds a key
    high, mid = codes * (b * b), codes * b
    keys = np.empty((step, size), dtype=codes.dtype)
    offsets = np.arange(0, step * cube, cube, dtype=codes.dtype)[:, None]
    out = [np.empty(0)]
    for s in range(0, len(triples), step):
        batch = triples[s : s + step]
        t = len(batch)
        # A pair's triples are consecutive, k rising by one: each run adds the pair's
        # code to a slice of rows.
        cuts = (np.flatnonzero(np.diff(batch[:, 2]) != 1) + 1).tolist()
        for lo, hi in zip([0, *cuts], [*cuts, t]):
            i, j, k = batch[lo].tolist()
            np.add(codes[k : k + hi - lo], high[i] + mid[j], out=keys[lo:hi])
        keys[:t] += offsets[:t]
        hist = np.bincount(keys[:t].ravel(), minlength=t * cube).reshape(t, b, b, b)
        h_ijk = _entropies(hist, xlogx)
        g0, g1, g2 = (  # (i, j) vs k, (i, k) vs j, (j, k) vs i
            _mi(h_sum[s : s + step], h_ijk, hist, axis, size)
            for h_sum, axis in zip(h_sums, (3, 2, 1))
        )
        out.append((g0 + g1 + g2) / 3.0)
    return redundancy, np.concatenate(out)


def _compress(codes) -> tuple[np.ndarray, int]:
    arr = np.asarray(codes)
    uniq, inv = np.unique(arr, return_inverse=True)
    return inv.astype(np.int64), int(uniq.shape[0])


def entropy(codes) -> float:
    """Shannon entropy (bits) of the empirical distribution of ``codes``."""
    arr = np.asarray(codes).ravel()
    if arr.size == 0:
        raise DataError("entropy of an empty vector is undefined")
    return float(_entropies(np.bincount(_compress(arr)[0])[None], _xlogx(arr.size))[0])


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
    return float(_mi_columns(inv_a, n_a, inv_b[None], n_b)[0][0])


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
    return float(_mi_columns(composite, bi * bj, dd.codes[:, k][None], bk)[0][0])


def cyclic_mi(dd: DiscretizedDataset, i: int, j: int, k: int) -> float:
    """Cyclic average of the three pair-vs-single MI groupings of a triple.

    Indices are canonicalized (sorted) before evaluation, so any permutation
    of the same triple returns the exact same float.
    """
    _check_triple(dd, i, j, k)
    index = sorted((i, j, k))
    b = int(dd.bin_counts[index].max())
    return float(_pairs_and_triples(dd.codes[:, index], b, _combinations(3, 3))[1][0])


def relevance(dd: DiscretizedDataset) -> np.ndarray:
    """MI (bits) between each feature and the target, in feature order."""
    target, n_t = _compress(dd.target)
    b = int(dd.bin_counts.max(initial=1))
    return _mi_columns(target, n_t, dd.codes.T, b)[0]


def compute_tensors(dd: DiscretizedDataset) -> MiTensors:
    """Relevance, pairwise, and triadic MI values of every feature of ``dd``.

    O(n^3 * N): pass only the features the Hamiltonian keeps.
    """
    n = dd.n_features
    if n < 1:
        raise DataError("need at least one feature")
    triples = _combinations(n, 3)
    redundancy, triadic = _pairs_and_triples(dd.codes, int(dd.bin_counts.max()), triples)
    return MiTensors(relevance(dd), _combinations(n, 2), redundancy, triples, triadic)


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

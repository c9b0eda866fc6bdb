"""Plug-in (histogram) entropy and mutual information on discretized features.

All quantities are in bits. Every MI is a sum of entropies,
``I(A; B) = (H(A) + H(B)) - H(A, B)``, and every plug-in entropy of N samples
is read from its count table as ``H = (xlogx[N] - sum_c xlogx[c]) / N``, with
``xlogx[c] = c * log2(c)`` one table for c = 0..N built once per call (Cover &
Thomas, *Elements of Information Theory*, 2nd ed. (2006), ch. 2). No cell
takes a log, a division or a float sort. Two contracts hold:

* An entropy depends only on the multiset of its nonzero counts: a table's
  counts are sorted as integers and their terms added one by one, empty cells
  first, each adding exactly 0.0. So MI(a, b) == MI(b, a) bitwise, and padding
  a feature to more bins changes nothing.
* An exactly independent empirical table (``c_ab * N == c_a * c_b`` on every
  cell) gives exactly 0.0. The entropies alone leave a rounding residue of
  either sign there, so a value below a rounding gate is checked in int64 and
  set to 0.0 when its table is independent. Any other negative residue is
  clamped to 0, so coefficient building can rely on non-negativity.

Every count table comes from one kernel, :func:`_tables_mi`. Its input is rows
of column indices (a single, a pair, a triple, or ``(target, feature)``), each
table padded to one size per axis (b a side for features of at most b bins, and
n_a x n_b for :func:`mi_pair`); it returns each table's entropy and, for each
grouping of the table's axes into A and B, the MI. The singles' and the pairs'
entropies are computed once, and each triple adds one entropy, H_ijk, for its
three groupings such as ``(H_ij + H_k) - H_ijk``. A batch takes as many tables
as keep its ``(tables, N)`` index array and its entropy terms (one per cell)
within ``MAX_CELLS`` entries, and at least one, so its scratch grows with
neither the number of tables nor, beyond one table's index array, N.
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


def _tables_mi(cols: np.ndarray, shape: tuple, tuples: np.ndarray, groupings, xlogx):
    """``(h, mi)``: the entropy of the count table of each row of ``tuples (m, r)``,
    indices into the code rows ``cols (n, N)``, each table padded to ``shape``, r
    sizes, one per axis; and, for each ``(h_sum, axis)`` of ``groupings``, the
    :func:`_mi` of every table against its entropy sum ``h_sum (m,)``, B on ``axis``
    of the ``(m, *shape)`` stack."""
    m, size = len(tuples), cols.shape[1]
    cells = math.prod(shape)
    step = max(1, MAX_CELLS // max(cells, size))
    # Each call codes in the smallest type that holds a key, C-ordered.
    codes = np.ascontiguousarray(cols, dtype=np.min_scalar_type(step * cells - 1))
    keys = np.empty((min(step, m), size), dtype=codes.dtype)
    offsets = np.arange(0, len(keys) * cells, cells, dtype=codes.dtype)[:, None]
    h, mi = [np.empty(0)], [[np.empty(0)] for _ in groupings]
    for s in range(0, m, step):
        batch = tuples[s : s + step]
        t = len(batch)
        # Rows of one head whose last index rises by one key one slice of codes each.
        breaks = (np.diff(batch[:, -1]) != 1) | (np.diff(batch[:, :-1], axis=0) != 0).any(axis=1)
        cuts = (np.flatnonzero(breaks) + 1).tolist()
        for lo, hi in zip([0, *cuts], [*cuts, t]):
            *head, last = batch[lo].tolist()
            key = 0
            for p, b in zip(head, shape[1:]):
                key = (key + codes[p]) * b
            np.add(codes[last : last + hi - lo], key, out=keys[lo:hi])
        keys[:t] += offsets[:t]
        hist = np.bincount(keys[:t].ravel(), minlength=t * cells).reshape(t, *shape)
        h.append(_entropies(hist, xlogx))
        for out, (h_sum, axis) in zip(mi, groupings):
            out.append(_mi(h_sum[s : s + step], h[-1], hist, axis, size))
    return np.concatenate(h), [np.concatenate(out) for out in mi]


def _compress(codes) -> tuple[np.ndarray, int]:
    arr = np.asarray(codes)
    uniq, inv = np.unique(arr, return_inverse=True)
    return inv.astype(np.int64), int(uniq.shape[0])


def mi_pair(a, b) -> float:
    """Plug-in mutual information (bits) between two integer code vectors, from
    their n_a x n_b count table of distinct values."""
    av = np.asarray(a)
    bv = np.asarray(b)
    if av.size == 0:
        raise DataError("mutual information of empty vectors is undefined")
    if av.shape != bv.shape:
        raise DataError(f"length mismatch: {av.shape} vs {bv.shape}")
    (inv_a, n_a), (inv_b, n_b) = _compress(av.ravel()), _compress(bv.ravel())
    cols, xlogx = np.stack([inv_a, inv_b]), _xlogx(av.size)
    h = _tables_mi(cols, (max(n_a, n_b),), _combinations(2, 1), [], xlogx)[0]
    pair = _tables_mi(cols, (n_a, n_b), _combinations(2, 2), [(h[:1] + h[1:], 2)], xlogx)
    return float(pair[1][0][0])


def relevance(dd: DiscretizedDataset) -> np.ndarray:
    """MI (bits) between each feature and the target, in feature order."""
    target, n_t = _compress(dd.target)
    n, b = dd.n_features, max(int(dd.bin_counts.max(initial=1)), n_t)
    cols = np.vstack([dd.codes.T, target.astype(np.min_scalar_type(n_t - 1))])  # codes' dtype
    xlogx = _xlogx(len(target))
    h = _tables_mi(cols, (b,), _combinations(n + 1, 1), [], xlogx)[0]
    rows = np.column_stack([np.full(n, n), np.arange(n)])  # (target, feature)
    return _tables_mi(cols, (b, b), rows, [(h[n] + h[:n], 2)], xlogx)[1][0]


def compute_tensors(dd: DiscretizedDataset, relevance) -> MiTensors:
    """The ``relevance`` of every feature of ``dd``, as :func:`relevance` scored it
    (its value does not depend on the other features binned with it), with their
    pairwise and triadic MI.

    O(n^3 * N): pass only the features the Hamiltonian keeps.
    """
    n = dd.n_features
    if n < 1:
        raise DataError("need at least one feature")
    if len(relevance) != n:
        raise UsageError(f"{len(relevance)} relevance values for {n} features")
    cols, b, xlogx = dd.codes.T, int(dd.bin_counts.max()), _xlogx(dd.n_samples)
    h = _tables_mi(cols, (b,), _combinations(n, 1), [], xlogx)[0]
    pairs = _combinations(n, 2)
    i, j = pairs.T
    h_pairs, (redundancy,) = _tables_mi(cols, (b, b), pairs, [(h[i] + h[j], 2)], xlogx)
    pair_row = np.zeros((n, n), dtype=np.int64)
    pair_row[i, j] = np.arange(len(pairs))
    triples = _combinations(n, 3)
    i, j, k = triples.T
    groupings = [  # (i, j) vs k, (i, k) vs j, (j, k) vs i
        (h_pairs[pair_row[p, q]] + h[r], axis)
        for p, q, r, axis in ((i, j, k, 3), (i, k, j, 2), (j, k, i, 1))
    ]
    g0, g1, g2 = _tables_mi(cols, (b, b, b), triples, groupings, xlogx)[1]
    return MiTensors(relevance, pairs, redundancy, triples, (g0 + g1 + g2) / 3.0)


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

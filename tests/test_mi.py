import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import term_dict
from hubofs import mi
from hubofs.dataset import MAX_BINS, DiscretizedDataset, subset_codes
from hubofs.errors import DataError, UsageError
from hubofs.mi import MiTensors, compute_tensors, load_tensors, mi_pair, relevance, save_tensors


def oracle_entropy(codes) -> float:
    """Independent direct-sum implementation of plug-in entropy."""
    counts = {}
    for v in codes:
        counts[v] = counts.get(v, 0) + 1
    n = len(codes)
    return -sum((c / n) * math.log2(c / n) for c in counts.values())


def oracle_mi(a, b) -> float:
    """H(a) + H(b) - H(a,b) computed from explicit dictionaries."""
    return oracle_entropy(list(a)) + oracle_entropy(list(b)) - oracle_entropy(list(zip(a, b)))


def _xlogx(total: int) -> np.ndarray:
    c = np.arange(1, total + 1, dtype=np.float64)
    return np.concatenate([[0.0], c * np.log2(c)])


def _entropy_of(counts: np.ndarray, xlogx: np.ndarray) -> float:
    """Per-table reference: plug-in entropy (bits) of one count table, its nonzero
    counts' ``c * log2(c)`` added one by one in ascending order."""
    total = int(counts.sum())
    acc = 0.0
    for c in sorted(counts[counts > 0].tolist()):
        acc += xlogx[c]
    return float((xlogx[total] - acc) / total)


def _mi_from_joint(joint: np.ndarray) -> float:
    """Per-table reference: ``(H(rows) + H(cols)) - H(cells)`` of one 2-D count
    table, clamped at 0, and exactly 0 for an exactly independent table."""
    total = int(joint.sum())
    row, col = joint.sum(axis=1), joint.sum(axis=0)
    if np.array_equal(joint * total, np.outer(row, col)):
        return 0.0
    xlogx = _xlogx(total)
    value = (_entropy_of(row, xlogx) + _entropy_of(col, xlogx)) - _entropy_of(joint, xlogx)
    return max(value, 0.0)


def _joint(a, n_a, b, n_b):
    return np.bincount(a * n_b + b, minlength=n_a * n_b).reshape(n_a, n_b)


def reference_mi_pair(a, b) -> float:
    _, inv_a = np.unique(a, return_inverse=True)
    _, inv_b = np.unique(b, return_inverse=True)
    return _mi_from_joint(_joint(inv_a, inv_a.max() + 1, inv_b, inv_b.max() + 1))


def reference_cyclic(dd, i, j, k) -> float:
    """One (b_i, b_j, b_k) histogram per triple, each grouping its own table."""
    bi, bj, bk = (int(dd.bin_counts[idx]) for idx in (i, j, k))
    codes = (dd.codes[:, i] * bj + dd.codes[:, j]) * bk + dd.codes[:, k]
    cube = np.bincount(codes, minlength=bi * bj * bk).reshape(bi, bj, bk)
    return (
        _mi_from_joint(cube.reshape(bi * bj, bk))
        + _mi_from_joint(cube.transpose(0, 2, 1).reshape(bi * bk, bj))
        + _mi_from_joint(cube.transpose(1, 2, 0).reshape(bj * bk, bi))
    ) / 3.0


def reference_pair_vs_single(dd, i, j, k) -> float:
    """(X_i, X_j) against X_k, binned on the composite code ``code_i * b_j + code_j``."""
    bi, bj, bk = (int(dd.bin_counts[idx]) for idx in (i, j, k))
    composite = dd.codes[:, i] * bj + dd.codes[:, j]
    return _mi_from_joint(_joint(composite, bi * bj, dd.codes[:, k], bk))


def reference_pair(dd, i, j) -> float:
    bi, bj = int(dd.bin_counts[i]), int(dd.bin_counts[j])
    return _mi_from_joint(_joint(dd.codes[:, i], bi, dd.codes[:, j], bj))


def reference_relevance(dd) -> np.ndarray:
    _, target = np.unique(dd.target, return_inverse=True)
    return np.array(
        [
            _mi_from_joint(_joint(dd.codes[:, i], int(dd.bin_counts[i]), target, target.max() + 1))
            for i in range(dd.n_features)
        ]
    )


def tensors_of(dd):
    """:func:`compute_tensors` of ``dd`` handed the relevance that ``build`` holds."""
    return compute_tensors(dd, relevance(dd))


def make_dd(codes, target=None):
    codes = np.asarray(codes, dtype=np.int64)
    n = codes.shape[1]
    if target is None:
        target = np.array([0, 1] * (codes.shape[0] // 2) + [0] * (codes.shape[0] % 2))
    return DiscretizedDataset(
        codes=codes,
        bin_counts=codes.max(axis=0) + 1,
        target=np.asarray(target, dtype=np.int64),
    )


class TestEntropy:
    """An entropy is the self-information MI(a; a)."""

    def test_examples(self):
        assert mi_pair([0, 1, 0, 1], [0, 1, 0, 1]) == 1.0
        assert mi_pair([3, 3, 3], [3, 3, 3]) == 0.0
        assert mi_pair([0, 0, 1, 2], [0, 0, 1, 2]) == oracle_entropy([0, 0, 1, 2]) == 1.5

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            mi_pair([], [])


class TestMiPair:
    def test_self_information(self):
        a = [0, 1, 0, 1]
        assert mi_pair(a, a) == 1.0

    def test_exact_independence_is_exactly_zero(self):
        assert mi_pair([0, 0, 1, 1], [0, 1, 0, 1]) == 0.0
        assert mi_pair([0, 0, 1, 1], [0, 1, 1, 0]) == 0.0
        # non-power-of-two independent table
        a = [0] * 6 + [1] * 3
        b = [0, 1, 2] * 3
        assert mi_pair(a, b) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            mi_pair([0, 1], [0, 1, 0])

    def test_table_is_n_a_by_n_b(self):
        # 1000 distinct values against 2: a 1000 x 2 count table, not one padded to
        # 1000 x 1000 (a 40 MiB traced peak). Vectors of unequal distinct counts give
        # the reference table's MI bitwise, in either order.
        import tracemalloc

        rng = np.random.default_rng(8)
        a, b = rng.permutation(np.arange(3681) % 1000), rng.integers(0, 2, 3681)
        mi_pair(a, b)  # a first call's imports and caches
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            value = mi_pair(a, b)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak <= 1 << 20
        assert value == reference_mi_pair(a, b) == mi_pair(b, a)
        for _ in range(100):
            n = int(rng.integers(2, 400))
            a, b = (rng.integers(0, rng.integers(1, 120), n) for _ in range(2))
            assert mi_pair(a, b) == reference_mi_pair(a, b) == mi_pair(b, a)

    def test_against_oracle_random_tables(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(2, 40))
            a = rng.integers(0, rng.integers(2, 5), n)
            b = rng.integers(0, rng.integers(2, 5), n)
            assert mi_pair(a, b) == pytest.approx(max(oracle_mi(a, b), 0.0), abs=1e-12)

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_symmetry_and_bounds(self, data):
        n = data.draw(st.integers(2, 30))
        a = np.array(data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
        b = np.array(data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
        forward = mi_pair(a, b)
        assert forward == mi_pair(b, a)
        assert 0.0 <= forward <= min(oracle_entropy(a.tolist()), oracle_entropy(b.tolist())) + 1e-12


class TestTriples:
    def test_composite_determines_duplicate(self):
        # X_2 identical to X_0, X_1 independent of both: (X_0, X_1) determines X_2 and
        # (X_1, X_2) determines X_0, while X_1 shares nothing with (X_0, X_2).
        codes = np.array([[0, 0, 0], [0, 1, 0], [1, 0, 1], [1, 1, 1]])
        t = tensors_of(make_dd(codes))
        h = oracle_entropy(codes[:, 2].tolist())
        assert t.triadic[0] == pytest.approx(2 * h / 3, abs=1e-12)

    def test_constant_columns(self):
        t = tensors_of(make_dd(np.zeros((6, 3), dtype=int)))
        assert t.redundancy.tolist() == [0.0] * 3
        assert t.triadic.tolist() == [0.0]

    def test_against_contingency_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            codes = rng.integers(0, 2, (16, 3))
            groupings = [
                oracle_mi(list(zip(codes[:, p], codes[:, q])), list(codes[:, r]))
                for p, q, r in ((0, 1, 2), (0, 2, 1), (1, 2, 0))
            ]
            triadic = tensors_of(make_dd(codes)).triadic[0]
            assert triadic == pytest.approx(sum(groupings) / 3.0, abs=1e-12)

    def test_cyclic_identical_columns(self):
        col = np.array([0, 1, 2, 0, 1, 2])
        t = tensors_of(make_dd(np.column_stack([col, col, col])))
        assert t.triadic[0] == pytest.approx(oracle_entropy(col.tolist()), abs=1e-12)

    def test_cyclic_independent_columns(self):
        # three mutually independent empirical columns (full factorial design)
        rows = list(itertools.product([0, 1], repeat=3))
        assert tensors_of(make_dd(np.array(rows))).triadic.tolist() == [0.0]

    def test_cyclic_permutation_invariant_exactly(self):
        # A triple's table has bitwise one entropy in every axis order, so each grouping
        # is the same float in any column order; a column permutation moves only the
        # order in which the three are added.
        rng = np.random.default_rng(9)
        codes = rng.integers(0, 3, (24, 4))
        dd = make_dd(codes)
        orders = np.array(list(itertools.permutations((0, 1, 2))))
        h_ijk = mi._tables_mi(codes.T, (3, 3, 3), orders, [], mi._xlogx(24))[0]
        assert len(set(h_ijk.tolist())) == 1
        for order in orders:
            t = tensors_of(make_dd(codes[:, order]))
            assert t.triadic[0] == reference_cyclic(dd, *order)

    def test_composite_at_least_as_informative(self):
        rng = np.random.default_rng(21)
        for _ in range(40):
            codes = rng.integers(0, 3, (20, 3))
            joint = mi_pair(codes[:, 0] * 3 + codes[:, 1], codes[:, 2])
            assert joint >= mi_pair(codes[:, 0], codes[:, 2]) - 1e-12
            assert joint >= mi_pair(codes[:, 1], codes[:, 2]) - 1e-12

    def test_index_validation(self):
        # A triple's indices must be distinct and below n.
        for triple in ((0, 0, 1), (0, 1, 5)):
            with pytest.raises(UsageError):
                MiTensors.from_terms(np.zeros(3), {}, {triple: 0.5})


class TestComputeTensors:
    def test_sizes(self):
        rng = np.random.default_rng(1)
        for n, pairs, triples in ((1, 0, 0), (3, 3, 1), (6, 15, 20)):
            dd = make_dd(rng.integers(0, 2, (30, n)))
            t = tensors_of(dd)
            assert t.relevance.shape == (n,)
            assert len(t.redundancy) == pairs
            assert len(t.triadic) == triples

    def test_relevance_is_the_one_handed_in(self):
        rng = np.random.default_rng(2)
        dd = make_dd(rng.integers(0, 3, (30, 4)))
        held = np.array([0.5, 0.25, 0.125, 0.0])
        assert compute_tensors(dd, held).relevance.tolist() == held.tolist()
        with pytest.raises(UsageError, match="3 relevance values for 4 features"):
            compute_tensors(dd, held[:3])

    def test_kept_features_relevance_is_their_share_of_all(self):
        # build scores every feature once and hands compute_tensors the kept ones'
        # values: binned with fewer, wider-padded or narrower-padded features, a
        # feature's relevance is bitwise the same.
        rng = np.random.default_rng(5)
        codes = np.column_stack([rng.integers(0, b, 80) for b in (2, 9, 3, 5, 4, 7)])
        dd = make_dd(codes, rng.integers(0, 2, 80))
        for kept in ([0, 2], [1, 3, 5], [4], [5, 0, 3]):
            assert relevance(subset_codes(dd, kept)).tobytes() == relevance(dd)[kept].tobytes()

    @pytest.mark.parametrize("classes, table", [(2, np.uint8), (300, np.uint16)])
    def test_relevance_table_keeps_the_codes_small_type(self, monkeypatch, classes, table):
        # uint8 codes, as discretize stores them: the stacked table takes the smallest type
        # that holds the codes and the target's classes, never int64, and relevance is
        # bitwise that of int64 codes and target, and of the contingency reference.
        rng = np.random.default_rng(classes)
        wide = make_dd(rng.integers(0, 6, (900, 5)), rng.permutation(np.arange(900) % classes))
        narrow = DiscretizedDataset(codes=wide.codes.astype(np.uint8),
                                    bin_counts=wide.bin_counts, target=wide.target)
        tables, tables_mi = [], mi._tables_mi
        monkeypatch.setattr(mi, "_tables_mi", lambda cols, *rest: tables.append(cols.dtype)
                            or tables_mi(cols, *rest))
        got = relevance(narrow)
        assert tables == [table, table]
        assert got.tobytes() == relevance(wide).tobytes()
        assert got.tobytes() == reference_relevance(wide).tobytes()
        assert tables[2:] == [np.int64, np.int64]

    def test_n32_counts(self):
        # combinatorial bookkeeping only: relevance 32, C(32,2), C(32,3)
        import math as m

        assert m.comb(32, 2) == 496
        assert m.comb(32, 3) == 4960

    def test_duplicated_column_redundancy_is_entropy(self):
        rng = np.random.default_rng(4)
        col = rng.integers(0, 4, 50)
        dd = make_dd(np.column_stack([col, col, rng.integers(0, 3, 50)]))
        t = tensors_of(dd)
        redundancy = term_dict(t.pairs, t.redundancy)[(0, 1)]
        assert redundancy == pytest.approx(oracle_entropy(col.tolist()), abs=1e-12)

    def test_matches_pointwise_functions(self):
        rng = np.random.default_rng(8)
        dd = make_dd(rng.integers(0, 3, (25, 4)))
        t = tensors_of(dd)
        for i in range(4):
            assert t.relevance[i] == mi_pair(dd.codes[:, i], dd.target)
        for key, value in term_dict(t.pairs, t.redundancy).items():
            assert value == mi_pair(dd.codes[:, key[0]], dd.codes[:, key[1]])
        for key, value in term_dict(t.triples, t.triadic).items():
            assert value == reference_cyclic(dd, *key)

    def test_triadic_matches_pair_vs_single_reference(self):
        # compute_tensors reads one 3-D histogram three ways; the reference
        # bins each pair-vs-single grouping on its own composite code.
        rng = np.random.default_rng(12)
        for _ in range(10):
            bins = rng.permutation([2, 3, 4, 5, 7])
            dd = make_dd(np.column_stack([rng.integers(0, b, 60) for b in bins]))
            assert len(set(dd.bin_counts)) > 1
            t = tensors_of(dd)
            triadic = term_dict(t.triples, t.triadic)
            for a, b, c in itertools.combinations(range(5), 3):
                expect = (
                    reference_pair_vs_single(dd, a, b, c)
                    + reference_pair_vs_single(dd, a, c, b)
                    + reference_pair_vs_single(dd, b, c, a)
                ) / 3.0
                assert triadic[(a, b, c)] == expect

    def test_all_values_nonnegative(self):
        rng = np.random.default_rng(3)
        dd = make_dd(rng.integers(0, 4, (60, 5)))
        assert tensors_of(dd).all_values().min() >= 0.0


def random_dd(rng, n_features, n_samples, max_bins=6):
    """Unequal bin counts; every column leaves some of its bins empty."""
    bins = rng.integers(1, max_bins + 1, n_features)
    codes = np.column_stack(
        [rng.choice(rng.permutation(b)[: rng.integers(1, b + 1)], n_samples) for b in bins]
    ).reshape(n_samples, n_features)
    return DiscretizedDataset(
        codes=codes.astype(np.int64),
        bin_counts=bins.astype(np.int64),
        target=rng.integers(0, rng.integers(1, 3), n_samples),
    )


def structured_dd(seed=0, n_features=12, n_samples=3000, bins=8):
    """Correlated 8-bin features: their tables leave many different cell counts empty."""
    rng = np.random.default_rng(seed)
    latent = rng.standard_normal((n_samples, 3))
    noise = rng.uniform(0.05, 3.0, n_features)
    x = latent[:, np.arange(n_features) % 3] + noise * rng.standard_normal((n_samples, n_features))
    edges = np.quantile(x, np.linspace(0, 1, bins + 1)[1:-1], axis=0)
    codes = np.column_stack([np.searchsorted(edges[:, f], x[:, f]) for f in range(n_features)])
    return DiscretizedDataset(
        codes=codes.astype(np.int64),
        bin_counts=np.full(n_features, bins, dtype=np.int64),
        target=(latent[:, 0] + rng.standard_normal(n_samples) > 0).astype(np.int64),
    )


def assert_matches_reference(dd):
    n = dd.n_features
    t = tensors_of(dd)
    redundancy = term_dict(t.pairs, t.redundancy)
    triadic = term_dict(t.triples, t.triadic)
    assert np.array_equal(relevance(dd), reference_relevance(dd))
    assert np.array_equal(t.relevance, reference_relevance(dd))
    for i, j in itertools.combinations(range(n), 2):
        assert redundancy[(i, j)] == reference_pair(dd, i, j)
        expect = reference_mi_pair(dd.codes[:, i], dd.codes[:, j])
        assert mi_pair(dd.codes[:, i], dd.codes[:, j]) == expect
        assert mi_pair(dd.codes[:, j], dd.codes[:, i]) == expect
    for i, j, k in itertools.combinations(range(n), 3):
        assert triadic[(i, j, k)] == reference_cyclic(dd, i, j, k)


class TestBatchedKernel:
    """The batched MI kernel against the per-table reference, with ``==``."""

    def test_random_unequal_and_empty_bins(self):
        rng = np.random.default_rng(17)
        for _ in range(60):
            dd = random_dd(rng, int(rng.integers(1, 8)), int(rng.integers(1, 50)))
            assert_matches_reference(dd)

    def test_structured_many_lengths(self):
        dd = structured_dd()
        lengths = {
            np.count_nonzero(np.bincount((dd.codes[:, i] * 8 + dd.codes[:, j]) * 8 + dd.codes[:, k]))
            for i, j, k in itertools.combinations(range(12), 3)
        }
        assert len(lengths) > 20
        assert_matches_reference(dd)

    @pytest.mark.parametrize("cells", [1, 100, 700])
    def test_chunked_paths(self, monkeypatch, cells):
        # 1 and 100: one table, or one triple's three groupings, per call;
        # 700: several pairs or triples per call at small bins and few rows.
        monkeypatch.setattr(mi, "MAX_CELLS", cells)
        rng = np.random.default_rng(cells)
        for _ in range(15):
            assert_matches_reference(random_dd(rng, int(rng.integers(1, 8)), int(rng.integers(1, 50))))
        assert_matches_reference(structured_dd(n_features=6, n_samples=500))

    def test_scratch_per_call_is_bounded(self, monkeypatch):
        # More features or more rows mean more kernel batches, not larger ones:
        # each batch's index array (tables x N) and count stack stay within
        # MAX_CELLS while one table fits; so do the entropy kernel's terms, one
        # per cell of the tables it is handed.
        monkeypatch.setattr(mi, "MAX_CELLS", 2000)
        sizes = []
        bincount, entropies = np.bincount, mi._entropies

        def spy_bincount(keys, minlength=0):
            sizes.extend([keys.size, minlength])
            return bincount(keys, minlength=minlength)

        def spy_entropies(tables, xlogx):
            sizes.append(tables.size)
            return entropies(tables, xlogx)

        monkeypatch.setattr(mi.np, "bincount", spy_bincount)
        monkeypatch.setattr(mi, "_entropies", spy_entropies)
        dd = structured_dd(n_features=12, n_samples=500, bins=3)
        assert_matches_reference(dd)
        assert max(sizes) <= 2000
        sizes.clear()
        relevance(dd)
        # 4 tables per batch at N = 500: the 13 singles (12 features and the target)
        # as 3-cell tables, then the 12 (target, feature) tables padded to (3, 3).
        assert sizes == [4 * 500, 4 * 3, 4 * 3] * 3 + [500, 3, 3] + [4 * 500, 4 * 9, 4 * 9] * 3

    @pytest.mark.parametrize("cells, batch", [(700, 11), (200, 3)])
    def test_triple_batches_cross_and_split_pairs(self, monkeypatch, cells, batch):
        # 7 features at 3 bins and 60 rows: a call takes MAX_CELLS // max(3**3, 60)
        # triples, its index array being larger than its 27-cell histograms. Pairs
        # (0, 1), (0, 2) and (0, 3) have 5, 4 and 3 triples, so 11 per call take
        # triples of two pairs and split (0, 3)'s; 3 per call split every pair with
        # more than 3 triples.
        monkeypatch.setattr(mi, "MAX_CELLS", cells)
        batches = []
        entropies = mi._entropies

        def spy_entropies(tables, xlogx):
            if tables.ndim == 4:
                batches.append(len(tables))
            return entropies(tables, xlogx)

        monkeypatch.setattr(mi, "_entropies", spy_entropies)
        rng = np.random.default_rng(cells)
        dd = make_dd(rng.integers(0, 3, (60, 7)))
        tensors_of(dd)
        assert batches == [batch] * (35 // batch) + [35 % batch] * (35 % batch > 0)
        monkeypatch.setattr(mi, "_entropies", entropies)
        assert_matches_reference(dd)

    def test_unequal_bins_padded_up_to_max_bins(self):
        # One 64-bin feature pads every histogram to 64**3 cells: one triple per call.
        # The kernel's padding edges: 64 bins beside 2-bin features, and every feature
        # constant (b = 1), where relevance pads up to the target's 2 classes.
        rng = np.random.default_rng(64)
        for bins in ([3, MAX_BINS, 17, 2, 40], [2, MAX_BINS, 2, 2], [1, 1, 1, 1]):
            bins = np.array(bins)
            codes = np.column_stack([rng.integers(0, b, 300) for b in bins])
            codes[: len(bins), :] = bins - 1  # every bin count is reached
            target = rng.integers(0, 2, 300)
            assert set(target) == {0, 1}
            dd = DiscretizedDataset(codes=codes, bin_counts=bins, target=target)
            assert_matches_reference(dd)

    def test_kernel_matches_reference_across_summation_blocks(self):
        # Tables of 1 to 150 rows against 2 columns, padded to max(rows, 2) a side:
        # their nonzero counts straddle numpy's pairwise-summation block sizes (8 and
        # 128 terms), which must not reach the one-by-one entropy sums of the MI or
        # of the joint entropy handed back beside it.
        rng = np.random.default_rng(2)
        xlogx = _xlogx(400)
        for rows in (1, 4, 5, 63, 64, 65, 150):
            a = rng.integers(0, rows, 400)
            cols = rng.integers(0, 2, (40, 400))
            tables = [_joint(a, rows, col, 2) for col in cols]
            codes, b, table_xlogx = np.vstack([a, cols]), max(rows, 2), mi._xlogx(400)
            h = mi._tables_mi(codes, (b,), np.arange(41)[:, None], [], table_xlogx)[0]
            pairs = np.column_stack([np.zeros(40, dtype=np.int64), np.arange(1, 41)])
            h_joint, (values,) = mi._tables_mi(
                codes, (b, b), pairs, [(h[0] + h[1:], 2)], table_xlogx
            )
            assert values.tolist() == [_mi_from_joint(table) for table in tables]
            assert h_joint.tolist() == [_entropy_of(table, xlogx) for table in tables]


def codes_of(table: np.ndarray, rng) -> np.ndarray:
    """``(N, table.ndim)`` codes, in shuffled rows, whose count table is ``table``."""
    cells = np.repeat(np.arange(table.size), table.ravel())
    return np.column_stack(np.unravel_index(rng.permutation(cells), table.shape))


class TestEntropyForm:
    """The two contracts of the entropy form."""

    def test_product_tables_are_exactly_zero(self):
        # c_ab = x_a * y_b makes c_ab * N == c_a * c_b on every cell; the entropy
        # sums alone leave a residue on many such tables.
        rng = np.random.default_rng(31)
        for _ in range(2000):
            x, y, z = (rng.integers(0, 4, rng.integers(1, 5)) for _ in range(3))
            x[0] = y[0] = z[0] = 1 + rng.integers(0, 3)  # at least one sample
            pair = codes_of(np.multiply.outer(x, y), rng)
            assert mi_pair(pair[:, 0], pair[:, 1]) == 0.0
            # pair-vs-single: an arbitrary (i, j) table times z
            joint = rng.integers(0, 3, (len(x), len(y)))
            joint[0, 0] += 1
            codes = codes_of(np.multiply.outer(joint, z), rng)
            assert mi_pair(codes[:, 0] * len(y) + codes[:, 1], codes[:, 2]) == 0.0
            # three-way product: every pair and every grouping of the triple
            dd = make_dd(codes_of(np.multiply.outer(np.multiply.outer(x, y), z), rng))
            t = tensors_of(dd)
            assert t.redundancy.tolist() == [0.0] * 3 and t.triadic.tolist() == [0.0]

    def test_entropy_depends_on_the_count_multiset_alone(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            shape = tuple(rng.integers(1, 20, 2))
            table = rng.integers(0, rng.integers(1, 300), shape)
            table[0, 0] += 1
            xlogx = mi._xlogx(int(table.sum()))
            padded = np.zeros((MAX_BINS, MAX_BINS), dtype=table.dtype)
            padded[: shape[0], : shape[1]] = table
            variants = [table, table.T, rng.permutation(table.ravel()).reshape(shape), padded]
            values = [mi._entropies(v[None], xlogx)[0] for v in variants]
            stacked = mi._entropies(np.stack([padded, padded.T]), xlogx)
            assert len(set(values + stacked.tolist())) == 1
            assert values[0] == _entropy_of(table, xlogx)

    def test_no_log_longer_than_the_table_of_counts(self, monkeypatch):
        rng = np.random.default_rng(4)
        dd = structured_dd(n_features=5, n_samples=300)
        log2, sizes = np.log2, []

        def spy_log2(x, *args, **kwargs):
            sizes.append(np.size(x))
            return log2(x, *args, **kwargs)

        monkeypatch.setattr(mi.np, "log2", spy_log2)
        tensors_of(dd)
        mi_pair(dd.codes[:, 0], rng.integers(0, 9, 300))
        assert sizes and max(sizes) <= 300 + 1


class TestTensorIo:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(6)
        dd = make_dd(rng.integers(0, 3, (30, 4)))
        t = tensors_of(dd)
        path = tmp_path / "tensors.json"
        save_tensors(path, t, provenance={"input": "x.csv"})
        loaded = load_tensors(path)
        assert np.array_equal(loaded.relevance, t.relevance)
        assert term_dict(loaded.pairs, loaded.redundancy) == term_dict(t.pairs, t.redundancy)
        assert term_dict(loaded.triples, loaded.triadic) == term_dict(t.triples, t.triadic)

    def test_unknown_schema_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"schema": "other/9", "relevance": [], "pairs": [], "triples": []}')
        with pytest.raises(DataError):
            load_tensors(path)

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda doc: doc.pop("relevance"),
            lambda doc: doc.pop("triples"),
            lambda doc: doc.__setitem__("relevance", [[0.1, 0.2]]),
            lambda doc: doc.__setitem__("relevance", None),
            lambda doc: doc["pairs"][0].pop(),
            lambda doc: doc["triples"][0].append(0.5),
            lambda doc: doc["pairs"][0].__setitem__(2, "x"),
            lambda doc: doc["pairs"][0].__setitem__(1, float("inf")),
            lambda doc: doc["triples"][0].__setitem__(2, 9),
            lambda doc: doc["relevance"].__setitem__(0, float("nan")),
            lambda doc: doc["pairs"][0].__setitem__(2, float("inf")),
            lambda doc: doc["triples"][0].__setitem__(3, float("-inf")),
            lambda doc: doc["pairs"].append([0, 1, 9.0]),
            lambda doc: doc["triples"].append(list(doc["triples"][0])),
            lambda doc: doc["pairs"][0].__setitem__(1, 1.5),
            lambda doc: doc["pairs"][0].__setitem__(1, True),
            lambda doc: doc["pairs"][0].__setitem__(1, "1"),
            lambda doc: doc["triples"][0].__setitem__(0, 0.0),
            lambda doc: doc["pairs"][0].__setitem__(2, "0.5"),
            lambda doc: doc["relevance"].__setitem__(0, "0.5"),
        ],
    )
    def test_malformed_file_is_data_error(self, tmp_path, corrupt):
        rng = np.random.default_rng(6)
        path = tmp_path / "tensors.json"
        save_tensors(path, tensors_of(make_dd(rng.integers(0, 3, (30, 3)))))
        doc = json.loads(path.read_text())
        corrupt(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError):
            load_tensors(path)

    def test_non_object_document_is_data_error(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(DataError):
            load_tensors(path)

import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import term_dict
from hubofs import mi
from hubofs.dataset import MAX_BINS, DiscretizedDataset
from hubofs.errors import DataError, UsageError
from hubofs.mi import (
    compute_tensors,
    cyclic_mi,
    entropy,
    load_tensors,
    mi_joint_pair_single,
    mi_pair,
    relevance,
    save_tensors,
)


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


def _mi_from_joint(joint: np.ndarray) -> float:
    """Per-table reference: plug-in MI (bits) of one 2-D count table, clamped at 0."""
    total = float(joint.sum())
    row = joint.sum(axis=1, keepdims=True).astype(np.float64)
    col = joint.sum(axis=0, keepdims=True).astype(np.float64)
    cells = joint.astype(np.float64)
    mask = cells > 0
    ratio = np.ones_like(cells)
    np.divide(cells * total, row * col, out=ratio, where=mask)
    terms = (cells[mask] / total) * np.log2(ratio[mask])
    return max(float(np.sort(terms).sum()), 0.0)


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
    def test_examples(self):
        assert entropy([0, 1, 0, 1]) == 1.0
        assert entropy([3, 3, 3]) == 0.0
        assert entropy([0, 0, 1, 2]) == oracle_entropy([0, 0, 1, 2]) == 1.5

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            entropy([])


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
        assert 0.0 <= forward <= min(entropy(a), entropy(b)) + 1e-12


class TestTriples:
    def test_composite_determines_duplicate(self):
        # X_k identical to X_i, X_j independent of both
        codes = np.array([[0, 0, 0], [0, 1, 0], [1, 0, 1], [1, 1, 1]])
        dd = make_dd(codes)
        assert mi_joint_pair_single(dd, 0, 1, 2) == pytest.approx(
            entropy(codes[:, 2]), abs=1e-12
        )

    def test_constant_columns(self):
        dd = make_dd(np.zeros((6, 3), dtype=int))
        assert mi_joint_pair_single(dd, 0, 1, 2) == 0.0
        assert cyclic_mi(dd, 0, 1, 2) == 0.0

    def test_against_contingency_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            codes = rng.integers(0, 2, (16, 3))
            dd = make_dd(codes)
            pair = [tuple(row) for row in codes[:, :2]]
            expect = oracle_mi(pair, list(codes[:, 2]))
            assert mi_joint_pair_single(dd, 0, 1, 2) == pytest.approx(expect, abs=1e-12)

    def test_cyclic_identical_columns(self):
        col = np.array([0, 1, 2, 0, 1, 2])
        dd = make_dd(np.column_stack([col, col, col]))
        assert cyclic_mi(dd, 0, 1, 2) == pytest.approx(entropy(col), abs=1e-12)

    def test_cyclic_independent_columns(self):
        # three mutually independent empirical columns (full factorial design)
        rows = list(itertools.product([0, 1], repeat=3))
        dd = make_dd(np.array(rows))
        assert cyclic_mi(dd, 0, 1, 2) == 0.0

    def test_cyclic_permutation_invariant_exactly(self):
        rng = np.random.default_rng(9)
        codes = rng.integers(0, 3, (24, 4))
        dd = make_dd(codes)
        reference = cyclic_mi(dd, 0, 1, 2)
        for perm in itertools.permutations((0, 1, 2)):
            assert cyclic_mi(dd, *perm) == reference

    def test_composite_at_least_as_informative(self):
        rng = np.random.default_rng(21)
        for _ in range(40):
            codes = rng.integers(0, 3, (20, 3))
            dd = make_dd(codes)
            joint = mi_joint_pair_single(dd, 0, 1, 2)
            assert joint >= mi_pair(codes[:, 0], codes[:, 2]) - 1e-12
            assert joint >= mi_pair(codes[:, 1], codes[:, 2]) - 1e-12

    def test_index_validation(self):
        dd = make_dd(np.zeros((4, 3), dtype=int))
        with pytest.raises(UsageError):
            mi_joint_pair_single(dd, 0, 0, 1)
        with pytest.raises(UsageError):
            cyclic_mi(dd, 0, 1, 5)


class TestComputeTensors:
    def test_sizes(self):
        rng = np.random.default_rng(1)
        for n, pairs, triples in ((1, 0, 0), (3, 3, 1), (6, 15, 20)):
            dd = make_dd(rng.integers(0, 2, (30, n)))
            t = compute_tensors(dd)
            assert t.relevance.shape == (n,)
            assert len(t.redundancy) == pairs
            assert len(t.triadic) == triples

    def test_n32_counts(self):
        # combinatorial bookkeeping only: relevance 32, C(32,2), C(32,3)
        import math as m

        assert m.comb(32, 2) == 496
        assert m.comb(32, 3) == 4960

    def test_duplicated_column_redundancy_is_entropy(self):
        rng = np.random.default_rng(4)
        col = rng.integers(0, 4, 50)
        dd = make_dd(np.column_stack([col, col, rng.integers(0, 3, 50)]))
        t = compute_tensors(dd)
        assert term_dict(t.pairs, t.redundancy)[(0, 1)] == pytest.approx(entropy(col), abs=1e-12)

    def test_matches_pointwise_functions(self):
        rng = np.random.default_rng(8)
        dd = make_dd(rng.integers(0, 3, (25, 4)))
        t = compute_tensors(dd)
        for i in range(4):
            assert t.relevance[i] == mi_pair(dd.codes[:, i], dd.target)
        for key, value in term_dict(t.pairs, t.redundancy).items():
            assert value == mi_pair(dd.codes[:, key[0]], dd.codes[:, key[1]])
        for key, value in term_dict(t.triples, t.triadic).items():
            assert value == cyclic_mi(dd, *key)

    def test_triadic_matches_pair_vs_single_reference(self):
        # compute_tensors reads one 3-D histogram three ways; the reference
        # bins each pair-vs-single grouping on its own composite code.
        rng = np.random.default_rng(12)
        for _ in range(10):
            bins = rng.permutation([2, 3, 4, 5, 7])
            dd = make_dd(np.column_stack([rng.integers(0, b, 60) for b in bins]))
            assert len(set(dd.bin_counts)) > 1
            t = compute_tensors(dd)
            triadic = term_dict(t.triples, t.triadic)
            for a, b, c in itertools.combinations(range(5), 3):
                expect = (
                    mi_joint_pair_single(dd, a, b, c)
                    + mi_joint_pair_single(dd, a, c, b)
                    + mi_joint_pair_single(dd, b, c, a)
                ) / 3.0
                assert triadic[(a, b, c)] == expect

    def test_all_values_nonnegative(self):
        rng = np.random.default_rng(3)
        dd = make_dd(rng.integers(0, 4, (60, 5)))
        assert compute_tensors(dd).all_values().min() >= 0.0


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
    t = compute_tensors(dd)
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
        expect = reference_cyclic(dd, i, j, k)
        assert triadic[(i, j, k)] == expect
        assert cyclic_mi(dd, k, i, j) == expect
        bi, bj, bk = (int(dd.bin_counts[idx]) for idx in (i, j, k))
        composite = dd.codes[:, i] * bj + dd.codes[:, j]
        assert mi_joint_pair_single(dd, i, j, k) == _mi_from_joint(
            _joint(composite, bi * bj, dd.codes[:, k], bk)
        )


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
        # More features or more rows mean more kernel calls, not larger ones:
        # each call's index array (tables x N) and count stack stay within
        # MAX_CELLS while one table fits; so does the triadic term stack, one
        # term per cell of each of a histogram's three groupings.
        monkeypatch.setattr(mi, "MAX_CELLS", 2000)
        sizes = []
        counts, sums = mi._counts, mi._mi_sums

        def spy_counts(a, n_a, cols, n_b):
            sizes.append(cols.size)
            return counts(a, n_a, cols, n_b)

        def spy_sums(joint, margins):
            sizes.append(len(margins) * joint.size)
            return sums(joint, margins)

        monkeypatch.setattr(mi, "_counts", spy_counts)
        monkeypatch.setattr(mi, "_mi_sums", spy_sums)
        dd = structured_dd(n_features=12, n_samples=500, bins=3)
        assert_matches_reference(dd)
        assert max(sizes) <= 2000
        sizes.clear()
        relevance(dd)
        assert sizes == [4 * 500, 4 * 2 * 3] * 3  # 4 features per call at N = 500

    @pytest.mark.parametrize("cells, batch", [(700, 8), (200, 2)])
    def test_triple_batches_cross_and_split_pairs(self, monkeypatch, cells, batch):
        # 7 features at 3 bins and 60 rows: a call takes MAX_CELLS // 81 triples.
        # Pair (0, 1) has 5 triples, so 8 per call take triples of two pairs and
        # split (0, 2)'s; 2 per call split every pair with more than 2 triples.
        monkeypatch.setattr(mi, "MAX_CELLS", cells)
        batches = []
        sums = mi._mi_sums

        def spy_sums(joint, margins):
            if len(margins) == 3:
                batches.append(len(joint))
            return sums(joint, margins)

        monkeypatch.setattr(mi, "_mi_sums", spy_sums)
        rng = np.random.default_rng(cells)
        dd = make_dd(rng.integers(0, 3, (60, 7)))
        compute_tensors(dd)
        assert batches == [batch] * (35 // batch) + [35 % batch] * (35 % batch > 0)
        monkeypatch.setattr(mi, "_mi_sums", sums)
        assert_matches_reference(dd)

    def test_unequal_bins_padded_up_to_max_bins(self):
        # One 64-bin feature pads every histogram to 64**3 cells: one triple per call.
        rng = np.random.default_rng(64)
        bins = np.array([3, MAX_BINS, 17, 2, 40])
        codes = np.column_stack([rng.integers(0, b, 300) for b in bins])
        codes[: len(bins), :] = bins - 1  # every bin count is reached
        dd = DiscretizedDataset(codes=codes, bin_counts=bins, target=rng.integers(0, 2, 300))
        assert_matches_reference(dd)

    def test_kernel_matches_reference_across_summation_blocks(self):
        # Tables whose nonzero counts straddle numpy's pairwise-summation
        # block sizes (8 and 128 terms), several counts per call.
        rng = np.random.default_rng(2)
        for rows in (1, 4, 5, 63, 64, 65, 150):
            joint = rng.integers(0, 3, (40, rows, 2))
            assert mi._mi_tables(joint).tolist() == [_mi_from_joint(table) for table in joint]


class TestTensorIo:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(6)
        dd = make_dd(rng.integers(0, 3, (30, 4)))
        t = compute_tensors(dd)
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
        save_tensors(path, compute_tensors(make_dd(rng.integers(0, 3, (30, 3)))))
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

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hubofs.dataset import (
    MAX_BINS,
    Dataset,
    _bin_column,
    _load_numeric,
    _load_rows,
    discretize,
    load_csv,
    standardize,
    stratified_split,
    subset_codes,
)
from hubofs.errors import CapabilityError, DataError, UsageError


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadCsv:
    def test_one_hot_and_target_mapping(self, tmp_path):
        p = write(
            tmp_path / "t.csv",
            "a,c,label\n1.5,x,neg\n2.0,y,pos\n0.5,x,pos\n3.5,y,neg\n",
        )
        ds = load_csv(p, "label")
        assert ds.feature_names == ("a", "c=x", "c=y")
        assert ds.n_samples == 4
        # "neg" < "pos" lexicographically, so neg -> 0
        assert list(ds.target) == [0, 1, 1, 0]
        assert list(ds.features[:, 1]) == [1.0, 0.0, 1.0, 0.0]
        assert list(ds.features[:, 2]) == [0.0, 1.0, 0.0, 1.0]

    def test_missing_cell_drops_row(self, tmp_path):
        p = write(tmp_path / "t.csv", "a,label\n1,neg\n,pos\n3,pos\n4,neg\n")
        ds = load_csv(p, "label")
        assert ds.n_samples == 3
        assert ds.n_dropped_rows == 1

    @pytest.mark.parametrize(
        "text, names",
        [
            ("a,label\n1,neg\nnan,pos\ninf,pos\n4,neg\n", ("a=1", "a=4", "a=inf", "a=nan")),
            ("a,label\n1,neg\n1e999,pos\n4,neg\n", ("a=1", "a=1e999", "a=4")),  # overflows to inf
        ],
        ids=["nan_inf", "overflow"],
    )
    def test_non_finite_tokens_become_categorical(self, tmp_path, text, names):
        p = write(tmp_path / "t.csv", text)
        ds = load_csv(p, "label")
        assert ds.feature_names == names
        assert np.isfinite(ds.features).all()

    def test_mixed_column_is_noted_once_with_its_first_non_number(self, tmp_path, capsys):
        p = write(tmp_path / "t.csv", "a,b,c,label\n1,x,2,neg\n?,y,3,pos\nnan,x,4,pos\n4,y,5,neg\n")
        ds = load_csv(p, "label")
        assert capsys.readouterr().err.splitlines() == [
            "note [build]: column 'a' holds numbers and '?', which is not a finite number; "
            "it became 4 one-hot indicators"
        ]
        assert ds.feature_names == ("a=1", "a=4", "a=?", "a=nan", "b=x", "b=y", "c")

    def test_wholly_categorical_column_is_not_noted(self, tmp_path, capsys):
        p = write(tmp_path / "t.csv", "a,b,label\nx,1,neg\ny,2,pos\nnan,3,pos\n")
        assert load_csv(p, "label").feature_names == ("a=nan", "a=x", "a=y", "b")
        assert capsys.readouterr().err == ""

    def test_errors(self, tmp_path):
        with pytest.raises(DataError):
            load_csv(tmp_path / "absent.csv", "y")
        p = write(tmp_path / "one_class.csv", "a,label\n1,x\n2,x\n")
        with pytest.raises(DataError):
            load_csv(p, "label")
        p = write(tmp_path / "no_target.csv", "a,b\n1,2\n")
        with pytest.raises(DataError):
            load_csv(p, "label")
        p = write(tmp_path / "dup_header.csv", "a,a,label\n1,2,x\n3,4,y\n")
        with pytest.raises(DataError):
            load_csv(p, "label")
        p = write(tmp_path / "empty_rows.csv", "a,label\n,x\n,y\n")
        with pytest.raises(DataError):
            load_csv(p, "label")
        p = tmp_path / "binary.csv"
        p.write_bytes(b"a,label\n\xff\xfe,x\n")
        with pytest.raises(DataError):
            load_csv(p, "label")

    def test_spambase_shape_when_available(self):
        import os

        path = os.environ.get("SPAMBASE_CSV", "data/spambase.csv")
        if not os.path.exists(path):
            pytest.skip("Spambase CSV not supplied")
        ds = load_csv(path, "class")
        assert ds.n_features == 57
        assert ds.n_samples == 4601


def assert_same_dataset(got: Dataset, want: Dataset):
    for name in ("features", "target"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape, a.flags.c_contiguous) == (b.dtype, b.shape, b.flags.c_contiguous)
        assert a.tobytes() == b.tobytes(), name
    assert (got.feature_names, got.n_dropped_rows) == (want.feature_names, want.n_dropped_rows)


def csv_outcome(loader, path):
    """``loader(path, "label")``, or the message of the DataError it raises."""
    try:
        return loader(path, "label")
    except DataError as exc:
        return str(exc)


def finite_token(value: float, form: tuple) -> str:
    """``value`` as ``form`` = (format, leading "+", spaces before, spaces after) writes it."""
    token = {"fixed": "%.6f" % value, "repr": repr(value), "exp": "%.9e" % value}[form[0]]
    if form[1] and not token.startswith("-"):
        token = "+" + token
    return " " * form[2] + token + " " * form[3]


class TestNumericFastPath:
    """An all-numeric table is parsed in C; the csv reader is the reference."""

    @given(
        data=st.data(),
        n_rows=st.integers(2, 12),
        n_features=st.integers(0, 4),
        newline=st.sampled_from(["\n", "\r\n"]),
    )
    @settings(max_examples=150, deadline=None)
    def test_equals_the_csv_path(self, tmp_path_factory, data, n_rows, n_features, newline):
        values = st.floats(-1e300, 1e300)  # "%.9e" of the largest doubles rounds past them
        forms = st.tuples(st.sampled_from(["fixed", "repr", "exp"]), st.booleans(),
                          st.integers(0, 2), st.integers(0, 2))
        classes = data.draw(st.lists(st.sampled_from(["0", "1", "neg", "pos", " a", "a ", "b"]),
                                     min_size=2, max_size=2, unique=True))
        labels = data.draw(st.permutations(classes + data.draw(
            st.lists(st.sampled_from(classes), min_size=n_rows - 2, max_size=n_rows - 2))))
        t_idx = data.draw(st.integers(0, n_features))
        names = [f"f{j}" for j in range(n_features)]
        names.insert(t_idx, "label")
        lines = [",".join(names)]
        for label in labels:
            cells = [finite_token(data.draw(values), data.draw(forms)) for _ in range(n_features)]
            cells.insert(t_idx, label)
            lines.append(",".join(cells))
            lines.extend([""] * data.draw(st.integers(0, 1)))  # blank lines are skipped
        path = tmp_path_factory.mktemp("numeric") / "t.csv"
        ending = newline * data.draw(st.integers(0, 2))
        path.write_bytes((newline.join(lines) + ending).encode())
        fast = _load_numeric(path, "label")
        assert fast is not None
        assert_same_dataset(fast, _load_rows(path, "label"))
        assert_same_dataset(load_csv(path, "label"), fast)

    def test_target_keeps_its_spaces(self, tmp_path):
        p = write(tmp_path / "t.csv", "a,label\n1, x\n2,x\n3, x\n")
        ds = _load_numeric(p, "label")
        assert ds is not None and ds.target.tolist() == [0, 1, 0]  # " x" < "x"
        assert_same_dataset(ds, _load_rows(p, "label"))

    @pytest.mark.parametrize(
        "text",
        [
            "a,label\n1,x\n2#3,y\n4,y\n",
            "a,label\n1,x\n#2,y\n4,y\n",
            "a,b,label\n1,2,x\n  \n3,4,y\n5,6,y\n",
            'a,label\n1,x\n"2",y\n3,y\n',
            'a,label\n1,"b"\n2,a\n3,"b"\n',
            "a,label\n1_0,x\n2,y\n3,y\n",
            "a,label\n\u0661,x\n2,y\n3,y\n",
            "a,label\nnan,x\n2,y\n3,y\n",
            "a,label\n-inf,x\n2,y\n3,y\n",
            "a,label\n1e999,x\n2,y\n3,y\n",
            "a,b,label\n1,,x\n2,3,y\n4,5,x\n6,7,y\n",
            "a,label\n1,x\n2,\n3,x\n",
            "a,b,label\n1,2,x\n3,4\n5,6,y\n7,8,x\n",
            "a,b,label\n1,2,x,\n3,4,y\n5,6,y\n7,8,x\n",
            "a,label\n",
            "a,a,label\n1,2,x\n3,4,y\n",
            "a,b\n1,2\n3,4\n",
            '"a\rb",label\n1,x\n2,y\n',
            "a,label\n1,x\n2,x\n",
            "a,label\n1,x\n2,y\n3,z\n",
            "a,label\n1,x\n2,y\n3,y\n4,x\n5\n",
            "a,b,label\n1,2,x,3\n4,5,y,6\n",
        ],
        ids=[
            "hash_in_cell", "hash_line", "whitespace_line", "quoted_number", "quoted_target",
            "underscore", "non_ascii_digit", "nan", "inf", "overflow", "empty_cell", "empty_target",
            "ragged_row", "trailing_comma", "header_only", "duplicate_header", "missing_target",
            "cr_in_name", "one_class", "three_classes", "short_last_row", "wide_rows",
        ],
    )
    def test_falls_back_to_the_csv_path(self, tmp_path, text):
        p = tmp_path / "t.csv"
        p.write_bytes(text.encode())
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert _load_numeric(p, "label") is None
            got, want = csv_outcome(load_csv, p), csv_outcome(_load_rows, p)
        assert caught == []
        if isinstance(want, str):
            assert got == want
        else:
            assert_same_dataset(got, want)


def two_class_dataset(features, target):
    return Dataset(
        features=np.asarray(features, dtype=np.float64),
        target=np.asarray(target, dtype=np.int64),
        feature_names=tuple(f"f{i}" for i in range(np.asarray(features).shape[1])),
    )


class TestStandardize:
    def test_two_point_column(self):
        ds = two_class_dataset([[1.0], [3.0]], [0, 1])
        out = standardize(ds)
        assert out.features[0, 0] == pytest.approx(-1.0 / math.sqrt(2), abs=1e-12)
        assert out.features[1, 0] == pytest.approx(+1.0 / math.sqrt(2), abs=1e-12)

    def test_constant_column_zeroed(self):
        ds = two_class_dataset([[5.0], [5.0], [5.0]], [0, 1, 0])
        out = standardize(ds)
        assert list(out.features[:, 0]) == [0.0, 0.0, 0.0]

    def test_idempotent_on_non_constant_columns(self):
        rng = np.random.default_rng(3)
        ds = two_class_dataset(rng.normal(2.0, 3.0, (40, 4)), [0, 1] * 20)
        once = standardize(ds)
        twice = standardize(once)
        assert np.allclose(once.features, twice.features, atol=1e-9)

    def test_rejects_too_few_samples(self):
        with pytest.raises(DataError):
            standardize(two_class_dataset([[1.0]], [0]))

    def test_shape_preserved(self):
        rng = np.random.default_rng(0)
        ds = two_class_dataset(rng.normal(size=(30, 5)), [0, 1] * 15)
        out = standardize(ds)
        assert out.features.shape == ds.features.shape
        means = out.features.mean(axis=0)
        stds = out.features.std(axis=0, ddof=1)
        assert np.all(np.abs(means) < 1e-9)
        assert np.all(np.abs(stds - 1.0) < 1e-9)


class TestStratifiedSplit:
    def test_floor_rule_small_class(self):
        # class of 5 rows at f=0.2: only within-class row 4 goes to test
        ds = two_class_dataset(np.arange(10.0).reshape(10, 1), [0] * 5 + [1] * 5)
        train, test = stratified_split(ds, 0.2)
        assert list(test.features[:, 0]) == [4.0, 9.0]
        assert list(train.features[:, 0]) == [0.0, 1.0, 2.0, 3.0, 5.0, 6.0, 7.0, 8.0]

    def test_floor_rule_half(self):
        ds = two_class_dataset(np.arange(8.0).reshape(8, 1), [0] * 4 + [1] * 4)
        train, test = stratified_split(ds, 0.5)
        # within each class, rows 1 and 3 go to test
        assert list(test.features[:, 0]) == [1.0, 3.0, 5.0, 7.0]

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        ds = two_class_dataset(rng.normal(size=(40, 2)), [0, 1] * 20)
        a = stratified_split(ds, 0.3)
        b = stratified_split(ds, 0.3)
        assert np.array_equal(a[0].features, b[0].features)
        assert np.array_equal(a[1].features, b[1].features)

    def test_errors(self):
        ds = two_class_dataset([[1.0], [2.0], [3.0]], [0, 0, 1])
        with pytest.raises(DataError):
            stratified_split(ds, 0.5)  # class 1 has a single row
        ds2 = two_class_dataset(np.arange(8.0).reshape(8, 1), [0] * 4 + [1] * 4)
        with pytest.raises(DataError):
            stratified_split(ds2, 0.05)  # zero test rows per class
        with pytest.raises(UsageError):
            stratified_split(ds2, 1.5)

    @given(
        class_sizes=st.tuples(st.integers(2, 40), st.integers(2, 40)),
        fraction=st.floats(0.05, 0.95),
    )
    @settings(max_examples=60, deadline=None)
    def test_class_proportions(self, class_sizes, fraction):
        n0, n1 = class_sizes
        target = [0] * n0 + [1] * n1
        ds = two_class_dataset(np.arange(float(n0 + n1)).reshape(-1, 1), target)
        try:
            train, test = stratified_split(ds, fraction)
        except DataError:
            return  # degenerate split rejected, which is the contract
        assert train.n_samples + test.n_samples == ds.n_samples
        for label, size in ((0, n0), (1, n1)):
            got = int((test.target == label).sum())
            assert abs(got - round(size * fraction)) <= 1

    @given(
        target=st.lists(st.integers(0, 1), min_size=4, max_size=80),
        fraction=st.floats(0.01, 0.99),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_the_per_row_rule(self, target, fraction):
        ds = two_class_dataset(np.arange(float(len(target))).reshape(-1, 1), target)
        to_test = [False] * len(target)
        degenerate = False
        for label in set(target):
            rows = [i for i, t in enumerate(target) if t == label]
            for r, row in enumerate(rows):
                to_test[row] = int((r + 1) * fraction) > int(r * fraction)
            degenerate |= not 0 < sum(to_test[i] for i in rows) < len(rows)
        if degenerate:
            with pytest.raises(DataError):
                stratified_split(ds, fraction)
            return
        train, test = stratified_split(ds, fraction)
        assert test.features[:, 0].tolist() == [float(i) for i, t in enumerate(to_test) if t]
        assert train.features[:, 0].tolist() == [float(i) for i, t in enumerate(to_test) if not t]
        assert test.target.tolist() == [target[i] for i, t in enumerate(to_test) if t]


class TestDiscretize:
    @pytest.mark.parametrize(
        "values,max_bins,codes,bins",
        [
            ([1.0, 2.0, 3.0, 4.0], 2, [0, 0, 1, 1], 2),
            ([7.0, 7.0, 7.0, 7.0], 8, [0, 0, 0, 0], 1),
            ([1.0, 1.0, 1.0, 9.0], 2, [0, 0, 0, 1], 2),
        ],
    )
    def test_examples(self, values, max_bins, codes, bins):
        ds = two_class_dataset(np.array(values).reshape(-1, 1), [0, 1, 0, 1])
        dd = discretize(ds, max_bins)
        assert list(dd.codes[:, 0]) == codes
        assert dd.bin_counts[0] == bins

    def test_bins_past_the_cap_refused_before_binning(self, monkeypatch):
        import hubofs.dataset as dataset

        def fail(*args):
            raise AssertionError("a column was binned")

        monkeypatch.setattr(dataset, "_bin_column", fail)
        ds = two_class_dataset(np.arange(8.0).reshape(-1, 1), [0, 1] * 4)
        with pytest.raises(CapabilityError, match=f"<= {MAX_BINS}"):
            discretize(ds, MAX_BINS + 1)

    def test_subset_codes_equal_discretizing_the_subset(self):
        rng = np.random.default_rng(4)
        ds = two_class_dataset(rng.normal(size=(60, 6)).round(1), [0, 1] * 30)
        for indices in ([3, 0, 5], [2], list(range(6))):
            got = subset_codes(discretize(ds, 5), indices)
            expected = discretize(two_class_dataset(ds.features[:, indices], ds.target), 5)
            assert np.array_equal(got.codes, expected.codes)
            assert np.array_equal(got.bin_counts, expected.bin_counts)
            assert np.array_equal(got.target, expected.target)

    def test_codes_bounded(self):
        rng = np.random.default_rng(2)
        ds = two_class_dataset(rng.normal(size=(100, 3)), [0, 1] * 50)
        dd = discretize(ds, 8)
        for j in range(3):
            assert dd.codes[:, j].max() < dd.bin_counts[j]
            assert dd.codes[:, j].min() >= 0

    @given(st.lists(st.integers(-500, 500), min_size=4, max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_monotone_transform_invariance(self, raw):
        values = np.asarray(raw, dtype=np.float64) / 10.0
        target = [0, 1] * (len(values) // 2) + [0] * (len(values) % 2)
        ds_a = two_class_dataset(values.reshape(-1, 1), target)
        transformed = np.exp(values / 25.0) + 3.0  # strictly monotone
        ds_b = two_class_dataset(transformed.reshape(-1, 1), target)
        dd_a = discretize(ds_a, 4)
        dd_b = discretize(ds_b, 4)
        assert np.array_equal(dd_a.codes, dd_b.codes)

    @given(
        raw=st.lists(st.integers(-3, 3), min_size=1, max_size=40) | st.lists(
            st.floats(-1e3, 1e3, allow_subnormal=True), min_size=1, max_size=40),
        max_bins=st.integers(2, MAX_BINS),
    )
    @settings(max_examples=300, deadline=None)
    def test_one_sort_binning_equals_the_three_sort_rule(self, raw, max_bins):
        values = np.asarray(raw, dtype=np.float64)
        n = values.shape[0]
        b = min(max_bins, np.unique(values).shape[0])
        if b <= 1:
            want, want_bins = np.zeros(n, dtype=np.int64), 1
        else:
            order = np.argsort(values, kind="stable")
            sorted_vals = values[order]
            positions = np.arange(n)
            is_start = np.r_[True, sorted_vals[1:] != sorted_vals[:-1]]
            start = np.maximum.accumulate(np.where(is_start, positions, 0))
            is_end = np.r_[is_start[1:], True]
            end = np.minimum.accumulate(np.where(is_end, positions, n - 1)[::-1])[::-1]
            tied_bin = np.empty(n, dtype=np.int64)
            tied_bin[order] = ((start + end) // 2 * b) // n
            used = np.unique(tied_bin)
            want, want_bins = np.searchsorted(used, tied_bin), used.shape[0]
        codes, bins = _bin_column(values, max_bins)
        assert codes.dtype == np.int64 and codes.tolist() == want.tolist() and bins == want_bins

    def test_rejects_single_bin_request(self):
        ds = two_class_dataset([[1.0], [2.0]], [0, 1])
        with pytest.raises(UsageError):
            discretize(ds, 1)

import numpy as np
import pytest

from conftest import random_instance
from hubofs.errors import DataError, UsageError
from hubofs.postselect import (
    importance,
    read_importance_csv,
    retain_low_energy,
    threshold_select,
    write_importance_csv,
)
from hubofs.samplers import SampleSet, random_sample


def sample_set(rows, sampler="test", seed=0, metadata=None):
    """rows: list of (bits, count, energy); bit 1 means selected (Z = -1)."""
    bits, counts, energies = zip(*rows)
    return SampleSet(
        spins=1 - 2 * np.array(bits).reshape(len(rows), -1),
        counts=np.array(counts),
        energies=np.array(energies, dtype=np.float64),
        sampler_name=sampler,
        seed=seed,
        metadata=metadata or {},
    )


def rows_of(s):
    """(spins tuple, count, energy) per row of a sample set."""
    return list(zip(map(tuple, s.spins.tolist()), s.counts.tolist(), s.energies.tolist()))


def reference_retain(s, rho):
    """The per-row loop: rank by (energy, spins), take shots until k."""
    k = max(1, int(np.floor(rho * s.total_shots)))
    kept, remaining = [], k
    for spins, count, energy in sorted(rows_of(s), key=lambda r: (r[2], r[0])):
        if remaining <= 0:
            break
        take = min(count, remaining)
        kept.append((tuple((1 - z) // 2 for z in spins), take, energy))
        remaining -= take
    return sample_set(kept, s.sampler_name, s.seed, s.metadata)


def reference_importance(s):
    """The per-row loop: float64 sum of count * x over the rows."""
    totals = np.zeros(s.n, dtype=np.float64)
    for spins, count, _ in rows_of(s):
        totals += count * np.array([(1 - z) // 2 for z in spins], dtype=np.float64)
    return totals / s.total_shots


def random_sample_set(rng):
    """Distinct rows in random order, energies drawn from three values (ties)."""
    n = int(rng.integers(2, 7))
    rows = int(rng.integers(1, min(12, 1 << n) + 1))
    states = rng.choice(1 << n, rows, replace=False)
    bits = (states[:, None] >> np.arange(n)) & 1
    return sample_set(
        [(b, int(rng.integers(1, 6)), float(rng.integers(-1, 2)) / 2) for b in bits],
        metadata={"distinct_states": str(rows)},
    )


class TestRetain:
    def test_rho_one_is_identity(self):
        s = sample_set([((0, 1), 3, -1.0), ((1, 0), 5, 2.0)])
        out = retain_low_energy(s, 1.0)
        assert out.total_shots == 8
        assert np.array_equal(out.spins, s.spins)
        assert np.array_equal(out.counts, s.counts)

    def test_quarter_of_eight_distinct(self):
        s = sample_set([(tuple(int(b) for b in f"{i:03b}"), 1, float(i)) for i in range(8)])
        out = retain_low_energy(s, 0.25)
        assert out.total_shots == 2
        assert out.energies.tolist() == [0.0, 1.0]

    def test_equal_energy_tie_breaks_lexicographically(self):
        s = sample_set(
            [((0, 0), 1, 5.0), ((0, 1), 1, 5.0), ((1, 0), 1, 5.0), ((1, 1), 1, 5.0)]
        )
        out = retain_low_energy(s, 0.5)
        assert out.total_shots == 2
        # spins lex: (-1,-1) < (-1,+1), i.e. bits (1,1) then (1,0)
        assert out.spins.tolist() == [[-1, -1], [-1, 1]]

    def test_boundary_entry_truncated(self):
        s = sample_set([((0, 0), 4, -1.0), ((1, 1), 4, 0.0)])
        out = retain_low_energy(s, 0.75)
        assert out.total_shots == 6
        assert list(zip(out.counts.tolist(), out.energies.tolist())) == [(4, -1.0), (2, 0.0)]

    def test_max_retained_below_min_discarded(self):
        c = random_instance(3, 6)
        s = random_sample(c, 500, seed=8)
        out = retain_low_energy(s, 0.3)
        kept = {spins: count for spins, count, _ in rows_of(out)}
        discarded = [
            energy for spins, count, energy in rows_of(s) if kept.get(spins, 0) < count
        ]
        assert out.energies.max() <= min(discarded) + 1e-12

    def test_floor_with_minimum_one(self):
        s = sample_set([((0, 1), 3, 1.0)])
        assert retain_low_energy(s, 0.01).total_shots == 1

    def test_invalid_rho(self):
        s = sample_set([((0, 1), 1, 0.0)])
        with pytest.raises(UsageError):
            retain_low_energy(s, 0.0)
        with pytest.raises(UsageError):
            retain_low_energy(s, 1.5)

    def test_metadata_passes_unchanged(self):
        s = sample_set([((0, 1), 4, 1.0), ((1, 0), 4, 2.0)], metadata={"sweeps": "5"})
        out = retain_low_energy(s, 0.5)
        assert out.metadata == {"sweeps": "5"}
        assert (out.sampler_name, out.seed) == (s.sampler_name, s.seed)

    def test_matches_per_entry_reference(self):
        rng = np.random.default_rng(17)
        truncated = ties = unsorted = 0
        for _ in range(200):
            s = random_sample_set(rng)
            unsorted += not np.array_equal(s.energies, np.sort(s.energies))
            ties += len(set(s.energies.tolist())) < len(s.energies)
            for rho in (0.01, 0.25, 0.5, 0.77, 1.0):
                out = retain_low_energy(s, rho)
                assert out == reference_retain(s, rho)
                assert np.array_equal(importance(out), reference_importance(out))
                kept = dict(zip(map(tuple, s.spins.tolist()), s.counts.tolist()))
                truncated += out.counts[-1] < kept[tuple(out.spins[-1].tolist())]
        assert min(truncated, ties, unsorted) > 20


class TestImportance:
    def test_always_and_never_selected(self):
        s = sample_set([((1, 0, 1), 2, -2.0), ((1, 0, 0), 2, -1.0)])
        scores = importance(s)
        assert scores.dtype == np.float64
        assert scores.shape == (3,)
        assert scores.tolist() == [1.0, 0.0, 0.5]

    def test_weighted_mean(self):
        s = sample_set([((1, 0), 3, -1.0), ((0, 1), 1, 0.0)])
        assert importance(s).tolist() == [0.75, 0.25]

    def test_empty_set_is_data_error(self):
        empty = SampleSet(
            spins=np.empty((0, 2)), counts=np.empty(0), energies=np.empty(0),
            sampler_name="test", seed=0,
        )
        with pytest.raises(DataError):
            importance(empty)

    def test_full_set_importance_is_plain_mean(self):
        c = random_instance(5, 5)
        s = random_sample(c, 300, seed=2)
        direct = (s.counts[:, None] * (s.spins == -1)).sum(axis=0) / s.total_shots
        assert np.array_equal(importance(retain_low_energy(s, 1.0)), direct)


class TestThreshold:
    def test_zero_selects_all(self):
        assert threshold_select(np.array([0.2, 0.0, 0.9]), 0.0) == (0, 1, 2)

    def test_boundary_inclusive(self):
        selected = threshold_select(np.array([0.9, 0.5, 0.1]), 0.5)
        assert selected == (0, 1)
        assert all(type(i) is int for i in selected)

    def test_sweep_monotone_and_pure(self):
        scores = np.array([0.9, 0.7, 0.5, 0.3, 0.1])
        deltas = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0, 0.4]
        results = [threshold_select(scores, d) for d in deltas]
        sizes = [len(r) for r in results[:6]]
        assert sizes == sorted(sizes, reverse=True)
        assert results[2] == results[6]
        # nestedness
        assert set(results[3]) <= set(results[1])

    def test_extreme_deltas(self):
        scores = np.array([1.0, 0.5, 0.0])
        assert threshold_select(scores, 0.0) == (0, 1, 2)
        assert threshold_select(scores, 1.0) == (0,)

    def test_validation(self):
        for delta in (1.5, -0.1, float("nan")):
            with pytest.raises(UsageError):
                threshold_select(np.array([0.5]), delta)


class TestImportanceCsv:
    META = [("rho", "0.25"), ("retained", 20), ("delta", "0.5")]

    def test_round_trip_sorted_by_importance(self, tmp_path):
        scores = np.array([0.25, 0.8, 0.8, 0.1])
        path = tmp_path / "importance.csv"
        write_importance_csv(path, scores, ("w", "x", "y", "z"), threshold_select(scores, 0.5),
                             self.META)
        rows, meta = read_importance_csv(path)
        assert path.read_text().splitlines()[:4] == [
            "# schema=hubofs-importance/1", "# rho=0.25", "# retained=20", "# delta=0.5",
        ]
        assert [r["feature_index"] for r in rows] == [1, 2, 0, 3]
        assert [r["selected"] for r in rows] == [True, True, False, False]
        assert [r["importance"] for r in rows] == [0.8, 0.8, 0.25, 0.1]

    def test_unknown_schema_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# schema=x/0\nfeature_index,feature_name,importance,selected\n")
        with pytest.raises(DataError):
            read_importance_csv(path)

    def test_name_count_mismatch(self, tmp_path):
        scores = np.array([0.5])
        with pytest.raises(UsageError):
            write_importance_csv(
                tmp_path / "x.csv", scores, ("a", "b"), threshold_select(scores, 0.5), self.META
            )

    @pytest.mark.parametrize(
        "table",
        [
            "feature_index,feature_name,importance\n0,a,0.5",
            "feature_index,feature_name,importance,selected\n0,a,0.5",
            "feature_index,feature_name,importance,selected\n0,a,0.5,1,extra",
            "feature_index,feature_name,importance,selected\n0.5,a,0.5,1",
            "feature_index,feature_name,importance,selected\nx,a,0.5,1",
            "feature_index,feature_name,importance,selected\n0,a,high,1",
            "feature_index,feature_name,importance,selected\n0,a,nan,1",
            "feature_index,feature_name,importance,selected\n0,a,inf,0",
            "feature_index,feature_name,importance,selected\n0,a,0.5,yes",
            "feature_index,feature_name,importance,selected\n0,a,0.5,",
        ],
    )
    def test_malformed_rows_are_data_error(self, tmp_path, table):
        path = tmp_path / "bad.csv"
        path.write_text(f"# schema=hubofs-importance/1\n{table}\n")
        with pytest.raises(DataError):
            read_importance_csv(path)

    def test_undecodable_file_is_data_error(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"# schema=hubofs-importance/1\n\xff\xfe\n")
        with pytest.raises(DataError):
            read_importance_csv(path)

    def test_names_with_commas_survive_round_trip(self, tmp_path):
        scores = np.array([0.9, 0.2])
        names = ('city=Berlin, DE', 'plain')
        path = tmp_path / "importance.csv"
        write_importance_csv(path, scores, names, threshold_select(scores, 0.5), self.META)
        rows, _ = read_importance_csv(path)
        assert rows[0]["feature_name"] == "city=Berlin, DE"
        assert rows[1]["feature_name"] == "plain"

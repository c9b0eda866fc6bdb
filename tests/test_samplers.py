import contextlib
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import random_instance
from hubofs.errors import CapabilityError, DataError, HubofsError, UsageError
from hubofs.dcqo import build_schedule, evolve_and_sample
from hubofs.hubo import HuboCoefficients, energy_many
from hubofs import dcqo, hubo, rng, samplers
from hubofs.samplers import (
    SAMPLE_SCHEMA,
    SampleSet,
    _aggregate,
    exhaustive_solve,
    load_samples,
    random_sample,
    save_samples,
    simulated_annealing,
)


# Sample files load_samples must refuse: (the "# n=" value, None to omit it; the rows).
MALFORMED = [
    ("2", "00,1"),
    ("2", "00,1,0.5,9"),
    ("2", "00,x,0.5"),
    ("2", "00,1.5,0.5"),
    ("2", "00,1,abc"),
    ("2", "00,1,nan"),
    ("2", "00,1,inf"),
    ("2", "00,1,0.5\n011,1,0.5"),
    ("2", "10x,1,0.5"),
    ("2", "1x,1,0.5"),
    ("2", "1\u00e9,1,0.5"),
    ("2", "00,99999999999999999999,0.5"),
    ("5", "101,1,0.5"),
    ("abc", "101,1,0.5"),
    ("", "101,1,0.5"),
    (None, "101,1,0.5"),
    ("0", ""),
    ("-1", "1,1,0.5"),
    ("3", ",1,0.5"),
]


MASK64 = np.uint64(2**64 - 1)


def zero_instance(n):
    return HuboCoefficients.from_terms(n=n, h=np.zeros(n), j_terms={}, k_terms={})


class RecordingStream:
    """A stream keyed ``seed`` that keeps every block it hands out; words
    below ``zero_below`` are handed out as 0, the word of the smallest uniform 2**-53."""

    def __init__(self, seed, zero_below=0):
        self.gen = rng.stream(seed)
        self.zero_below = np.uint64(zero_below)
        self.blocks = []

    def random_raw(self, size):
        words = self.gen.random_raw(size)
        words[words < self.zero_below] = 0
        self.blocks.append(words.copy())
        return words


def frozen_instance():
    return HuboCoefficients.from_terms(
        n=4,
        h=np.array([5.0, -3.0, 4.0, -6.0]),
        j_terms={(0, 1): 2.0, (1, 2): -1.5},
        k_terms={(0, 2, 3): 1.0},
    )


def gather_annealing(c, shots, sweeps, t_start=None, t_end=0.01, seed=0, gen=None):
    """Reference SA: the same stream contract and acceptance rule, but every
    proposal re-gathers all pair and triple partners of spin i from the
    chains' current spins instead of reading a maintained local field, and
    every sweep runs: the freeze test only sets ``sa_sweeps_run``, the first
    sweep after which it holds."""
    if t_start is None:
        scale = c.max_abs_coefficient()
        t_start = max(2.0 * c.n * scale if scale > 0.0 else 1.0, t_end)
    if sweeps == 1:
        temps = np.array([t_end])
    else:
        temps = t_start * ((t_end / t_start) ** (1.0 / (sweeps - 1))) ** np.arange(sweeps)
    n = c.n
    gen = gen or rng.stream(seed)
    words = gen.random_raw(n * shots).reshape(n, shots)
    spins = np.empty((shots, n), dtype=np.int8)
    for i in range(n):
        spins[:, i] = 1 - 2 * (words[i] >> np.uint64(63)).astype(np.int8)
    pairs = [([], []) for _ in range(n)]
    for (a, b), v in c.j_terms.items():
        for i, j in ((a, b), (b, a)):
            pairs[i][0].append(j)
            pairs[i][1].append(v)
    tris = [([], []) for _ in range(n)]
    for (a, b, d), v in c.k_terms.items():
        for i, rest in ((a, (b, d)), (b, (a, d)), (d, (a, b))):
            tris[i][0].append(rest)
            tris[i][1].append(v)

    def local(i):
        field = np.full(shots, float(c.h[i]))
        if pairs[i][0]:
            field += spins[:, pairs[i][0]] @ np.array(pairs[i][1])
        if tris[i][0]:
            partner = np.array(tris[i][0])
            field += (spins[:, partner[:, 0]] * spins[:, partner[:, 1]]) @ np.array(tris[i][1])
        return field

    accepted = []
    sweeps_run = sweeps
    for sweep, temp in enumerate(temps):
        words = gen.random_raw(n * shots).reshape(n, shots)
        for i in range(n):
            delta = -2.0 * spins[:, i] * local(i)
            u = ((words[i] >> np.uint64(11)) + np.uint64(1)).astype(np.float64) * 2.0**-53
            accept = u <= np.exp(np.minimum(-delta / temp, 0.0))
            np.negative(spins[:, i], where=accept, out=spins[:, i])
            accepted.append(int(accept.sum()))
        if sweeps_run == sweeps and sweep + 1 < sweeps and not any(accepted[-n:]):
            nxt = temps[sweep + 1]
            top = max(np.exp(np.minimum(2.0 * spins[:, i] * local(i) / nxt, 0.0)).max()
                      for i in range(n))
            if top < samplers._FROZEN_P:
                sweeps_run = sweep + 1
    total = sweeps * n
    rates = []
    for tenth in range(10):
        steps = [t for t in range(total) if t * 10 // total == tenth]
        rates.append(sum(accepted[t] for t in steps) / (shots * len(steps)))
    metadata = {
        "sweeps": str(sweeps),
        "t_start": f"{t_start:.12g}",
        "t_end": f"{t_end:.12g}",
        "sa_acceptance": ",".join(f"{r:.6g}" for r in rates),
        "sa_sweeps_run": str(sweeps_run),
        "distinct_states": str(len(np.unique(spins, axis=0))),
    }
    return _aggregate(c, spins, "sa", seed, metadata)


class TestExhaustive:
    def test_single_spin(self):
        c = HuboCoefficients.from_terms(n=1, h=np.array([1.0]), j_terms={}, k_terms={})
        best = exhaustive_solve(c, 1).entries[0]
        assert best.spins.spins == (-1,)
        assert best.energy == -1.0

    def test_two_spin_spectrum(self):
        c = HuboCoefficients.from_terms(n=2, h=np.array([1.0, 0.5]), j_terms={(0, 1): 0.3}, k_terms={})
        res = exhaustive_solve(c, 4)
        assert [e.energy for e in res.entries] == [-1.2, -0.8, 0.2, 1.8]
        assert [e.spins.spins for e in res.entries] == [
            (-1, -1),
            (-1, 1),
            (1, -1),
            (1, 1),
        ]

    def test_degenerate_tie_rule(self):
        res = exhaustive_solve(zero_instance(3), 2)
        # all energies equal: lexicographically smallest spins first (-1 < +1)
        assert res.entries[0].spins.spins == (-1, -1, -1)
        assert res.entries[1].spins.spins == (-1, -1, 1)

    def test_full_spectrum_sorted_and_complete(self):
        c = random_instance(3, 6)
        res = exhaustive_solve(c, 64)
        energies = [e.energy for e in res.entries]
        assert energies == sorted(energies)
        assert len({e.spins for e in res.entries}) == 64
        assert res.total_shots == 64

    @pytest.mark.parametrize("n, keep", [(1, 2), (5, 1), (5, 7), (9, 512)])
    @pytest.mark.parametrize("zero", [False, True])
    def test_equals_the_rows_of_the_all_states_energies(self, n, keep, zero):
        # The set _aggregate builds from the pick is the pick itself, with the energies of
        # energies_all_states: energy_many evaluates every row with the same bits.
        c = zero_instance(n) if zero else random_instance(60 + n, n)
        energies = hubo.energies_all_states(c)
        order = np.lexsort((-np.arange(1 << n), energies))[:keep]
        expected = SampleSet(
            spins=hubo.states_to_spins(order, n), counts=np.ones(keep, dtype=np.int64),
            energies=energies[order], sampler_name="exhaustive", seed=0,
            metadata={"distinct_states": str(keep)},
        )
        assert exhaustive_solve(c, keep) == expected

    def test_bounds(self):
        with pytest.raises(CapabilityError):
            exhaustive_solve(zero_instance(25), 1)
        with pytest.raises(UsageError):
            exhaustive_solve(zero_instance(3), 9)
        with pytest.raises(UsageError):
            exhaustive_solve(zero_instance(3), 0)

    def test_size_refused_before_keep_is_checked(self):
        # energies_all_states refuses n > 24 whatever keep is, so the CLI still exits 4.
        with pytest.raises(CapabilityError, match="n <= 24"):
            exhaustive_solve(zero_instance(25), 1 << 26)


class TestRowKeys:
    @staticmethod
    def rows_with_repeats(n, seed):
        """300 rows drawn from 40 random spin rows, so most rows repeat."""
        gen = np.random.default_rng(seed)
        pool = gen.choice(np.array([-1, 1], dtype=np.int8), size=(40, n))
        return pool[gen.integers(0, len(pool), 300)]

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 16, 17, 57])  # byte edges and padding
    def test_keys_sort_and_merge_like_the_rows(self, n):
        gen = np.random.default_rng(n)
        for spins in (gen.choice(np.array([-1, 1], dtype=np.int8), size=(500, n)),
                      self.rows_with_repeats(n, n)):
            keys = samplers._row_keys(spins)
            assert keys.shape == (len(spins),)
            assert np.array_equal(np.argsort(keys, kind="stable"), np.lexsort(spins.T[::-1]))
            _, first, counts = np.unique(keys, return_index=True, return_counts=True)
            rows, row_counts = np.unique(spins, axis=0, return_counts=True)
            assert np.array_equal(spins[first], rows)
            assert np.array_equal(counts, row_counts)

    @pytest.mark.parametrize("n", [1, 5, 9, 17])
    def test_given_energies_build_the_same_set(self, n):
        c = random_instance(80 + n, n)
        spins = self.rows_with_repeats(n, 80 + n)
        given = _aggregate(c, spins, "sa", 3, energies=hubo.energy_many(c, spins))
        evaluated = _aggregate(c, spins, "sa", 3)
        assert given == evaluated
        assert given.energies.tobytes() == evaluated.energies.tobytes()


class TestSimulatedAnnealing:
    def test_flat_landscape(self):
        c = zero_instance(6)
        res = simulated_annealing(c, shots=128, sweeps=20, seed=1)
        assert all(e.energy == 0.0 for e in res.entries)
        assert res.total_shots == 128
        # uniformity: per-spin means inside 4 sigma of 0
        mean = np.zeros(6)
        for e in res.entries:
            mean += e.count * np.array(e.spins.spins, dtype=float)
        mean /= res.total_shots
        assert np.all(np.abs(mean) < 4.0 / np.sqrt(128))

    def test_finds_ground_states(self):
        hits = 0
        for trial in range(10):
            c = random_instance(500 + trial, 12)
            exact = exhaustive_solve(c, 1).entries[0].energy
            res = simulated_annealing(c, shots=64, sweeps=500, seed=trial)
            assert res.min_energy() >= exact - 1e-9  # oracle lower-bounds
            if res.min_energy() <= exact + 1e-9:
                hits += 1
        assert hits >= 9

    def test_seed_reproducibility_byte_identical(self, tmp_path):
        c = random_instance(9, 8)
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        save_samples(a, simulated_annealing(c, shots=32, sweeps=50, seed=7))
        save_samples(b, simulated_annealing(c, shots=32, sweeps=50, seed=7))
        assert a.read_bytes() == b.read_bytes()

    def test_more_sweeps_never_hurts_median_minimum(self):
        short_mins, long_mins = [], []
        for trial in range(20):
            c = random_instance(900 + trial, 12)
            short_mins.append(simulated_annealing(c, 16, 30, seed=trial).min_energy())
            long_mins.append(simulated_annealing(c, 16, 300, seed=trial).min_energy())
        assert np.median(long_mins) <= np.median(short_mins) + 1e-12

    def test_energies_recomputable(self):
        c = random_instance(4, 7)
        res = simulated_annealing(c, shots=40, sweeps=60, seed=5)
        for e in res.entries:
            assert e.energy == energy_many(c, np.array([e.spins.spins]))[0]

    def test_parameter_validation(self):
        c = zero_instance(3)
        with pytest.raises(UsageError):
            simulated_annealing(c, shots=0, sweeps=10)
        with pytest.raises(UsageError):
            simulated_annealing(c, shots=1, sweeps=0)
        with pytest.raises(UsageError):
            simulated_annealing(c, shots=1, sweeps=10, t_start=0.001, t_end=0.01)
        with pytest.raises(UsageError):
            simulated_annealing(c, shots=1, sweeps=10, t_end=float("nan"))
        with pytest.raises(UsageError):
            simulated_annealing(c, shots=1, sweeps=10, t_start=float("inf"))

    @pytest.mark.parametrize(
        "c",
        [
            random_instance(31, 6),
            random_instance(32, 12),
            random_instance(33, 20),
            zero_instance(5),
            HuboCoefficients.from_terms(n=4, h=np.array([0.7, -0.2, 0.05, -1.3]), j_terms={}, k_terms={}),
        ],
        ids=["random6", "random12", "random20", "flat", "h_only"],
    )
    def test_field_kernel_matches_gather_reference(self, c):
        got = simulated_annealing(c, shots=64, sweeps=80, seed=3)
        assert got == gather_annealing(c, shots=64, sweeps=80, seed=3)

    def test_frozen_exit_skips_sweeps_and_keeps_samples(self, monkeypatch):
        # Large fields freeze every chain well before t_end; the reference runs every sweep.
        c = frozen_instance()
        drawn = []
        monkeypatch.setattr(samplers, "uniforms", lambda w: drawn.append(w) or rng.uniforms(w))
        got = simulated_annealing(c, shots=64, sweeps=80, seed=3)
        assert 0 < len(drawn) < 80
        assert got == gather_annealing(c, shots=64, sweeps=80, seed=3)
        assert got.metadata["sa_acceptance"].endswith(",0,0,0,0")

    def test_rare_flips_are_not_mistaken_for_frozen(self):
        # From the sixth tenth on most sweeps accept nothing, yet acceptance
        # probabilities far above 2**-54 still move a few of the 2000 chains.
        c = HuboCoefficients.from_terms(n=1, h=np.array([1.0]), j_terms={}, k_terms={})
        got = simulated_annealing(c, shots=2000, sweeps=300, t_start=1.0, t_end=0.08, seed=2)
        expected = gather_annealing(c, shots=2000, sweeps=300, t_start=1.0, t_end=0.08, seed=2)
        assert got == expected
        assert float(got.metadata["sa_acceptance"].split(",")[6]) > 0.0

    def test_zero_words_leave_a_frozen_chain_frozen(self, monkeypatch):
        # Word 0 gives the smallest uniform, 2**-53, which no frozen chain
        # accepts: with 1 word in 256 handed out as 0, SA still stops early and
        # equals the reference, which reads zero words after the freeze too.
        c = frozen_instance()
        monkeypatch.setattr(samplers, "stream", lambda seed: RecordingStream(seed, 1 << 56))
        got = simulated_annealing(c, shots=64, sweeps=80, seed=3)
        gen = RecordingStream(3, 1 << 56)
        expected = gather_annealing(c, shots=64, sweeps=80, seed=3, gen=gen)
        assert got == expected
        run = int(got.metadata["sa_sweeps_run"])
        assert run < 80
        assert any((block == 0).any() for block in gen.blocks[1 + run :])

    @pytest.mark.parametrize(
        "c, sweeps, frozen",
        [(frozen_instance(), 80, True), (random_instance(34, 12), 300, True),
         (zero_instance(4), 30, False)],
        ids=["frozen4", "random12", "flat"],
    )
    def test_no_word_is_read_after_the_freeze(self, monkeypatch, c, sweeps, frozen):
        spy = RecordingStream(3)
        monkeypatch.setattr(samplers, "stream", lambda seed: spy)
        run = int(simulated_annealing(c, shots=64, sweeps=sweeps, seed=3).metadata["sa_sweeps_run"])
        assert [len(block) for block in spy.blocks] == [c.n * 64] * (1 + run)
        assert (run < sweeps) == frozen

    def test_seeds_share_no_chain(self, monkeypatch):
        c = random_instance(40, 6)
        words = {}

        def recording(seed):
            words[seed] = RecordingStream(seed)
            return words[seed]

        monkeypatch.setattr(samplers, "stream", recording)
        runs = {seed: simulated_annealing(c, shots=200, sweeps=20, seed=seed) for seed in (7, 8)}
        # Chain c reads column c of every (n, shots) block: its initial spins, then its uniforms.
        chains = {
            seed: {col.tobytes() for col in np.vstack([b.reshape(c.n, 200) for b in rec.blocks]).T}
            for seed, rec in words.items()
        }
        assert len(words[7].blocks) == 1 + int(runs[7].metadata["sa_sweeps_run"])
        assert len(chains[7]) == len(chains[8]) == 200
        assert not chains[7] & chains[8]
        seven, eight = (np.concatenate(words[seed].blocks) for seed in (7, 8))
        assert not np.intersect1d(seven, eight).size

    @pytest.mark.parametrize(
        "k, bounds",
        [
            (1, [0, 1]),
            (2, [0, 2]),
            (5, [0, 5]),
            (6, [0, 4, 6]),
            (11, [0, 5, 9, 11]),
            (12, [0, 5, 10, 12]),
        ],
    )
    def test_row_blocks_fold_a_one_row_tail(self, monkeypatch, k, bounds):
        # Five rows fill a block; small integers keep every product exact.
        n = 4
        monkeypatch.setattr(hubo, "_GEMM_MACS", 5 * n * n)
        gen = np.random.default_rng(k)
        rows, k_a = gen.choice([-1.0, 1.0], (k, n)), gen.integers(-3, 4, (n, n)).astype(float)
        out = np.full((k + 2, n), np.nan)
        sizes = []
        matmul = np.matmul

        def spy(a, b, out):
            sizes.append(len(a))
            return matmul(a, b, out=out)

        monkeypatch.setattr(np, "matmul", spy)
        product = hubo.k_products(rows, k_a, out)
        monkeypatch.undo()
        assert sizes == np.diff(bounds).tolist()
        assert product.shape == (k, n) and np.shares_memory(product, out)
        assert np.array_equal(product, rows @ k_a)
        assert np.isnan(out[k:]).all()

    @pytest.mark.parametrize("n", [5, 12, 32])
    def test_update_gemms_fit_one_core_and_never_take_one_row(self, monkeypatch, n):
        # One chain more than a block: the hot first sweep flips every chain.
        rows = (1 << 18) // (n * n)
        calls = []
        matmul = np.matmul

        def spy(a, b, out):
            calls.append(((out.ctypes.data - out.base.ctypes.data) // out.strides[0], len(a)))
            return matmul(a, b, out=out)

        monkeypatch.setattr(np, "matmul", spy)
        simulated_annealing(random_instance(n, n), rows + 1, sweeps=12, t_start=1e9, seed=4)
        monkeypatch.undo()
        # An update fills its k rows of the buffer in order, starting at row 0.
        updates = []
        for offset, size in calls:
            if offset == 0:
                updates.append([])
            assert offset == sum(updates[-1])
            updates[-1].append(size)
        assert [rows - 1, 2] in updates
        for blocks in updates:
            assert max(blocks) * n * n <= 1 << 18
            assert min(blocks) >= 2 or blocks == [1]

    @pytest.mark.parametrize(
        "n, shots, macs",
        [(5, 10486, None), (12, 1821, None), (32, 513, None), (12, 301, 3 * 144)],
        ids=["n5", "n12", "n32", "n12_rows3"],
    )
    def test_row_blocks_keep_fields_bitwise(self, monkeypatch, n, shots, macs):
        # Shots one past a multiple of the block: the hot first sweep flips
        # every chain and leaves a 1-row tail; the cooler sweeps vary k.
        c = random_instance(n, n)
        fields = []
        check = samplers._check_fields

        def recording(c, jmat, kcube, spins, f, sweeps):
            fields.append(f.copy())
            check(c, jmat, kcube, spins, f, sweeps)

        monkeypatch.setattr(samplers, "_check_fields", recording)
        if macs:
            monkeypatch.setattr(hubo, "_GEMM_MACS", macs)
        blocked = simulated_annealing(c, shots, sweeps=30, t_start=1e9, seed=4)
        # Blocks above shots: one GEMM per product, the unblocked kernel and fields.
        monkeypatch.setattr(hubo, "_GEMM_MACS", (shots + 1) * n * n)
        whole = simulated_annealing(c, shots, sweeps=30, t_start=1e9, seed=4)
        assert blocked == whole
        assert fields[0].tobytes() == fields[1].tobytes()

    def test_one_constant_blocks_the_fields_and_both_step_kinds(self, monkeypatch):
        # Five rows fill a block. The first n and the last n products build the
        # initial and the checked fields; the others update the accepted chains.
        n, shots = 8, 40
        monkeypatch.setattr(hubo, "_GEMM_MACS", 5 * n * n)
        products = []
        matmul = np.matmul

        def spy(a, b, out):
            if out.ctypes.data == out.base.ctypes.data:  # the first block of a product
                products.append([])
            products[-1].append(len(a))
            return matmul(a, b, out=out)

        monkeypatch.setattr(np, "matmul", spy)
        simulated_annealing(random_instance(n, n), shots, sweeps=12, seed=4)
        monkeypatch.undo()
        fields, steps = products[:n] + products[-n:], products[n:-n]
        assert fields == [[5] * 8] * (2 * n)
        dense = [blocks for blocks in steps if sum(blocks) == shots]
        gather = [blocks for blocks in steps if sum(blocks) < shots]
        assert dense and dense == [[5] * 8] * len(dense)
        assert any(sum(blocks) > 5 for blocks in gather)
        for blocks in gather:
            assert max(blocks) <= 5 and (min(blocks) >= 2 or blocks == [1])

    @pytest.mark.parametrize("n, shots", [(5, 300), (12, 301), (32, 300)])
    def test_dense_steps_equal_gather_steps_bitwise(self, monkeypatch, n, shots):
        # The hot sweeps accept at least half the chains (dense steps), the
        # cold ones fewer (gather steps); the second run gathers every step.
        c = random_instance(n, n)
        fields, gathers = [], []
        check = samplers._check_fields
        take = np.take

        def recording(c, jmat, kcube, spins, f, sweeps):
            fields.append(f.copy())
            check(c, jmat, kcube, spins, f, sweeps)

        def counting(*args, **kwargs):
            gathers[-1] += 1
            return take(*args, **kwargs)

        monkeypatch.setattr(samplers, "_check_fields", recording)
        monkeypatch.setattr(np, "take", counting)
        runs = []
        for share in (samplers._DENSE_SHARE, 2.0):
            monkeypatch.setattr(samplers, "_DENSE_SHARE", share)
            gathers.append(0)
            runs.append(simulated_annealing(c, shots, sweeps=40, seed=4))
        assert runs[0] == runs[1]
        assert fields[0].tobytes() == fields[1].tobytes()
        # Every step that moved a chain gathers twice in the second run.
        assert 0 < gathers[0] < gathers[1]

    def test_dense_steps_equal_gathered_steps_from_a_hot_start(self, monkeypatch):
        # t_start = 1e9 accepts every proposal of the first sweeps: dense steps.
        c = random_instance(13, 6)
        take = np.take
        gathers = []
        monkeypatch.setattr(np, "take", lambda *a, **k: gathers.append(1) or take(*a, **k))
        got = simulated_annealing(c, 16, sweeps=12, t_start=1e9, seed=2)
        dense = len(gathers)
        monkeypatch.setattr(samplers, "_DENSE_SHARE", 2.0)
        gathered = simulated_annealing(c, 16, sweeps=12, t_start=1e9, seed=2)
        assert got == gathered
        assert dense < len(gathers) - dense

    def test_field_check_rejects_nan_instance(self):
        c = HuboCoefficients.from_terms(n=2, h=np.zeros(2), j_terms={}, k_terms={})
        object.__setattr__(c, "h", np.array([np.nan, 0.0]))  # past the instance's own check
        with pytest.raises(HubofsError, match="local field"):
            simulated_annealing(c, shots=2, sweeps=2, t_start=1.0, seed=0)

    def test_diagnostics_deterministic_and_round_trip(self, tmp_path):
        c = random_instance(21, 8)
        res = simulated_annealing(c, shots=40, sweeps=30, seed=5)
        assert res.metadata == simulated_annealing(c, shots=40, sweeps=30, seed=5).metadata
        rates = [float(v) for v in res.metadata["sa_acceptance"].split(",")]
        assert len(rates) == 10
        assert all(0.0 <= r <= 1.0 for r in rates)
        assert res.metadata["distinct_states"] == str(len(res.entries))
        assert 1 <= int(res.metadata["sa_sweeps_run"]) <= 30
        path = tmp_path / "samples.csv"
        save_samples(path, res)
        assert load_samples(path).metadata == res.metadata

    @pytest.mark.parametrize("n, sweeps", [(6, 1), (3, 2), (11, 3), (3, 11)])
    def test_tenth_tallies_equal_the_per_step_bincount(self, monkeypatch, n, sweeps):
        # sweeps * n = 6 or 33: tenths of unequal sizes, and empty tenths at 6.
        shots, steps = 50, []
        count = np.count_nonzero

        def recording(a, *args, **kwargs):
            k = count(a, *args, **kwargs)
            if a.dtype == bool and a.shape == (shots,):  # an SA step's accepted chains
                steps.append(k)
            return k

        monkeypatch.setattr(np, "count_nonzero", recording)
        got = simulated_annealing(random_instance(n + sweeps, n), shots, sweeps, seed=6)
        monkeypatch.undo()
        # The former formula: one count per proposal step (unmade ones 0), binned by tenth.
        total = sweeps * n
        accepted = np.zeros(total, dtype=np.int64)
        accepted[: len(steps)] = steps
        tenth = np.arange(total) * 10 // total
        with np.errstate(invalid="ignore"):
            rates = np.bincount(tenth, weights=accepted, minlength=10) / (
                shots * np.bincount(tenth, minlength=10)
            )
        assert 0 < sum(steps) < shots * total
        assert got.metadata["sa_acceptance"] == ",".join(f"{r:.6g}" for r in rates)

    def test_flat_landscape_accepts_every_proposal(self):
        res = simulated_annealing(zero_instance(3), shots=8, sweeps=10, seed=0)
        assert res.metadata["sa_acceptance"] == ",".join(["1"] * 10)
        assert res.metadata["sa_sweeps_run"] == "10"

    def test_uniform_of_one_accepts_a_level_move(self, monkeypatch):
        # The largest word gives u = 1.0 exactly; a move with delta = 0 has p = 1.
        class Ones:
            def random_raw(self, size):
                return np.full(size, MASK64)

        monkeypatch.setattr(samplers, "stream", lambda seed: Ones())
        res = simulated_annealing(zero_instance(3), shots=8, sweeps=10, seed=0)
        assert res.metadata["sa_acceptance"] == ",".join(["1"] * 10)

    def test_schedule_underflowing_to_zero_refused(self):
        # (1e-300 / 1e300) ** 0.5 underflows to 0: temperatures [1e300, 0, 0].
        with pytest.raises(UsageError, match="underflows to T = 0") as info:
            simulated_annealing(zero_instance(3), 1, sweeps=3, t_start=1e300, t_end=1e-300)
        assert info.value.exit_code == 2

    @pytest.mark.parametrize("t_start, sweeps", [(None, 2), (1e-310, 4)])
    def test_subnormal_temperature_decides_without_warnings(self, t_start, sweeps):
        # At T = 1e-310, -delta / T and the freeze probe's ratio overflow to +-inf;
        # exp(-inf) = 0 and min(+inf, 0) = 0 are the decisions of any tiny T, here
        # 1e-300, and the suite turns a RuntimeWarning into an error.
        c = random_instance(17, 6)
        cold = simulated_annealing(c, 50, sweeps, t_start, t_end=1e-310, seed=5)
        ref = simulated_annealing(c, 50, sweeps, t_start and 1e-300, t_end=1e-300, seed=5)
        assert np.array_equal(cold.spins, ref.spins) and np.array_equal(cold.counts, ref.counts)
        for key in ("sa_acceptance", "sa_sweeps_run"):
            assert cold.metadata[key] == ref.metadata[key]
        if t_start:  # the freeze probe ran at T = 1e-310 and stopped the chains
            assert cold.metadata["sa_sweeps_run"] == "3"

    def test_auto_schedule_handles_tiny_coefficients(self):
        tiny = HuboCoefficients.from_terms(n=3, h=np.full(3, 1e-6), j_terms={}, k_terms={})
        res = simulated_annealing(tiny, shots=4, sweeps=5, seed=0)
        assert res.total_shots == 4  # auto t_start floors at t_end


# Imports hubofs first, runs argv[1:] through the CLI with every SA run split in halves
# and two CPUs reported, then prints the number of forks on stderr.
FORKING_CLI = """
import os, sys
from hubofs import cli, samplers
samplers._FORK_WORK = 0
samplers._cpus = lambda: 2
fork, forks = os.fork, []
os.fork = lambda: forks.append(1) or fork()
code = cli.main(sys.argv[1:])
print(f"forks={len(forks)}", file=sys.stderr)
sys.exit(code)
"""

# This process's own half (no parent pid) ends the process at once, orphaning the worker.
ORPHANING = """
import os, sys
sys.path.insert(0, sys.argv[1])
from conftest import random_instance
from hubofs import samplers
samplers._FORK_WORK = 0
samplers._cpus = lambda: 2
anneal = samplers._anneal
samplers._anneal = lambda *a, parent=None: anneal(*a, parent=parent) if parent else os._exit(0)
samplers.simulated_annealing(random_instance(3, 12), 400, 200, seed=1)
"""


class TestHalves:
    """From ``_FORK_WORK`` on, SA anneals two halves of its chains, the first in a worker."""

    @staticmethod
    def cpus(monkeypatch, count):
        monkeypatch.setattr(samplers, "_cpus", lambda: count)

    @pytest.mark.parametrize("n", [5, 12, 32])
    def test_forked_halves_equal_halves_in_process(self, monkeypatch, n):
        # The process analogue of the BLAS thread check: bits do not follow the CPU count.
        monkeypatch.setattr(samplers, "_FORK_WORK", 0)
        c = random_instance(n, n)
        fields, forks = [], []
        check, fork = samplers._check_fields, os.fork

        def recording(c, jmat, kcube, spins, f, sweeps):
            fields.append(f.copy())
            check(c, jmat, kcube, spins, f, sweeps)

        monkeypatch.setattr(samplers, "_check_fields", recording)
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        runs = []
        for count in (1, 2):
            self.cpus(monkeypatch, count)
            runs.append(simulated_annealing(c, shots=301, sweeps=40, seed=4))
            assert len(forks) == count - 1
        assert runs[0] == runs[1]
        assert fields[0].tobytes() == fields[1].tobytes()

    @pytest.mark.parametrize(
        "c, sweeps, seed",
        [(frozen_instance(), 80, 3), (random_instance(21, 8), 300, 1)],
        ids=["frozen4", "random8"],
    )
    def test_halves_equal_the_gather_reference(self, monkeypatch, c, sweeps, seed):
        monkeypatch.setattr(samplers, "_FORK_WORK", 0)
        got = simulated_annealing(c, shots=65, sweeps=sweeps, seed=seed)
        assert got == gather_annealing(c, shots=65, sweeps=sweeps, seed=seed)

    def test_the_later_freeze_of_the_halves_is_the_runs(self, monkeypatch):
        # In process, each half's sweeps run stays in its out row. Here the first half,
        # chains 0..31, freezes last.
        monkeypatch.setattr(samplers, "_FORK_WORK", 0)
        self.cpus(monkeypatch, 1)
        halves, anneal = [], samplers._anneal

        def recording(*args, **kwargs):
            anneal(*args, **kwargs)
            halves.append((args[5], args[6], int(args[9][10])))

        monkeypatch.setattr(samplers, "_anneal", recording)
        got = simulated_annealing(random_instance(21, 8), shots=65, sweeps=300, seed=1)
        assert [(lo, hi) for lo, hi, _ in halves] == [(0, 32), (32, 65)]
        first, second = (run for _, _, run in halves)
        assert first > second
        assert got.metadata["sa_sweeps_run"] == str(first)

    def test_a_failing_worker_raises_and_is_reaped(self, monkeypatch, capfd):
        monkeypatch.setattr(samplers, "_FORK_WORK", 0)
        self.cpus(monkeypatch, 2)
        anneal, me = samplers._anneal, os.getpid()

        def failing(*args, **kwargs):
            if os.getpid() != me:
                raise RuntimeError("worker fault")
            anneal(*args, **kwargs)

        monkeypatch.setattr(samplers, "_anneal", failing)
        with pytest.raises(HubofsError, match="SA worker"):
            simulated_annealing(random_instance(5, 6), shots=40, sweeps=10, seed=1)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert "error [sa worker]: RuntimeError('worker fault')" in capfd.readouterr().err

    def test_a_failing_parent_half_kills_the_worker(self, monkeypatch):
        monkeypatch.setattr(samplers, "_FORK_WORK", 0)
        self.cpus(monkeypatch, 2)
        me = os.getpid()

        def stuck_or_failing(*args, **kwargs):
            if os.getpid() != me:
                time.sleep(60)  # the parent would wait this long for a worker left alive
            raise RuntimeError("parent fault")

        monkeypatch.setattr(samplers, "_anneal", stuck_or_failing)
        start = time.monotonic()
        with pytest.raises(RuntimeError, match="parent fault"):
            simulated_annealing(random_instance(5, 6), shots=40, sweeps=10, seed=1)
        assert time.monotonic() - start < 30
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_a_forked_cli_run_prints_each_stage_line_once(self, demo_csv, tmp_path):
        # stdout to a file is block-buffered: a worker that inherited the build line in its
        # buffer and flushed it would print it twice. The same run without the fork gives
        # the expected lines.
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        argv = ["run", "--input", str(demo_csv), "--target", "label", "--preselect-k", "6",
                "--shots", "200", "--sweeps", "20", "--out", str(tmp_path / "out")]
        logs = {}
        for label, command in [("plain", ["-m", "hubofs.cli"]), ("forked", ["-c", FORKING_CLI])]:
            logs[label] = tmp_path / f"{label}.txt"
            with open(logs[label], "w", encoding="utf-8") as out:
                proc = subprocess.run([sys.executable, *command, *argv], env=env, stdout=out,
                                      stderr=subprocess.PIPE, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
        assert proc.stderr.splitlines()[-1] == "forks=1"
        plain, forked = (logs[label].read_text(encoding="utf-8") for label in ("plain", "forked"))
        assert [line.split(":")[0] for line in plain.splitlines()[:3]] == ["build", "sample", "select"]
        assert forked == plain

    def test_an_orphaned_worker_ends_at_its_next_sweep(self):
        # stderr reaches EOF only once the worker, which holds it too, has ended.
        tests = str(Path(__file__).resolve().parent)
        src = str(Path(tests).parent / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.Popen([sys.executable, "-c", ORPHANING, tests], env=env,
                                stderr=subprocess.PIPE, text=True, start_new_session=True)
        try:
            err = proc.communicate(timeout=60)[1]
        finally:
            with contextlib.suppress(ProcessLookupError):  # a worker still alive on failure
                os.killpg(proc.pid, signal.SIGKILL)
        assert proc.returncode == 0
        assert "error [sa worker]: HubofsError('the SA worker lost its parent process')" in err


class TestShotsCap:
    @pytest.mark.parametrize("sampler", ["sa", "random", "dcqo"])
    def test_one_shot_past_the_cap_refused_before_drawing(self, monkeypatch, sampler):
        def refuse(*args, **kwargs):
            raise AssertionError("reached past the shots cap")

        for module, name in ((samplers, "stream"), (dcqo, "stream"), (dcqo, "evolve_statevector")):
            monkeypatch.setattr(module, name, refuse)
        n = 3 if sampler == "dcqo" else 32
        shots = samplers.MAX_WORDS // (1 if sampler == "dcqo" else n) + 1
        c = zero_instance(n)
        draw = {
            "sa": lambda: simulated_annealing(c, shots, sweeps=10),
            "random": lambda: random_sample(c, shots),
            "dcqo": lambda: evolve_and_sample(c, build_schedule(2, 1.0), shots),
        }[sampler]
        with pytest.raises(CapabilityError, match=f"<= {samplers.MAX_WORDS} stream words"):
            draw()

    def test_sweeps_past_the_cap_refused_before_allocating(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("allocated the schedule or drew words")

        c = zero_instance(32)
        monkeypatch.setattr(np, "arange", refuse)
        monkeypatch.setattr(samplers, "stream", refuse)
        sweeps = samplers.MAX_WORDS // c.n
        with pytest.raises(CapabilityError, match=rf"sweeps\*n must be <= {samplers.MAX_WORDS}"):
            simulated_annealing(c, 1, sweeps + 1)
        with pytest.raises(AssertionError, match="allocated the schedule"):
            simulated_annealing(c, 1, sweeps)

    def test_the_cap_itself_is_allowed(self):
        samplers._check_words(samplers.MAX_WORDS, "n*shots")
        with pytest.raises(CapabilityError):
            samplers._check_words(samplers.MAX_WORDS + 1, "n*shots")


class TestRandomSample:
    def test_single_shot(self):
        res = random_sample(zero_instance(4), 1, seed=3)
        assert res.total_shots == 1
        assert res.entries[0].count == 1

    def test_per_spin_binomial(self):
        res = random_sample(zero_instance(4), 4096, seed=0)
        counts = np.zeros(4)
        for e in res.entries:
            counts += e.count * (np.array(e.spins.spins) == -1)
        freq = counts / 4096
        sigma = 0.5 / np.sqrt(4096)
        assert np.all(np.abs(freq - 0.5) < 3.5 * sigma)

    def test_spins_follow_the_stream_contract(self):
        # Shot s, spin i: the top bit of word s*n + i (1 = selected, spin -1).
        c = random_instance(2, 5)
        words = np.random.Philox(key=9).random_raw(64 * 5).tolist()
        spins = np.array([1 - 2 * (w >> 63) for w in words], dtype=np.int8).reshape(64, 5)
        assert random_sample(c, 64, seed=9) == _aggregate(c, spins, "random", 9)

    def test_seed_determinism(self):
        c = random_instance(2, 5)
        assert random_sample(c, 64, seed=9) == random_sample(c, 64, seed=9)


DRAWS = [
    lambda c: exhaustive_solve(c, 20),
    lambda c: simulated_annealing(c, shots=40, sweeps=30, seed=5),
    lambda c: random_sample(c, 40, seed=5),
    lambda c: evolve_and_sample(c, build_schedule(10, 4.0), 40, seed=5),
]
DRAW_IDS = ["exhaustive", "sa", "random", "dcqo"]


class TestSampleFile:
    def test_bitstring_convention(self, tmp_path):
        # "1" = selected (Z = -1), feature 0 leftmost.
        one = SampleSet(
            spins=np.array([[-1, 1, -1]]), counts=np.array([1]), energies=np.array([0.5]),
            sampler_name="test", seed=0,
        )
        path = tmp_path / "samples.csv"
        save_samples(path, one)
        assert path.read_bytes().endswith(b"\nbitstring,count,energy\n101,1,0.5\n")
        assert load_samples(path) == one

    @pytest.mark.parametrize("draw", DRAWS, ids=DRAW_IDS)
    def test_every_sampler_records_distinct_states(self, tmp_path, draw):
        res = draw(random_instance(21, 6))
        assert res.metadata["distinct_states"] == str(len(res.counts))
        path = tmp_path / "samples.csv"
        save_samples(path, res)
        loaded = load_samples(path)
        assert loaded.metadata["distinct_states"] == str(len(res.counts))
        assert np.array_equal(loaded.spins, res.spins)

    @pytest.mark.parametrize("draw", DRAWS, ids=DRAW_IDS)
    def test_save_returns_the_set_its_file_holds(self, tmp_path, draw):
        res = draw(random_instance(21, 6))
        saved = save_samples(tmp_path / "samples.csv", res)
        assert saved == load_samples(tmp_path / "samples.csv")
        assert np.array_equal(saved.spins, res.spins) and np.array_equal(saved.counts, res.counts)

    def test_save_returns_energies_that_tie_at_12_digits(self, tmp_path):
        exact = SampleSet(
            spins=[[1, -1, 1], [-1, 1, -1]], counts=[2, 1], energies=[1.0, 1.0 + 3e-13],
            sampler_name="sa", seed=1, metadata={"distinct_states": "2"},
        )
        saved = save_samples(tmp_path / "samples.csv", exact)
        assert saved == load_samples(tmp_path / "samples.csv")
        assert saved.energies.tolist() == [1.0, 1.0] != exact.energies.tolist()

    def test_file_without_rows_loads_empty(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text(f"# schema={SAMPLE_SCHEMA}\n# n=3\nbitstring,count,energy\n")
        loaded = load_samples(path)
        assert loaded.spins.shape == (0, 3)
        assert loaded.n == 3
        assert loaded.total_shots == 0

    def test_round_trip(self, tmp_path):
        c = random_instance(8, 6)
        res = simulated_annealing(c, shots=50, sweeps=40, seed=4)
        path = tmp_path / "samples.csv"
        save_samples(path, res)
        loaded = load_samples(path)
        assert loaded.total_shots == res.total_shots
        assert loaded.sampler_name == res.sampler_name
        assert loaded.seed == res.seed
        assert [e.spins for e in loaded.entries] == [e.spins for e in res.entries]
        assert [e.count for e in loaded.entries] == [e.count for e in res.entries]
        for got, expect in zip(loaded.entries, res.entries):
            assert got.energy == pytest.approx(expect.energy, rel=1e-11)

    @pytest.mark.parametrize("n", [3, 9, 17])  # one, two and three packed bytes per row
    def test_duplicate_rows_refused(self, tmp_path, n):
        spins = np.ones((3, n), dtype=np.int8)
        spins[1:, -1] = -1  # rows 1 and 2 are one configuration; row 0 differs in its last bit

        def first(rows):
            return SampleSet(spins=spins[:rows], counts=np.ones(rows), energies=np.zeros(rows),
                             sampler_name="test", seed=0)

        assert first(2).n == n
        with pytest.raises(DataError, match="duplicate spin configurations"):
            first(3)
        path = tmp_path / "dup.csv"
        head = "0" * (n - 1)
        path.write_text(f"# schema={SAMPLE_SCHEMA}\n# n={n}\nbitstring,count,energy\n"
                        f"{head}0,1,0\n{head}1,1,0\n{head}1,2,0\n")
        with pytest.raises(DataError, match="duplicate spin configurations"):
            load_samples(path)

    def test_unknown_schema_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# schema=wrong/1\nbitstring,count,energy\n00,1,0\n")
        with pytest.raises(DataError):
            load_samples(path)

    def test_version_3_file_rejected(self, tmp_path):
        # Version 3 files were drawn with uniforms in [0, 1) and hold no sa_sweeps_run.
        path = tmp_path / "v3.csv"
        path.write_text("# schema=hubofs-samples/3\n# n=2\nbitstring,count,energy\n00,1,0\n")
        with pytest.raises(DataError, match="unknown sample schema 'hubofs-samples/3'"):
            load_samples(path)

    def test_total_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            f"# schema={SAMPLE_SCHEMA}\n# n=2\n# total_shots=5\nbitstring,count,energy\n00,1,0\n"
        )
        with pytest.raises(DataError):
            load_samples(path)

    @pytest.mark.parametrize(
        "n,rows", MALFORMED, ids=[r if n == "2" else f"n={n}-{r}" for n, r in MALFORMED]
    )
    def test_malformed_rows_are_data_error(self, tmp_path, n, rows):
        path = tmp_path / "bad.csv"
        header = "" if n is None else f"# n={n}\n"
        path.write_text(f"# schema={SAMPLE_SCHEMA}\n{header}bitstring,count,energy\n{rows}\n")
        with pytest.raises(DataError):
            load_samples(path)

    def test_shots_past_int64_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        big = 1 << 62
        path.write_text(
            f"# schema={SAMPLE_SCHEMA}\n# n=1\nbitstring,count,energy\n0,{big},0\n1,{big},1\n"
        )
        with pytest.raises(DataError):
            load_samples(path)

    @pytest.mark.parametrize("meta", ["total_shots=two", "seed=x"])
    def test_malformed_metadata_is_data_error(self, tmp_path, meta):
        path = tmp_path / "bad.csv"
        path.write_text(
            f"# schema={SAMPLE_SCHEMA}\n# n=2\n# {meta}\nbitstring,count,energy\n00,1,0\n"
        )
        with pytest.raises(DataError):
            load_samples(path)

    def test_energy_format_12_significant_digits(self, tmp_path):
        c = HuboCoefficients.from_terms(n=2, h=np.array([1 / 3, 0.5]), j_terms={}, k_terms={})
        path = tmp_path / "samples.csv"
        save_samples(path, exhaustive_solve(c, 1))
        row = path.read_text().splitlines()[-1]
        assert row.split(",")[2] == "-0.833333333333"

import numpy as np
import pytest

from conftest import random_instance
from hubofs.errors import CapabilityError, DataError, HubofsError, UsageError
from hubofs.dcqo import build_schedule, evolve_and_sample
from hubofs.hubo import HuboCoefficients, energy
from hubofs import dcqo, rng, samplers
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


def zero_instance(n):
    return HuboCoefficients.from_terms(n=n, h=np.zeros(n), j_terms={}, k_terms={})


class RecordingStream:
    """A stream keyed ``seed`` that keeps every block it hands out; words
    below ``zero_below`` are handed out as 0, the word of the uniform 0.0."""

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
    every sweep runs (no frozen exit)."""
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
    accepted = []
    for temp in temps:
        words = gen.random_raw(n * shots).reshape(n, shots)
        for i in range(n):
            local = np.full(shots, float(c.h[i]))
            if pairs[i][0]:
                local += spins[:, pairs[i][0]] @ np.array(pairs[i][1])
            if tris[i][0]:
                partner = np.array(tris[i][0])
                local += (spins[:, partner[:, 0]] * spins[:, partner[:, 1]]) @ np.array(tris[i][1])
            delta = -2.0 * spins[:, i] * local
            u = (words[i] >> np.uint64(11)).astype(np.float64) * 2.0**-53
            accept = u < np.exp(np.minimum(-delta / temp, 0.0))
            np.negative(spins[:, i], where=accept, out=spins[:, i])
            accepted.append(int(accept.sum()))
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

    def test_bounds(self):
        with pytest.raises(CapabilityError):
            exhaustive_solve(zero_instance(25), 1)
        with pytest.raises(UsageError):
            exhaustive_solve(zero_instance(3), 9)
        with pytest.raises(UsageError):
            exhaustive_solve(zero_instance(3), 0)


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

    def test_incremental_delta_validated(self):
        c = random_instance(12, 6)
        simulated_annealing(c, shots=8, sweeps=10, seed=2, validate_deltas=True)

    def test_nan_delta_fails_validation(self):
        c = HuboCoefficients.from_terms(n=2, h=np.array([np.nan, 0.0]), j_terms={}, k_terms={})
        with pytest.raises(HubofsError):
            simulated_annealing(c, shots=2, sweeps=2, t_start=1.0, seed=0, validate_deltas=True)

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
            assert e.energy == energy(c, e.spins)

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

    def test_zero_uniform_moves_a_frozen_chain(self, monkeypatch):
        # A uniform of exactly 0 is the one way out of the frozen state: hand
        # out 1 word in 256 as 0 and the skipped sweeps must run again.
        c = frozen_instance()
        monkeypatch.setattr(samplers, "stream", lambda seed: RecordingStream(seed, 1 << 56))
        got = simulated_annealing(c, shots=64, sweeps=80, seed=3)
        gen = RecordingStream(3, 1 << 56)
        expected = gather_annealing(c, shots=64, sweeps=80, seed=3, gen=gen)
        assert got == expected
        assert float(got.metadata["sa_acceptance"].split(",")[-1]) > 0.0

    def test_seeds_share_no_chain(self, monkeypatch):
        c = random_instance(40, 6)
        words = {}

        def recording(seed):
            words[seed] = RecordingStream(seed)
            return words[seed]

        monkeypatch.setattr(samplers, "stream", recording)
        for seed in (7, 8):
            simulated_annealing(c, shots=200, sweeps=20, seed=seed)
        # Chain c reads column c of every (n, shots) block: its initial spins, then its uniforms.
        chains = {
            seed: {col.tobytes() for col in np.vstack([b.reshape(c.n, 200) for b in rec.blocks]).T}
            for seed, rec in words.items()
        }
        assert len(words[7].blocks) == 21
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
    def test_row_blocks_fold_a_one_row_tail(self, k, bounds):
        assert samplers._row_blocks(k, 5) == bounds

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
            monkeypatch.setattr(samplers, "_GEMM_MACS", macs)
        blocked = simulated_annealing(c, shots, sweeps=30, t_start=1e9, seed=4)
        # Blocks above shots: one GEMM per step, the unblocked kernel.
        monkeypatch.setattr(samplers, "_GEMM_MACS", (shots + 1) * n * n)
        whole = simulated_annealing(c, shots, sweeps=30, t_start=1e9, seed=4)
        assert blocked == whole
        assert fields[0].tobytes() == fields[1].tobytes()

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

    def test_incremental_delta_validated_through_dense_steps(self, monkeypatch):
        # t_start = 1e9 accepts every proposal of the first sweeps: dense steps.
        c = random_instance(13, 6)
        take = np.take
        gathers = []
        monkeypatch.setattr(np, "take", lambda *a, **k: gathers.append(1) or take(*a, **k))
        got = simulated_annealing(c, 16, sweeps=12, t_start=1e9, seed=2, validate_deltas=True)
        dense = len(gathers)
        monkeypatch.setattr(samplers, "_DENSE_SHARE", 2.0)
        gathered = simulated_annealing(c, 16, sweeps=12, t_start=1e9, seed=2, validate_deltas=True)
        assert got == gathered
        assert dense < len(gathers) - dense

    def test_field_check_rejects_nan_instance(self):
        c = HuboCoefficients.from_terms(n=2, h=np.array([np.nan, 0.0]), j_terms={}, k_terms={})
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
        path = tmp_path / "samples.csv"
        save_samples(path, res)
        assert load_samples(path).metadata == res.metadata

    def test_flat_landscape_accepts_every_proposal(self):
        res = simulated_annealing(zero_instance(3), shots=8, sweeps=10, seed=0)
        assert res.metadata["sa_acceptance"] == ",".join(["1"] * 10)

    def test_auto_schedule_handles_tiny_coefficients(self):
        tiny = HuboCoefficients.from_terms(n=3, h=np.full(3, 1e-6), j_terms={}, k_terms={})
        res = simulated_annealing(tiny, shots=4, sweeps=5, seed=0)
        assert res.total_shots == 4  # auto t_start floors at t_end


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


class TestSampleFile:
    def test_bitstring_convention(self, tmp_path):
        # "1" = selected (Z = -1), feature 0 leftmost.
        one = SampleSet(
            spins=np.array([[-1, 1, -1]]), counts=np.array([1]), energies=np.array([0.5]),
            total_shots=1, sampler_name="test", seed=0,
        )
        path = tmp_path / "samples.csv"
        save_samples(path, one)
        assert path.read_bytes().endswith(b"\nbitstring,count,energy\n101,1,0.5\n")
        assert load_samples(path) == one

    @pytest.mark.parametrize(
        "draw",
        [
            lambda c: exhaustive_solve(c, 20),
            lambda c: simulated_annealing(c, shots=40, sweeps=30, seed=5),
            lambda c: random_sample(c, 40, seed=5),
            lambda c: evolve_and_sample(c, build_schedule(10, 4.0), 40, seed=5),
        ],
        ids=["exhaustive", "sa", "random", "dcqo"],
    )
    def test_every_sampler_records_distinct_states(self, tmp_path, draw):
        res = draw(random_instance(21, 6))
        assert res.metadata["distinct_states"] == str(len(res.counts))
        path = tmp_path / "samples.csv"
        save_samples(path, res)
        loaded = load_samples(path)
        assert loaded.metadata["distinct_states"] == str(len(res.counts))
        assert np.array_equal(loaded.spins, res.spins)

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

    def test_unknown_schema_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# schema=wrong/1\nbitstring,count,energy\n00,1,0\n")
        with pytest.raises(DataError):
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

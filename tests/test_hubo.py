import itertools
import json

import numpy as np
import pytest

from conftest import naive_energy, random_instance
from hubofs import hubo
from hubofs.errors import CapabilityError, DataError, UsageError
from hubofs.hubo import (
    DegenerateNormalizationWarning,
    HuboCoefficients,
    SpinConfig,
    apply_penalty,
    build_coefficients,
    dense_couplings,
    energies_all_states,
    energy,
    energy_many,
    hinge_delta,
    load_coefficients,
    local_fields,
    normalize_global,
    preselect_top_k,
    save_coefficients,
    states_to_spins,
)
from hubofs.mi import MiTensors


class TestSpinConversions:
    def test_states_to_spins_layout(self):
        # x-bitstring states: feature 0 is the most significant bit, x=1 <-> Z=-1.
        spins = states_to_spins([0b100, 0b011, 0b000], 3)
        assert spins.dtype == np.int8
        assert spins.flags.f_contiguous
        assert spins.tolist() == [[-1, 1, 1], [1, -1, -1], [1, 1, 1]]
        assert states_to_spins([], 2).shape == (0, 2)

    def test_invalid_symbols(self):
        with pytest.raises(UsageError):
            SpinConfig((0, 1))


class TestPreselect:
    def test_top_two(self):
        assert preselect_top_k([0.1, 0.9, 0.5], 2) == [1, 2]

    def test_tie_to_smaller_index(self):
        assert preselect_top_k([0.4, 0.4, 0.4], 2) == [0, 1]

    def test_identity(self):
        assert preselect_top_k([0.3, 0.1, 0.2], 3) == [0, 1, 2]

    def test_range_check(self):
        with pytest.raises(UsageError):
            preselect_top_k([0.1], 2)
        with pytest.raises(UsageError):
            preselect_top_k([0.1, 0.2], 0)


class TestNormalizeGlobal:
    def test_min_max_endpoints(self):
        t = MiTensors(relevance=np.array([0.2, 0.6, 1.0]), redundancy={}, triadic={})
        norm = normalize_global(t)
        assert norm.relevance == pytest.approx([0.0, 0.5, 1.0], abs=1e-12)

    def test_values_spread_across_families(self):
        t = MiTensors(
            relevance=np.array([0.2, 0.4, 0.4]),
            redundancy={(0, 1): 0.6},
            triadic={(0, 1, 2): 1.0},
        )
        norm = normalize_global(t)
        assert norm.relevance[0] == 0.0
        assert norm.redundancy[(0, 1)] == pytest.approx(0.5, abs=1e-12)
        assert norm.triadic[(0, 1, 2)] == 1.0

    def test_degenerate_all_equal(self):
        t = MiTensors(relevance=np.array([0.7, 0.7]), redundancy={(0, 1): 0.7}, triadic={})
        with pytest.warns(DegenerateNormalizationWarning):
            norm = normalize_global(t)
        assert list(norm.relevance) == [0.0, 0.0]
        assert norm.redundancy[(0, 1)] == 0.0

    def test_idempotent(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            t = MiTensors(
                relevance=rng.uniform(0, 3, 4),
                redundancy={(0, 1): rng.uniform(0, 3), (2, 3): rng.uniform(0, 3)},
                triadic={(0, 1, 2): rng.uniform(0, 3)},
            )
            once = normalize_global(t)
            twice = normalize_global(once)
            assert np.array_equal(once.relevance, twice.relevance)
            assert once.redundancy == twice.redundancy
            assert once.triadic == twice.triadic


class TestBuildCoefficients:
    def test_scaling(self):
        t = MiTensors(relevance=np.array([1.0]), redundancy={}, triadic={})
        c = build_coefficients(t, 2.0, 0.5, 0.3)
        assert list(c.h) == [2.0]
        assert c.constant == 0.0
        assert not c.penalty_applied

    def test_three_body_sign(self):
        t = MiTensors(
            relevance=np.zeros(3), redundancy={}, triadic={(0, 1, 2): 1.0}
        )
        c = build_coefficients(t, 1.0, 1.0, 0.5)
        assert c.k_terms[(0, 1, 2)] == -0.5

    def test_zero_inputs(self):
        t = MiTensors(relevance=np.zeros(2), redundancy={(0, 1): 0.0}, triadic={})
        c = build_coefficients(t, 1.0, 0.5, 0.3)
        assert list(c.h) == [0.0, 0.0]
        assert c.j_terms[(0, 1)] == 0.0

    def test_bounds_after_build(self):
        rng = np.random.default_rng(23)
        t = MiTensors(
            relevance=rng.uniform(0, 1, 4),
            redundancy={(i, j): float(rng.uniform(0, 1)) for i in range(4) for j in range(i + 1, 4)},
            triadic={(0, 1, 2): 0.9, (1, 2, 3): 0.1},
        )
        c = build_coefficients(t, 1.0, 0.5, 0.3)
        assert all(0.0 <= v <= 1.0 for v in c.h)
        assert all(0.0 <= v <= 0.5 for v in c.j_terms.values())
        assert all(-0.3 <= v <= 0.0 for v in c.k_terms.values())

    def test_rejects_bad_weights_and_unnormalized(self):
        t = MiTensors(relevance=np.array([0.5]), redundancy={}, triadic={})
        with pytest.raises(UsageError):
            build_coefficients(t, 0.0, 1.0, 1.0)
        with pytest.raises(UsageError):
            build_coefficients(t, float("nan"), 1.0, 1.0)
        t_bad = MiTensors(relevance=np.array([1.5]), redundancy={}, triadic={})
        with pytest.raises(UsageError):
            build_coefficients(t_bad, 1.0, 1.0, 1.0)


class TestPenalty:
    def test_hinge_boundary_values(self):
        lam, tau = 0.8, 0.2
        assert hinge_delta(tau, lam, tau, 2.0) == 0.0
        assert hinge_delta(0.0, lam, tau, 2.0) == -lam
        assert hinge_delta(tau / 2, lam, tau, 2.0) == -lam / 4

    def test_monotone_in_relevance(self):
        lam, tau, p = 0.5, 0.2, 2.0
        grid = np.linspace(0.0, tau, 1000, endpoint=False)
        deltas = [hinge_delta(float(x), lam, tau, p) for x in grid]
        assert all(d1 < d2 or d2 == 0.0 for d1, d2 in zip(deltas, deltas[1:]))
        assert all(d <= 0.0 for d in deltas)

    def test_apply_only_touches_h(self):
        t = MiTensors(
            relevance=np.array([0.0, 0.5, 1.0]),
            redundancy={(0, 1): 0.4},
            triadic={(0, 1, 2): 0.6},
        )
        c = build_coefficients(t, 1.0, 0.5, 0.3)
        out = apply_penalty(c, t.relevance, 0.5, 0.2, 2.0)
        assert out.penalty_applied
        assert out.j_terms == c.j_terms
        assert out.k_terms == c.k_terms
        assert out.constant == c.constant
        assert out.h[0] == c.h[0] - 0.5
        assert out.h[1] == c.h[1]
        assert out.h[2] == c.h[2]
        assert out.h[0] >= -0.5  # h_i >= -lambda after penalty

    def test_double_application_rejected(self):
        t = MiTensors(relevance=np.array([0.1, 0.9]), redundancy={}, triadic={})
        c = build_coefficients(t, 1.0, 1.0, 1.0)
        once = apply_penalty(c, t.relevance, 0.5, 0.2, 2.0)
        with pytest.raises(UsageError):
            apply_penalty(once, t.relevance, 0.5, 0.2, 2.0)

    def test_parameter_validation(self):
        t = MiTensors(relevance=np.array([0.1]), redundancy={}, triadic={})
        c = build_coefficients(t, 1.0, 1.0, 1.0)
        with pytest.raises(UsageError):
            apply_penalty(c, t.relevance, -0.1, 0.2, 2.0)
        with pytest.raises(UsageError):
            apply_penalty(c, t.relevance, float("inf"), 0.2, 2.0)
        with pytest.raises(UsageError):
            apply_penalty(c, t.relevance, 0.5, 0.2, float("nan"))
        with pytest.raises(UsageError):
            apply_penalty(c, t.relevance, 0.5, 0.0, 2.0)
        with pytest.raises(UsageError):
            apply_penalty(c, t.relevance, 0.5, 0.2, 0.5)


class TestEnergy:
    def test_two_spin_example(self):
        c = HuboCoefficients(n=2, h=np.array([1.0, 0.5]), j_terms={(0, 1): 0.3}, k_terms={})
        assert energy(c, SpinConfig((-1, -1))) == -1.2
        assert energy(c, SpinConfig((1, 1))) == 1.8

    def test_three_body_sign_example(self):
        c = HuboCoefficients(n=3, h=np.zeros(3), j_terms={}, k_terms={(0, 1, 2): -0.4})
        assert energy(c, SpinConfig((-1, -1, -1))) == pytest.approx(0.4, abs=1e-15)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(31)
        for trial in range(100):
            n = int(rng.integers(1, 11))
            c = random_instance(trial, n)
            spins = rng.choice([-1, 1], n)
            assert energy(c, spins) == pytest.approx(naive_energy(c, spins), abs=1e-12)

    def test_energy_many_bitwise_equal(self):
        c = random_instance(77, 8)
        rng = np.random.default_rng(0)
        spins = rng.choice([-1, 1], (50, 8)).astype(np.int8)
        batch = energy_many(c, spins)
        for row in range(50):
            assert batch[row] == energy(c, spins[row])

    @pytest.mark.parametrize("block", [hubo._STATE_BLOCK, 64, 7])
    def test_all_states_bitwise_equal(self, monkeypatch, block):
        # Block 7 splits the 64 states into ten blocks, the last one short.
        monkeypatch.setattr(hubo, "_STATE_BLOCK", block)
        blocks = []
        spins_of = hubo.states_to_spins
        monkeypatch.setattr(
            hubo, "states_to_spins", lambda s, n: blocks.append(s) or spins_of(s, n)
        )
        c = random_instance(13, 6)
        energies = energies_all_states(c)
        assert len(blocks) == -(-64 // block)
        assert np.concatenate(blocks).tolist() == list(range(64))
        for s in range(64):
            assert energies[s] == energy(c, states_to_spins([s], 6)[0])

    def test_all_states_cap_is_capability_error_before_allocation(self, monkeypatch):
        # Same cap and exit code (4) as exhaustive_solve; nothing is enumerated.
        def refuse(*args):
            raise AssertionError("states enumerated past the cap")

        monkeypatch.setattr(hubo, "states_to_spins", refuse)
        c = HuboCoefficients(n=25, h=np.zeros(25), j_terms={}, k_terms={})
        with pytest.raises(CapabilityError) as info:
            energies_all_states(c)
        assert info.value.exit_code == 4

    def test_dimension_mismatch(self):
        c = random_instance(0, 4)
        with pytest.raises(UsageError):
            energy(c, (1, -1))

    def test_all_selected_ground_state_without_suppressors(self):
        # with w2=w3=lambda=0-equivalents and all h > 0, all-selected wins
        rng = np.random.default_rng(41)
        for n in (3, 8, 12):
            c = HuboCoefficients(n=n, h=rng.uniform(0.05, 1.0, n), j_terms={}, k_terms={})
            energies = energies_all_states(c)
            best = int(np.argmin(energies))
            assert states_to_spins([best], n)[0].tolist() == [-1] * n


class TestLocalFields:
    def test_dense_couplings_are_symmetric_views(self):
        c = random_instance(14, 5)
        jmat, kcube = dense_couplings(c)
        assert np.array_equal(jmat, jmat.T)
        for perm in itertools.permutations(range(3)):
            assert np.array_equal(kcube, kcube.transpose(perm))
        assert jmat[1, 3] == c.j_terms[(1, 3)]
        assert kcube[4, 0, 2] == c.k_terms[(0, 2, 4)]
        assert kcube[2, 2, 0] == 0.0

    def test_fields_give_single_flip_energy_changes(self):
        c = random_instance(15, 7)
        spins = np.random.default_rng(2).choice([-1, 1], (30, 7)).astype(np.int8)
        fields = local_fields(c.h, *dense_couplings(c), spins)
        base = energy_many(c, spins)
        for i in range(7):
            flipped = spins.copy()
            flipped[:, i] = -flipped[:, i]
            change = energy_many(c, flipped) - base
            assert np.allclose(-2.0 * spins[:, i] * fields[:, i], change, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("n", [5, 12, 32])
    def test_gemms_fit_one_core_and_keep_the_unblocked_bits(self, monkeypatch, n):
        # Two blocks and a 1-row tail, which the second block must fold in.
        rows = (1 << 18) // (n * n)
        c = random_instance(60 + n, n)
        jmat, kcube = dense_couplings(c)
        spins = np.random.default_rng(n).choice([-1.0, 1.0], (2 * rows + 1, n))
        sizes = []
        matmul = np.matmul

        def spy(a, b, out):
            sizes.append(len(a))
            assert b.shape == (n, n)
            return matmul(a, b, out=out)

        monkeypatch.setattr(np, "matmul", spy)
        fields = local_fields(c.h, jmat, kcube, spins)
        monkeypatch.undo()
        assert sizes == [rows, rows - 1, 2] * n
        assert max(sizes) * n * n <= 1 << 18 and min(sizes) >= 2
        expected = np.empty_like(spins)
        for a in range(n):
            expected[:, a] = c.h[a] + spins @ jmat[a] + 0.5 * np.einsum(
                "sj,sj->s", spins @ kcube[a], spins
            )
        assert fields.tobytes() == expected.tobytes()


class TestCoefficientIo:
    def test_round_trip(self, tmp_path):
        c = random_instance(55, 5)
        path = tmp_path / "coeffs.json"
        save_coefficients(
            path, c, feature_names=("a", "b", "c", "d", "e"), source_indices=(0, 2, 4, 6, 8)
        )
        loaded, extras = load_coefficients(path)
        assert loaded.n == c.n
        assert np.array_equal(loaded.h, c.h)
        assert loaded.j_terms == c.j_terms
        assert loaded.k_terms == c.k_terms
        assert extras["feature_names"] == ["a", "b", "c", "d", "e"]
        assert extras["source_indices"] == [0, 2, 4, 6, 8]

    def test_unknown_schema_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"schema": "nope/0"}')
        with pytest.raises(DataError):
            load_coefficients(path)

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda doc: doc.pop("penalty"),
            lambda doc: doc.pop("n"),
            lambda doc: doc["penalty"].pop("tau"),
            lambda doc: doc.__setitem__("n", 4),
            lambda doc: doc.__setitem__("weights", [1, 2, 3]),
            lambda doc: doc["J"][0].pop(),
            lambda doc: doc["K"][0].append(0.1),
            lambda doc: doc["J"][0].__setitem__(1, 7),
            lambda doc: doc["h"].__setitem__(0, "x"),
            lambda doc: doc["h"].__setitem__(0, float("nan")),
            lambda doc: doc["J"][0].__setitem__(2, float("inf")),
            lambda doc: doc["K"][0].__setitem__(3, float("-inf")),
            lambda doc: doc.__setitem__("constant", float("nan")),
        ],
    )
    def test_malformed_file_is_data_error(self, tmp_path, corrupt):
        path = tmp_path / "coeffs.json"
        save_coefficients(path, random_instance(56, 3))
        doc = json.loads(path.read_text())
        corrupt(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError):
            load_coefficients(path)

    def test_bad_keys_rejected(self):
        with pytest.raises(UsageError):
            HuboCoefficients(n=3, h=np.zeros(3), j_terms={(1, 1): 0.2}, k_terms={})
        with pytest.raises(UsageError):
            HuboCoefficients(n=3, h=np.zeros(3), j_terms={}, k_terms={(0, 1, 3): 0.2})

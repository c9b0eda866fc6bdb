import itertools
import json

import numpy as np
import pytest

from conftest import naive_energy, random_instance, term_dict
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
from hubofs.mi import TENSOR_SCHEMA, MiTensors, load_tensors, save_tensors


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

    def test_nesting(self):
        rng = np.random.default_rng(0)
        rel = rng.uniform(0, 1, 12)
        for k in range(1, 12):
            assert set(preselect_top_k(rel, k)) <= set(preselect_top_k(rel, k + 1))


class TestNormalizeGlobal:
    def test_min_max_endpoints(self):
        t = MiTensors.from_terms(relevance=np.array([0.2, 0.6, 1.0]), redundancy={}, triadic={})
        norm = normalize_global(t)
        assert norm.relevance == pytest.approx([0.0, 0.5, 1.0], abs=1e-12)

    def test_values_spread_across_families(self):
        t = MiTensors.from_terms(
            relevance=np.array([0.2, 0.4, 0.4]),
            redundancy={(0, 1): 0.6},
            triadic={(0, 1, 2): 1.0},
        )
        norm = normalize_global(t)
        assert norm.relevance[0] == 0.0
        assert term_dict(norm.pairs, norm.redundancy)[(0, 1)] == pytest.approx(0.5, abs=1e-12)
        assert term_dict(norm.triples, norm.triadic)[(0, 1, 2)] == 1.0

    def test_degenerate_all_equal(self):
        t = MiTensors.from_terms(
            relevance=np.array([0.7, 0.7]), redundancy={(0, 1): 0.7}, triadic={}
        )
        with pytest.warns(DegenerateNormalizationWarning):
            norm = normalize_global(t)
        assert list(norm.relevance) == [0.0, 0.0]
        assert term_dict(norm.pairs, norm.redundancy)[(0, 1)] == 0.0

    def test_idempotent(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            t = MiTensors.from_terms(
                relevance=rng.uniform(0, 3, 4),
                redundancy={(0, 1): rng.uniform(0, 3), (2, 3): rng.uniform(0, 3)},
                triadic={(0, 1, 2): rng.uniform(0, 3)},
            )
            once = normalize_global(t)
            twice = normalize_global(once)
            assert np.array_equal(once.relevance, twice.relevance)
            for name in ("pairs", "redundancy", "triples", "triadic"):
                assert np.array_equal(getattr(once, name), getattr(twice, name))


class TestBuildCoefficients:
    def test_scaling(self):
        t = MiTensors.from_terms(relevance=np.array([1.0]), redundancy={}, triadic={})
        c = build_coefficients(t, 2.0, 0.5, 0.3)
        assert list(c.h) == [2.0]
        assert c.constant == 0.0
        assert not c.penalty_applied

    def test_three_body_sign(self):
        t = MiTensors.from_terms(
            relevance=np.zeros(3), redundancy={}, triadic={(0, 1, 2): 1.0}
        )
        c = build_coefficients(t, 1.0, 1.0, 0.5)
        assert c.k_terms[(0, 1, 2)] == -0.5

    def test_zero_inputs(self):
        t = MiTensors.from_terms(relevance=np.zeros(2), redundancy={(0, 1): 0.0}, triadic={})
        c = build_coefficients(t, 1.0, 0.5, 0.3)
        assert list(c.h) == [0.0, 0.0]
        assert c.j_terms[(0, 1)] == 0.0

    def test_bounds_after_build(self):
        rng = np.random.default_rng(23)
        t = MiTensors.from_terms(
            relevance=rng.uniform(0, 1, 4),
            redundancy={(i, j): float(rng.uniform(0, 1)) for i in range(4) for j in range(i + 1, 4)},
            triadic={(0, 1, 2): 0.9, (1, 2, 3): 0.1},
        )
        c = build_coefficients(t, 1.0, 0.5, 0.3)
        assert all(0.0 <= v <= 1.0 for v in c.h)
        assert all(0.0 <= v <= 0.5 for v in c.j_terms.values())
        assert all(-0.3 <= v <= 0.0 for v in c.k_terms.values())

    def test_rejects_bad_weights_and_unnormalized(self):
        t = MiTensors.from_terms(relevance=np.array([0.5]), redundancy={}, triadic={})
        with pytest.raises(UsageError):
            build_coefficients(t, 0.0, 1.0, 1.0)
        with pytest.raises(UsageError):
            build_coefficients(t, float("nan"), 1.0, 1.0)
        t_bad = MiTensors.from_terms(relevance=np.array([1.5]), redundancy={}, triadic={})
        with pytest.raises(UsageError):
            build_coefficients(t_bad, 1.0, 1.0, 1.0)


class TestPenalty:
    def test_hinge_boundary_values(self):
        lam, tau = 0.8, 0.2
        assert hinge_delta(tau, lam, tau, 2.0) == 0.0
        assert hinge_delta(0.0, lam, tau, 2.0) == -lam
        assert hinge_delta(tau / 2, lam, tau, 2.0) == -lam / 4

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0, 4.0, 5.0, 7.0, 10.0, 17.0, 2.5])
    def test_power_is_bitwise_the_formula(self, p):
        lam, tau = 0.7, 0.3
        for c in np.linspace(0.0, tau, 1000, endpoint=False).tolist():
            ratio = (tau - c) / tau
            expected = -lam * (ratio * ratio) if p == 2.0 else -lam * ratio**p
            assert hinge_delta(c, lam, tau, p) == expected

    def test_monotone_in_relevance(self):
        lam, tau, p = 0.5, 0.2, 2.0
        grid = np.linspace(0.0, tau, 1000, endpoint=False)
        deltas = [hinge_delta(float(x), lam, tau, p) for x in grid]
        assert all(d1 < d2 or d2 == 0.0 for d1, d2 in zip(deltas, deltas[1:]))
        assert all(d <= 0.0 for d in deltas)

    def test_apply_only_touches_h(self):
        t = MiTensors.from_terms(
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
        t = MiTensors.from_terms(relevance=np.array([0.1, 0.9]), redundancy={}, triadic={})
        c = build_coefficients(t, 1.0, 1.0, 1.0)
        once = apply_penalty(c, t.relevance, 0.5, 0.2, 2.0)
        with pytest.raises(UsageError):
            apply_penalty(once, t.relevance, 0.5, 0.2, 2.0)

    def test_parameter_validation(self):
        t = MiTensors.from_terms(relevance=np.array([0.1]), redundancy={}, triadic={})
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


def per_term_energies(c: HuboCoefficients, spins: np.ndarray) -> np.ndarray:
    """The column-per-term evaluator: every term's product formed from spin columns."""
    acc = np.zeros(spins.shape[0], dtype=np.float64)
    for i, v in enumerate(c.h.tolist()):
        acc += v * spins[:, i]
    for (i, j), v in zip(c.pairs.tolist(), c.j.tolist()):
        acc += v * (spins[:, i] * spins[:, j])
    for (i, j, k), v in zip(c.triples.tolist(), c.k.tolist()):
        acc += v * (spins[:, i] * spins[:, j] * spins[:, k])
    return acc + c.constant


class TestEnergy:
    def test_two_spin_example(self):
        c = HuboCoefficients.from_terms(
            n=2, h=np.array([1.0, 0.5]), j_terms={(0, 1): 0.3}, k_terms={}
        )
        assert energy(c, SpinConfig((-1, -1))) == -1.2
        assert energy(c, SpinConfig((1, 1))) == 1.8

    def test_three_body_sign_example(self):
        c = HuboCoefficients.from_terms(n=3, h=np.zeros(3), j_terms={}, k_terms={(0, 1, 2): -0.4})
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

    @pytest.mark.parametrize("dtype", [np.int8, np.int64, np.float64])
    def test_spin_major_rows_keep_the_per_term_bits(self, dtype):
        # Sparse families, a family left empty, pairs without triples, and values
        # other than +-1 (int8 products wrap) against the column-per-term loop.
        rng = np.random.default_rng(np.dtype(dtype).num)
        for n in range(1, 13):
            for density, constant in ((0.0, -0.0), (0.3, 0.25), (1.0, -0.0)):
                c = HuboCoefficients.from_terms(
                    n=n,
                    h=rng.uniform(-1, 1, n),
                    j_terms={p: rng.uniform(-1, 1) for p in itertools.combinations(range(n), 2)
                             if rng.random() < density},
                    k_terms={t: rng.uniform(-1, 1) for t in itertools.combinations(range(n), 3)
                             if rng.random() < density},
                    constant=constant,
                )
                for rows in (1, 40):
                    if dtype == np.float64:
                        spins = 3.0 * rng.standard_normal((rows, n))
                    else:
                        spins = rng.integers(-100, 101, (rows, n)).astype(dtype)
                    spins[0] = rng.choice([-1, 1], n)
                    assert energy_many(c, spins).tobytes() == per_term_energies(c, spins).tobytes()

    def test_consecutive_triples_of_other_pairs(self):
        # (0, 1, 2) -> (0, 2, 3): k rises by one across a change of pair;
        # (0, 2, 3) -> (1, 2, 3): only i changes.
        c = HuboCoefficients.from_terms(
            n=4, h=np.zeros(4), j_terms={},
            k_terms={(0, 1, 2): 0.3, (0, 2, 3): -0.7, (1, 2, 3): 1.9},
        )
        spins = np.array(list(itertools.product([-1, 1], repeat=4)), dtype=np.int8)
        assert energy_many(c, spins).tobytes() == per_term_energies(c, spins).tobytes()

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
        c = HuboCoefficients.from_terms(n=25, h=np.zeros(25), j_terms={}, k_terms={})
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
            h = rng.uniform(0.05, 1.0, n)
            c = HuboCoefficients.from_terms(n=n, h=h, j_terms={}, k_terms={})
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
            lambda doc: doc["J"].append([0, 1, 9.0]),
            lambda doc: doc["K"].append(list(doc["K"][0])),
            lambda doc: doc["J"][0].__setitem__(1, 1.5),
            lambda doc: doc["J"][0].__setitem__(1, True),
            lambda doc: doc["J"][0].__setitem__(1, "1"),
            lambda doc: doc["K"][0].__setitem__(0, 0.0),
            lambda doc: doc.__setitem__("n", 3.0),
            lambda doc: doc["J"][0].__setitem__(2, "0.5"),
            lambda doc: doc["h"].__setitem__(0, "0.5"),
            lambda doc: doc.__setitem__("constant", "0"),
            lambda doc: doc["weights"].__setitem__("w1", "x"),
            lambda doc: doc["weights"].__setitem__("w2", float("nan")),
            lambda doc: doc["penalty"].__setitem__("tau", float("nan")),
            lambda doc: doc["penalty"].__setitem__("lambda", "0.5"),
            lambda doc: doc["penalty"].__setitem__("p", True),
            lambda doc: doc["penalty"].__setitem__("applied", "no"),
            lambda doc: doc["penalty"].__setitem__("applied", 1),
            lambda doc: doc.__setitem__("feature_names", ["a", "b"]),
            lambda doc: doc.__setitem__("feature_names", ["a", "b", 3]),
            lambda doc: doc.__setitem__("feature_names", "abc"),
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
            HuboCoefficients.from_terms(n=3, h=np.zeros(3), j_terms={(1, 1): 0.2}, k_terms={})
        with pytest.raises(UsageError):
            HuboCoefficients.from_terms(n=3, h=np.zeros(3), j_terms={}, k_terms={(0, 1, 3): 0.2})
        with pytest.raises(UsageError):
            HuboCoefficients.from_terms(n=0, h=np.zeros(0), j_terms={}, k_terms={})


# The dict-of-tuples code that the array layout replaced, kept as references.
def dict_normalize(relevance, redundancy, triadic):
    values = np.concatenate([relevance, list(redundancy.values()), list(triadic.values())])
    lo, hi = float(values.min()), float(values.max())
    if hi == lo:
        scale = lambda v: 0.0  # noqa: E731
    else:
        span = hi - lo
        scale = lambda v: (v - lo) / span  # noqa: E731
    return (
        np.array([scale(float(v)) for v in relevance]),
        {key: scale(v) for key, v in redundancy.items()},
        {key: scale(v) for key, v in triadic.items()},
    )


def dict_build(relevance, redundancy, triadic, w1, w2, w3):
    return (
        np.array([w1 * float(v) for v in relevance]),
        {key: w2 * v for key, v in redundancy.items()},
        {key: -w3 * v for key, v in triadic.items()},
    )


def dict_penalty(h, relevance, lam, tau, p):
    return np.array(
        [float(h[i]) + hinge_delta(float(relevance[i]), lam, tau, p) for i in range(len(h))]
    )


def dict_dense(n, j_terms, k_terms):
    jmat = np.zeros((n, n))
    if j_terms:
        a, b = np.array(sorted(j_terms)).T
        values = np.array([j_terms[key] for key in sorted(j_terms)])
        jmat[a, b] = values
        jmat[b, a] = values
    kcube = np.zeros((n, n, n))
    if k_terms:
        idx = np.array(sorted(k_terms)).T
        values = np.array([k_terms[key] for key in sorted(k_terms)])
        for p, q, r in itertools.permutations(idx):
            kcube[p, q, r] = values
    return jmat, kcube


def dict_dump(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def dict_save_coefficients(path, h, j_terms, k_terms, weights, penalty, names):
    dict_dump(path, {
        "schema": hubo.COEFF_SCHEMA,
        "n": len(h),
        "h": [float(v) for v in h],
        "J": [[i, j, j_terms[(i, j)]] for i, j in sorted(j_terms)],
        "K": [[i, j, k, k_terms[(i, j, k)]] for i, j, k in sorted(k_terms)],
        "constant": 0.0,
        "weights": {"w1": weights[0], "w2": weights[1], "w3": weights[2]},
        "penalty": {"lambda": penalty[0], "tau": penalty[1], "p": penalty[2], "applied": True},
        "feature_names": list(names),
    })


def dict_save_tensors(path, relevance, redundancy, triadic):
    dict_dump(path, {
        "schema": TENSOR_SCHEMA,
        "relevance": [float(v) for v in relevance],
        "pairs": [[i, j, float(v)] for (i, j), v in sorted(redundancy.items())],
        "triples": [[i, j, k, float(v)] for (i, j, k), v in sorted(triadic.items())],
    })


def dict_tensors(case: str, seed: int):
    """Relevance and shuffled redundancy / triadic dicts for one case."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 9))
    pairs = list(itertools.combinations(range(n), 2))
    triples = list(itertools.combinations(range(n), 3))
    if case == "sparse":
        pairs = [key for key in pairs if rng.random() < 0.4]
        triples = [key for key in triples if rng.random() < 0.3]
    elif case == "empty":
        pairs, triples = [], []

    def draw(size):
        return np.full(size, 0.7) if case == "all_equal" else rng.uniform(0.0, 2.5, size)

    rng.shuffle(pairs)
    rng.shuffle(triples)
    redundancy = dict(zip(pairs, draw(len(pairs)).tolist()))
    triadic = dict(zip(triples, draw(len(triples)).tolist()))
    return draw(n), redundancy, triadic


def sorted_arrays(terms, order):
    keys = sorted(terms)
    return np.array(keys, dtype=np.int64).reshape(-1, order), np.array([terms[k] for k in keys])


def assert_same_bits(got: np.ndarray, expected: np.ndarray):
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


@pytest.mark.filterwarnings("ignore::hubofs.hubo.DegenerateNormalizationWarning")
@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("case", ["complete", "sparse", "empty", "all_equal"])
class TestArraysMatchDictCode:
    def test_pipeline_bits_and_file_bytes(self, tmp_path, case, seed):
        weights, penalty = (1.0, 0.5, 0.3), (0.5, 0.2, 2.0)
        relevance, redundancy, triadic = dict_tensors(case, seed)
        t = MiTensors.from_terms(relevance, redundancy, triadic)

        ref_rel, ref_red, ref_tri = dict_normalize(relevance, redundancy, triadic)
        norm = normalize_global(t)
        assert_same_bits(norm.relevance, ref_rel)
        for index, values, terms, order in (
            (norm.pairs, norm.redundancy, ref_red, 2),
            (norm.triples, norm.triadic, ref_tri, 3),
        ):
            ref_index, ref_values = sorted_arrays(terms, order)
            assert_same_bits(index, ref_index)
            assert_same_bits(values, ref_values)

        ref_h, ref_j, ref_k = dict_build(ref_rel, ref_red, ref_tri, *weights)
        c = build_coefficients(norm, *weights)
        assert_same_bits(c.h, ref_h)
        for got, terms, order in ((c.j, ref_j, 2), (c.k, ref_k, 3)):
            assert_same_bits(got, sorted_arrays(terms, order)[1])
        assert c.pairs is norm.pairs and c.triples is norm.triples

        ref_h = dict_penalty(ref_h, ref_rel, *penalty)
        c = apply_penalty(c, norm.relevance, *penalty)
        assert_same_bits(c.h, ref_h)
        for got, expected in zip(dense_couplings(c), dict_dense(c.n, ref_j, ref_k)):
            assert_same_bits(got, expected)

        names = [f"f{i}" for i in range(c.n)]
        save_coefficients(tmp_path / "c.json", c, feature_names=names)
        dict_save_coefficients(
            tmp_path / "c_ref.json", ref_h, ref_j, ref_k, weights, penalty, names
        )
        assert (tmp_path / "c.json").read_bytes() == (tmp_path / "c_ref.json").read_bytes()
        save_tensors(tmp_path / "t.json", t)
        dict_save_tensors(tmp_path / "t_ref.json", relevance, redundancy, triadic)
        assert (tmp_path / "t.json").read_bytes() == (tmp_path / "t_ref.json").read_bytes()

    def test_shuffled_rows_round_trip_to_the_same_bytes(self, tmp_path, case, seed):
        relevance, redundancy, triadic = dict_tensors(case, seed)
        ref_rel, ref_red, ref_tri = dict_normalize(relevance, redundancy, triadic)
        ref_h, ref_j, ref_k = dict_build(ref_rel, ref_red, ref_tri, 1.0, 0.5, 0.3)
        ref_h = dict_penalty(ref_h, ref_rel, 0.5, 0.2, 2.0)
        names = [f"f{i}" for i in range(len(ref_h))]
        dict_save_coefficients(
            tmp_path / "c_ref", ref_h, ref_j, ref_k, (1.0, 0.5, 0.3), (0.5, 0.2, 2.0), names
        )
        dict_save_tensors(tmp_path / "t_ref", relevance, redundancy, triadic)
        rng = np.random.default_rng(100 + seed)
        def save_loaded_coefficients(path, loaded):
            save_coefficients(path, loaded[0], **loaded[1])

        for kind, rows, load, save in (
            ("c", ("J", "K"), load_coefficients, save_loaded_coefficients),
            ("t", ("pairs", "triples"), load_tensors, save_tensors),
        ):
            doc = json.loads((tmp_path / f"{kind}_ref").read_text())
            for key in rows:
                rng.shuffle(doc[key])
            dict_dump(tmp_path / f"{kind}_shuffled", doc)
            once = tmp_path / f"{kind}_once"
            save(once, load(tmp_path / f"{kind}_shuffled"))
            assert once.read_bytes() == (tmp_path / f"{kind}_ref").read_bytes()
            save(tmp_path / f"{kind}_twice", load(once))
            assert (tmp_path / f"{kind}_twice").read_bytes() == once.read_bytes()

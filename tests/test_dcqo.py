import math

import numpy as np
import pytest

from conftest import random_instance
from hubofs import dcqo
from hubofs.dcqo import (
    MAX_STEPS,
    CdSchedule,
    _check_norm,
    _gathered_fields,
    _rotate,
    build_schedule,
    cd_amplitude,
    evolve_and_sample,
    evolve_statevector,
    gate_counts,
    schedule_lambda,
    schedule_lambda_dot,
)
from hubofs.errors import CapabilityError, HubofsError, UsageError
from hubofs.hubo import (
    HuboCoefficients,
    dense_couplings,
    energies_all_states,
    local_fields,
)
from hubofs.samplers import _aggregate, save_samples


def zero_instance(n):
    return HuboCoefficients.from_terms(n=n, h=np.zeros(n), j_terms={}, k_terms={})


def basis_spins(n):
    """(2^n, n) spins of every basis state; feature 0 is the most significant bit."""
    return 1 - 2 * ((np.arange(1 << n)[:, None] >> np.arange(n - 1, -1, -1)) & 1)


def statevector_probe(c, sched, mode="full"):
    """Exact diagnostics: (overlap with the ground manifold, <H>)."""
    energies = energies_all_states(c)
    amplitudes, _ = evolve_statevector(c, sched, mode)
    probs = np.abs(amplitudes) ** 2
    e_min = float(energies.min())
    manifold = energies <= e_min + 1e-9 * max(1.0, abs(e_min))
    return float(probs[manifold].sum()), float(probs @ energies)


def per_term_evolution(c, sched, mode):
    """Reference circuit with one gate per term, the CD terms grouped by their Y qubit."""
    n, size = c.n, 1 << c.n
    z = basis_spins(n)
    state = np.full(size, 1 / np.sqrt(size), dtype=complex)
    terms = [((i,), float(c.h[i])) for i in range(n)]
    terms += sorted(c.j_terms.items()) + sorted(c.k_terms.items())
    cd_terms = [
        (q, [t for t in qubits if t != q], v) for q in range(n) for qubits, v in terms if q in qubits
    ]
    for lam, ldot in zip(sched.lambda_values, sched.lambda_dot_values):
        if mode == "full":
            half = -(1 - lam) * sched.dt
            for q in range(n):
                partner = state[np.arange(size) ^ (1 << (n - 1 - q))]
                state = np.cos(half) * state - 1j * np.sin(half) * partner
            for qubits, v in terms:
                state = state * np.exp(-1j * lam * sched.dt * v * np.prod(z[:, list(qubits)], 1))
        theta_cd = -4 * sched.dt * ldot * cd_amplitude(lam)
        for q, others, v in cd_terms:
            half = 0.5 * theta_cd * v * np.prod(z[:, others], 1)
            partner = state[np.arange(size) ^ (1 << (n - 1 - q))]
            state = np.cos(half) * state - z[:, q] * np.sin(half) * partner
    return state


class TestSchedule:
    def test_midpoint_value(self):
        assert schedule_lambda(5.0, 10.0) == pytest.approx(0.5, abs=1e-12)

    def test_single_step_midpoint(self):
        sched = build_schedule(1, 10.0)
        assert sched.lambda_values[0] == pytest.approx(0.5, abs=1e-12)

    def test_derivative_vanishes_at_boundaries(self):
        assert schedule_lambda_dot(0.0, 10.0) == 0.0
        assert schedule_lambda_dot(10.0, 10.0) == pytest.approx(0.0, abs=1e-12)

    def test_values_monotone_in_unit_interval(self):
        sched = build_schedule(64, 7.0)
        vals = sched.lambda_values
        assert np.all(vals >= 0.0) and np.all(vals <= 1.0)
        assert np.all(np.diff(vals) >= 0.0)
        assert vals[0] < 0.01 and vals[-1] > 0.99

    def test_validation(self):
        with pytest.raises(UsageError):
            build_schedule(0, 1.0)
        with pytest.raises(UsageError):
            build_schedule(10, 0.0)
        with pytest.raises(UsageError):
            build_schedule(10, float("nan"))

    def test_total_time_whose_rate_overflows_refused(self):
        # pi**2 / (4 T) overflows to inf below T of about 2.5e-308.
        with pytest.raises(UsageError, match="dl/dt overflows") as info:
            build_schedule(10, 1e-310)
        assert info.value.exit_code == 2
        assert np.isfinite(build_schedule(10, 1e-300).lambda_dot_values).all()

    def test_total_time_whose_arguments_overflow_refused(self):
        # pi * t overflows past T of about 5.7e307, and math.sin(inf) raises ValueError.
        with pytest.raises(UsageError, match=r"pi \* total_time finite") as info:
            build_schedule(2, 1e308)
        assert info.value.exit_code == 2
        assert np.isfinite(build_schedule(2, 5e307).lambda_values).all()

    def test_steps_past_the_cap_refused_before_the_schedule(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("schedule built past the cap")

        monkeypatch.setattr(dcqo, "schedule_lambda", refuse)
        with pytest.raises(CapabilityError) as info:
            build_schedule(MAX_STEPS + 1, 1.0)
        assert info.value.exit_code == 4

    def test_steps_at_the_cap_build(self):
        assert build_schedule(MAX_STEPS, 1.0).lambda_values.shape == (MAX_STEPS,)

    def test_steps_and_dt_follow_the_arrays(self):
        sched = build_schedule(12, 3.0)
        assert sched.steps == 12
        assert sched.dt == 3.0 / 12

    @pytest.mark.parametrize(
        "lam,lam_dot",
        [
            (np.zeros(3), np.zeros(4)),
            (np.zeros((2, 3)), np.zeros((2, 3))),
            (np.zeros(3), np.zeros((3, 1))),
            (np.zeros(0), np.zeros(0)),
        ],
        ids=["unequal_length", "two_dimensional", "unequal_rank", "empty"],
    )
    def test_arrays_of_other_shapes_refused(self, lam, lam_dot):
        with pytest.raises(UsageError):
            CdSchedule(lambda_values=lam, lambda_dot_values=lam_dot, total_time=1.0)


class TestEvolution:
    def test_zero_hamiltonian_stays_uniform(self):
        c = zero_instance(4)
        sv, drift = evolve_statevector(c, build_schedule(30, 5.0))
        assert drift < 1e-9
        assert np.allclose(np.abs(sv) ** 2, 1 / 16, atol=1e-12)
        res = evolve_and_sample(c, build_schedule(30, 5.0), shots=4096, seed=1)
        freq = np.zeros(4)
        for e in res.entries:
            freq += e.count * (np.array(e.spins.spins) == -1)
        freq /= 4096
        assert np.all(np.abs(freq - 0.5) < 3.5 * 0.5 / np.sqrt(4096))

    def test_single_qubit_adiabatic_success(self):
        c = HuboCoefficients.from_terms(n=1, h=np.array([1.0]), j_terms={}, k_terms={})
        sv, _ = evolve_statevector(c, build_schedule(50, 10.0))
        # x=1 (selected, Z=-1) is the ground state of +Z-field
        assert (np.abs(sv) ** 2)[1] > 0.9

    def test_matches_exact_time_ordered_propagator(self):
        h = 1.0
        X = np.array([[0, 1], [1, 0]], dtype=complex)
        Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
        Z = np.array([[1, 0], [0, -1]], dtype=complex)
        total_time, substeps = 10.0, 40000
        state = np.array([1, 1], dtype=complex) / np.sqrt(2)
        dt = total_time / substeps
        for m in range(substeps):
            t = (m + 0.5) * dt
            lam = schedule_lambda(t, total_time)
            ldot = schedule_lambda_dot(t, total_time)
            ham = -(1 - lam) * X + lam * h * Z - 2.0 * cd_amplitude(lam) * ldot * h * Y
            w = float(np.linalg.norm([(1 - lam), 2.0 * cd_amplitude(lam) * ldot * h, lam * h]))
            unitary = np.cos(w * dt) * np.eye(2) - 1j * np.sin(w * dt) * (ham / w)
            state = unitary @ state
        oracle = np.abs(state) ** 2
        c = HuboCoefficients.from_terms(n=1, h=np.array([h]), j_terms={}, k_terms={})
        sv, _ = evolve_statevector(c, build_schedule(800, total_time))
        assert np.abs(np.abs(sv) ** 2 - oracle).max() < 5e-4

    def test_two_qubit_matches_exact_time_ordered_propagator(self):
        h, coupling = np.array([0.7, -0.4]), 0.5
        one = np.eye(2)
        X = np.array([[0, 1], [1, 0]], dtype=complex)
        Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
        Z = np.array([[1, 0], [0, -1]], dtype=complex)
        # Qubit 0 is the most significant bit of the basis index.
        driver = np.kron(X, one) + np.kron(one, X)
        diagonal = h[0] * np.kron(Z, one) + h[1] * np.kron(one, Z) + coupling * np.kron(Z, Z)
        cd = (
            h[0] * np.kron(Y, one)
            + h[1] * np.kron(one, Y)
            + coupling * (np.kron(Y, Z) + np.kron(Z, Y))
        )
        total_time, substeps = 10.0, 4000
        state = np.full(4, 0.5, dtype=complex)
        dt = total_time / substeps
        for m in range(substeps):
            t = (m + 0.5) * dt
            lam = schedule_lambda(t, total_time)
            ldot = schedule_lambda_dot(t, total_time)
            ham = -(1 - lam) * driver + lam * diagonal - 2.0 * cd_amplitude(lam) * ldot * cd
            w, v = np.linalg.eigh(ham)
            state = v @ (np.exp(-1j * w * dt) * (v.conj().T @ state))
        oracle = np.abs(state) ** 2
        c = HuboCoefficients.from_terms(n=2, h=h, j_terms={(0, 1): coupling}, k_terms={})
        sv, _ = evolve_statevector(c, build_schedule(800, total_time))
        # First-order Trotter error at 800 steps is ~9e-4 in either CD order; a
        # flipped sign of Y_0 Z_1 + Z_0 Y_1 moves the probabilities by ~0.07.
        assert np.abs(np.abs(sv) ** 2 - oracle).max() < 2e-3

    def test_ground_state_enhancement_n8(self):
        sched = build_schedule(50, 10.0)
        c = random_instance(1234, 8)
        res = evolve_and_sample(c, sched, shots=4096, seed=0)
        energies = energies_all_states(c)
        ground = energies.min()
        hits = sum(e.count for e in res.entries if e.energy <= ground + 1e-9)
        assert hits / 4096 >= 5 / 256

    def test_norm_preserved(self):
        c = random_instance(2, 6)
        _, drift = evolve_statevector(c, build_schedule(80, 12.0))
        assert drift < 1e-9

    def test_norm_check_rejects_nan(self):
        with pytest.raises(HubofsError):
            _check_norm(np.full(2, np.nan), 0.0)
        with pytest.raises(HubofsError):
            _check_norm(np.ones(2), 0.0)

    def test_mode_validation_and_cap(self):
        c = zero_instance(2)
        with pytest.raises(UsageError):
            evolve_statevector(c, build_schedule(5, 1.0), mode="banana")
        with pytest.raises(CapabilityError):
            evolve_statevector(zero_instance(21), build_schedule(5, 1.0))

    def test_phase_that_overflows_refused(self):
        # dt = 5e307; dt * max|E - constant| is 2e308 at |h| = 4 and 1.5e308 at |h| = 3.
        def one_spin(h):
            return HuboCoefficients.from_terms(n=1, h=np.array([h]), j_terms={}, k_terms={})

        sched = build_schedule(1, 5e307)
        with pytest.raises(UsageError, match=r"dt \* max\|E - constant\| of one step") as info:
            evolve_statevector(one_spin(4.0), sched)
        assert info.value.exit_code == 2
        assert evolve_statevector(one_spin(3.0), sched)[1] < 1e-9

    def test_diagonal_phase_terms_commute(self):
        c = random_instance(6, 5)
        rng = np.random.default_rng(0)
        state = rng.normal(size=32) + 1j * rng.normal(size=32)
        state /= np.linalg.norm(state)
        z = basis_spins(5)
        terms = [((i,), float(c.h[i])) for i in range(5)]
        terms += [(key, v) for key, v in sorted(c.j_terms.items())]
        terms += [(key, v) for key, v in sorted(c.k_terms.items())]
        fused = state * np.exp(-1j * 0.37 * (energies_all_states(c) - c.constant))
        for order in (terms, terms[::-1]):
            work = state.copy()
            for qubits, coeff in order:
                work *= np.exp(-1j * 0.37 * coeff * np.prod(z[:, list(qubits)], axis=1))
            assert np.abs(work - fused).max() < 1e-12

    @pytest.mark.parametrize("mode", ["full", "cd_only"])
    def test_fused_step_matches_per_term_circuit(self, mode):
        rng = np.random.default_rng(3)
        for trial in range(6):
            n = int(rng.integers(3, 8))
            r = random_instance(500 + trial, n)
            c = HuboCoefficients.from_terms(
                n=n, h=r.h, j_terms=r.j_terms, k_terms=r.k_terms, constant=1.7
            )
            sched = build_schedule(int(rng.integers(1, 6)), float(rng.uniform(1.0, 8.0)))
            fused, _ = evolve_statevector(c, sched, mode)
            reference = per_term_evolution(c, sched, mode)
            assert np.abs(fused - reference).max() <= 1e-12

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_rotation_kernel_matches_both_layer_formulas(self, n):
        # References: the x- and y-rotation formulas of layers (a) and (c), inline.
        rng = np.random.default_rng(n)
        fields = _gathered_fields(energies_all_states(random_instance(40 + n, n)), n)
        for q in range(n):
            idx0, idx1 = (slice(None),) * q + (0,), (slice(None),) * q + (1,)
            start = rng.normal(size=[2] * n) + 1j * rng.normal(size=[2] * n)
            for lam, dt, lam_dot in ((0.0, 1.7, 0.0), (0.3, 0.2, 0.8), (0.9, 0.05, -2.5)):
                theta_x = -2.0 * (1.0 - lam) * dt
                cos_t, sin_t = math.cos(0.5 * theta_x), math.sin(0.5 * theta_x)
                x_ref = start.copy()
                a0, a1 = x_ref[idx0].copy(), x_ref[idx1]
                x_ref[idx0] = cos_t * a0 - 1j * sin_t * a1
                x_ref[idx1] = cos_t * a1 - 1j * sin_t * a0
                half = -2.0 * dt * lam_dot * cd_amplitude(lam) * fields[q]
                cos_y, sin_y = np.cos(half), np.sin(half)
                y_ref = start.copy()
                a0, a1 = y_ref[idx0].copy(), y_ref[idx1]
                y_ref[idx0] = cos_y * a0 - sin_y * a1
                y_ref[idx1] = cos_y * a1 + sin_y * a0

                half_x = -(1.0 - lam) * dt
                sin_x = 1j * math.sin(half_x)
                x_got, y_got = start.copy(), start.copy()
                _rotate(x_got, q, math.cos(half_x), sin_x, -sin_x)
                _rotate(y_got, q, cos_y, sin_y, sin_y)
                assert x_got.tobytes() == x_ref.tobytes()
                assert y_got.tobytes() == y_ref.tobytes()

    def test_gathered_fields_match_local_fields(self):
        for n in (1, 3, 6, 8):
            c = random_instance(20 + n, n)
            spins = basis_spins(n)
            expected = local_fields(c.h, *dense_couplings(c), spins)
            fields = _gathered_fields(energies_all_states(c), n)
            assert len(fields) == n
            for q, field in enumerate(fields):
                assert field.shape == (2,) * (n - 1)
                full = np.broadcast_to(np.expand_dims(field, q), (2,) * n).reshape(-1)
                assert np.abs(full - expected[:, q]).max() <= 1e-12

    def test_shot_draws_match_per_shot_loop(self):
        c = random_instance(31, 6)
        sched = build_schedule(20, 5.0)
        shots, seed = 3000, 9
        final, _ = evolve_statevector(c, sched)
        cumulative = np.cumsum(np.abs(final) ** 2)
        words = np.random.Philox(key=seed).random_raw(shots).tolist()
        spins = np.empty((shots, c.n), dtype=np.int8)
        for s in range(shots):
            u = ((words[s] >> 11) + 1) * 2.0**-53
            idx = int(np.searchsorted(cumulative, u, side="left"))
            idx = min(idx, (1 << c.n) - 1)
            for i in range(c.n):
                spins[s, i] = 1 - 2 * ((idx >> (c.n - 1 - i)) & 1)
        expected = _aggregate(c, spins, "dcqo", seed)
        assert evolve_and_sample(c, sched, shots, seed).entries == expected.entries

    def test_cd_only_time_reversal_amplitudes(self):
        c = random_instance(8, 5)
        sched = build_schedule(40, 6.0)
        reversed_sched = CdSchedule(
            lambda_values=sched.lambda_values[::-1].copy(),
            lambda_dot_values=sched.lambda_dot_values[::-1].copy(),
            total_time=sched.total_time,
        )
        fwd, _ = evolve_statevector(c, sched, mode="cd_only")
        rev, _ = evolve_statevector(c, reversed_sched, mode="cd_only")
        assert np.abs(np.abs(fwd) - np.abs(rev)).max() < 1e-9

    def test_sampling_reproducible_byte_for_byte(self, tmp_path):
        c = random_instance(77, 5)
        sched = build_schedule(25, 5.0)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        save_samples(a, evolve_and_sample(c, sched, shots=256, seed=5))
        save_samples(b, evolve_and_sample(c, sched, shots=256, seed=5))
        assert a.read_bytes() == b.read_bytes()


class TestProbe:
    def test_zero_hamiltonian_full_overlap(self):
        overlap, expectation = statevector_probe(zero_instance(3), build_schedule(20, 4.0))
        assert overlap == pytest.approx(1.0, abs=1e-9)
        assert expectation == pytest.approx(0.0, abs=1e-12)

    def test_overlap_monotone_tail(self):
        c = HuboCoefficients.from_terms(
            n=2,
            h=np.array([0.61, -0.4]),
            j_terms={(0, 1): 0.45},
            k_terms={},
        )
        overlaps = [
            statevector_probe(c, build_schedule(200, t))[0] for t in (2.0, 4.0, 8.0, 16.0, 32.0)
        ]
        assert all(b > a for a, b in zip(overlaps, overlaps[1:]))
        assert overlaps[-1] > 0.9

    def test_variational_bound(self):
        for trial in range(5):
            c = random_instance(40 + trial, 6)
            _, expectation = statevector_probe(c, build_schedule(30, 6.0))
            assert expectation >= energies_all_states(c).min() - 1e-9


class TestGateCounts:
    def test_full_mode_formula(self):
        c = random_instance(0, 4)  # dense: 4 h, 6 J, 4 K terms
        counts = gate_counts(c, steps=10, mode="full")
        assert counts["gates_1q"] == 10 * (4 + 4 + 4)
        assert counts["gates_2q"] == 10 * (6 + 12)
        assert counts["gates_3q_diag"] == 10 * 4
        assert counts["gates_3q_cd"] == 10 * 12
        assert counts["two_qubit_gate_estimate"] == 10 * (6 + 16 + 12 + 48)

    def test_cd_only_drops_diagonal(self):
        c = random_instance(0, 4)
        counts = gate_counts(c, steps=3, mode="cd_only")
        assert counts["gates_3q_diag"] == 0
        assert counts["gates_1q"] == 3 * 4

    def test_metadata_recorded(self):
        c = random_instance(11, 4)
        res = evolve_and_sample(c, build_schedule(12, 3.0), shots=16, seed=2)
        assert res.metadata["steps"] == "12"
        assert res.metadata["mode"] == "full"
        assert float(res.metadata["max_norm_drift"]) < 1e-9
        assert int(res.metadata["gates_3q_diag"]) == 12 * 4

import contextlib
import math
import os
import signal
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import on_grid, random_instance
from hubofs import dcqo
from hubofs.dcqo import (
    MAX_STEPS,
    CdSchedule,
    _check_norm,
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
    amplitudes, _, _ = evolve_statevector(c, sched, mode)
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
        sv, drift, _ = evolve_statevector(c, build_schedule(30, 5.0))
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
        sv, _, _ = evolve_statevector(c, build_schedule(50, 10.0))
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
        sv, _, _ = evolve_statevector(c, build_schedule(800, total_time))
        assert np.abs(np.abs(sv) ** 2 - oracle).max() < 5e-4

    def test_two_qubit_matches_exact_time_ordered_propagator(self):
        h, coupling = np.array([on_grid(0.7), on_grid(-0.4)]), 0.5
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
        sv, _, _ = evolve_statevector(c, build_schedule(800, total_time))
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
        _, drift, _ = evolve_statevector(c, build_schedule(80, 12.0))
        assert drift < 1e-9

    def test_evolution_holds_only_its_documented_arrays(self):
        # Unsplit, per basis state: the energies, the diagonal and the norm buffer (8 B
        # each), the rotation's two complex half-states (16 B), the complex half-state of
        # one qubit's CD cos and sin (8 B) and the phases, which hold W too (16 B). The
        # statevector is an anonymous mapping, which tracemalloc does not see. The slack
        # covers Python objects, the driver's Kronecker powers and ufunc buffers, made
        # small here; a stored field array (4n B per state) or a temporary made in every
        # rotation (a complex half-state is 32 KiB) exceeds it.
        n = 12
        c, sched = random_instance(7, n), build_schedule(3, 4.0)
        documented, slack = (8 + 8 + 8 + 16 + 8 + 16) << n, 40 << 10
        bufsize = np.setbufsize(64)
        try:
            evolve_statevector(c, sched)  # Python's and numpy's caches warm up here
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                evolve_statevector(c, sched)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        finally:
            np.setbufsize(bufsize)
        assert peak - start <= documented + slack

    def test_norm_check_rejects_nan(self):
        with pytest.raises(HubofsError):
            _check_norm(np.full(2, np.nan), 0.0, np.empty(2))
        with pytest.raises(HubofsError):
            _check_norm(np.ones(2), 0.0, np.empty(2))

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
                n=n, h=r.h, j_terms=r.j_terms, k_terms=r.k_terms, constant=on_grid(1.7)
            )
            sched = build_schedule(int(rng.integers(1, 6)), float(rng.uniform(1.0, 8.0)))
            fused, _, _ = evolve_statevector(c, sched, mode)
            reference = per_term_evolution(c, sched, mode)
            assert np.abs(fused - reference).max() <= 1e-12

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_rotation_kernel_matches_both_layer_formulas(self, n):
        # References: the x- and y-rotation formulas of layers (a) and (c), inline.
        rng = np.random.default_rng(n)
        e = energies_all_states(random_instance(40 + n, n)).reshape([2] * n)
        for q in range(n):
            idx0, idx1 = (slice(None),) * q + (0,), (slice(None),) * q + (1,)
            field = 0.5 * (np.take(e, 0, axis=q) - np.take(e, 1, axis=q))
            start = rng.normal(size=[2] * n) + 1j * rng.normal(size=[2] * n)
            for lam, dt, lam_dot in ((0.0, 1.7, 0.0), (0.3, 0.2, 0.8), (0.9, 0.05, -2.5)):
                theta_x = -2.0 * (1.0 - lam) * dt
                cos_t, sin_t = math.cos(0.5 * theta_x), math.sin(0.5 * theta_x)
                x_ref = start.copy()
                a0, a1 = x_ref[idx0].copy(), x_ref[idx1]
                x_ref[idx0] = cos_t * a0 - 1j * sin_t * a1
                x_ref[idx1] = cos_t * a1 - 1j * sin_t * a0
                half = -2.0 * dt * lam_dot * cd_amplitude(lam) * field
                cos_y, sin_y = np.cos(half), np.sin(half)
                y_ref = start.copy()
                a0, a1 = y_ref[idx0].copy(), y_ref[idx1]
                y_ref[idx0] = cos_y * a0 - sin_y * a1
                y_ref[idx1] = cos_y * a1 + sin_y * a0

                half_x = -(1.0 - lam) * dt
                sin_x = 1j * math.sin(half_x)
                x_got, y_got = start.copy(), start.copy()
                bufs = [np.empty([2] * (n - 1), complex) for _ in range(2)]
                _rotate(x_got, q, math.cos(half_x), sin_x, -sin_x, bufs)
                _rotate(y_got, q, cos_y, sin_y, sin_y, bufs)
                assert x_got.tobytes() == x_ref.tobytes()
                assert y_got.tobytes() == y_ref.tobytes()

    def test_cd_angles_from_w_match_cos_and_sin(self, monkeypatch):
        # Every CD rotation's cos and sin against np.cos and np.sin of half_cd F_q, F_q
        # formed as qubit 0 forms it. Qubits 1 .. n-1 take W[Z_q=+1] conj(W[Z_q=-1]), so
        # beyond 4 ulp they carry the rounding of W's two phase arguments, and the
        # reference that of its own: half an ulp of each, which grows with |E|.
        eps = np.finfo(np.float64).eps
        calls = []
        monkeypatch.setattr(dcqo, "_rotate", lambda state, axis, cos_t, sin_0, sin_1, bufs:
                            calls.append((axis, np.array(cos_t), np.array(sin_0))))
        for n in (2, 8, 12):
            c, sched = random_instance(200 + n, n), build_schedule(10, 10.0)
            d = (energies_all_states(c) - c.constant).reshape([2] * n)
            calls.clear()
            evolve_statevector(c, sched, "cd_only")
            assert [axis for axis, *_ in calls] == list(range(n)) * sched.steps
            for step, (lam, lam_dot) in enumerate(zip(sched.lambda_values, sched.lambda_dot_values)):
                half_cd = -2.0 * sched.dt * lam_dot * cd_amplitude(lam)
                for q, (_, cos_t, sin_t) in enumerate(calls[step * n : (step + 1) * n]):
                    e = np.moveaxis(d, q, 0)
                    angle = (e[0] - e[1]) * 0.5 * half_cd
                    arguments = np.abs(0.5 * half_cd * e[0]) + np.abs(0.5 * half_cd * e[1])
                    bound = eps * (4 + 0.5 * (arguments + np.abs(angle)))
                    assert np.all(np.abs(cos_t - np.cos(angle)) <= bound)
                    assert np.all(np.abs(sin_t - np.sin(angle)) <= bound)
                    if q == 0:  # np.cos and np.sin themselves
                        assert cos_t.tobytes() == np.cos(angle).tobytes()
                        assert sin_t.tobytes() == np.sin(angle).tobytes()

    @pytest.mark.parametrize("n, sizes", [(1, []), (2, [4]), (5, [32]), (6, [16, 16, 4]),
                                          (10, [16, 16, 16, 16, 4])])
    def test_fused_driver_groups_equal_one_rotation_per_qubit(self, monkeypatch, n, sizes):
        # One step whose diagonal and CD angles are 0, so only the driver layer moves the
        # state: qubit 0 through _rotate, qubits 1 .. n-1 in groups of up to four, each the
        # Kronecker power of the 2 x 2 rotation: two real 16 x 16 products on its axes, or
        # on the last axes one product with the real 2 x 2 blocks of a 2**width power.
        rng = np.random.default_rng(n)
        start = rng.normal(size=[2] * n) + 1j * rng.normal(size=[2] * n)
        start /= np.linalg.norm(start)
        sched = CdSchedule(np.array([0.3]), np.array([0.0]), total_time=1.7)
        half_x = -(1.0 - 0.3) * sched.dt
        reference = start.copy()
        bufs = [np.empty([2] * (n - 1), complex) for _ in range(2)]
        for q in range(n):
            sin_x = 1j * math.sin(half_x)
            _rotate(reference, q, math.cos(half_x), sin_x, -sin_x, bufs)
        matrices, matmul = [], np.matmul
        monkeypatch.setattr(np, "matmul", lambda a, b, out: matrices.append(  # the power's size
                            (a if b.ndim == 3 else b).shape[0]) or matmul(a, b, out=out))
        state, zeros = start.copy(), np.zeros([2] * n)
        dcqo._layers(sched, "full", (state, 0, zeros), state, range(1, n), zeros,
                     lambda: None, lambda then=None: then and then())
        monkeypatch.undo()
        assert matrices == sizes
        assert np.abs(state - reference).max() <= 1e-15

    def test_gathered_fields_match_local_fields(self, monkeypatch):
        # F_q as the Y layer reads it, at the basis states of the amplitudes the kernel
        # pairs with it: unsplit, and in both halves. Qubit 0 reads its energies view;
        # qubits 1 .. n-1 read the part's E - constant along their axes of the part,
        # through W = exp(i half_cd (E - constant) / 2).
        parts = []
        monkeypatch.setattr(dcqo, "_cpus", lambda: 2)
        monkeypatch.setattr(dcqo, "_layers", lambda sched, mode, *part: parts.append(part))
        monkeypatch.setattr(dcqo, "_fork_halves",
                            lambda name, *halves: parts.extend(h.args[2:] for h in halves))
        for n in (1, 3, 6, 8, dcqo._FORK_QUBITS):
            c = random_instance(20 + n, n)
            expected = local_fields(c.h, *dense_couplings(c), basis_spins(n))
            parts.clear()
            evolve_statevector(c, build_schedule(1, 1.0))
            assert len(parts) == (2 if n >= dcqo._FORK_QUBITS else 1)
            for h, (_, rest, *_) in enumerate(parts):  # each amplitude holds its basis state
                rest[...] = h * rest.size + np.arange(rest.size).reshape(rest.shape)
            for first, rest, axes, diagonal, *_ in parts:
                qubits = [first] + [(rest, q, np.moveaxis(diagonal, q, 0)) for q in axes]
                assert len(qubits) == n
                for q, (view, axis, e) in enumerate(qubits):
                    states = view[(slice(None),) * axis + (0, ...)].real.astype(np.int64)
                    field = 0.5 * (e[0] - e[1])
                    assert field.shape == states.shape == (2,) * (n - 1 - (len(parts) > 1))
                    assert np.abs(field - expected[states, q]).max() <= 1e-12

    def test_shot_draws_match_per_shot_loop(self):
        c = random_instance(31, 6)
        sched = build_schedule(20, 5.0)
        shots, seed = 3000, 9
        final, _, _ = evolve_statevector(c, sched)
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
        fwd, _, _ = evolve_statevector(c, sched, mode="cd_only")
        rev, _, _ = evolve_statevector(c, reversed_sched, mode="cd_only")
        assert np.abs(np.abs(fwd) - np.abs(rev)).max() < 1e-9

    def test_sampling_reproducible_byte_for_byte(self, tmp_path):
        c = random_instance(77, 5)
        sched = build_schedule(25, 5.0)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        save_samples(a, evolve_and_sample(c, sched, shots=256, seed=5))
        save_samples(b, evolve_and_sample(c, sched, shots=256, seed=5))
        assert a.read_bytes() == b.read_bytes()


# Runs a 16-qubit evolution in two halves with two CPUs reported; this process's half
# ends the process (os._exit) at its first norm check, orphaning the worker mid-run.
ORPHANING = """
import os, sys
sys.path.insert(0, sys.argv[1])
from conftest import random_instance
from hubofs import dcqo
dcqo._cpus = lambda: 2
dcqo._check_norm = lambda state, worst, buf: os._exit(0)
dcqo.evolve_statevector(random_instance(3, 16), dcqo.build_schedule(2, 3.0))
"""


class TestHalves:
    """From ``_FORK_QUBITS`` on, a forked worker evolves half of the statevector."""

    @pytest.fixture
    def forks(self, monkeypatch):
        """Two CPUs reported; the list gains each worker's pid."""
        monkeypatch.setattr(dcqo, "_cpus", lambda: 2)
        made, fork = [], os.fork

        def recording():
            pid = fork()
            if pid:
                made.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", recording)
        yield made
        with pytest.raises(ChildProcessError):  # no worker is left behind
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("mode, steps", [("full", 3), ("cd_only", 2)])
    def test_forked_halves_equal_the_unsplit_loop(self, monkeypatch, forks, mode, steps):
        n = dcqo._FORK_QUBITS + 1
        c, sched = random_instance(90, n), build_schedule(steps, 4.0)
        forked = evolve_statevector(c, sched, mode)
        assert len(forks) == 1
        monkeypatch.setattr(dcqo, "_cpus", lambda: 1)
        unsplit = evolve_statevector(c, sched, mode)
        assert len(forks) == 1
        assert forked[0].tobytes() == unsplit[0].tobytes()
        assert forked[1] == unsplit[1]

    @pytest.mark.parametrize("n", [1, dcqo._FORK_QUBITS - 1])
    def test_no_fork_below_the_size_constant(self, forks, n):
        evolve_statevector(random_instance(91, n), build_schedule(2, 4.0))
        assert forks == []

    def test_the_halves_are_pinned_apart_and_the_mask_restored(self, monkeypatch, forks):
        cpus = os.sched_getaffinity(0)
        if len(cpus) < 2:
            pytest.skip("the halves are pinned apart only where two CPUs are allowed")
        masks, check = [], dcqo._check_norm

        def recording(state, worst, buf):  # runs here while the worker waits
            masks.append((os.sched_getaffinity(0), os.sched_getaffinity(forks[0])))
            return check(state, worst, buf)

        monkeypatch.setattr(dcqo, "_check_norm", recording)
        evolve_statevector(random_instance(94, dcqo._FORK_QUBITS), build_schedule(1, 4.0))
        here, there = masks[0]
        assert len(here) == 1 and here.isdisjoint(there) and here | there == cpus
        assert os.sched_getaffinity(0) == cpus

    def test_a_failing_worker_raises_and_is_reaped(self, monkeypatch, forks, capfd):
        rotate, me = dcqo._rotate, os.getpid()

        def failing(*args):
            if os.getpid() != me:
                raise RuntimeError("worker fault")
            rotate(*args)

        monkeypatch.setattr(dcqo, "_rotate", failing)
        with pytest.raises(HubofsError, match="DCQO worker"):
            evolve_statevector(random_instance(92, dcqo._FORK_QUBITS), build_schedule(2, 4.0))
        assert len(forks) == 1
        assert "error [dcqo worker]: RuntimeError('worker fault')" in capfd.readouterr().err

    def test_a_norm_drift_here_kills_the_worker(self, monkeypatch, forks):
        monkeypatch.setattr(dcqo, "_NORM_TOL", -1.0)  # every norm check now fails here
        kills, kill = [], os.kill
        monkeypatch.setattr(os, "kill", lambda pid, sig: kills.append(sig) or kill(pid, sig))
        with pytest.raises(HubofsError, match="statevector norm drifted"):
            evolve_statevector(random_instance(93, dcqo._FORK_QUBITS), build_schedule(2, 4.0))
        assert len(forks) == 1
        assert kills == [signal.SIGKILL]

    def test_an_orphaned_worker_ends_at_its_next_meeting(self):
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
        assert "error [dcqo worker]: HubofsError('the DCQO worker lost its parent process')" in err


class TestProbe:
    def test_zero_hamiltonian_full_overlap(self):
        overlap, expectation = statevector_probe(zero_instance(3), build_schedule(20, 4.0))
        assert overlap == pytest.approx(1.0, abs=1e-9)
        assert expectation == pytest.approx(0.0, abs=1e-12)

    def test_overlap_monotone_tail(self):
        c = HuboCoefficients.from_terms(
            n=2,
            h=np.array([on_grid(0.61), on_grid(-0.4)]),
            j_terms={(0, 1): on_grid(0.45)},
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

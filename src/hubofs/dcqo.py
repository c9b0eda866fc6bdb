"""Digitized counterdiabatic statevector evolution for diagonal HUBO targets.

The interpolating Hamiltonian is H(t) = (1-l(t)) * H_d + l(t) * H_p with
driver H_d = -sum_i X_i (ground state: uniform superposition) and diagonal
target H_p given by the HUBO coefficients. The first-order nested-commutator
counterdiabatic term replaces each Z-string of H_p by the symmetrized sum of
strings with one Z turned into Y, so the CD generator is

    A = -2 a1(l) ldot [ sum h_i Y_i + sum J_ij (Y_i Z_j + Z_i Y_j)
                        + sum K_ijk (Y Z Z + Z Y Z + Z Z Y) ]
      = -2 a1(l) ldot sum_q Y_q F_q

with the Landau-Zener-style amplitude a1(l) = 1 / (4 ((1-l)^2 + l^2)) and the
local field F_q = dE/dZ_q (Hegade et al., "Digitized counterdiabatic quantum
optimization", PRR 4, L042030 (2022)). Each first-order Trotter step of size
dt applies three fused layers, in order:

(a) driver x-rotations exp(+i (1-l) dt X_q) on every qubit;
(b) one diagonal phase exp(-i l dt (E - constant)), with E the all-states
    energies computed once per run. All diagonal terms commute, so this is
    the product of the per-term phases exp(-i l dt c_T Z_T);
(c) one rotation per qubit q = 0 .. n-1, exp(-i (theta/2) Y_q F_q) with
    theta = -4 dt ldot a1(l). F_q does not depend on Z_q and every string
    with its Y on q commutes with every other, so this is the product of
    that qubit's Y / ZY / ZZY terms. F_q is gathered from E as
    (E(s) - E(s xor bit_q)) / (2 Z_q).

Mode "cd_only" keeps only layer (c) (impulse regime). The layers are exact
regroupings of the per-term circuit except that the CD terms act grouped by
qubit, a different O(dt^2) Trotter order. :func:`gate_counts` still tallies
the per-term gates of the hardware circuit. Basis ordering: the amplitude at
index s belongs to the x-bitstring of s with feature 0 as the most
significant bit, matching the all-states energy evaluator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapabilityError, HubofsError, UsageError
from .hubo import HuboCoefficients, energies_all_states, states_to_spins
from .rng import stream, uniforms
from .samplers import SampleSet, _aggregate, _check_words

MAX_QUBITS = 20
# Trotter steps: build_schedule keeps two Python lists of this many floats.
MAX_STEPS = 100_000
DEFAULT_STEPS = 50
DEFAULT_TOTAL_TIME = 10.0
_NORM_TOL = 1e-9


@dataclass(frozen=True)
class CdSchedule:
    """Interpolation values l and dl/dt at the Trotter step midpoints."""

    steps: int
    lambda_values: np.ndarray
    lambda_dot_values: np.ndarray
    total_time: float

    def __post_init__(self):
        self.lambda_values.setflags(write=False)
        self.lambda_dot_values.setflags(write=False)

    @property
    def dt(self) -> float:
        return self.total_time / self.steps


def schedule_lambda(t: float, total_time: float) -> float:
    """l(t) = sin^2((pi/2) sin^2(pi t / 2T)); flat at both endpoints."""
    inner = math.sin(math.pi * t / (2.0 * total_time)) ** 2
    return math.sin(0.5 * math.pi * inner) ** 2


def schedule_lambda_dot(t: float, total_time: float) -> float:
    """Analytic derivative of :func:`schedule_lambda`; zero at t=0 and t=T."""
    inner = math.sin(math.pi * t / (2.0 * total_time)) ** 2
    return (
        (math.pi**2 / (4.0 * total_time))
        * math.sin(math.pi * inner)
        * math.sin(math.pi * t / total_time)
    )


def build_schedule(steps: int, total_time: float) -> CdSchedule:
    if steps < 1:
        raise UsageError(f"steps must be >= 1, got {steps}")
    if steps > MAX_STEPS:
        raise CapabilityError(f"DCQO schedules need steps <= {MAX_STEPS}, got {steps}")
    if not 0.0 < total_time < math.inf:
        raise UsageError(f"total_time must be finite and > 0, got {total_time}")
    midpoints = [(m + 0.5) * total_time / steps for m in range(steps)]
    return CdSchedule(
        steps=steps,
        lambda_values=np.array([schedule_lambda(t, total_time) for t in midpoints]),
        lambda_dot_values=np.array([schedule_lambda_dot(t, total_time) for t in midpoints]),
        total_time=total_time,
    )


def cd_amplitude(lam: float) -> float:
    """Landau-Zener-inspired first-order CD prefactor a1(l)."""
    return 1.0 / (4.0 * ((1.0 - lam) ** 2 + lam**2))


def _axis_slices(n: int, qubit: int):
    head = (slice(None),) * qubit
    return head + (0,), head + (1,)


def _apply_rx(state: np.ndarray, qubit: int, theta: float, n: int) -> None:
    idx0, idx1 = _axis_slices(n, qubit)
    a0 = state[idx0].copy()
    a1 = state[idx1]
    cos_t = math.cos(0.5 * theta)
    sin_t = math.sin(0.5 * theta)
    state[idx0] = cos_t * a0 - 1j * sin_t * a1
    state[idx1] = cos_t * a1 - 1j * sin_t * a0


def _apply_y_rotation(state: np.ndarray, qubit: int, half: np.ndarray, n: int) -> None:
    """exp(-i half Y_qubit), ``half`` indexed by the other qubits' basis states."""
    idx0, idx1 = _axis_slices(n, qubit)
    cos_t = np.cos(half)
    sin_t = np.sin(half)
    a0 = state[idx0].copy()
    a1 = state[idx1]
    state[idx0] = cos_t * a0 - sin_t * a1
    state[idx1] = cos_t * a1 + sin_t * a0


def _check_norm(state: np.ndarray, worst: float) -> float:
    drift = abs(float(np.sum(np.abs(state) ** 2)) - 1.0)
    if not drift <= _NORM_TOL:
        raise HubofsError(f"statevector norm drifted by {drift:.3e}")
    return max(worst, drift)


def _gathered_fields(energies: np.ndarray, n: int) -> list[np.ndarray]:
    """F_q = dE/dZ_q on every basis state, from n gathers over the energies.

    Entry q has shape [2] * (n-1): F_q does not depend on Z_q, so it is
    indexed by the other qubits. Z_q = +1 at index 0 of axis q, so
    F_q = (E[Z_q=+1] - E[Z_q=-1]) / 2.
    """
    e = energies.reshape([2] * n)
    return [0.5 * (np.take(e, 0, axis=q) - np.take(e, 1, axis=q)) for q in range(n)]


def _check_qubits(c: HuboCoefficients) -> None:
    if c.n > MAX_QUBITS:
        raise CapabilityError(f"statevector simulation needs n <= {MAX_QUBITS}, got n={c.n}")


def evolve_statevector(
    c: HuboCoefficients, sched: CdSchedule, mode: str = "full", *, energies=None
) -> tuple[np.ndarray, float]:
    """Run the digitized evolution; returns (final flat 2^n amplitudes, max norm drift).

    It starts from the uniform superposition. ``energies`` is
    ``energies_all_states(c)`` when the caller already has it.
    """
    _check_qubits(c)
    if mode not in ("full", "cd_only"):
        raise UsageError(f"mode must be 'full' or 'cd_only', got {mode!r}")
    n = c.n
    dt = sched.dt
    state = np.full([2] * n, 1.0 / math.sqrt(1 << n), dtype=np.complex128)
    if energies is None:
        energies = energies_all_states(c)
    fields = _gathered_fields(energies, n)
    # The constant is a global phase; dropping it keeps layer (b) equal to
    # the product of the per-term phases.
    diagonal = (energies - c.constant).reshape([2] * n)
    worst = 0.0
    for m in range(sched.steps):
        lam = float(sched.lambda_values[m])
        lam_dot = float(sched.lambda_dot_values[m])
        if mode == "full":
            theta_x = -2.0 * (1.0 - lam) * dt
            for q in range(n):
                _apply_rx(state, q, theta_x, n)
            worst = _check_norm(state, worst)
            state *= np.exp(-1j * (lam * dt) * diagonal)
            worst = _check_norm(state, worst)
        half_cd = -2.0 * dt * lam_dot * cd_amplitude(lam)
        for q in range(n):
            _apply_y_rotation(state, q, half_cd * fields[q], n)
        worst = _check_norm(state, worst)
    return state.reshape(-1), worst


def gate_counts(c: HuboCoefficients, steps: int, mode: str = "full") -> dict[str, int]:
    """Per-circuit gate tallies plus a decomposed two-qubit-gate estimate.

    The estimate charges 1 native two-qubit gate per ZZ phase or ZY rotation
    and 4 per three-qubit string (CNOT-conjugated two-body core).
    """
    nh, nj, nk = (int(np.count_nonzero(v)) for v in (c.h, c.j, c.k))
    full = int(mode == "full")  # the x-rotation and diagonal-phase layers run
    return {
        "gates_1q": steps * (full * (c.n + nh) + nh),
        "gates_2q": steps * (full * nj + 2 * nj),
        "gates_3q_diag": steps * full * nk,
        "gates_3q_cd": steps * 3 * nk,
        "two_qubit_gate_estimate": steps * (full * (nj + 4 * nk) + 2 * nj + 12 * nk),
    }


def evolve_and_sample(
    c: HuboCoefficients,
    sched: CdSchedule,
    shots: int,
    seed: int = 0,
    mode: str = "full",
) -> SampleSet:
    """Evolve, then draw computational-basis samples from |amplitude|^2.

    Shot s takes the uniform of word s of the stream keyed ``seed`` (see
    :mod:`hubofs.rng`) and lands on the first basis state whose cumulative
    probability exceeds it (the last state if rounding leaves none).
    """
    if shots < 1:
        raise UsageError(f"shots must be >= 1, got {shots}")
    _check_words(shots, "dcqo shots")
    amplitudes, drift = evolve_statevector(c, sched, mode)
    cumulative = np.cumsum(np.abs(amplitudes) ** 2)
    draws = uniforms(stream(seed).random_raw(shots))
    idx = np.minimum(np.searchsorted(cumulative, draws, side="right"), (1 << c.n) - 1)
    metadata = {
        "steps": str(sched.steps),
        "total_time": f"{sched.total_time:.12g}",
        "mode": mode,
        "max_norm_drift": f"{drift:.3e}",
    }
    metadata.update((k, str(v)) for k, v in gate_counts(c, sched.steps, mode).items())
    return _aggregate(c, states_to_spins(idx, c.n), "dcqo", seed, metadata)


def statevector_probe(
    c: HuboCoefficients, sched: CdSchedule, mode: str = "full"
) -> tuple[float, float]:
    """Exact diagnostics: (overlap with the ground manifold, <H>)."""
    _check_qubits(c)
    energies = energies_all_states(c)
    amplitudes, _ = evolve_statevector(c, sched, mode, energies=energies)
    probs = np.abs(amplitudes) ** 2
    e_min = float(energies.min())
    manifold = energies <= e_min + 1e-9 * max(1.0, abs(e_min))
    return float(probs[manifold].sum()), float(probs @ energies)

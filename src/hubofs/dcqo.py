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
    that qubit's Y / ZY / ZZY terms. F_q = (E(s) - E(s xor bit_q)) / (2 Z_q) is
    read in each step from two views of E; no field array is stored.

Layers (a) and (c) are one rotation kernel per qubit,
(a0, a1) <- (cos(phi) a0 - s0 a1, cos(phi) a1 + s1 a0): exp(-i phi X_q)
with s0 = i sin(phi) = -s1, and exp(-i phi Y_q) with s0 = s1 = sin(phi),
an array over the other qubits' basis states, applied in place. Each part of
the state (the whole, or one half below) makes its buffers once, before the
first step: the kernel's two products, the angle, sin and cos of layer (c) and
the phases of layer (b) (n = 20 in halves: peak RSS 109 MB here, 83 in the worker,
against 177 and 160 with n stored fields and temporaries made in every rotation).

Mode "cd_only" keeps only layer (c) (impulse regime). The layers are exact
regroupings of the per-term circuit except that the CD terms act grouped by
qubit, a different O(dt^2) Trotter order. :func:`gate_counts` still tallies
the per-term gates of the hardware circuit. Basis ordering: the amplitude at
index s belongs to the x-bitstring of s with feature 0 as the most
significant bit, matching the all-states energy evaluator.

Halves (after the split of distributed statevector simulators, Smelyanskiy et
al., "qHiPSTER", arXiv:1601.07195): the state lives in an anonymous shared
mapping. From :data:`_FORK_QUBITS` = 15 qubits on, where ``os.sched_getaffinity``
lists two or more CPUs, a worker made by ``os.fork`` applies every layer to one
half of the basis states while this process applies it to the other. Qubit 0's
rotations split along qubit 1; every other rotation and the diagonal phase split
along qubit 0. The halves meet after each qubit-0 rotation and at each norm
check, which this process runs on the whole state while the worker waits. Every
operation works element by element, so the amplitudes and the drift have the
bits of the unsplit loop, which runs below the size or on one CPU. The worker is
a process, not a thread, made by SA's helper: it is always reaped, and killed if
this process's half raises (at a norm check, say), which a thread cannot be. The
helper pins the halves to different CPUs: unpinned, the meetings' wake-ups often
left both halves taking turns on one CPU.
"""

from __future__ import annotations

import math
import mmap
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import CapabilityError, HubofsError, UsageError
from .hubo import HuboCoefficients, energies_all_states, states_to_spins
from .rng import stream, uniforms
from .samplers import SampleSet, _aggregate, _check_words, _cpus, _fork_halves

MAX_QUBITS = 20
# Trotter steps: build_schedule keeps two Python lists of this many floats.
MAX_STEPS = 100_000
DEFAULT_STEPS = 50
DEFAULT_TOTAL_TIME = 10.0
_NORM_TOL = 1e-9
# Qubits from which a forked worker evolves half of the statevector.
_FORK_QUBITS = 15


@dataclass(frozen=True)
class CdSchedule:
    """Interpolation values l and dl/dt at the Trotter step midpoints."""

    lambda_values: np.ndarray
    lambda_dot_values: np.ndarray
    total_time: float

    def __post_init__(self):
        lam, lam_dot = self.lambda_values, self.lambda_dot_values
        if lam.ndim != 1 or not lam.size or lam_dot.shape != lam.shape:
            raise UsageError("lambda and lambda_dot must be non-empty 1-D arrays of one length")
        if not np.isfinite(lam_dot).all():
            raise UsageError(f"total_time={self.total_time:.12g} is too small: dl/dt overflows")
        self.lambda_values.setflags(write=False)
        self.lambda_dot_values.setflags(write=False)

    @property
    def steps(self) -> int:
        return len(self.lambda_values)

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
    if not 0.0 < math.pi * total_time < math.inf:  # the schedule's largest argument
        raise UsageError(f"total_time must be > 0 with pi * total_time finite, got {total_time}")
    midpoints = [(m + 0.5) * total_time / steps for m in range(steps)]
    return CdSchedule(
        lambda_values=np.array([schedule_lambda(t, total_time) for t in midpoints]),
        lambda_dot_values=np.array([schedule_lambda_dot(t, total_time) for t in midpoints]),
        total_time=total_time,
    )


def cd_amplitude(lam: float) -> float:
    """Landau-Zener-inspired first-order CD prefactor a1(l)."""
    return 1.0 / (4.0 * ((1.0 - lam) ** 2 + lam**2))


def _rotate(state: np.ndarray, qubit: int, cos_t, sin_0, sin_1, bufs) -> None:
    """``(a0, a1) <- (cos_t a0 - sin_0 a1, cos_t a1 + sin_1 a0)`` on axis ``qubit``, each
    coefficient a scalar or indexed by the other qubits' basis states. ``bufs`` are two
    complex half-states that hold ``sin_0 a1`` and ``sin_1 a0``; the rest is in place."""
    head = (slice(None),) * qubit
    a0, a1 = state[head + (0, ...)], state[head + (1, ...)]
    s0a1, s1a0 = np.multiply(sin_0, a1, out=bufs[0]), np.multiply(sin_1, a0, out=bufs[1])
    np.subtract(np.multiply(cos_t, a0, out=a0), s0a1, out=a0)
    np.add(np.multiply(cos_t, a1, out=a1), s1a0, out=a1)


def _check_norm(state: np.ndarray, worst: float, buf: np.ndarray) -> float:
    """The larger of ``worst`` and the state's norm drift; ``buf`` receives |a|^2."""
    drift = abs(float(np.sum(np.square(np.abs(state, out=buf), out=buf))) - 1.0)
    if not drift <= _NORM_TOL:
        raise HubofsError(f"statevector norm drifted by {drift:.3e}")
    return max(worst, drift)


def _layers(sched, mode, qubits, rest, diagonal, check, meet) -> None:
    """Apply every step's layers to one part of the statevector.

    ``qubits[q]`` is (state view, axis, energies view) of qubit q, the energies view
    with Z_q on its axis 0, so F_q = (E[Z_q=+1] - E[Z_q=-1]) / 2 is read from it per
    step. ``rest`` is the view that the diagonal phase multiplies and ``diagonal`` its
    phases. The part's buffers are made once, here. The parts meet with ``meet()``
    after each qubit-0 rotation and with ``meet(check)`` at each norm check.
    """
    dt = sched.dt
    half_shape = rest.shape[1:]  # the half-state of every rotation in this part
    products = [np.empty(half_shape, complex) for _ in range(2)]
    angle, sin_y, cos_y = (np.empty(half_shape) for _ in range(3))
    phase = np.empty(rest.shape, complex)
    for lam, lam_dot in zip(sched.lambda_values.tolist(), sched.lambda_dot_values.tolist()):
        if mode == "full":
            half_x = -(1.0 - lam) * dt
            cos_x, sin_x = math.cos(half_x), 1j * math.sin(half_x)
            for q, (view, axis, _) in enumerate(qubits):
                _rotate(view, axis, cos_x, sin_x, -sin_x, products)
                if q == 0:
                    meet()
            meet(check)
            np.multiply(-1j * (lam * dt), diagonal, out=phase)
            rest *= np.exp(phase, out=phase)
            meet(check)
        half_cd = -2.0 * dt * lam_dot * cd_amplitude(lam)
        for q, (view, axis, e) in enumerate(qubits):
            np.subtract(e[0], e[1], out=angle)
            angle *= 0.5  # F_q
            angle *= half_cd
            _rotate(view, axis, np.cos(angle, out=cos_y), np.sin(angle, out=sin_y), sin_y, products)
            if q == 0:
                meet()
        meet(check)


def evolve_statevector(
    c: HuboCoefficients, sched: CdSchedule, mode: str = "full"
) -> tuple[np.ndarray, float, np.ndarray]:
    """Run the digitized evolution; returns (final 2^n amplitudes, max norm drift, energies).

    It starts from the uniform superposition. A step whose largest phase
    ``dt * max|E - constant|`` is not finite raises :class:`UsageError`. From
    :data:`_FORK_QUBITS` qubits on, with two or more CPUs, it runs in two halves
    (module docstring).
    """
    if c.n > MAX_QUBITS:
        raise CapabilityError(f"statevector simulation needs n <= {MAX_QUBITS}, got n={c.n}")
    if mode not in ("full", "cd_only"):
        raise UsageError(f"mode must be 'full' or 'cd_only', got {mode!r}")
    n = c.n
    energies = energies_all_states(c)
    # The constant is a global phase; dropping it keeps layer (b) equal to
    # the product of the per-term phases.
    diagonal = (energies - c.constant).reshape([2] * n)
    if not math.isfinite(sched.dt * float(np.abs(diagonal).max())):  # a Python product
        raise UsageError(f"total_time={sched.total_time:.12g} is too large: the phase "
                         "dt * max|E - constant| of one step overflows")
    state = np.frombuffer(mmap.mmap(-1, 16 << n), np.complex128).reshape([2] * n)
    state[...] = 1.0 / math.sqrt(1 << n)
    e = energies.reshape([2] * n)
    norms = np.empty(state.shape)
    worst = 0.0

    def check():
        nonlocal worst
        worst = _check_norm(state, worst, norms)

    if n >= _FORK_QUBITS and _cpus() >= 2:
        # Half h: qubit 1 = h for qubit 0's rotations, qubit 0 = h for every other layer.
        halves = [([(state.swapaxes(0, 1)[h], 0, e[:, h])]
                   + [(state[h], q - 1, np.moveaxis(e[h], q - 1, 0)) for q in range(1, n)],
                   state[h], diagonal[h]) for h in (0, 1)]
        _fork_halves("DCQO", *(partial(_layers, sched, mode, *half, check) for half in halves))
    else:
        qubits = [(state, q, np.moveaxis(e, q, 0)) for q in range(n)]
        _layers(sched, mode, qubits, state, diagonal, check, lambda then=None: then and then())
    return state.reshape(-1), worst, energies


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
    probability reaches it (the last state if rounding leaves none).
    """
    if shots < 1:
        raise UsageError(f"shots must be >= 1, got {shots}")
    _check_words(shots, "dcqo shots")
    amplitudes, drift, energies = evolve_statevector(c, sched, mode)
    probs = np.abs(amplitudes)
    cumulative = np.cumsum(np.square(probs, out=probs), out=probs)
    draws = uniforms(stream(seed).random_raw(shots))
    idx = np.minimum(np.searchsorted(cumulative, draws, side="left"), (1 << c.n) - 1)
    metadata = {
        "steps": str(sched.steps),
        "total_time": f"{sched.total_time:.12g}",
        "mode": mode,
        "max_norm_drift": f"{drift:.3e}",
    }
    metadata.update((k, str(v)) for k, v in gate_counts(c, sched.steps, mode).items())
    return _aggregate(c, states_to_spins(idx, c.n), "dcqo", seed, metadata, energies=energies[idx])


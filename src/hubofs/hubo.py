"""Ising HUBO energy model built from globally normalized MI tensors.

Spin convention: Z_i = -1 means feature i is selected, Z_i = +1 means it is
not; the binary view is x_i = (1 - Z_i) / 2. The energy of a configuration is

    E(Z) = sum_i h_i Z_i + sum_{i<j} J_ij Z_i Z_j
         + sum_{i<j<k} K_ijk Z_i Z_j Z_k + constant

Every coefficient is a multiple of 2**-30 (the grid), snapped there by its makers,
and their absolute sum is at most 2**21. So every partial sum of an energy or a
local field, in any order and blocking, is a multiple of 2**-30 below 2**23, which
float64 holds exactly (Demmel & Nguyen's pre-rounding, ARITH 2013): the evaluators
agree bitwise by construction.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .artifacts import json_int, json_number, read_json, read_terms, term_rows, write_json
from .errors import CapabilityError, DataError, UsageError
from .mi import MiTensors, check_terms, sort_terms

COEFF_SCHEMA = "hubofs-coefficients/3"

DEFAULT_WEIGHTS = (1.0, 0.5, 0.3)
DEFAULT_PENALTY = (0.5, 0.2, 2.0)  # (lambda, tau, p)
# Largest n whose 2**n states energies_all_states enumerates (exhaustive sampling too).
MAX_ALL_STATES_N = 24
# Every coefficient is a multiple of GRID and sum|c| <= MAX_MASS (module docstring).
GRID, MAX_MASS = 2.0**-30, 2.0**21
# For |x| <= 2**21, x + _SNAP lies in [2**22, 2**23], spaced GRID apart.
_SNAP = 1.5 * 2.0**22
# Multiply-adds per GEMM of k_products: a cache block (256 rows of Z and of their
# product, 128 KiB at n = 32). Unblocked products ran the default SA run slower,
# also on the one-thread OpenBLAS pool that importing hubofs sets up.
_GEMM_MACS = 1 << 18


class DegenerateNormalizationWarning(RuntimeWarning):
    """All MI values are equal; min-max normalization collapses to zeros."""


@dataclass(frozen=True, order=True)
class SpinConfig:
    """Immutable spin assignment; compares lexicographically with -1 < +1."""

    spins: tuple[int, ...]

    def __post_init__(self):
        if any(s not in (-1, 1) for s in self.spins):
            raise UsageError(f"spins must be -1 or +1, got {self.spins}")


@dataclass(frozen=True)
class HuboCoefficients:
    """One-body ``h (n,)``, n >= 1, and sparse two- and three-body Ising coefficients.

    ``pairs (m2, 2)`` and ``triples (m3, 3)`` are the index rows of
    :class:`~hubofs.mi.MiTensors` with their values ``j`` and ``k``.
    ``weights`` and ``penalty_params`` record how the instance was built;
    they do not affect energy evaluation. ``2 * n * (sum|h| + sum|J| + sum|K| +
    |constant|)`` must be finite (:class:`UsageError`), the sum at most 2**21
    (:class:`CapabilityError`) and every value on the grid (:class:`UsageError`).
    """

    n: int
    h: np.ndarray
    pairs: np.ndarray
    j: np.ndarray
    triples: np.ndarray
    k: np.ndarray
    constant: float = 0.0
    weights: tuple[float, float, float] = (1.0, 1.0, 1.0)
    penalty_params: tuple[float, float, float] = (0.0, 1.0, 1.0)
    penalty_applied: bool = False

    def __post_init__(self):
        if self.n < 1:
            raise UsageError(f"need n >= 1 spins, got n={self.n}")
        h = np.asarray(self.h, dtype=np.float64)
        if h.shape != (self.n,):
            raise UsageError(f"h must have shape ({self.n},), got {h.shape}")
        h.setflags(write=False)
        object.__setattr__(self, "h", h)
        check_terms(self, "pairs", "j", 2, self.n)
        check_terms(self, "triples", "k", 3, self.n)
        _check_mass(self.n, (h, self.j, self.k), self.constant, self.weights)
        if any(np.fmod(v, GRID).any() for v in (h, self.j, self.k, self.constant)):
            raise UsageError("coefficients must be multiples of 2**-30 (hubo.snap rounds them)")

    @classmethod
    def from_terms(cls, n: int, h, j_terms, k_terms, **settings) -> "HuboCoefficients":
        """Coefficients from ``{(i, j): J}`` and ``{(i, j, k): K}`` terms in any order."""
        pairs, j = sort_terms(j_terms, 2)
        triples, k = sort_terms(k_terms, 3)
        return cls(n, h, pairs, j, triples, k, **settings)

    @property
    def j_terms(self) -> dict[tuple[int, int], float]:
        """``{(i, j): J_ij}``, built from the arrays on each access: a view for the
        benchmark scripts that goes with ROADMAP item 1, along with
        ``SampleSet.entries``, ``SpinConfig`` and the inert xoshiro names."""
        return dict(zip(map(tuple, self.pairs.tolist()), self.j.tolist()))

    @property
    def k_terms(self) -> dict[tuple[int, int, int], float]:
        """``{(i, j, k): K_ijk}``; the same kind of view as :attr:`j_terms`."""
        return dict(zip(map(tuple, self.triples.tolist()), self.k.tolist()))

    def max_abs_coefficient(self) -> float:
        """Largest |h|, |J|, or |K| (the constant does not affect dynamics)."""
        return float(np.abs(np.concatenate([self.h, self.j, self.k])).max())


def _check_mass(n: int, families, constant: float, weights) -> None:
    """Refuse a ``2 * n * sum|c|`` that overflows (:class:`UsageError`), then a sum|c|
    above :data:`MAX_MASS` (:class:`CapabilityError`)."""
    with np.errstate(over="ignore"):
        mass = sum(float(np.abs(v).sum()) for v in families) + abs(constant)
    if not math.isfinite(2.0 * n * mass):
        w = ", ".join(map(str, weights))
        raise UsageError(f"2 * n * (sum|h| + sum|J| + sum|K| + |constant|) must be finite, "
                         f"got {2.0 * n * mass} at n={n} (weights w1, w2, w3 = {w})")
    if mass > MAX_MASS:
        raise CapabilityError(f"sum|h| + sum|J| + sum|K| + |constant| must be <= 2**21, got "
                              f"{mass:.6g} at n={n} (weights {weights})")


def snap(values: np.ndarray) -> np.ndarray:
    """Round float64 ``values`` in place to the nearest multiple of :data:`GRID`, ties to
    even, where |x| <= 2**21, and return them; no value overflows, nor is inf moved."""
    values += _SNAP
    values -= _SNAP
    return values


def preselect_top_k(relevance, k: int) -> list[int]:
    """Indices of the k largest relevance values, ties to the smaller index."""
    rel = np.asarray(relevance, dtype=np.float64)
    n = rel.shape[0]
    if not 1 <= k <= n:
        raise UsageError(f"k must be in [1, {n}], got {k}")
    ranked = sorted(range(n), key=lambda i: (-rel[i], i))
    return sorted(ranked[:k])


def normalize_global(t: MiTensors) -> MiTensors:
    """One min-max transform shared by all three MI families.

    If every stored value is identical the result is all zeros and a
    :class:`DegenerateNormalizationWarning` is emitted.
    """
    values = t.all_values()
    if values.size == 0:
        raise DataError("cannot normalize empty tensors")
    lo, hi = float(values.min()), float(values.max())
    if hi == lo:
        warnings.warn(
            "all MI values are equal; normalized tensors are all zero",
            DegenerateNormalizationWarning,
            stacklevel=2,
        )
        scale = np.zeros_like
    else:
        span = hi - lo
        scale = lambda v: (v - lo) / span  # noqa: E731
    return replace(
        t, relevance=scale(t.relevance), redundancy=scale(t.redundancy), triadic=scale(t.triadic)
    )


def build_coefficients(
    t_norm: MiTensors, w1: float, w2: float, w3: float
) -> HuboCoefficients:
    """h_i = w1*rel_i, J_ij = w2*red_ij, K_ijk = -w3*tri_ijk, constant 0; checked, then snapped."""
    if not all(0.0 < w < math.inf for w in (w1, w2, w3)):
        raise UsageError(f"weights must be positive and finite, got ({w1}, {w2}, {w3})")
    values = t_norm.all_values()
    if values.size and (values.min() < 0.0 or values.max() > 1.0):
        raise UsageError("tensors must be globally normalized to [0, 1] before building")
    h, j, k = w1 * t_norm.relevance, w2 * t_norm.redundancy, -w3 * t_norm.triadic
    _check_mass(t_norm.n, (h, j, k), 0.0, (w1, w2, w3))
    return HuboCoefficients(t_norm.n, snap(h), t_norm.pairs, snap(j), t_norm.triples, snap(k),
                            weights=(w1, w2, w3))


def _hinge_power(ratio: float, p: float) -> float:
    if p == 2.0:  # ratio**2.0 rounds differently from ratio * ratio
        return ratio * ratio
    return ratio**p


def hinge_delta(c_i: float, lam: float, tau: float, p: float) -> float:
    """Penalty shift for one feature: -lam*((tau-c)/tau)^p below tau, else 0."""
    if c_i >= tau:
        return 0.0
    return -lam * _hinge_power((tau - c_i) / tau, p)


def apply_penalty(
    c: HuboCoefficients, relevance_norm, lam: float, tau: float, p: float
) -> HuboCoefficients:
    """Add the low-relevance hinge penalty to the one-body terms.

    ``relevance_norm`` must be the globally normalized relevance values (the
    same ones the builder scaled by w1); the new h is checked, then snapped. Two-
    and three-body terms and the constant are untouched.
    """
    if c.penalty_applied:
        raise UsageError("penalty already applied to these coefficients")
    if not 0.0 <= lam < math.inf:
        raise UsageError(f"lambda must be finite and >= 0, got {lam}")
    if not 0.0 < tau <= 1.0:
        raise UsageError(f"tau must be in (0, 1], got {tau}")
    if not 1.0 <= p < math.inf:
        raise UsageError(f"p must be finite and >= 1, got {p}")
    rel = np.asarray(relevance_norm, dtype=np.float64)
    if rel.shape != (c.n,):
        raise UsageError(f"relevance must have shape ({c.n},), got {rel.shape}")
    if rel.size and (rel.min() < 0.0 or rel.max() > 1.0):
        raise UsageError("relevance values must lie in [0, 1]")
    h = c.h + np.array([hinge_delta(r, lam, tau, p) for r in rel.tolist()])
    _check_mass(c.n, (h, c.j, c.k), c.constant, c.weights)
    return replace(c, h=snap(h), penalty_params=(lam, tau, p), penalty_applied=True)


def energy_many(c: HuboCoefficients, spins: np.ndarray) -> np.ndarray:
    """Energies of a (S, n) matrix of spin rows.

    The spins are read spin-major, one contiguous row ``Z_i`` per spin. A
    pair's triples are consecutive, so ``Z_i Z_j`` is formed once for all of
    them; each triple is still ``(Z_i Z_j) Z_k``.
    """
    spins = np.asarray(spins)
    if spins.ndim != 2 or spins.shape[1] != c.n:
        raise UsageError(f"spin matrix must be (S, {c.n}), got {spins.shape}")
    rows = np.ascontiguousarray(spins.T)
    acc = np.zeros(spins.shape[0], dtype=np.float64)
    for i, v in enumerate(c.h.tolist()):
        acc += v * rows[i]
    for (i, j), v in zip(c.pairs.tolist(), c.j.tolist()):
        acc += v * (rows[i] * rows[j])
    pair = None
    for (i, j, k), v in zip(c.triples.tolist(), c.k.tolist()):
        if pair != (i, j):
            pair, product = (i, j), rows[i] * rows[j]
        acc += v * (product * rows[k])
    return acc + c.constant


def states_to_spins(states, n: int) -> np.ndarray:
    """(S, n) int8 spins of x-bitstring state indices, feature 0 the most significant bit.

    Built column by column in Fortran order, so each spin column is contiguous.
    """
    states = np.asarray(states, dtype=np.int64)
    spins = np.empty((states.shape[0], n), dtype=np.int8, order="F")
    for i in range(n):
        spins[:, i] = 1 - 2 * ((states >> (n - 1 - i)) & 1)
    return spins


def energies_all_states(c: HuboCoefficients) -> np.ndarray:
    """Energy of every configuration, indexed by the integer x-bitstring.

    State s encodes x_i as bit (n-1-i) of s (feature 0 is the most significant bit),
    the statevector's ordering. The coefficients, placed at their terms' bitmasks,
    are E's Walsh expansion (O'Donnell, *Analysis of Boolean Functions*, ch. 1), so n
    in-place butterfly passes give every energy (Fino & Algazi, IEEE Trans. Comput.
    C-25, 1976), each ``x0 += x1; x1 *= -2; x1 += x0``: exact, with no temporary.
    """
    if c.n > MAX_ALL_STATES_N:
        raise CapabilityError(f"all-states enumeration needs n <= {MAX_ALL_STATES_N}, got n={c.n}")
    bits = 1 << np.arange(c.n - 1, -1, -1)  # feature i is bit n-1-i
    energies = np.zeros(1 << c.n)
    energies[0] = c.constant
    energies[bits] = c.h
    energies[bits[c.pairs].sum(1)] = c.j
    energies[bits[c.triples].sum(1)] = c.k
    for b in range(c.n):
        x0, x1 = energies.reshape(-1, 2, 1 << b).swapaxes(0, 1)
        x0 += x1
        x1 *= -2.0
        x1 += x0
    return energies


def dense_couplings(c: HuboCoefficients) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric dense views ``J (n, n)`` and ``K (n, n, n)`` of the couplings.

    Each J_ij sits at both index orders and each K_ijk at all six, with zeros
    wherever an index repeats, so the local field of :func:`local_fields` is
    ``F_i = h_i + sum_j J_ij Z_j + 1/2 sum_jk K_ijk Z_j Z_k``.
    """
    n = c.n
    jmat = np.zeros((n, n))
    a, b = c.pairs.T
    jmat[a, b] = c.j
    jmat[b, a] = c.j
    kcube = np.zeros((n, n, n))
    for p, q, r in itertools.permutations(c.triples.T):
        kcube[p, q, r] = c.k
    return jmat, kcube


def local_fields(h, jmat: np.ndarray, kcube: np.ndarray, spins: np.ndarray) -> np.ndarray:
    """``F[s, i] = dE/dZ_i`` at row ``s`` of a (S, n) spin matrix.

    E is linear in each spin, so flipping spin i changes the energy by
    ``-2 Z_i F_i``. Built one column at a time from the products ``Z K[i]``
    of :func:`k_products`.
    """
    spins = np.asarray(spins, dtype=np.float64)
    fields = np.empty_like(spins)
    product = np.empty_like(spins)
    for a in range(spins.shape[1]):
        kz = k_products(spins, kcube[a], product)
        fields[:, a] = h[a] + spins @ jmat[a] + 0.5 * np.einsum("sj,sj->s", kz, spins)
    return fields


def k_products(rows: np.ndarray, k_a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out[:len(rows)] = rows @ k_a``, the ``Z K[i]`` of every local field; returns that slice.

    Run as cache blocks of at most :data:`_GEMM_MACS` multiply-adds."""
    size = len(rows)
    bounds = [*range(0, size, max(1, _GEMM_MACS // k_a.size)), size]
    for lo, hi in zip(bounds, bounds[1:]):
        np.matmul(rows[lo:hi], k_a, out=out[lo:hi])
    return out[:size]


def save_coefficients(
    path,
    c: HuboCoefficients,
    feature_names: tuple[str, ...] | None = None,
    source_indices: tuple[int, ...] | None = None,
    provenance: dict | None = None,
) -> None:
    """Write the coefficient artifact (the build -> sample stage contract)."""
    doc = {
        "schema": COEFF_SCHEMA,
        "n": c.n,
        "h": c.h.tolist(),
        "J": term_rows(c.pairs, c.j),
        "K": term_rows(c.triples, c.k),
        "constant": c.constant,
        "weights": {"w1": c.weights[0], "w2": c.weights[1], "w3": c.weights[2]},
        "penalty": {
            "lambda": c.penalty_params[0],
            "tau": c.penalty_params[1],
            "p": c.penalty_params[2],
            "applied": c.penalty_applied,
        },
    }
    if feature_names is not None:
        doc["feature_names"] = list(feature_names)
    if source_indices is not None:
        doc["source_indices"] = [int(i) for i in source_indices]
    if provenance is not None:
        doc["provenance"] = provenance
    write_json(path, doc)


def load_coefficients(path) -> tuple[HuboCoefficients, dict]:
    """Read a coefficient artifact, rows in any order; returns (coefficients, extras).

    n = 0, a repeated J or K row, a non-integer index and a value, weight or
    penalty parameter that is not a finite number are malformed (:class:`DataError`),
    as are a penalty ``applied`` that is not a JSON bool and ``feature_names`` that
    are not n strings. ``extras`` carries feature_names / source_indices /
    provenance when the file has them.
    """
    doc = read_json(path, COEFF_SCHEMA, "coefficient")
    try:
        pen, w = doc["penalty"], doc["weights"]
        if type(pen["applied"]) is not bool:
            raise TypeError(f"penalty applied must be true or false, got {pen['applied']!r}")
        coeffs = HuboCoefficients.from_terms(
            n=json_int(doc["n"]),
            h=[json_number(v) for v in doc["h"]],
            j_terms=read_terms(doc["J"], 2),
            k_terms=read_terms(doc["K"], 3),
            constant=json_number(doc["constant"]),
            weights=tuple(json_number(w[key]) for key in ("w1", "w2", "w3")),
            penalty_params=tuple(json_number(pen[key]) for key in ("lambda", "tau", "p")),
            penalty_applied=pen["applied"],
        )
        names = doc.get("feature_names", [""] * coeffs.n)
        if not isinstance(names, list) or len(names) != coeffs.n or not all(
            isinstance(name, str) for name in names
        ):
            raise ValueError(f"feature_names must be a list of {coeffs.n} strings")
    except (KeyError, TypeError, ValueError, OverflowError, UsageError) as exc:
        raise DataError(f"malformed coefficient file {path!r}: {exc!r}") from exc
    extras = {
        key: doc[key] for key in ("feature_names", "source_indices", "provenance") if key in doc
    }
    return coeffs, extras

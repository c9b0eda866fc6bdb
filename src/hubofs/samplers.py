"""Low-energy samplers for HUBO instances: exhaustive, annealing, random.

Reproducibility contract for the stochastic samplers (portable across
languages via the stream spec in :mod:`hubofs.rng`): each run reads one
Philox4x64-10 stream keyed ``seed mod 2**64``, at the word positions that
:mod:`hubofs.rng` lists.

* simulated annealing draws the initial spins of all chains from the first
  ``n*shots`` words, then one block of ``n*shots`` words per sweep; in
  sweep-major, spin-minor order, chain c's proposal to flip spin i is
  accepted when ``delta <= 0`` or ``u < exp(-delta / T)``, with u the
  uniform of that proposal's word. Every proposal has its word, so stream
  position never depends on the data.
* random sampling draws n top bits per shot (shot-major, spin-minor).

One draw takes at most :data:`MAX_WORDS` = 2**24 words: ``n*shots`` per SA
sweep or random run, ``shots`` for DCQO. A larger request raises
:class:`~hubofs.errors.CapabilityError` before anything is allocated.

SA kernel: every chain keeps its local fields ``F_i = dE/dZ_i = h_i +
sum_j J_ij Z_j + 1/2 sum_jk K_ijk Z_j Z_k`` (dense symmetric J and K from
:func:`hubofs.hubo.dense_couplings`), built once from the initial spins. A
proposal's energy change is ``delta = -2 Z_i F_i``. After each spin step the
accepted chains A are updated, ``F[A] -= 2 Z_i[A] (J[i] + Z[A] K[i])``, in
reused scratch buffers, before their spin i flips (Isakov et al., "Optimised
simulated annealing for Ising spin glasses", CPC 192 (2015)). A step that
accepts fewer than half the chains gathers the rows of A and scatters them
back. A hot step (``2|A| >= shots``) skips the gathers: it forms the product
for every chain in place and scales each row by ``2 Z_i`` where accepted and
by 0 elsewhere, so a rejected chain subtracts ±0 and keeps its field (only a
zero field may change sign, and ``exp(±0) = 1`` accepts either way).
The products ``Z K[i]`` here and in :func:`hubofs.hubo.local_fields` run as
GEMMs of at most 2**18 multiply-adds: cache blocks, run by the one-thread
OpenBLAS pool that importing :mod:`hubofs` sets up (unblocked products ran
slower). No block has one row unless |A| = 1: a 1-row product takes another
BLAS path that rounds differently. At n = 5, 12 and 32 a row's product is
then bitwise the same in any block, so both step kinds give the fields of
one |A|-row GEMM; at n = 33 and 57 this OpenBLAS rounds some rows by the
product's row count.
After the last sweep the fields are evaluated afresh and a gap beyond a
rounding bound raises :class:`~hubofs.errors.HubofsError`. SA sample
metadata records the acceptance rate in each tenth of the proposals
(``sa_acceptance``).

Frozen exit: once a sweep accepts no flip and every acceptance probability
at the next temperature is below 2**-54, no chain can move again except on
a uniform of exactly 0 (a word below 2**11): the fields stay fixed while no
spin flips, the temperature only falls, and the smallest nonzero uniform is
2**-53, twice the bound (a margin for ``exp`` rounding). From then on a
sweep draws its block and is skipped unless one of its words is below
2**11, so the samples and metadata equal those of the plain loop, and the
skipped proposals count as rejected.

A :class:`SampleSet` is three arrays: ``spins`` (distinct configurations x n,
int8, one row each), ``counts`` (int64, shots per row) and ``energies``
(float64). Every sampler canonicalizes its set: duplicate configurations
merge, rows sort by (energy, lexicographic spins with -1 < +1), energies come
from :func:`hubofs.hubo.energy_many`, and the metadata records the number of
rows (``distinct_states``). ``SampleSet.entries`` is a read-only view of the
rows as :class:`SampleEntry` objects, built from the arrays on each access.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .artifacts import read_tagged, write_tagged
from .errors import CapabilityError, DataError, HubofsError, UsageError
from .hubo import (
    _GEMM_MACS,
    MAX_ALL_STATES_N,
    HuboCoefficients,
    SpinConfig,
    _row_blocks,
    dense_couplings,
    energies_all_states,
    energy_many,
    local_fields,
    states_to_spins,
)
from .rng import spins_from_bits, stream, uniforms

SAMPLE_SCHEMA = "hubofs-samples/3"
DEFAULT_T_END = 0.01
# Words below this give the uniform 0.0; a frozen sweep without one is skipped.
_ZERO_WORD = np.uint64(1 << 11)
# Half the smallest nonzero uniform: the frozen bound, with a margin for exp rounding.
_FROZEN_P = 2.0**-54
# Share of the chains from which a step updates every chain in place (dense).
_DENSE_SHARE = 0.5
# Stream words one draw may take: n*shots per SA sweep or random run, shots for dcqo.
MAX_WORDS = 1 << 24


@dataclass(frozen=True)
class SampleEntry:
    spins: SpinConfig
    count: int
    energy: float


@dataclass(frozen=True, eq=False)
class SampleSet:
    """Multiset of spin configurations: distinct rows with their counts and energies."""

    spins: np.ndarray
    counts: np.ndarray
    energies: np.ndarray
    total_shots: int
    sampler_name: str
    seed: int
    metadata: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        for name, dtype in (("spins", np.int8), ("counts", np.int64), ("energies", np.float64)):
            array = np.asarray(getattr(self, name), dtype=dtype)
            array.setflags(write=False)
            object.__setattr__(self, name, array)
        rows = self.counts.shape
        if self.spins.ndim != 2 or self.spins.shape[:1] != rows or self.energies.shape != rows:
            raise DataError("spins, counts and energies of a sample set disagree in shape")
        if not np.isin(self.spins, (-1, 1)).all():
            raise DataError("spins must be -1 or +1")
        if int(self.counts.sum()) != self.total_shots:
            raise DataError("entry counts do not sum to total_shots")
        if np.any(self.counts < 1):
            raise DataError("entry counts must be positive")
        if len(self.counts) > 1 and len(np.unique(self.spins, axis=0)) != len(self.counts):
            raise DataError("duplicate spin configurations in sample set")

    def __eq__(self, other):
        if not isinstance(other, SampleSet):
            return NotImplemented
        arrays = ("spins", "counts", "energies")
        return all(np.array_equal(getattr(self, a), getattr(other, a)) for a in arrays) and (
            (self.total_shots, self.sampler_name, self.seed, self.metadata)
            == (other.total_shots, other.sampler_name, other.seed, other.metadata)
        )

    @property
    def n(self) -> int:
        return self.spins.shape[1]

    @property
    def entries(self) -> tuple[SampleEntry, ...]:
        return tuple(
            SampleEntry(SpinConfig(tuple(row)), count, energy)
            for row, count, energy in zip(
                self.spins.tolist(), self.counts.tolist(), self.energies.tolist()
            )
        )

    def min_energy(self) -> float:
        return float(self.energies.min())


def _aggregate(
    c: HuboCoefficients,
    spin_matrix: np.ndarray,
    sampler_name: str,
    seed: int,
    metadata: dict[str, str] | None = None,
) -> SampleSet:
    uniq, counts = np.unique(spin_matrix, axis=0, return_counts=True)
    energies = energy_many(c, uniq)
    order = np.argsort(energies, kind="stable")  # np.unique rows are already spin-lex
    return SampleSet(
        spins=uniq[order],
        counts=counts[order],
        energies=energies[order],
        total_shots=int(spin_matrix.shape[0]),
        sampler_name=sampler_name,
        seed=seed,
        metadata={**(metadata or {}), "distinct_states": str(len(order))},
    )


def exhaustive_solve(c: HuboCoefficients, keep: int) -> SampleSet:
    """All 2^n configurations, keeping the ``keep`` lowest-energy ones.

    Ties break lexicographically on spins (-1 < +1). Ground-truth oracle for
    desk-scale validation; refuses n > ``MAX_ALL_STATES_N`` (24).
    """
    if c.n > MAX_ALL_STATES_N:
        raise CapabilityError(f"exhaustive enumeration needs n <= {MAX_ALL_STATES_N}, got n={c.n}")
    if keep < 1:
        raise UsageError(f"keep must be >= 1, got {keep}")
    size = 1 << c.n
    if keep > size:
        raise UsageError(f"keep={keep} exceeds the 2^{c.n} = {size} configurations")
    energies = energies_all_states(c)
    # Spin-lex ascending equals state-integer descending (x=1 <-> Z=-1 at the MSB).
    order = np.lexsort((-np.arange(size), energies))[:keep]
    return SampleSet(
        spins=states_to_spins(order, c.n),
        counts=np.ones(keep, dtype=np.int64),
        energies=energies[order],
        total_shots=keep,
        sampler_name="exhaustive",
        seed=0,
        metadata={"distinct_states": str(keep)},
    )


def simulated_annealing(
    c: HuboCoefficients,
    shots: int,
    sweeps: int,
    t_start: float | None = None,
    t_end: float = DEFAULT_T_END,
    seed: int = 0,
) -> SampleSet:
    """Independent single-spin Metropolis chains under geometric cooling.

    Each of ``shots`` chains starts uniformly at random, performs ``sweeps``
    full sweeps (spins in index order), and reports its final configuration.
    ``t_start`` defaults to 2 * n * max|coefficient| (1.0 on an all-zero
    instance). A tenth of the proposals that is empty (``sweeps * n < 10``)
    reads ``nan`` in ``sa_acceptance``.
    """
    if shots < 1:
        raise UsageError(f"shots must be >= 1, got {shots}")
    if sweeps < 1:
        raise UsageError(f"sweeps must be >= 1, got {sweeps}")
    _check_words(c.n * shots, "sa n*shots")
    if not 0.0 < t_end < math.inf:
        raise UsageError(f"t_end must be finite and > 0, got {t_end}")
    if t_start is None:
        scale = c.max_abs_coefficient()
        t_start = max(2.0 * c.n * scale if scale > 0.0 else 1.0, t_end)
        if t_start == math.inf:
            raise UsageError(f"default t_start 2 * n * max|coefficient| = 2 * {c.n} * {scale:.3g} "
                             "overflows: set --t-start or smaller --w1/--w2/--w3")
    if not t_end <= t_start < math.inf:
        raise UsageError(f"need finite t_start >= t_end > 0, got ({t_start}, {t_end})")

    if sweeps == 1:
        temps = np.array([t_end])
    else:
        ratio = (t_end / t_start) ** (1.0 / (sweeps - 1))
        temps = t_start * ratio ** np.arange(sweeps)

    n = c.n
    block = n * shots
    gen = stream(seed)
    words = gen.random_raw(block).reshape(n, shots)
    spins = spins_from_bits(words).T.astype(np.float64, order="C")

    jmat, kcube = dense_couplings(c)
    fields = local_fields(c.h, jmat, kcube, spins)
    accepted = np.zeros(sweeps * n, dtype=np.int64)
    moved_buf, update_buf, field_buf = (np.empty((shots, n)) for _ in range(3))
    rows = max(3, _GEMM_MACS // (n * n))
    all_rows = _row_blocks(shots, rows)
    scale_buf = np.empty(shots)
    frozen = False
    for sweep, temp in enumerate(temps):
        words = gen.random_raw(block)
        if frozen and words.min() >= _ZERO_WORD:
            continue
        u = uniforms(words).reshape(n, shots)
        for i in range(n):
            delta = -2.0 * spins[:, i] * fields[:, i]
            accept = u[i] < np.exp(np.minimum(-delta / temp, 0.0))
            k = int(np.count_nonzero(accept))
            if k >= _DENSE_SHARE * shots:
                # Every chain at once; a rejected chain's row is scaled by 0 and subtracts ±0.
                for lo, hi in zip(all_rows, all_rows[1:]):
                    np.matmul(spins[lo:hi], kcube[i], out=update_buf[lo:hi])
                update_buf += jmat[i]
                np.multiply(spins[:, i], 2.0, out=scale_buf)
                scale_buf *= accept
                update_buf *= scale_buf[:, None]
                fields -= update_buf
                spins[:, i] -= scale_buf  # Z - 2Z = -Z where accepted, Z - 0 elsewhere
            elif k:
                flips = np.flatnonzero(accept)
                # mode="clip" lets take write straight into out= (flips are in range).
                moved = np.take(spins, flips, axis=0, out=moved_buf[:k], mode="clip")
                update = update_buf[:k]
                bounds = _row_blocks(k, rows)
                for lo, hi in zip(bounds, bounds[1:]):
                    np.matmul(moved[lo:hi], kcube[i], out=update[lo:hi])
                update += jmat[i]
                update *= np.multiply(moved[:, i], 2.0, out=scale_buf[:k])[:, None]
                moved_fields = np.take(fields, flips, axis=0, out=field_buf[:k], mode="clip")
                moved_fields -= update
                fields[flips] = moved_fields
                spins[flips, i] = -moved[:, i]
            accepted[sweep * n + i] = k
        frozen = sweep + 1 < sweeps and not accepted[sweep * n : (sweep + 1) * n].any()
        if frozen:
            top = np.exp(np.minimum(2.0 * spins * fields / temps[sweep + 1], 0.0)).max()
            frozen = bool(top < _FROZEN_P)

    _check_fields(c, jmat, kcube, spins, fields, sweeps)
    tenth = np.arange(sweeps * n) * 10 // (sweeps * n)
    with np.errstate(invalid="ignore"):
        rates = np.bincount(tenth, weights=accepted, minlength=10) / (
            shots * np.bincount(tenth, minlength=10)
        )
    return _aggregate(
        c,
        spins.astype(np.int8),
        "sa",
        seed,
        {
            "sweeps": str(sweeps),
            "t_start": f"{t_start:.12g}",
            "t_end": f"{t_end:.12g}",
            "sa_acceptance": ",".join(f"{r:.6g}" for r in rates),
        },
    )


def _check_words(words: int, what: str) -> None:
    """Refuse a draw of more than :data:`MAX_WORDS` stream words before allocating it."""
    if words > MAX_WORDS:
        raise CapabilityError(f"{what} must be <= {MAX_WORDS} stream words, got {words}")


def _check_fields(c, jmat, kcube, spins, fields, sweeps) -> None:
    """Compare the maintained fields with a fresh evaluation at the final spins.

    Each of the ``sweeps * n`` updates rounds at most ~(n + 2) ulps of the
    largest possible |F_i|, so a larger gap (or a NaN) is a kernel fault.
    """
    n = c.n
    bound = np.abs(c.h) + np.abs(jmat).sum(1) + 0.5 * np.abs(kcube).sum((1, 2))
    scale = np.max(bound, initial=0.0)
    tol = np.finfo(np.float64).eps * (n + 2) * (sweeps * n + 1) * scale
    drift = np.abs(local_fields(c.h, jmat, kcube, spins) - fields)
    if not np.all(drift <= tol):
        raise HubofsError(
            f"local field drifted from a fresh evaluation: max {np.max(drift):.3g} > {tol:.3g}"
        )


def random_sample(c: HuboCoefficients, shots: int, seed: int = 0) -> SampleSet:
    """Uniform i.i.d. configurations with exactly evaluated energies."""
    if shots < 1:
        raise UsageError(f"shots must be >= 1, got {shots}")
    _check_words(c.n * shots, "random n*shots")
    words = stream(seed).random_raw(shots * c.n)
    return _aggregate(c, spins_from_bits(words).reshape(shots, c.n), "random", seed)


def save_samples(path, s: SampleSet) -> None:
    """Write the sample CSV: '#' metadata lines, then bitstring,count,energy.

    A bitstring is the x-representation, feature 0 leftmost ('1' = selected).
    """
    meta = [("sampler", s.sampler_name), ("seed", s.seed), ("n", s.n)]
    meta += [("total_shots", s.total_shots), *sorted(s.metadata.items())]
    chars = ((s.spins < 0) + ord("0")).astype(np.uint8).tobytes().decode("ascii")
    bits = (chars[t * s.n : (t + 1) * s.n] for t in range(len(s.counts)))
    energies = (f"{energy:.12g}" for energy in s.energies.tolist())
    rows = zip(bits, s.counts.tolist(), energies)
    write_tagged(path, SAMPLE_SCHEMA, meta, ("bitstring", "count", "energy"), rows)


def load_samples(path) -> SampleSet:
    """Read a sample CSV; the ``# n=`` header fixes the bitstring length."""
    meta, table = read_tagged(path, SAMPLE_SCHEMA, "sample")
    if not table or table[0] != ["bitstring", "count", "energy"]:
        raise DataError(f"missing sample header row in {path!r}")
    try:
        n = int(meta.get("n", ""))
        rows = table[1:]
        bits = [b for b, _, _ in rows]
        if n < 1 or any(len(b) != n for b in bits):
            raise ValueError(f"need n >= 1 and every bitstring {n} characters long")
        codes = np.frombuffer("".join(bits).encode("utf-8"), np.uint8).reshape(len(bits), n)
        counts = np.array([int(count) for _, count, _ in rows], dtype=np.int64)
        energies = np.array([float(energy) for _, _, energy in rows])
        declared = int(meta.get("total_shots", "0"))
        seed = int(meta.get("seed", "0"))
    except (ValueError, OverflowError) as exc:
        raise DataError(f"malformed sample file {path!r}: {exc}") from exc
    if not np.isin(codes, (ord("0"), ord("1"))).all():
        raise DataError(f"bitstrings in {path!r} must be made of 0 and 1")
    if not np.isfinite(energies).all():
        raise DataError(f"non-finite energy in {path!r}")
    total = sum(counts.tolist())
    if declared and declared != total:
        raise DataError(f"total_shots mismatch in {path!r}: header {declared}, rows {total}")
    known = {"schema", "sampler", "seed", "n", "total_shots"}
    return SampleSet(
        spins=1 - 2 * (codes == ord("1")),
        counts=counts,
        energies=energies,
        total_shots=total,
        sampler_name=meta.get("sampler", "unknown"),
        seed=seed,
        metadata={k: v for k, v in meta.items() if k not in known},
    )

"""Low-energy samplers for HUBO instances: exhaustive, annealing, random.

Reproducibility contract for the stochastic samplers (portable across
languages via the stream spec in :mod:`hubofs.rng`): each run reads one
Philox4x64-10 stream keyed ``seed mod 2**64``, at the word positions that
:mod:`hubofs.rng` lists.

* simulated annealing draws the initial spins of all chains from the first
  ``n*shots`` words, then one block of ``n*shots`` words per sweep; in
  sweep-major, spin-minor order, chain c's proposal to flip spin i is
  accepted when ``u <= exp(min(-delta / T, 0))`` (always if ``delta <= 0``),
  with u in (0, 1] the uniform of that proposal's word. Every proposal has
  its word, so no word position depends on the data.
* random sampling draws n top bits per shot (shot-major, spin-minor).

One draw takes at most :data:`MAX_WORDS` = 2**24 words: ``n*shots`` per SA
sweep or random run, ``shots`` for DCQO; an SA run makes at most as many
proposal steps (``sweeps*n``). A larger request raises
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
Both step kinds, and :func:`hubofs.hubo.local_fields`, form the products
``Z K[i]`` with :func:`hubofs.hubo.k_products`: GEMMs of at most 2**18
multiply-adds, cache blocks run by the one-thread OpenBLAS pool that
importing :mod:`hubofs` sets up (unblocked products ran slower). No block
has one row unless |A| = 1: a 1-row product takes another BLAS path that
rounds differently. At n = 5, 12 and 32 a row's product is then bitwise the
same in any block, so both step kinds give the fields of one |A|-row GEMM;
at n = 33 and 57 this OpenBLAS rounds some rows by the product's row count.
After the last sweep the fields are evaluated afresh and a gap beyond a
rounding bound raises :class:`~hubofs.errors.HubofsError`. SA sample
metadata records the acceptance rate in each tenth of the proposals
(``sa_acceptance``) and the sweeps run (``sa_sweeps_run``).

Frozen exit: once a sweep accepts no flip and every acceptance probability
at the next temperature is below 2**-54, no chain can move again (the
fields stay fixed while no spin flips, the temperature only falls, and the
smallest uniform 2**-53 is twice the bound, a margin for ``exp`` rounding).
SA then stops and reads no further word; unmade proposals count as rejected.

Halves: a run whose work ``shots * sweeps * n * n`` reaches :data:`_FORK_WORK` =
2**28 (the default 2000 shots x 500 sweeps at n = 32 does) anneals chains
``0 .. shots//2 - 1`` and ``shots//2 .. shots - 1`` apart. Each half reads the
stream from word 0 in whole blocks and keeps its own chains' columns, so every
chain reads the words above; it picks its step kinds against its own chain
count and stops at its own freeze. Where ``os.sched_getaffinity`` lists two or
more CPUs, a worker made by ``os.fork`` anneals the first half into an
anonymous shared mapping while this process anneals the second (through
``_fork_halves``, which DCQO's halves use too, pinning this process to its CPU
and the worker to the others until the worker is reaped); the worker is always
reaped (killed first if this process's half raised), and a worker that fails
raises :class:`~hubofs.errors.HubofsError`. Elsewhere the halves
run one after the other, with the same bits, so no artifact depends on the
CPU count. The acceptance tallies add, and ``sa_sweeps_run`` is the larger
of the halves': a frozen chain never moves again, so the run's first
all-frozen sweep is the later half's. Each half's products run over its own
chains: a step that moves one chain of a half takes the 1-row path, and at
n = 33 and 57 rows round by the half's row count, so the final fields may
differ from those of one whole-run kernel in their last bits; no artifact
holds the fields.

A :class:`SampleSet` is three arrays: ``spins`` (distinct configurations x n,
int8, one row each), ``counts`` (int64, shots per row) and ``energies``
(float64). Rows compare only by ``_row_keys``: one packed key per row, whose
bytes sort like the spins (-1 < +1). Every sampler's rows go to one builder,
``_aggregate``: equal keys merge, rows sort by (energy, key), the energies are
exhaustive's own or else :func:`hubofs.hubo.energy_many`'s, and the metadata
records the number of rows (``distinct_states``). ``SampleSet.entries`` is a
read-only view of the rows as :class:`SampleEntry` objects, built on each access.
"""

from __future__ import annotations

import math
import mmap
import os
import signal
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from .artifacts import read_tagged, write_tagged
from .errors import CapabilityError, DataError, HubofsError, UsageError
from .hubo import (
    HuboCoefficients,
    SpinConfig,
    dense_couplings,
    energies_all_states,
    energy_many,
    k_products,
    local_fields,
    states_to_spins,
)
from .rng import spins_from_bits, stream, uniforms

SAMPLE_SCHEMA = "hubofs-samples/4"
DEFAULT_T_END = 0.01
# Half the smallest uniform: the frozen bound, with a margin for exp rounding.
_FROZEN_P = 2.0**-54
# Share of the chains from which a step updates every chain in place (dense).
_DENSE_SHARE = 0.5
# Cap on the stream words of one draw (n*shots per SA sweep or random run, shots for
# dcqo), and on the proposal steps (sweeps*n) of one SA run.
MAX_WORDS = 1 << 24
# Work (shots * sweeps * n * n) from which SA anneals two halves of its chains apart.
_FORK_WORK = 1 << 28


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
        if np.any(self.counts < 1):
            raise DataError("entry counts must be positive")
        # return_counts: a plain np.unique imports numpy.ma for its is_masked check
        keys, _ = np.unique(_row_keys(self.spins), return_counts=True)
        if len(self.counts) > 1 and len(keys) != len(self.counts):
            raise DataError("duplicate spin configurations in sample set")

    def __eq__(self, other):
        if not isinstance(other, SampleSet):
            return NotImplemented
        arrays = ("spins", "counts", "energies")
        return all(np.array_equal(getattr(self, a), getattr(other, a)) for a in arrays) and (
            (self.sampler_name, self.seed, self.metadata)
            == (other.sampler_name, other.seed, other.metadata)
        )

    @property
    def n(self) -> int:
        return self.spins.shape[1]

    @property
    def total_shots(self) -> int:
        return int(self.counts.sum())

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


def _row_keys(spins: np.ndarray) -> np.ndarray:
    """The packed key of each row of a (S, n) spin matrix; none at n = 0, where rows repeat."""
    keys = np.ascontiguousarray(np.packbits(spins > 0, axis=1))
    return keys.view(np.dtype((np.void, max(keys.shape[1], 1)))).ravel()


def _aggregate(
    c: HuboCoefficients,
    spin_matrix: np.ndarray,
    sampler_name: str,
    seed: int,
    metadata: dict[str, str] | None = None,
    energies: np.ndarray | None = None,
) -> SampleSet:
    _, first, counts = np.unique(_row_keys(spin_matrix), return_index=True, return_counts=True)
    energies = energy_many(c, spin_matrix[first]) if energies is None else energies[first]
    order = np.argsort(energies, kind="stable")  # the unique keys are already spin-lex
    return SampleSet(
        spins=spin_matrix[first[order]],
        counts=counts[order],
        energies=energies[order],
        sampler_name=sampler_name,
        seed=seed,
        metadata={**(metadata or {}), "distinct_states": str(len(order))},
    )


def exhaustive_solve(c: HuboCoefficients, keep: int) -> SampleSet:
    """All 2^n configurations, keeping the ``keep`` lowest-energy ones.

    Ties break lexicographically on spins (-1 < +1). Ground-truth oracle for
    desk-scale validation; each energy is evaluated once, by :func:`energies_all_states`,
    which refuses n > ``MAX_ALL_STATES_N`` (24) before it allocates anything.
    """
    if keep < 1:
        raise UsageError(f"keep must be >= 1, got {keep}")
    energies = energies_all_states(c)
    size = len(energies)
    if keep > size:
        raise UsageError(f"keep={keep} exceeds the 2^{c.n} = {size} configurations")
    # Spin-lex ascending equals state-integer descending (x=1 <-> Z=-1 at the MSB).
    order = np.lexsort((-np.arange(size), energies))[:keep]
    return _aggregate(c, states_to_spins(order, c.n), "exhaustive", 0, energies=energies[order])


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
    full sweeps (spins in index order; fewer once frozen) and reports its
    final configuration. ``t_start`` defaults to 2 * n * max|coefficient|
    (1.0 on an all-zero instance). A tenth of the proposals that is empty
    (``sweeps * n < 10``) reads ``nan`` in ``sa_acceptance``.
    """
    if shots < 1:
        raise UsageError(f"shots must be >= 1, got {shots}")
    if sweeps < 1:
        raise UsageError(f"sweeps must be >= 1, got {sweeps}")
    _check_words(c.n * shots, "sa n*shots")
    if sweeps * c.n > MAX_WORDS:
        raise CapabilityError(f"sa sweeps*n must be <= {MAX_WORDS}, got {sweeps} sweeps * {c.n}")
    if not 0.0 < t_end < math.inf:
        raise UsageError(f"t_end must be finite and > 0, got {t_end}")
    if t_start is None:
        scale = c.max_abs_coefficient()
        t_start = max(2.0 * c.n * scale if scale > 0.0 else 1.0, t_end)
    if not t_end <= t_start < math.inf:
        raise UsageError(f"need finite t_start >= t_end > 0, got ({t_start}, {t_end})")

    if sweeps == 1:
        temps = np.array([t_end])
    else:
        ratio = (t_end / t_start) ** (1.0 / (sweeps - 1))
        temps = t_start * ratio ** np.arange(sweeps)
    if not temps[-1] > 0.0:
        raise UsageError(f"schedule underflows to T = 0 (t_start={t_start:.3g}, sweeps={sweeps})")

    n = c.n
    jmat, kcube = dense_couplings(c)
    cut = shots // 2 if shots * sweeps * n * n >= _FORK_WORK else 0
    ranges = [(0, cut), (cut, shots)] if cut else [(0, shots)]
    # The run's spins and fields, then per range ten acceptance tallies and its sweeps run:
    # one anonymous shared mapping, which a forked worker writes into.
    shared = np.frombuffer(mmap.mmap(-1, 8 * (2 * shots * n + 11 * len(ranges))), np.float64)
    spins, fields = shared[: 2 * shots * n].reshape(2, shots, n)
    outs = shared[2 * shots * n :].view(np.int64).reshape(len(ranges), 11)
    jobs = [(c, jmat, kcube, temps, seed, lo, hi, spins, fields, out)
            for (lo, hi), out in zip(ranges, outs)]
    if len(jobs) == 2 and _cpus() >= 2:
        parent = os.getpid()
        _fork_halves("SA", lambda meet: _anneal(*jobs[0], parent=parent),
                     lambda meet: _anneal(*jobs[1]))
    else:
        for job in jobs:
            _anneal(*job)

    _check_fields(c, jmat, kcube, spins, fields, sweeps)
    total = sweeps * n
    starts = -(-np.arange(11) * total // 10)  # ceil(j * total / 10): where tenth j starts
    with np.errstate(invalid="ignore"):
        rates = outs[:, :10].sum(0) / (shots * np.diff(starts))
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
            "sa_sweeps_run": str(outs[:, 10].max()),
        },
    )


def _anneal(c, jmat, kcube, temps, seed, lo, hi, spins, fields, out, parent=None) -> None:
    """Anneal chains ``lo..hi-1`` in place on their rows of the run's ``spins`` and ``fields``.

    Reads the run's stream from word 0, whole blocks, and takes the columns of its own
    chains, so every chain reads the words of the stream contract. ``out`` receives the
    accepted proposals in each tenth of the ``sweeps * n`` steps, then the sweeps run. A
    worker passes its ``parent``'s pid and gives up once it has been orphaned.
    """
    n, shots, sweeps = c.n, len(spins), len(temps)
    rows, block, tallies = hi - lo, n * shots, out[:10]
    spins, fields = spins[lo:hi], fields[lo:hi]
    gen = stream(seed)
    spins[...] = spins_from_bits(gen.random_raw(block).reshape(n, shots)[:, lo:hi]).T
    fields[...] = local_fields(c.h, jmat, kcube, spins)
    moved_buf, update_buf = (np.empty((rows, n)) for _ in range(2))
    scale_buf, ratio, accept = np.empty(rows), np.empty(rows), np.empty(rows, bool)
    # u <= exp(ratio), ratio = -delta / T: a positive ratio's exp is >= 1 >= u, so no
    # min(ratio, 0) is needed. At a subnormal temperature a ratio may overflow to +-inf;
    # exp(-inf) = 0 rejects and exp(+inf) accepts, the exact decisions, so the overflow
    # is silenced; a field that overflows still fails _check_fields.
    with np.errstate(over="ignore"):
        for sweep, temp in enumerate(temps):
            if parent is not None and os.getppid() != parent:
                raise HubofsError("the SA worker lost its parent process")
            u = uniforms(gen.random_raw(block).reshape(n, shots)[:, lo:hi])
            accepted = 0
            for i in range(n):
                np.multiply(spins[:, i], fields[:, i], out=ratio)
                ratio *= 2.0
                ratio /= temp
                np.less_equal(u[i], np.exp(ratio, out=ratio), out=accept)
                k = int(np.count_nonzero(accept))
                if k >= _DENSE_SHARE * rows:
                    # Every chain at once; a rejected chain's row is scaled by 0 and subtracts ±0.
                    k_products(spins, kcube[i], update_buf)
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
                    update = k_products(moved, kcube[i], update_buf)
                    update += jmat[i]
                    update *= np.multiply(moved[:, i], 2.0, out=scale_buf[:k])[:, None]
                    fields[flips] -= update
                    spins[flips, i] = -moved[:, i]
                tallies[(sweep * n + i) * 10 // (sweeps * n)] += k
                accepted += k
            if sweep + 1 < sweeps and not accepted:
                top = np.exp(np.minimum(2.0 * spins * fields / temps[sweep + 1], 0.0)).max()
                if top < _FROZEN_P:
                    break  # frozen: no uniform (>= 2**-53) accepts again
    out[10] = sweep + 1


def _fork_halves(name: str, first, second) -> None:
    """Run ``first(meet)`` in a worker made by ``os.fork`` and ``second(meet)`` here.

    ``meet(then=None)`` is where the halves meet, through a pipe pair: the worker says
    it has arrived and waits; this process waits for it, calls ``then``, and lets it go
    on. A worker whose parent is gone reads EOF there and ends. The worker never
    returns into the caller: it exits 0 when done, and 1 with one stderr line on any
    exception. It is always reaped, and killed first if this process's own half
    raised; a worker that failed raises :class:`~hubofs.errors.HubofsError`.
    """
    # The halves are pinned apart: a woken half was often placed on the CPU of the half
    # that woke it, and the two took turns there (seen on a 2-vCPU VM). This process
    # keeps the CPU it last ran on (field 39 of /proc/self/stat) and the worker the rest.
    cpus = os.sched_getaffinity(0)
    with open("/proc/self/stat") as stat:
        here = {int(stat.read().rsplit(")", 1)[1].split()[36])}
    go_r, go_w = os.pipe()  # this process -> worker
    arrived_r, arrived_w = os.pipe()  # worker -> this process
    sys.stdout.flush()  # else the worker would inherit, and could repeat, buffered output
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.sched_setaffinity(0, cpus - here or cpus)
            os.close(go_w)  # then this process's exit leaves the worker an EOF

            def meet(then=None):
                os.write(arrived_w, b".")
                if not os.read(go_r, 1):
                    raise HubofsError(f"the {name} worker lost its parent process")

            first(meet)
            status = 0
        except BaseException as exc:  # the worker ends below either way
            print(f"error [{name.lower()} worker]: {exc!r}", file=sys.stderr, flush=True)
        finally:
            os._exit(status)
    os.close(arrived_w)  # then the worker's exit leaves this process an EOF

    def meet(then=None):
        if not os.read(arrived_r, 1):
            raise HubofsError(f"the {name} worker process ended before the halves met")
        if then is not None:
            then()
        os.write(go_w, b".")  # go_r is open here, so this never breaks the pipe

    try:
        os.sched_setaffinity(0, here)
        second(meet)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for fd in (go_r, go_w, arrived_r):
            os.close(fd)
        status = os.waitpid(pid, 0)[1]
        os.sched_setaffinity(0, cpus)
    if status:
        raise HubofsError(f"the {name} worker process failed (wait status {status})")


def _cpus() -> int:
    """The CPUs in this process's affinity mask (0 where the platform cannot say)."""
    return len(getattr(os, "sched_getaffinity", lambda pid: ())(0))


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


def save_samples(path, s: SampleSet) -> SampleSet:
    """Write the sample CSV: '#' metadata lines, then bitstring,count,energy; return the
    set the file holds, ``s`` with its energies to 12 significant digits. A bitstring is
    the x-representation, feature 0 leftmost ('1' = selected)."""
    meta = [("sampler", s.sampler_name), ("seed", s.seed), ("n", s.n)]
    meta += [("total_shots", s.total_shots), *sorted(s.metadata.items())]
    chars = ((s.spins < 0) + ord("0")).astype(np.uint8).tobytes().decode("ascii")
    bits = (chars[t * s.n : (t + 1) * s.n] for t in range(len(s.counts)))
    energies = [f"{energy:.12g}" for energy in s.energies.tolist()]
    rows = zip(bits, s.counts.tolist(), energies)
    write_tagged(path, SAMPLE_SCHEMA, meta, ("bitstring", "count", "energy"), rows)
    return replace(s, energies=[float(energy) for energy in energies])


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
    if total > np.iinfo(np.int64).max:  # SampleSet.total_shots sums in int64
        raise DataError(f"{path!r} holds {total} shots, more than an int64 count")
    known = {"schema", "sampler", "seed", "n", "total_shots"}
    return SampleSet(
        spins=1 - 2 * (codes == ord("1")),
        counts=counts,
        energies=energies,
        sampler_name=meta.get("sampler", "unknown"),
        seed=seed,
        metadata={k: v for k, v in meta.items() if k not in known},
    )

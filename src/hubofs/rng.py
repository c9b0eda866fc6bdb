"""Counter-based random streams used by every stochastic sampler in this package.

Sample artifacts must be byte-identical across runs, platforms, numpy
versions and reimplementations in other languages, so the streams are fully
specified here. Only ``numpy.random.Philox.random_raw`` is used: NEP 19 keeps
bit-generator streams stable across numpy versions, which it does not
promise for ``Generator`` methods.

Generator: Philox4x64-10 (Salmon et al., "Parallel random numbers: as easy
as 1, 2, 3", SC'11), keyed ``seed mod 2**64`` (key words ``(seed mod 2**64,
0)``). Word ``p`` of a stream (``p = 0, 1, ...``) is lane ``p mod 4`` of the
Philox4x64-10 block of the 256-bit counter ``p // 4 + 1``; numpy increments
the counter before each block. One round maps counter ``(c0, c1, c2, c3)``
and key ``(k0, k1)``, with 128-bit products ``hi:lo``, to::

    hi0:lo0 = 0xD2E7470EE14C6C93 * c0
    hi1:lo1 = 0xCA5A826395121157 * c2
    (c0, c1, c2, c3) = (hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0)
    k0 += 0x9E3779B97F4A7C15;  k1 += 0xBB67AE8584CAA73B   (mod 2**64)

A word ``w`` gives the uniform ``((w >> 11) + 1) * 2**-53`` in (0, 1] and the
bit ``w >> 63`` (bit 1 is x=1, selected, spin -1). The samplers read one
stream, keyed by their ``seed``, at fixed positions:

* simulated annealing with n spins and ``shots`` chains: the bit of word
  ``i*shots + c`` is chain c's initial spin i; the uniform of word
  ``n*shots + sweep*n*shots + i*shots + c`` decides chain c's proposal to
  flip spin i in that sweep. Chains of one run use disjoint positions;
* random sampling: the bit of word ``s*n + i`` is shot s's spin i;
* DCQO: the uniform of word ``s`` places shot s.

Runs with different seeds read different keys, so they share no stream.

``Xoshiro256StarStar`` and ``VectorXoshiro256StarStar`` (xoshiro256** by
Blackman & Vigna, seeded with splitmix64) are the generators of the
``hubofs-samples/2`` files. No sampler uses them any more; they stay only
because ``perfbench/tracer.py`` wraps their methods when it installs, and go
away with that tracer.
"""

from __future__ import annotations

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF
_INV_2_53 = 2.0**-53


def stream(seed: int) -> np.random.Philox:
    """The Philox4x64-10 stream keyed ``seed mod 2**64``, at word 0."""
    return np.random.Philox(key=seed & _MASK64)


def uniforms(words: np.ndarray) -> np.ndarray:
    """``((w >> 11) + 1) * 2**-53`` per word: float64 in (0, 1] with 53 random bits."""
    return ((words >> np.uint64(11)) + np.uint64(1)) * _INV_2_53


def spins_from_bits(words: np.ndarray) -> np.ndarray:
    """``1 - 2 * (w >> 63)`` per word, as int8 spins (bit 1 is spin -1)."""
    return (1 - 2 * (words >> np.uint64(63))).astype(np.int8)


def splitmix64_stream(seed: int, count: int) -> list[int]:
    """First ``count`` outputs of splitmix64 started from ``seed``."""
    x = seed & _MASK64
    out = []
    for _ in range(count):
        x = (x + 0x9E3779B97F4A7C15) & _MASK64
        z = x
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        out.append(z ^ (z >> 31))
    return out


class Xoshiro256StarStar:
    """Scalar xoshiro256** stream seeded via splitmix64."""

    __slots__ = ("_s0", "_s1", "_s2", "_s3")

    def __init__(self, seed: int):
        self._s0, self._s1, self._s2, self._s3 = splitmix64_stream(seed, 4)

    def next_u64(self) -> int:
        s1 = self._s1
        result = ((((s1 * 5) & _MASK64) << 7 | ((s1 * 5) & _MASK64) >> 57) & _MASK64) * 9 & _MASK64
        t = (s1 << 17) & _MASK64
        s2 = self._s2 ^ self._s0
        s3 = self._s3 ^ s1
        self._s1 = s1 ^ s2
        self._s0 = self._s0 ^ s3
        self._s2 = s2 ^ t
        self._s3 = ((s3 << 45) | (s3 >> 19)) & _MASK64
        return result

    def random(self) -> float:
        """Uniform float in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * _INV_2_53

    def next_bit(self) -> int:
        """Top bit of the next output word (fair coin)."""
        return self.next_u64() >> 63


class VectorXoshiro256StarStar:
    """Lane-parallel xoshiro256**: lane ``i`` is exactly ``Xoshiro256StarStar(seeds[i])``."""

    def __init__(self, seeds):
        states = [splitmix64_stream(int(s), 4) for s in seeds]
        arr = np.array(states, dtype=np.uint64).T
        self._s = [arr[i].copy() for i in range(4)]
        self.n_lanes = arr.shape[1]

    def next_u64(self) -> np.ndarray:
        s0, s1, s2, s3 = self._s
        with np.errstate(over="ignore"):
            r = s1 * np.uint64(5)
            result = ((r << np.uint64(7)) | (r >> np.uint64(57))) * np.uint64(9)
            t = s1 << np.uint64(17)
            s2 = s2 ^ s0
            s3 = s3 ^ s1
            s1 = s1 ^ s2
            s0 = s0 ^ s3
            s2 = s2 ^ t
            s3 = (s3 << np.uint64(45)) | (s3 >> np.uint64(19))
        self._s = [s0, s1, s2, s3]
        return result

    def random(self) -> np.ndarray:
        return (self.next_u64() >> np.uint64(11)).astype(np.float64) * _INV_2_53

    def next_bit(self) -> np.ndarray:
        return (self.next_u64() >> np.uint64(63)).astype(np.int64)

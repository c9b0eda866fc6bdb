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

``Xoshiro256StarStar`` and ``VectorXoshiro256StarStar`` are inert names whose
methods raise ``NotImplementedError``: they exist only because
``perfbench/tracer.py``'s ``install()`` wraps them, and go with that tracer.
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


def _retired(*args, **kwargs):
    raise NotImplementedError("the xoshiro256** generators are retired; samplers read rng.stream")


class Xoshiro256StarStar:
    random = next_bit = _retired


class VectorXoshiro256StarStar:
    __init__ = random = next_bit = _retired

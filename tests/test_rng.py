import numpy as np
import pytest

from hubofs import rng
from hubofs.rng import spins_from_bits, stream, uniforms

MASK64 = (1 << 64) - 1


def philox4x64_10(counter: int, key: int) -> list[int]:
    """The four words of one Philox4x64-10 block (Salmon et al., SC'11)."""
    c0, c1, c2, c3 = ((counter >> (64 * q)) & MASK64 for q in range(4))
    k0, k1 = key & MASK64, key >> 64
    for _ in range(10):
        p0 = 0xD2E7470EE14C6C93 * c0
        p1 = 0xCA5A826395121157 * c2
        c0, c1, c2, c3 = (p1 >> 64) ^ c1 ^ k0, p1 & MASK64, (p0 >> 64) ^ c3 ^ k1, p0 & MASK64
        k0 = (k0 + 0x9E3779B97F4A7C15) & MASK64
        k1 = (k1 + 0xBB67AE8584CAA73B) & MASK64
    return [c0, c1, c2, c3]


def reference_words(seed: int, count: int) -> list[int]:
    """Words 0 .. count-1 of the stream keyed seed mod 2**64: word p is lane
    p mod 4 of the block at counter p // 4 + 1."""
    blocks = (count + 3) // 4
    return [w for b in range(blocks) for w in philox4x64_10(b + 1, seed & MASK64)][:count]


@pytest.mark.parametrize("seed", [0, 7, 2**64 - 1, -5])
def test_stream_equals_pure_python_philox(seed):
    gen = stream(seed)
    # Odd block sizes cross numpy's four-word buffer between calls.
    got = np.concatenate([gen.random_raw(size) for size in (1, 6, 3, 13)]).tolist()
    assert got == reference_words(seed, 23)


def test_stream_key_is_seed_mod_2_64():
    assert stream(-5).random_raw(8).tolist() == stream(2**64 - 5).random_raw(8).tolist()
    assert stream(2**64 + 7).random_raw(8).tolist() == stream(7).random_raw(8).tolist()


def test_word_maps_to_uniform_and_spin():
    words = np.array([0, (1 << 11) - 1, 1 << 11, 1 << 63, MASK64], dtype=np.uint64)
    assert uniforms(words).tolist() == [((int(w) >> 11) + 1) * 2.0**-53 for w in words]
    assert uniforms(words).tolist()[:3] == [2.0**-53, 2.0**-53, 2.0**-52]
    assert uniforms(words).tolist()[-1] == 1.0
    assert spins_from_bits(words).tolist() == [1, 1, 1, -1, -1]
    assert spins_from_bits(words).dtype == np.int8


# The attributes perfbench/tracer.py's install() wraps: present, and inert.
@pytest.mark.parametrize(
    "owner, attr",
    [
        (rng.VectorXoshiro256StarStar, "__init__"),
        (rng.VectorXoshiro256StarStar, "random"),
        (rng.VectorXoshiro256StarStar, "next_bit"),
        (rng.Xoshiro256StarStar, "random"),
        (rng.Xoshiro256StarStar, "next_bit"),
    ],
)
def test_retired_xoshiro_names_raise(owner, attr):
    with pytest.raises(NotImplementedError):
        getattr(owner, attr)(None)

import numpy as np
import pytest

from hubofs.rng import (
    Xoshiro256StarStar,
    VectorXoshiro256StarStar,
    spins_from_bits,
    splitmix64_stream,
    stream,
    uniforms,
)

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
    assert uniforms(words).tolist() == [(int(w) >> 11) * 2.0**-53 for w in words]
    assert uniforms(words).tolist()[:3] == [0.0, 0.0, 2.0**-53]
    assert float(uniforms(words).max()) < 1.0
    assert spins_from_bits(words).tolist() == [1, 1, 1, -1, -1]
    assert spins_from_bits(words).dtype == np.int8


# xoshiro256** backs no sampler; it stays while perfbench/tracer.py wraps it.
def test_splitmix64_known_values():
    # Frozen from the documented recurrence; any port must reproduce these.
    assert splitmix64_stream(0, 3) == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]
    assert splitmix64_stream(1234567, 2) == [
        0x599ED017FB08FC85,
        0x2C73F08458540FA5,
    ]


def test_xoshiro_stream_frozen():
    gen = Xoshiro256StarStar(42)
    first = [gen.next_u64() for _ in range(4)]
    gen2 = Xoshiro256StarStar(42)
    assert [gen2.next_u64() for _ in range(4)] == first
    assert all(0 <= v < 2**64 for v in first)
    assert len(set(first)) == 4


def test_random_in_unit_interval():
    gen = Xoshiro256StarStar(7)
    values = [gen.random() for _ in range(1000)]
    assert all(0.0 <= v < 1.0 for v in values)
    assert 0.4 < float(np.mean(values)) < 0.6


def test_vector_lanes_match_scalar_streams():
    seeds = [0, 1, 7, 2**63, 12345]
    scalars = [Xoshiro256StarStar(s) for s in seeds]
    vec = VectorXoshiro256StarStar(seeds)
    for _ in range(50):
        expect = [g.next_u64() for g in scalars]
        got = [int(v) for v in vec.next_u64()]
        assert got == expect


def test_vector_random_matches_scalar_random():
    seeds = [3, 4]
    scalars = [Xoshiro256StarStar(s) for s in seeds]
    vec = VectorXoshiro256StarStar(seeds)
    for _ in range(20):
        expect = [g.random() for g in scalars]
        got = list(vec.random())
        assert got == expect


def test_next_bit_is_top_bit():
    gen_a = Xoshiro256StarStar(99)
    gen_b = Xoshiro256StarStar(99)
    for _ in range(32):
        assert gen_a.next_bit() == gen_b.next_u64() >> 63

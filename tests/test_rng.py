import random
from collections import Counter

import pytest
from scipy.stats import chisquare

from mmphf_lab.rng import BitSampler, derive_seed, hash64, hash_key, mix64


def test_deterministic_streams():
    a = BitSampler(7)
    b = BitSampler(7)
    assert [a.bits(13) for _ in range(10)] == [b.bits(13) for _ in range(10)]


def test_uniform_pow2_bounds():
    rng = BitSampler(1)
    draws = [rng.uniform_pow2(5) for _ in range(2000)]
    assert min(draws) >= 1 and max(draws) <= 32
    assert set(draws) == set(range(1, 33))


def test_uniform_range_bounds_and_coverage():
    rng = BitSampler(2)
    draws = [rng.uniform_range(5) for _ in range(5000)]
    assert set(draws) == {1, 2, 3, 4, 5}
    _, p = chisquare(list(Counter(draws).values()))
    assert p > 0.001


def test_uniform_range_rejects_empty():
    with pytest.raises(ValueError):
        BitSampler(0).uniform_range(0)


def test_derived_seeds_distinct():
    seeds = {derive_seed(42, i) for i in range(10000)}
    assert len(seeds) == 10000


def test_hash64_depends_on_all_inputs():
    assert hash64(1, 2) != hash64(1, 3)
    assert hash64(1, 2, salt=1) != hash64(1, 2, salt=2)
    assert hash64(1, 2) == hash64(1, 2)


def test_hash64_mixes_the_value_into_one_key_per_seed_and_salt():
    rng = random.Random(17)
    for _ in range(2000):
        v, seed, salt = (rng.getrandbits(rng.choice((8, 64, 80))) for _ in range(3))
        assert hash64(v, seed, salt) == mix64(v ^ hash_key(seed, salt))
    assert hash64(5, 9) == mix64(5 ^ hash_key(9))


def test_mix64_is_64_bit():
    for x in (0, 1, 2**63, 2**64 - 1):
        assert 0 <= mix64(x) < 2**64


def test_draw_wider_than_getrandbits_takes_is_a_value_error():
    # getrandbits takes its width as a C int; 2^40 bits is the canonical m = 4 s0
    for n in (1 << 31, 1 << 40):
        with pytest.raises(ValueError, match="random bits"):
            BitSampler(0).bits(n)

"""Seeded randomness with bit-exact uniformity.

Draws from [1, 2^s] take exactly s fresh bits plus one; draws from [1, n]
use rejection sampling, so there is never modulo bias.  Bulk bits come
from a Mersenne generator seeded with a 64-bit value; independent streams
(e.g. parallel trials) derive child seeds through a splitmix-style mix of
the master seed, so the whole experiment is reproducible from one seed.
"""

import random

from .serialize import int_str

MASK64 = (1 << 64) - 1

#: Identifier recorded in output metadata so artifacts name their generator.
GENERATOR_NAME = "mt19937/splitmix64-derived"


def mix64(z: int) -> int:
    z &= MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def derive_seed(master: int, index: int) -> int:
    """Child seed number `index` of the stream identified by `master`."""
    return mix64((master + (index + 1) * 0x9E3779B97F4A7C15) & MASK64)


def hash_key(seed: int, salt: int = 0) -> int:
    """The 64-bit key `hash64` mixes into every value hashed under (seed, salt)."""
    return mix64(seed ^ (salt * 0xD6E8FEB86659FD93))


def hash64(value: int, seed: int, salt: int = 0) -> int:
    """Deterministic 64-bit hash of an integer under a seed and salt.

    Equal to `mix64(value ^ hash_key(seed, salt))`, so a caller hashing many
    values under one (seed, salt) can mix the key once.
    """
    return mix64(value ^ hash_key(seed, salt))


class BitSampler:
    """Uniform integer draws from a recorded 64-bit seed."""

    def __init__(self, seed: int):
        self.seed = seed & MASK64
        self._rng = random.Random(self.seed)

    def bits(self, n: int) -> int:
        if n >= 1 << 31:  # `getrandbits` takes its width as a C int
            raise ValueError(f"cannot draw {int_str(n)} random bits at once (at most 2^31 - 1)")
        return self._rng.getrandbits(n) if n > 0 else 0

    def uniform_pow2(self, s: int) -> int:
        """Uniform on [1, 2^s]: s fresh bits plus one."""
        return self.bits(s) + 1

    def uniform_range(self, n: int) -> int:
        """Uniform on [1, n] by rejection sampling."""
        if n < 1:
            raise ValueError("range must be nonempty")
        if n == 1:
            return 1
        width = (n - 1).bit_length()
        while True:
            v = self.bits(width)
            if v < n:
                return v + 1

    def choice_index(self, n: int) -> int:
        """Uniform on {0, ..., n-1}."""
        return self.uniform_range(n) - 1

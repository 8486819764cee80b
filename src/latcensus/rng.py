"""Seedable, reproducible 64-bit random generator (SplitMix64).

The generator is fully specified by its 64-bit seed, so identical seeds
give bit-identical streams on every platform and Python version.
"""

from __future__ import annotations

_MASK = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15


def _mix64(z: int) -> int:
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK
    return z ^ (z >> 31)


class SplitMix64:
    """SplitMix64 stream over 64-bit unsigned integers."""

    __slots__ = ("seed", "_state")

    def __init__(self, seed: int):
        self.seed = seed & _MASK
        self._state = self.seed

    def next_u64(self) -> int:
        self._state = (self._state + GOLDEN) & _MASK
        return _mix64(self._state)

    def randbelow(self, n: int) -> int:
        """Uniform integer in [0, n), by rejection (exactly uniform).

        A candidate is the w = ceil(log2(n) / 64) next words, the first
        drawn most significant, so n <= 2^64 draws one word per candidate.
        A candidate is accepted with probability at least 1/2.
        """
        if n <= 0:
            raise ValueError("randbelow requires n >= 1")
        if n == 1:
            return 0
        if n <= 1 << 64:  # one word per candidate: next_u64 inlined
            limit, s = (1 << 64) - (1 << 64) % n, self._state
            while True:
                s = (s + GOLDEN) & _MASK
                z = (s ^ (s >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
                z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK
                z ^= z >> 31
                if z < limit:
                    self._state = s
                    return z % n
        words = ((n - 1).bit_length() + 63) // 64
        span = 1 << (64 * words)
        limit = span - span % n
        while True:
            u = 0
            for _ in range(words):
                u = (u << 64) | self.next_u64()
            if u < limit:
                return u % n

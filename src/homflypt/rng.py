"""A small fixed PRNG so fuzz cases reproduce across implementations.

This is SplitMix64: state advances by the 64-bit odd constant
0x9E3779B97F4A7C15; output mixes the state with xor-shifts by 30/27/31 and
the multipliers 0xBF58476D1CE4E5B9 and 0x94D049BB133111EB.  The same seed
yields the same stream on every platform and Python version.
`random_braid` draws a braid word from it and returns the word's closure,
a `ClosedBraid`, as `parse_braid` does for a word read from text.
"""

from __future__ import annotations

from .links import ClosedBraid

__all__ = ["SplitMix64", "random_braid"]

_MASK = (1 << 64) - 1


class SplitMix64:
    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Uniform-ish draw in [0, n); the tiny modulo bias is irrelevant
        for fuzzing and keeps the generator description one line long."""
        if n <= 0:
            raise ValueError("below() needs a positive bound")
        return self.next_u64() % n


def random_braid(rng: SplitMix64, strands: int, length: int) -> ClosedBraid:
    """The closure of a deterministic random braid word on the given strand
    count; each letter draws its generator in 1..strands-1, then its sign."""
    if strands < 2:
        raise ValueError("random braids need at least 2 strands")
    if length < 0:
        raise ValueError("length must be nonnegative")
    letters = []
    for _ in range(length):
        gen = 1 + rng.below(strands - 1)
        sign = 1 if rng.below(2) == 0 else -1
        letters.append(sign * gen)
    return ClosedBraid(strands, letters)

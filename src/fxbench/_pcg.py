"""numpy's `default_rng(seed).uniform`, bit for bit, in pure Python.

fxbench draws its Glorot weights and its synthetic walks from this stream
rather than from numpy's random package, whose import costs more memory
than every value a sweep draws. `PCG64(seed)` reproduces three parts of
numpy:

- `SeedSequence(seed)`: the seed as little-endian 32-bit words mixed into
  a pool of 4 words, which yields 4 state words read as two 64-bit pairs.
- `PCG64`: the 128-bit LCG set up by PCG's `srandom` and its XSL-RR output
  (O'Neill 2014, "PCG: A Family of Simple Fast Space-Efficient
  Statistically Good Algorithms for Random Number Generation").
- `Generator.uniform`: `low + (high - low) * u` with `u = (next64 >> 11) *
  2**-53`, one 64-bit output per value, C order, the stream continuing
  across calls.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .data import _quoted

_MASK32 = 0xFFFFFFFF
_MASK53 = (1 << 53) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_MULTIPLIER = (2549297995355413924 << 64) + 4865540595714422341  # PCG's 128-bit default
_ROTATE = (1 << 64) + 1  # x * _ROTATE >> r is x rotated right by r in its low 64 bits


def _seed_state(seed: int) -> list[int]:
    """numpy's `SeedSequence(seed).generate_state(4, uint64)`."""
    words = []
    while True:  # 0 is one word, as in numpy
        words.append(seed & _MASK32)
        seed >>= 32
        if not seed:
            break
    hash_const = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * 0x931E8875 & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        result = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
        return result ^ result >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_const = 0x8B51F9DD
    out = []
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * 0x58F38DED & _MASK32
        value = value * hash_const & _MASK32
        out.append(value ^ value >> 16)
    return [out[i] | out[i + 1] << 32 for i in range(0, 8, 2)]


class PCG64:
    """The stream of numpy's `default_rng(seed)` for an int seed >= 0."""

    def __init__(self, seed: int):
        seed = operator.index(seed)
        if seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {_quoted(seed)}")
        s0, s1, s2, s3 = _seed_state(seed)
        self._inc = ((s2 << 64 | s3) << 1 | 1) & _MASK128
        state = (self._inc + (s0 << 64 | s1)) & _MASK128  # srandom: step from 0, add, step
        self._state = (state * _MULTIPLIER + self._inc) & _MASK128

    def uniform(self, low: float, high: float, shape: tuple[int, ...]) -> np.ndarray:
        """A float64 array of `shape` drawn from U[low, high), as numpy's."""
        s, inc, mult, m128, m64, rot, m53 = (
            self._state, self._inc, _MULTIPLIER, _MASK128, _MASK64, _ROTATE, _MASK53
        )
        # per value: step the LCG, xor its halves, rotate right by its top 6 bits, keep 53;
        # names bound locally and one conversion to floats, as the loop is the cost
        top = [
            (((s := s * mult + inc & m128) >> 64 ^ s) & m64) * rot >> (s >> 122) + 11 & m53
            for _ in range(math.prod(shape))
        ]
        self._state = s
        unit = np.array(top, dtype=np.float64).reshape(shape) * 2.0**-53  # exact
        low = float(low)
        return low + (float(high) - low) * unit

"""Deterministic seedable random numbers.

xorshift64* for the integer stream, the basic Box-Muller transform for
normals. The algorithm is fixed so that a given seed produces the same
stream everywhere; Gaussian matrix fills go through the vectorized kernel
in `backend` and consume exactly the same stream as scalar draws (the
Box-Muller spare is carried across calls).
"""

from math import cos, log, sin, sqrt

import numpy as np

from . import backend
from .backend import INV_2_53, TWO_PI

_MASK64 = 0xFFFFFFFFFFFFFFFF
_MULT = 0x2545F4914F6CDD1D
# replacement for the all-zero state, on which xorshift is a fixed point
_ZERO_SEED = 0x9E3779B97F4A7C15


class Rng:
    def __init__(self, seed):
        self.state = int(seed) & _MASK64
        if self.state == 0:
            self.state = _ZERO_SEED
        self._spare = 0.0
        self._has_spare = False

    def u64(self):
        # xorshift64*: shift/xor state update, multiplicative output scramble
        s = self.state
        s ^= s >> 12
        s ^= (s << 25) & _MASK64
        s ^= s >> 27
        self.state = s
        return (s * _MULT) & _MASK64

    def uniform(self):
        # top 53 bits -> [0, 1)
        return (self.u64() >> 11) * INV_2_53

    def gaussian(self):
        if self._has_spare:
            self._has_spare = False
            return self._spare
        r1 = self.u64()
        r2 = self.u64()
        u1 = ((r1 >> 11) + 1) * INV_2_53  # (0, 1]: log stays finite
        u2 = (r2 >> 11) * INV_2_53
        mag = sqrt(-2.0 * log(u1))
        self._spare = mag * sin(TWO_PI * u2)
        self._has_spare = True
        return mag * cos(TWO_PI * u2)

    def gaussian_matrix(self, rows, cols):
        """rows x cols matrix of standard normal draws (kernel-backed)."""
        if rows < 1 or cols < 1:
            raise ValueError(f"gaussian_matrix: bad shape {rows}x{cols}")
        out = np.empty((rows, cols))
        self.state, self._has_spare, self._spare = backend.gaussian_fill(
            self.state, self._has_spare, self._spare, out
        )
        return out

    def below(self, n):
        # modulo mapping; the bias of ~n/2^64 is irrelevant at this scale
        return self.u64() % n

    def permutation(self, n):
        """Fisher-Yates permutation of range(n)."""
        perm = np.arange(n)
        for i in range(n - 1, 0, -1):
            j = self.below(i + 1)
            perm[i], perm[j] = perm[j], perm[i]
        return perm

    def sample_indices(self, n, k):
        """k distinct indices from range(n), in draw order."""
        return self.permutation(n)[:k]

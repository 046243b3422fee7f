"""Deterministic seedable random numbers.

xorshift64* for the integer stream, the basic Box-Muller transform for
normals. The algorithm is fixed, and its log and sin/cos are built from
correctly rounded arithmetic alone (no libm), so a given seed produces the
same stream everywhere. Scalar draws and matrix fills both go through the
vectorized kernel in `backend` and consume one stream (the Box-Muller
spare is carried across calls).
"""

import numpy as np

from . import backend
from .backend import INV_2_53

MASK64 = 0xFFFFFFFFFFFFFFFF
_MULT = 0x2545F4914F6CDD1D
# replacement for the all-zero state, on which xorshift is a fixed point
_ZERO_SEED = 0x9E3779B97F4A7C15


class Rng:
    def __init__(self, seed):
        self.state = int(seed) & MASK64
        if self.state == 0:
            self.state = _ZERO_SEED
        self._spare = 0.0
        self._has_spare = False

    def u64(self):
        # xorshift64*: shift/xor state update, multiplicative output scramble
        s = self.state
        s ^= s >> 12
        s ^= (s << 25) & MASK64
        s ^= s >> 27
        self.state = s
        return (s * _MULT) & MASK64

    def uniform(self):
        # top 53 bits -> [0, 1)
        return (self.u64() >> 11) * INV_2_53

    def gaussian(self):
        """One standard normal draw: a one-element gaussian_matrix."""
        out = np.empty(1)
        self.state, self._has_spare, self._spare = backend.gaussian_fill(
            self.state, self._has_spare, self._spare, out
        )
        return float(out[0])

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
        """Fisher-Yates permutation of range(n).

        Swap i (from n - 1 down to 1) exchanges i with below(i + 1); the
        n - 1 draws are taken from the stream in one vectorized call.
        """
        perm = list(range(n))
        if n > 1:
            states, self.state = backend._states(self.state, n - 1)
            bounds = np.arange(n, 1, -1, dtype=np.uint64)
            js = (states * backend._MULT) % bounds
            for i, j in zip(range(n - 1, 0, -1), js.tolist()):
                perm[i], perm[j] = perm[j], perm[i]
        return np.array(perm, dtype=np.intp)

    def sample_indices(self, n, k):
        """k distinct indices from range(n), in draw order."""
        if not 0 <= k <= n:
            raise ValueError(f"sample_indices: cannot draw {k} of {n}")
        return self.permutation(n)[:k]

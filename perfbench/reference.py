"""Host-speed reference: a frozen copy of the library's pure-NumPy kernels.

The shared host this benchmark runs on changes speed by 20-60% in phases of
tens of seconds to minutes, which no amount of work inside one run averages
out. So every untraced run samples the host's speed while it works: a
SIGALRM timer interrupts the run every few tens of milliseconds and runs one
reference block, a frozen copy of the kernel arithmetic (the rank-1 matmul
loop, the finiteness check, and for some workloads the xorshift64* /
Box-Muller draw loop) on operand shapes typical of the workload. The blocks
are code of the benchmark, not of the library, so a change to the library
cannot move them; a slow phase of the host slows the blocks and the work
around them alike. Block time that falls inside a timed interval is
subtracted from it, and a timing divided by the mean block time around it
reads much the same whatever phase the host was in.
"""

import bisect
import signal
from math import cos, log, pi, sin, sqrt
from time import perf_counter

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF
_MULT = 0x2545F4914F6CDD1D
_INV_2_53 = 1.0 / 9007199254740992.0
_TWO_PI = 2.0 * pi
# blocks take this share of the wall time while sampling
SHARE = 0.1


def _matmul(a, b, out):
    out[:] = 0.0
    for k in range(a.shape[1]):
        out += a[:, k : k + 1] * b[k : k + 1, :]


def _gaussians(state, n):
    out = np.empty(n)
    for i in range(0, n, 2):
        vals = []
        for _ in range(2):
            state ^= state >> 12
            state ^= (state << 25) & _MASK64
            state ^= state >> 27
            vals.append((state * _MULT) & _MASK64)
        u1 = ((vals[0] >> 11) + 1) * _INV_2_53
        u2 = (vals[1] >> 11) * _INV_2_53
        mag = sqrt(-2.0 * log(u1))
        out[i] = mag * cos(_TWO_PI * u2)
        if i + 1 < n:
            out[i + 1] = mag * sin(_TWO_PI * u2)
    return out


class Reference:
    """Reference blocks over `shapes` (n, k, m) matmuls plus `draws` Gaussian
    draws. `starts` and `times` hold the start and duration of every block
    run, in order."""

    def __init__(self, shapes, draws=0):
        self.operands = [
            (np.full((n, k), 0.5), np.full((k, m), 0.25), np.empty((n, m))) for n, k, m in shapes
        ]
        self.draws = draws
        self.starts = []
        self.times = []
        self._ends = [0.0]  # running sum of `times`, one longer
        self._running = False

    def block(self):
        if self._running:  # a timer tick that fell inside a block
            return
        self._running = True
        t0 = perf_counter()
        for a, b, out in self.operands:
            _matmul(np.ascontiguousarray(a), np.ascontiguousarray(b), out)
            if not np.all(np.isfinite(out)):
                raise ArithmeticError("reference block: non-finite product")
        if self.draws:
            _gaussians(0x9E3779B97F4A7C15, self.draws)
        dt = perf_counter() - t0
        self.starts.append(t0)
        self.times.append(dt)
        self._ends.append(self._ends[-1] + dt)
        self._running = False

    def start(self):
        """Run one block now, then one every block-time / SHARE seconds."""
        self.block()
        period = max(self.times[-1] / SHARE, 0.005)
        signal.signal(signal.SIGALRM, lambda *_: self.block())
        signal.setitimer(signal.ITIMER_REAL, period, period)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _span(self, t0, t1):
        return bisect.bisect_left(self.starts, t0), bisect.bisect_left(self.starts, t1)

    def busy(self, t0, t1):
        """Seconds of blocks that started in [t0, t1)."""
        i, j = self._span(t0, t1)
        return self._ends[j] - self._ends[i]

    def mean(self, t0=None, t1=None):
        """Mean block time over the blocks that started in [t0, t1), or over
        every block when there are none there. Blocks start at even steps of
        wall time, so their mean weighs the host's fast and slow phases as
        the timed work between them does."""
        i, j = self._span(t0, t1) if t0 is not None else (0, len(self.times))
        if i == j:
            i, j = 0, len(self.times)
        return (self._ends[j] - self._ends[i]) / (j - i)

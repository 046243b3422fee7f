"""NumPy fallback for the compiled kernels in _kernels.pyx.

Every operation here gives the compiled code's result bit for bit: the same
products summed in the same k order with one rounding per multiply and per
add, and the same xorshift64* / Box-Muller stream through the platform libm
(math.log/cos/sin wrap the same libm the C code calls; np.sqrt is correctly
rounded like C's sqrt). Both kernels are vectorized without reordering any
floating-point operation:

- matmul sums the products of a small output with np.add.accumulate, which
  runs strictly in k order, and keeps the rank-1 update loop elsewhere;
- gaussian_fill generates the xorshift64* states in bulk from a GF(2)
  jump-ahead table and applies the scramble and Box-Muller in arrays.

Best of 5 with benchmarks/bench_backends.py on a 2-core x86-64 host,
against the rank-1 loop and the scalar draw loop they replace:
1x4096 @ 4096x64 1.0 ms (was 6.2 ms), 1x128 @ 128x16 0.018 ms (0.21 ms),
8x16 @ 16x4 0.018 ms (0.035 ms); a 2048-draw fill 0.29 ms (1.3 ms), most of
it now in the libm calls. The compiled kernels are still 3.5-13x faster.
"""

from functools import cache
from math import cos, log, pi, sin

import numpy as np

TWO_PI = 2.0 * pi
INV_2_53 = 1.0 / 9007199254740992.0

_MULT = np.uint64(0x2545F4914F6CDD1D)

# matmul: outputs of at most this many elements take the accumulate path.
# Accumulate costs ~5 ns per product (n*k*m of them) in a few NumPy calls;
# the rank-1 loop costs k calls of ~1.7 us plus ~1 ns per output element.
# The two break even near n*m = 320: 1x4096 @ 4096x64 runs ~6x faster
# accumulated, 20x64 @ 64x32 (n*m = 640) ~1.2x slower
# (benchmarks/bench_backends.py).
_ACCUMULATE_MAX_OUT = 256
# elements per accumulate buffer; longer sums run in blocks of k
_ACCUMULATE_BLOCK = 1 << 15

# gaussian_fill: states generated per gather from the jump table
_JUMP_STATES = 1024
_BIT_SHIFTS = np.arange(64, dtype=np.uint64)


def matmul(a, b, out):
    """out = a @ b with the inner sum accumulated strictly in k order."""
    n, kk = a.shape
    m = b.shape[1]
    if n * m > _ACCUMULATE_MAX_OUT:
        out[:] = 0.0
        # rank-1 updates: per element this is the same mul-then-add
        # sequence, in the same k order, as the compiled triple loop
        for k in range(kk):
            out += a[:, k : k + 1] * b[k : k + 1, :]
        return
    # buf[:, 0] holds the running sum (0.0 at first, like the compiled
    # loop); the k-block's products follow it, and accumulate adds them
    # to it one k at a time
    step = _ACCUMULATE_BLOCK // (n * m) - 1
    buf = np.empty((n, min(kk, step) + 1, m))
    buf[:, 0, :] = 0.0
    for k0 in range(0, kk, step):
        k1 = min(kk, k0 + step)
        block = buf[:, : k1 - k0 + 1, :]
        np.multiply(a[:, k0:k1, None], b[None, k0:k1, :], out=block[:, 1:, :])
        np.add.accumulate(block, axis=1, out=block)
        buf[:, 0, :] = block[:, -1, :]
    out[:] = buf[:, 0, :]


def _xorshift_steps(lanes, steps, out):
    """Advance every lane `steps` times; out[i] = lanes after i + 1 steps."""
    s = lanes.copy()
    tmp = np.empty_like(s)
    for i in range(steps):
        np.right_shift(s, np.uint64(12), out=tmp)
        s ^= tmp
        np.left_shift(s, np.uint64(25), out=tmp)
        s ^= tmp
        np.right_shift(s, np.uint64(27), out=tmp)
        s ^= tmp
        out[i] = s


@cache
def _jump_table():
    """table[j, i] = xorshift64 state i + 1 steps after the state 1 << j.

    xorshift64 is linear over GF(2), so the state i + 1 steps after any
    state s is the XOR of table[j, i] over the set bits j of s. Built in two
    sweeps of 32 vectorized steps: the 64 basis lanes, then 64 lanes at each
    multiple of 32 steps (placed there by applying the 32-step jump).
    """
    m = 32
    q = _JUMP_STATES // m
    basis = np.left_shift(np.uint64(1), _BIT_SHIFTS)
    head = np.empty((m, 64), dtype=np.uint64)
    _xorshift_steps(basis, m, head)
    jump = head[m - 1]  # jump[b]: 32 steps after 1 << b
    starts = np.empty((q, 64), dtype=np.uint64)
    starts[0] = basis
    for c in range(1, q):
        bits = (starts[c - 1][:, None] >> _BIT_SHIFTS) & np.uint64(1)
        starts[c] = np.bitwise_xor.reduce(jump * bits, axis=1)
    table = np.empty((m, q, 64), dtype=np.uint64)
    _xorshift_steps(starts, m, table)
    # table[i, c, j] is c * m + i + 1 steps after 1 << j
    table = np.ascontiguousarray(table.transpose(2, 1, 0).reshape(64, _JUMP_STATES))
    table.flags.writeable = False  # shared by every later call
    return table


def _states(state, count):
    """The next `count` xorshift64 states after `state`, and the last one."""
    table = _jump_table()
    out = np.empty(count, dtype=np.uint64)
    for start in range(0, count, _JUMP_STATES):
        b = min(_JUMP_STATES, count - start)
        bits = np.flatnonzero((np.uint64(state) >> _BIT_SHIFTS) & np.uint64(1))
        np.bitwise_xor.reduce(table[bits, :b], axis=0, out=out[start : start + b])
        state = int(out[start + b - 1])
    return out, state


def gaussian_fill(state, has_spare, spare, out):
    """Fill out (row-major order) with standard normal draws.

    Same stream contract as the compiled version; returns the updated
    (state, has_spare, spare) triple.
    """
    flat = out.reshape(-1)
    if has_spare and flat.shape[0]:
        flat[0] = spare
        flat = flat[1:]
        has_spare = False
    pairs = (flat.shape[0] + 1) // 2
    if pairs == 0:
        return state, has_spare, spare
    states, state = _states(state, 2 * pairs)
    r = states * _MULT
    # u1 in (0, 1] keeps log(u1) finite; u2 in [0, 1)
    u1 = ((r[0::2] >> np.uint64(11)) + np.uint64(1)).astype(np.float64) * INV_2_53
    u2 = (r[1::2] >> np.uint64(11)).astype(np.float64) * INV_2_53
    mag = np.sqrt(-2.0 * np.fromiter(map(log, u1.tolist()), np.float64, pairs))
    angle = (TWO_PI * u2).tolist()
    flat[0::2] = mag * np.fromiter(map(cos, angle), np.float64, pairs)
    sines = mag * np.fromiter(map(sin, angle), np.float64, pairs)
    flat[1::2] = sines[: flat.shape[0] // 2]
    # an odd count leaves the last sine as the spare; the compiled loop
    # returns it as the (stale) spare either way
    return state, flat.shape[0] % 2 == 1, float(sines[-1])

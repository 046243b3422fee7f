"""The two numeric kernels: strict-order matmul and the Gaussian fill.

Both are vectorized NumPy without reordering any floating-point operation,
so their output is a pure function of the inputs, the same on every run:

- matmul sums the products of a small output with np.add.accumulate, which
  runs strictly in k order, and keeps the rank-1 update loop elsewhere; each
  output element gets one rounding per multiply and per add. Operands may
  be strided views or stacks of matrices;
- gaussian_fill generates the xorshift64* states in bulk from a GF(2)
  jump-ahead table and applies the scramble and Box-Muller in arrays. Its
  log and sin/cos are fdlibm's polynomial kernels written with +, -, *, /,
  np.frexp, np.ldexp, np.rint and np.sqrt only, all correctly rounded or
  exact, in a fixed order; no libm and no np.log/np.sin/np.cos, whose SIMD
  code NumPy picks by CPU. So a seed gives the same stream on every host.

The tests pin matmul to a frozen rank-1 loop (tests/test_linalg.py), and
the fill to golden draws, to the scalar Rng.gaussian stream and, within
2 ulp, to math.log/sin/cos (tests/test_rng.py).

Best of 7 with benchmarks/bench_kernels.py on a 2-core x86-64 host (its
speed drifts by 20% or more between runs): 1x4096 @ 4096x64 1.5 ms (6.2 ms
for the rank-1 loop), the same with a (64x4096).T view 1.6 ms, the k = 1
outer product 64x1 @ 1x4096 0.30 ms (2.7 ms in the rank-1 loop), 8x16 @
16x4 0.035 ms; a 10x2048 fill 1.5 ms, 0.50 ms of it the states and 0.79 ms
the transform (2.3 ms of libm calls before), a 2048-draw fill 0.17 ms
(0.57 ms with libm).
"""

from functools import cache
from math import pi

import numpy as np

TWO_PI = 2.0 * pi
INV_2_53 = 1.0 / 9007199254740992.0

_MULT = np.uint64(0x2545F4914F6CDD1D)

# matmul: outputs of at most this many elements (the whole stack) take the
# accumulate path.
# Accumulate costs ~5 ns per product (n*k*m of them) in a few NumPy calls;
# the rank-1 loop costs k calls of ~1.7 us plus ~1 ns per output element.
# The two break even near n*m = 320: 1x4096 @ 4096x64 runs ~6x faster
# accumulated, 20x64 @ 64x32 (n*m = 640) ~1.2x slower
# (benchmarks/bench_kernels.py).
_ACCUMULATE_MAX_OUT = 256
# elements per accumulate buffer; longer sums run in blocks of k
_ACCUMULATE_BLOCK = 1 << 15

# gaussian_fill: states generated per gather from the jump table
_JUMP_STATES = 1024
_BIT_SHIFTS = np.arange(64, dtype=np.uint64)

# Box-Muller's log and sin/cos: fdlibm's e_log.c, k_sin.c and k_cos.c in
# their branch-free FreeBSD/musl forms, with fdlibm's coefficients (bit
# patterns in the comments)
_SQRT_HALF = 0.7071067811865476
_LN2_HI = 6.93147180369123816490e-01  # 3fe62e42 fee00000
_LN2_LO = 1.90821492927058770002e-10  # 3dea39ef 35793c76
_LG1 = 6.666666666666735130e-01  # 3fe55555 55555593
_LG2 = 3.999999999940941908e-01  # 3fd99999 9997fa04
_LG3 = 2.857142874366239149e-01  # 3fd24924 94229359
_LG4 = 2.222219843214978396e-01  # 3fcc71c5 1d8e78af
_LG5 = 1.818357216161805012e-01  # 3fc74664 96cb03de
_LG6 = 1.531383769920937332e-01  # 3fc39a09 d078c69f
_LG7 = 1.479819860511658591e-01  # 3fc2f112 df3e5244
_S1 = -1.66666666666666324348e-01  # bfc55555 55555549
_S2 = 8.33333333332248946124e-03  # 3f811111 1110f8a6
_S3 = -1.98412698298579493134e-04  # bf2a01a0 19c161d5
_S4 = 2.75573137070700676789e-06  # 3ec71de3 57b1fe7d
_S5 = -2.50507602534068634195e-08  # be5ae5e6 8a2b9ceb
_S6 = 1.58969099521155010221e-10  # 3de5d93a 5acfd57c
_C1 = 4.16666666666666019037e-02  # 3fa55555 5555554c
_C2 = -1.38888888888741095749e-03  # bf56c16c 16c15177
_C3 = 2.48015872894767294178e-05  # 3efa01a0 19cb1590
_C4 = -2.75573143513906633035e-07  # be927e4f 809c52ad
_C5 = 2.08757232129817482790e-09  # 3e21ee9e bdb4b1c4
_C6 = -1.13596475577881948265e-11  # bda8fae9 be8838d4
# cos and sin of q*pi/2 + y by quadrant q mod 4: (cos, sin) = (c, s),
# (-s, c), (-c, -s), (s, -c) for c, s = cos y, sin y
_COS_SIGN = np.array([1.0, -1.0, -1.0, 1.0])
_SIN_SIGN = np.array([1.0, 1.0, -1.0, -1.0])


def active():
    """The kernel implementation's name; perfbench/run.py checks it is "py"."""
    return "py"


def matmul(a, b, out):
    """out = a @ b with the inner sum accumulated strictly in k order.

    a (..., n, k) and b (..., k, m) may be stacks of matrices with the same
    leading shape; each product in the stack sums as a lone one would.
    """
    kk = a.shape[-1]
    if out.size == 0:
        return
    if kk == 1:
        # one product per element; adding it to +0.0, as the loop below
        # does, turns a -0.0 product into +0.0
        np.multiply(a, b, out=out)
        out += 0.0
        return
    if out.size > _ACCUMULATE_MAX_OUT:
        out[...] = 0.0
        # rank-1 updates: each element adds one rounded product per k, in
        # k order
        for k in range(kk):
            out += a[..., k : k + 1] * b[..., k : k + 1, :]
        return
    # buf[..., 0, :] holds the running sum (0.0 at first, as in the rank-1
    # loop); the k-block's products follow it, and accumulate adds them
    # to it one k at a time
    step = _ACCUMULATE_BLOCK // out.size - 1
    buf = np.empty(out.shape[:-1] + (min(kk, step) + 1, out.shape[-1]))
    buf[..., 0, :] = 0.0
    for k0 in range(0, kk, step):
        k1 = min(kk, k0 + step)
        block = buf[..., : k1 - k0 + 1, :]
        np.multiply(a[..., k0:k1, None], b[..., None, k0:k1, :], out=block[..., 1:, :])
        np.add.accumulate(block, axis=-2, out=block)
        buf[..., 0, :] = block[..., -1, :]
    out[...] = buf[..., 0, :]


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


def _log_unit(x):
    """Natural log of each x in (0, 1], within 1 ulp.

    x = 2**k * (1 + f) with 1 + f in [sqrt(2)/2, sqrt(2)) (exact), and
    log(x) = k*ln2 + f - f*f/2 + s*(f*f/2 + R) with s = f / (2 + f) and R
    fdlibm's degree-14 polynomial in s.
    """
    m, k = np.frexp(x)  # m in [0.5, 1)
    low = m < _SQRT_HALF
    m[low] *= 2.0
    k -= low
    f = m - 1.0
    hfsq = 0.5 * f * f
    s = f / (2.0 + f)
    z = s * s
    w = z * z
    t1 = w * (_LG2 + w * (_LG4 + w * _LG6))
    t2 = z * (_LG1 + w * (_LG3 + w * (_LG5 + w * _LG7)))
    dk = k.astype(np.float64)
    return s * (hfsq + (t2 + t1)) + dk * _LN2_LO - hfsq + f + dk * _LN2_HI


def _reduce_turns(u):
    """(q, y) with 2*pi*u = q*pi/2 + y, |y| <= pi/4, for u in [0, 1).

    q = rint(4u) and r = u - q/4 is exact (|r| <= 1/8 on u's 2**-53
    grid), so only y = TWO_PI * r rounds: no Cody-Waite constants, and no
    cancellation near multiples of pi/2.
    """
    q = np.rint(4.0 * u)
    return q, TWO_PI * (u - 0.25 * q)


def _sincos_turns(u):
    """(cos, sin) of 2*pi*u for each u in [0, 1), each within 1 ulp of the
    same function of the reduced angle."""
    q, y = _reduce_turns(u)
    z = y * y
    w = z * z
    r = _S2 + z * (_S3 + z * _S4) + z * w * (_S5 + z * _S6)
    sin_y = y + z * y * (_S1 + z * r)
    r = z * (_C1 + z * (_C2 + z * _C3)) + w * w * (_C4 + z * (_C5 + z * _C6))
    hz = 0.5 * z
    w = 1.0 - hz
    cos_y = w + (((1.0 - w) - hz) + z * r)
    quad = q.astype(np.intp) & 3
    odd = (quad & 1).astype(bool)
    cos = np.where(odd, sin_y, cos_y) * _COS_SIGN[quad]
    sin = np.where(odd, cos_y, sin_y) * _SIN_SIGN[quad]
    return cos, sin


def _box_muller(states):
    """(cosine, sine) halves of the normal pairs made from pairs of
    xorshift64 states."""
    r = states * _MULT
    # u1 in (0, 1] keeps log(u1) finite; u2 in [0, 1)
    u1 = ((r[0::2] >> np.uint64(11)) + np.uint64(1)).astype(np.float64) * INV_2_53
    u2 = (r[1::2] >> np.uint64(11)).astype(np.float64) * INV_2_53
    mag = np.sqrt(-2.0 * _log_unit(u1))
    cos, sin = _sincos_turns(u2)
    return mag * cos, mag * sin


def gaussian_fill(state, has_spare, spare, out):
    """Fill out (row-major order) with standard normal draws.

    The same stream as repeated Rng.gaussian draws, the Box-Muller spare
    carried in and out; returns the updated (state, has_spare, spare) triple.
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
    flat[0::2], sines = _box_muller(states)
    flat[1::2] = sines[: flat.shape[0] // 2]
    # an odd count leaves the last sine as the spare; an even one returns
    # it as a stale spare, as the scalar draws leave it
    return state, flat.shape[0] % 2 == 1, float(sines[-1])

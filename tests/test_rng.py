import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ocmeta import backend
from ocmeta.rng import Rng


def test_same_seed_same_stream():
    a = [Rng(123).u64() for _ in range(5)]
    b = [Rng(123).u64() for _ in range(5)]
    assert a == b
    r1, r2 = Rng(123), Rng(123)
    assert [r1.u64() for _ in range(100)] == [r2.u64() for _ in range(100)]


def test_different_seeds_differ():
    assert [Rng(1).u64() for _ in range(4)] != [Rng(2).u64() for _ in range(4)]


def test_zero_seed_is_usable():
    r = Rng(0)
    vals = {r.u64() for _ in range(10)}
    assert len(vals) == 10  # not stuck at a fixed point
    assert [Rng(0).u64() for _ in range(10)] == [Rng(0).u64() for _ in range(10)]


def test_seed_masked_to_64_bits():
    assert Rng(1 << 64).state == Rng(0).state


def test_uniform_range():
    r = Rng(5)
    draws = [r.uniform() for _ in range(2000)]
    assert all(0.0 <= u < 1.0 for u in draws)
    assert 0.4 < sum(draws) / len(draws) < 0.6


def test_gaussian_moments():
    # Monte Carlo bounds: mean within 4/sqrt(n), variance within 0.05 of 1
    n = 100_000
    draws = Rng(9).gaussian_matrix(1000, 100).ravel()
    assert abs(draws.mean()) <= 4.0 / np.sqrt(n)
    assert abs(draws.var() - 1.0) <= 0.05


def test_gaussian_matrix_matches_scalar_stream():
    r1 = Rng(42)
    m = r1.gaussian_matrix(7, 5)
    r2 = Rng(42)
    flat = np.array([r2.gaussian() for _ in range(35)])
    assert np.array_equal(m.ravel(), flat)
    assert r1.gaussian() == r2.gaussian()  # identical spare state afterwards


def scalar_stream(rng, count):
    return np.array([rng.gaussian() for _ in range(count)])


def assert_same_generator_state(r1, r2):
    assert r1.state == r2.state
    assert r1._has_spare == r2._has_spare
    assert r1._spare == r2._spare


# the kernel generates xorshift states 1024 at a time from its jump table:
# 1x2048 takes exactly two blocks, 64x64 four, 1x4097 five (the last
# one two states long)
@pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
@pytest.mark.parametrize("shape", [(1, 1), (1, 2048), (1, 4097), (64, 64), (101, 37)])
def test_gaussian_matrix_matches_scalar_stream_at_scale(seed, shape):
    r1, r2 = Rng(seed), Rng(seed)
    m = r1.gaussian_matrix(*shape)
    assert m.shape == shape
    assert np.array_equal(m.ravel(), scalar_stream(r2, shape[0] * shape[1]))
    assert_same_generator_state(r1, r2)
    assert r1.gaussian() == r2.gaussian()


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_gaussian_matrix_carries_the_spare_across_odd_fills(seed):
    sizes = [(3, 3), (1, 4), (5, 7), (1, 1), (1, 4097), (1, 2), (3, 1)]
    r1, r2 = Rng(seed), Rng(seed)
    for rows, cols in sizes:
        m = r1.gaussian_matrix(rows, cols)
        assert np.array_equal(m.ravel(), scalar_stream(r2, rows * cols))
        assert_same_generator_state(r1, r2)
    # scalar draws and u64 draws continue the same stream afterwards
    assert r1.gaussian() == r2.gaussian()
    assert r1.u64() == r2.u64()


# The first four draws and the state after them. The log and sin/cos are
# built from correctly rounded arithmetic alone, so these hold on every
# host; a change here moves every seeded result.
GOLDEN_DRAWS = {
    0: ([-1.1834038310489547, 2.1171653891931146, -0.9142438849714214,
         0.057747707503055294], 12912965123806966029),
    1: ([-0.7577863290384494, -1.402046883855646, -0.26419541953790837,
         0.7556687076499526], 2306758490171379329),
    2**64 - 1: ([-0.21487608803424213, -0.08872761418499645, 0.2327027915912586,
                 -1.765635601036257], 11811533921607156160),
}


@pytest.mark.parametrize("seed", sorted(GOLDEN_DRAWS))
def test_golden_first_draws(seed):
    draws, state = GOLDEN_DRAWS[seed]
    r = Rng(seed)
    assert r.gaussian_matrix(1, 4)[0].tolist() == draws
    assert r.state == state
    r = Rng(seed)
    assert [r.gaussian() for _ in range(4)] == draws
    assert r.state == state


def ulps(a, b):
    """Distance in units in the last place, +0 and -0 counted equal."""
    lo = np.int64(-(2**63))
    a, b = (np.asarray(x, dtype=np.float64).view(np.int64) for x in (a, b))
    a, b = (np.where(x < 0, lo - x, x) for x in (a, b))
    return np.abs(a - b)


def test_log_is_within_two_ulps_of_libm():
    edges = [2.0**-53, 0.5, 1.0 - 2.0**-53, 1.0, math.sqrt(0.5)]
    edges += [math.nextafter(math.sqrt(0.5), 0.0), math.nextafter(math.sqrt(0.5), 1.0)]
    # u1 as the fill makes it: (k + 1) * 2**-53 for k < 2**53
    grid = (np.random.default_rng(5).integers(0, 2**53, 10_000) + 1) * 2.0**-53
    u = np.concatenate([edges, grid])
    want = [math.log(x) for x in u]
    assert ulps(backend._log_unit(u), want).max() <= 2


def test_sincos_is_within_two_ulps_of_libm_on_the_reduced_angle():
    # u2 as the fill makes it: k * 2**-53 for k < 2**53; the edges sit on,
    # and either side of, the quadrant boundaries and the reduction's ties
    edges = [k / 8 + d * 2.0**-53 for k in range(9) for d in (-1, 0, 1)]
    grid = np.random.default_rng(6).integers(0, 2**53, 10_000) * 2.0**-53
    u = np.concatenate([[x for x in edges if 0.0 <= x < 1.0], grid])
    q, y = backend._reduce_turns(u)
    # y = TWO_PI * r, with r = u - q/4 exact, and |y| <= pi/4
    r = u - q / 4
    assert all(Fraction(a) == Fraction(b) - Fraction(int(k), 4) for a, b, k in zip(r, u, q))
    assert np.array_equal(y, backend.TWO_PI * r)
    assert (np.abs(y) <= math.pi / 4).all()
    # cos and sin of q*pi/2 + y, quadrant by quadrant
    cy = np.array([math.cos(v) for v in y])
    sy = np.array([math.sin(v) for v in y])
    quad = q.astype(int) % 4
    want_cos = np.choose(quad, [cy, -sy, -cy, sy])
    want_sin = np.choose(quad, [sy, cy, -sy, -cy])
    got_cos, got_sin = backend._sincos_turns(u)
    assert ulps(got_cos, want_cos).max() <= 2
    assert ulps(got_sin, want_sin).max() <= 2


def test_gaussian_matrix_rejects_bad_shape():
    with pytest.raises(ValueError):
        Rng(1).gaussian_matrix(0, 3)


def test_below_in_range():
    r = Rng(3)
    assert all(0 <= r.below(7) < 7 for _ in range(500))


@given(st.integers(1, 60), st.integers(0, 2**64 - 1))
@settings(max_examples=50, deadline=None)
def test_permutation_is_a_permutation(n, seed):
    perm = Rng(seed).permutation(n)
    assert sorted(perm.tolist()) == list(range(n))


def frozen_permutation(rng, n):
    """Frozen reference: Fisher-Yates with one scalar u64 draw per swap."""
    perm = np.arange(n)
    for i in range(n - 1, 0, -1):
        j = rng.below(i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    return perm


@pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
def test_permutation_matches_scalar_fisher_yates(seed):
    r1, r2 = Rng(seed), Rng(seed)
    for n in (0, 1, 2, 3, 200, 4097):
        got = r1.permutation(n)
        want = frozen_permutation(r2, n)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
        assert r1.state == r2.state
    assert r1.u64() == r2.u64()


def test_permutation_deterministic():
    assert np.array_equal(Rng(17).permutation(20), Rng(17).permutation(20))


def test_sample_indices_distinct():
    idx = Rng(4).sample_indices(10, 6)
    assert len(idx) == 6
    assert len(set(idx.tolist())) == 6
    assert all(0 <= i < 10 for i in idx)


@pytest.mark.parametrize("k", [-1, 31])
def test_sample_indices_rejects_k_outside_range(k):
    with pytest.raises(ValueError):
        Rng(4).sample_indices(30, k)

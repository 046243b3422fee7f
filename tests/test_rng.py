import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def test_permutation_deterministic():
    assert np.array_equal(Rng(17).permutation(20), Rng(17).permutation(20))


def test_sample_indices_distinct():
    idx = Rng(4).sample_indices(10, 6)
    assert len(idx) == 6
    assert len(set(idx.tolist())) == 6
    assert all(0 <= i < 10 for i in idx)

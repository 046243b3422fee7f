import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ocmeta import linalg
from ocmeta.errors import DimensionError, NumericError

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def small_matrix(max_side=8):
    return st.integers(1, max_side).flatmap(
        lambda r: st.integers(1, max_side).flatmap(
            lambda c: arrays(np.float64, (r, c), elements=finite_floats)
        )
    )


def test_matmul_identity_times_column():
    out = linalg.matmul(np.eye(2), np.array([[5.0], [7.0]]))
    assert out.tolist() == [[5.0], [7.0]]


def test_matmul_hand_example():
    out = linalg.matmul(np.array([[1.0, 2.0]]), np.array([[3.0], [4.0]]))
    assert out.tolist() == [[11.0]]


def test_matmul_shape_mismatch():
    with pytest.raises(DimensionError):
        linalg.matmul(np.zeros((2, 3)), np.zeros((2, 2)))


def test_matmul_rejects_non_2d():
    with pytest.raises(DimensionError):
        linalg.matmul(np.zeros(3), np.zeros((3, 2)))


@given(small_matrix())
@settings(max_examples=40, deadline=None)
def test_matmul_identity_is_exact(a):
    assert np.array_equal(linalg.matmul(np.eye(a.shape[0]), a), a)
    assert np.array_equal(linalg.matmul(a, np.eye(a.shape[1])), a)


def test_matmul_sums_left_to_right():
    # (1e16 + 1) - 1e16 rounds to 0 in this order; any other order differs
    a = np.array([[1e16, 1.0, -1e16]])
    b = np.ones((3, 1))
    assert linalg.matmul(a, b)[0, 0] == 0.0


def test_matmul_bit_identical_across_runs():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((17, 9))
    b = rng.standard_normal((9, 13))
    assert np.array_equal(linalg.matmul(a, b), linalg.matmul(a, b))


def rank1_matmul(a, b):
    """Frozen reference: the rank-1 update loop that fixes the kernel's
    arithmetic (out starts at 0.0; each k adds one rounded product per
    element, in k order)."""
    out = np.zeros((a.shape[0], b.shape[1]))
    for k in range(a.shape[1]):
        out += a[:, k : k + 1] * b[k : k + 1, :]
    return out


# both sides of the kernel's small-output rule (n*m <= 256; 16x40 @ 40x16
# sits on it, 17x9 @ 9x16 just past it), and k long
# enough to cross its 2**15-element accumulate blocks (1x4096 @ 4096x64
# runs in blocks of 511 k, 2x40000 @ 40000x1 in blocks of 16383 k), and
# empty operands: no rows, no columns, an empty inner dimension; k = 1
# outer products of both output sizes (64x1 @ 1x4096 is the inference
# net's output-layer weight gradient)
PARITY_SHAPES = [
    (0, 3, 2),
    (2, 3, 0),
    (2, 0, 3),
    (1, 1, 1),
    (5, 1, 7),
    (64, 1, 4096),
    (8, 16, 4),
    (1, 128, 16),
    (16, 40, 16),
    (17, 9, 16),
    (20, 64, 32),
    (64, 16, 64),
    (1, 4096, 64),
    (2, 40000, 1),
]


@pytest.mark.parametrize("shape", PARITY_SHAPES)
def test_matmul_matches_rank1_loop_bitwise(shape):
    n, k, m = shape
    rng = np.random.default_rng(n * 1_000_003 + k * 101 + m)
    a = rng.standard_normal((n, k)) * np.exp(rng.uniform(-20, 20, (n, k)))
    b = rng.standard_normal((k, m))
    if n:
        a[0] = 0.0  # a row of +0 and a row of -0 (when n > 1)
        a[-1, ::2] = -0.0 if n > 1 else 0.0
    if m > 1:
        b[:, 0] = -0.0  # a column of -0 products
    want = rank1_matmul(a, b)
    # C-contiguous operands, and transposed views of contiguous arrays
    for x, y in ((a, b), (np.ascontiguousarray(a.T).T, np.ascontiguousarray(b.T).T)):
        got = linalg.matmul(x, y)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("shape", [(3, 2, 1, 4), (10, 20, 32, 64), (2, 1, 40, 3)])
def test_stacked_matmul_matches_each_product(shape):
    L, n, k, m = shape
    rng = np.random.default_rng(L * 101 + k)
    a = rng.standard_normal((L, n, k))
    a[0, 0] = -0.0
    b = rng.standard_normal((L, m, k)).transpose(0, 2, 1)  # strided stack
    got = linalg.matmul_stack(a, b)
    assert got.shape == (L, n, m)
    for l in range(L):
        want = rank1_matmul(a[l], b[l])
        assert np.array_equal(got[l], want)
        assert np.array_equal(np.signbit(got[l]), np.signbit(want))


def test_stacked_matmul_checks_shapes():
    with pytest.raises(DimensionError):
        linalg.matmul_stack(np.zeros((2, 3, 4)), np.zeros((3, 4, 5)))
    with pytest.raises(DimensionError):
        linalg.matmul_stack(np.zeros((2, 3, 4)), np.zeros((2, 5, 4)))
    with pytest.raises(DimensionError):
        linalg.matmul_stack(np.zeros((2, 3, 4)), np.zeros((4, 5)))
    with pytest.raises(DimensionError):
        linalg.matmul(np.zeros((2, 3, 4)), np.zeros((2, 4, 5)))


def test_matmul_signed_zero_products_sum_to_plus_zero():
    # every entry is a zero: -0 products, +0/-0 mixes, and 1 - 1
    a = np.array([[-0.0, -0.0, 0.0], [-1.0, 1.0, -0.0]])
    b = np.array([[1.0, -0.0], [1.0, -0.0], [-1.0, -0.0]])
    got = linalg.matmul(a, b)
    assert np.array_equal(np.signbit(got), np.signbit(rank1_matmul(a, b)))
    assert (got == 0.0).all() and not np.signbit(got).any()


@pytest.mark.parametrize("k", [3, 3000])
def test_matmul_cancellation_keeps_k_order_at_both_sizes(k):
    # 1e16 + 1 rounds back to 1e16, so in k order every 1 is lost and the
    # final -1e16 leaves 0; any regrouping of the sum keeps some of the 1s.
    # Checked with a narrow output (accumulate path) and a wide one (loop).
    a = np.ones((1, k))
    a[0, 0], a[0, -1] = 1e16, -1e16
    for m in (1, 512):
        b = np.ones((k, m))
        got = linalg.matmul(a, b)
        assert np.array_equal(got, rank1_matmul(a, b))
        assert (got == 0.0).all()


def test_matmul_flags_non_finite_result():
    a = np.array([[1e308, 1e308]])
    b = np.array([[2.0], [2.0]])
    with pytest.raises(NumericError):
        linalg.matmul(a, b)


def test_vsum_is_left_to_right():
    assert linalg.vsum(np.array([1e16, 1.0, -1e16])) == 0.0
    assert linalg.vsum(np.array([-1e16, 1e16, 1.0])) == 1.0


def test_colsum_matches_plain_sum():
    m = np.arange(12.0).reshape(4, 3)
    assert np.array_equal(linalg.colsum(m), m.sum(axis=0))


@given(small_matrix())
@settings(max_examples=40, deadline=None)
def test_colmean_exact_is_permutation_invariant(m):
    perm = np.random.default_rng(0).permutation(m.shape[0])
    assert np.array_equal(linalg.colmean_exact(m), linalg.colmean_exact(m[perm]))


def test_colmean_exact_empty_matrix():
    with pytest.raises(DimensionError):
        linalg.colmean_exact(np.zeros((0, 3)))


def test_row_sqdist_hand_example():
    d = linalg.row_sqdist(np.array([[3.0, 4.0]]), np.zeros(2))
    assert d.tolist() == [25.0]


def test_row_sqdist_dimension_mismatch():
    with pytest.raises(DimensionError):
        linalg.row_sqdist(np.zeros((2, 3)), np.zeros(2))


def test_as_matrix_promotes_vectors_and_validates():
    m = linalg.as_matrix([1.0, 2.0])
    assert m.shape == (1, 2)
    with pytest.raises(NumericError):
        linalg.as_matrix([np.nan, 1.0])
    with pytest.raises(DimensionError):
        linalg.as_matrix(np.zeros((2, 2, 2)))


def test_as_vector_validates():
    v = linalg.as_vector([1.0, 2.0])
    assert v.shape == (2,)
    with pytest.raises(DimensionError):
        linalg.as_vector(np.zeros((2, 2)))
    with pytest.raises(NumericError):
        linalg.as_vector([np.inf])

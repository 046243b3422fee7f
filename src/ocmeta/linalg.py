"""Dense float64 linear algebra with pinned reduction orders.

Matrices are plain 2-D float64 ndarrays. Reductions that feed
results back into training are routed through here so every run sums in
the same documented order.
"""

import math

import numpy as np

from . import backend
from .errors import DimensionError, NumericError


def as_matrix(x, name="matrix"):
    """Coerce to a 2-D C-contiguous float64 array, rejecting non-finite data."""
    a = np.ascontiguousarray(x, dtype=np.float64)
    if a.ndim == 1:
        a = a.reshape(1, -1)
    if a.ndim != 2:
        raise DimensionError(f"{name}: expected 2 dimensions, got {a.ndim}")
    ensure_finite(a, name)
    return a


def as_vector(x, name="vector"):
    a = np.ascontiguousarray(x, dtype=np.float64)
    if a.ndim != 1:
        raise DimensionError(f"{name}: expected 1 dimension, got {a.ndim}")
    ensure_finite(a, name)
    return a


def ensure_finite(a, what):
    if not np.isfinite(a).all():
        raise NumericError(f"{what}: non-finite value encountered")
    return a


# an overflow inside the kernel is reported by ensure_finite as a
# NumericError, not also as a RuntimeWarning
@np.errstate(over="ignore", invalid="ignore")
def matmul(a, b):
    """Matrix product with the inner sum accumulated left to right.

    The fixed order makes results bit-identical across runs; BLAS is
    deliberately not used here. Operands may be strided views: a `.T` need
    not be copied.
    """
    if a.ndim != 2 or b.ndim != 2:
        raise DimensionError("matmul: operands must be 2-D")
    if a.shape[1] != b.shape[0]:
        raise DimensionError(
            f"matmul: inner dimensions differ ({a.shape[0]}x{a.shape[1]} @ "
            f"{b.shape[0]}x{b.shape[1]})"
        )
    out = np.empty((a.shape[0], b.shape[1]))
    backend.matmul(np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64), out)
    ensure_finite(out, "matmul result")
    return out


@np.errstate(over="ignore", invalid="ignore")
def matmul_stack(a, b):
    """out[l] = a[l] @ b[l] for two 3-D stacks of matrices, each product
    summed as matmul sums it."""
    if a.ndim != 3 or b.ndim != 3 or a.shape[0] != b.shape[0] or a.shape[2] != b.shape[1]:
        raise DimensionError(f"matmul_stack: cannot multiply stacks {a.shape} @ {b.shape}")
    out = np.empty((a.shape[0], a.shape[1], b.shape[2]))
    backend.matmul(np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64), out)
    ensure_finite(out, "matmul result")
    return out


def colsum(m):
    """Per-column sum accumulated in row order (via a ones-row product)."""
    ones = np.ones((1, m.shape[0]))
    return matmul(ones, m)[0]


def colmean_exact(m):
    """Per-column mean via exactly rounded summation (math.fsum).

    The exact rounding makes the result independent of row order, which the
    support-set pooling relies on.
    """
    n = m.shape[0]
    if n == 0:
        raise DimensionError("colmean_exact: empty matrix")
    return np.array([math.fsum(m[:, j]) / n for j in range(m.shape[1])])


def vsum(v):
    """Strict left-to-right sum of a 1-D array."""
    s = 0.0
    for x in v:
        s += x
    return s


def row_sqdist(z, c):
    """Squared Euclidean distance of every row of z to the vector c.

    Accumulates over columns in index order, matching a per-row scalar loop.
    """
    if z.shape[1] != c.shape[0]:
        raise DimensionError(
            f"row_sqdist: {z.shape[1]}-dim rows vs {c.shape[0]}-dim center"
        )
    acc = np.zeros(z.shape[0])
    for j in range(z.shape[1]):
        d = z[:, j] - c[j]
        acc += d * d
    return acc

import numpy as np
import pytest

from ocmeta.errors import DimensionError
from ocmeta.optim import Adam


def test_zero_gradient_fresh_state_is_noop():
    p = np.array([1.0, -2.0, 3.5])
    opt = Adam([p], lr=0.1)
    opt.step([np.zeros(3)])
    assert np.array_equal(p, [1.0, -2.0, 3.5])
    assert opt.step_count == 1
    opt.step([np.zeros(3)])  # still a no-op while m and v stay zero
    assert np.array_equal(p, [1.0, -2.0, 3.5])
    assert opt.step_count == 2


def test_first_step_hand_value():
    # bias correction makes the first update ~ -lr * g / (|g| + eps)
    p = np.array([1.0])
    opt = Adam([p], lr=0.1)
    opt.step([np.array([2.0])])
    assert abs(p[0] - (1.0 - 0.1 * (2.0 / (2.0 + 1e-8)))) < 1e-9


def test_matches_textbook_recurrence():
    # independent reimplementation of the Adam update rule
    lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
    rng = np.random.default_rng(0)
    p_ref = rng.standard_normal(6)
    p = p_ref.copy()
    opt = Adam([p], lr=lr)
    m = np.zeros(6)
    v = np.zeros(6)
    for t in range(1, 8):
        g = rng.standard_normal(6)
        opt.step([g.copy()])
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1**t)
        v_hat = v / (1 - b2**t)
        p_ref = p_ref - lr * m_hat / (np.sqrt(v_hat) + eps)
    assert np.allclose(p, p_ref, rtol=1e-13, atol=0)


def test_step_increments_by_one():
    p = np.zeros(2)
    opt = Adam([p], lr=0.1)
    for expected in range(1, 5):
        opt.step([np.ones(2)])
        assert opt.step_count == expected


def test_identical_runs_bit_identical():
    def run():
        p = np.array([[1.0, 2.0], [3.0, 4.0]])
        opt = Adam([p], lr=0.05)
        for t in range(10):
            opt.step([p * 0.1 + t])
        return p

    assert np.array_equal(run(), run())


def test_gradient_count_mismatch():
    opt = Adam([np.zeros(2)], lr=0.1)
    with pytest.raises(DimensionError):
        opt.step([np.zeros(2), np.zeros(2)])


def test_gradient_shape_mismatch():
    opt = Adam([np.zeros(2)], lr=0.1)
    with pytest.raises(DimensionError):
        opt.step([np.zeros(3)])


def test_updates_multiple_params_in_place():
    a = np.ones(2)
    b = np.ones((2, 2))
    opt = Adam([a, b], lr=0.1)
    opt.step([np.ones(2), np.zeros((2, 2))])
    assert a[0] != 1.0  # moved
    assert np.array_equal(b, np.ones((2, 2)))  # zero grad, fresh state


def frozen_adam_steps(params, grads_per_step, lr, b1=0.9, b2=0.999, eps=1e-8):
    """Frozen reference: the allocating three-line update the in-place step
    replaced, in the same operation order."""
    ms = [np.zeros_like(p) for p in params]
    vs = [np.zeros_like(p) for p in params]
    for t, grads in enumerate(grads_per_step, start=1):
        bc1 = 1.0 - b1**t
        bc2 = 1.0 - b2**t
        for p, g, m, v in zip(params, grads, ms, vs):
            m[:] = b1 * m + (1.0 - b1) * g
            v[:] = b2 * v + (1.0 - b2) * (g * g)
            p -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)
    return ms, vs


def test_in_place_step_matches_frozen_update_bitwise():
    rng = np.random.default_rng(11)
    shapes = [(64, 32), (32,), (1, 4096)]
    start = [rng.standard_normal(s) * np.exp(rng.uniform(-8, 8, s)) for s in shapes]
    steps = [[rng.standard_normal(s) * np.exp(rng.uniform(-8, 8, s)) for s in shapes]
             for _ in range(7)]
    for g in steps[3]:
        g.flat[::5] = 0.0
        g.flat[1::7] = -0.0
    params = [p.copy() for p in start]
    opt = Adam(params, lr=1e-3)
    for grads in steps:
        opt.step([g.copy() for g in grads])
    want = [p.copy() for p in start]
    ms, vs = frozen_adam_steps(want, steps, lr=1e-3)
    for got, ref in zip(params + opt.m + opt.v, want + ms + vs):
        assert np.array_equal(got, ref)
        assert np.array_equal(np.signbit(got), np.signbit(ref))

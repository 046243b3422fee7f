import numpy as np
import pytest

from ocmeta.errors import NumericError
from ocmeta.gradcheck import grad_check


def test_sum_of_squares():
    p = np.array([1.0, -2.0, 0.5])

    def loss_and_grad(params):
        (x,) = params
        return float(np.sum(x * x)), [2.0 * x]

    assert grad_check(loss_and_grad, [p], h=1e-4) <= 1e-6


def test_constant_loss():
    p = np.array([3.0, 4.0])

    def loss_and_grad(params):
        return 7.0, [np.zeros(2)]

    assert grad_check(loss_and_grad, [p], h=1e-4) <= 1e-6


def test_detects_wrong_gradient():
    p = np.array([1.0, 2.0])

    def loss_and_grad(params):
        (x,) = params
        return float(np.sum(x * x)), [3.0 * x]  # deliberately wrong

    assert grad_check(loss_and_grad, [p], h=1e-4) > 0.1


def test_non_finite_loss_raises():
    def loss_and_grad(params):
        return float("nan"), [np.zeros(1)]

    with pytest.raises(NumericError):
        grad_check(loss_and_grad, [np.zeros(1)], h=1e-4)


def test_non_finite_perturbed_loss_raises():
    p = np.array([1e-6])

    def loss_and_grad(params):
        (x,) = params
        with np.errstate(invalid="ignore"):
            return float(np.log(x[0])), [1.0 / x]

    # p - h goes negative, log() of it is nan
    with pytest.raises(NumericError):
        grad_check(loss_and_grad, [p], h=1e-4)


def test_forgives_disagreement_below_fd_resolution():
    # true slope 1e-12 is under the round-off resolution of the central
    # difference at h=1e-5; claiming a zero gradient must not fail
    p = np.array([0.5])

    def loss_and_grad(params):
        (x,) = params
        return float(x[0]) * 1e-12, [np.zeros(1)]

    assert grad_check(loss_and_grad, [p], h=1e-5) == 0.0


def test_still_catches_small_but_resolvable_errors():
    # slope 1e-6 is far above the resolution; a claimed zero gradient fails
    p = np.array([0.5])

    def loss_and_grad(params):
        (x,) = params
        return float(x[0]) * 1e-6, [np.zeros(1)]

    assert grad_check(loss_and_grad, [p], h=1e-5) > 0.1


def test_restores_params():
    p = np.array([1.0, 2.0])

    def loss_and_grad(params):
        (x,) = params
        return float(np.sum(x * x)), [2.0 * x]

    grad_check(loss_and_grad, [p], h=1e-4)
    assert np.array_equal(p, [1.0, 2.0])


def test_episodic_check_detects_corrupted_backward(monkeypatch):
    """The whole-model check must be able to fail: a 0.1% scaling of one
    gradient family has to push the error past the acceptance tolerance."""
    from ocmeta import gradcheck as gc
    from ocmeta import meta

    orig = meta.episode_loss

    def corrupted(*args, **kwargs):
        loss, tg, pg = orig(*args, **kwargs)
        return loss, tg, [(w * 1.001, b) for w, b in pg]

    monkeypatch.setattr(meta, "episode_loss", corrupted)
    assert gc.check_episodic(0) > 1e-4


def test_oneclass_check_detects_corrupted_backward(monkeypatch):
    from ocmeta import gradcheck as gc
    from ocmeta import svdd

    orig = svdd.svdd_loss

    def corrupted(latents, center):
        loss, grad = orig(latents, center)
        return loss, grad * 1.0005

    monkeypatch.setattr(svdd, "svdd_loss", corrupted)
    assert gc.check_oneclass(0) > 1e-4


def test_relu_kink_within_h_is_scored_on_its_own_side():
    # the kink sits 0.4h left of the point: the central difference reads 0.7,
    # the forward one sees only the x > 0 piece and reads the true slope 1
    h = 1e-4
    p = np.array([0.4 * h])

    def check(slope):
        def loss_and_grad(params):
            (x,) = params
            return max(float(x[0]), 0.0), [np.array([slope])]

        return grad_check(loss_and_grad, [p], h=h)

    assert check(1.0) <= 1e-6
    assert check(0.5) > 0.1
    assert check(0.0) > 0.1


def test_episodic_check_passes_at_relu_kink():
    # query row 0, trunk unit 11 has pre-activation 1.8e-5 for this seed, so
    # a 1e-5 step on W1[j, 11] crosses the kink
    from ocmeta.gradcheck import check_episodic

    assert check_episodic(6078018368569209128) <= 1e-4


def test_lazy_gradients_are_evaluated_once_at_the_point():
    p = np.array([1.0, -2.0, 0.5])
    calls = []
    thunk_points = []

    def loss_and_grad(params):
        (x,) = params
        calls.append(x.copy())

        def grads():
            thunk_points.append(x.copy())
            return [2.0 * x]

        return float(np.sum(x * x)), grads

    def eager(params):
        (x,) = params
        return float(np.sum(x * x)), [2.0 * x]

    err = grad_check(loss_and_grad, [p], h=1e-4)
    assert len(calls) == 2 * p.size + 1
    assert len(thunk_points) == 1
    assert np.array_equal(thunk_points[0], [1.0, -2.0, 0.5])
    assert np.array_equal(p, [1.0, -2.0, 0.5])
    assert err == grad_check(eager, [p], h=1e-4)

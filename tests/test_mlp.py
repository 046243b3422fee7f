import numpy as np
import pytest

from ocmeta import linalg, mlp
from ocmeta.errors import ConfigError, DimensionError
from ocmeta.gradcheck import grad_check
from ocmeta.rng import Rng


def test_config_rejects_bad_dims():
    with pytest.raises(ConfigError):
        mlp.EncoderConfig(input_dim=0)
    with pytest.raises(ConfigError):
        mlp.EncoderConfig(input_dim=4, hidden_dims=(0,))
    with pytest.raises(ConfigError):
        mlp.EncoderConfig(input_dim=4, latent_dim=0)


def test_init_deterministic():
    cfg = mlp.EncoderConfig(input_dim=6, hidden_dims=(5, 4), latent_dim=3)
    p1 = mlp.init_params(cfg, Rng(7))
    p2 = mlp.init_params(cfg, Rng(7))
    for (w1, b1), (w2, b2) in zip(p1.hidden, p2.hidden):
        assert np.array_equal(w1, w2) and np.array_equal(b1, b2)
    assert np.array_equal(p1.final_w, p2.final_w)


def test_init_scales():
    cfg = mlp.EncoderConfig(input_dim=100, hidden_dims=(100,), latent_dim=100)
    p = mlp.init_params(cfg, Rng(1))
    assert abs(p.hidden[0][0].std() - np.sqrt(2.0 / 100)) < 0.02
    assert abs(p.final_w.std() - np.sqrt(1.0 / 100)) < 0.02
    assert np.array_equal(p.hidden[0][1], np.zeros(100))
    assert p.final_b is None


def test_no_hidden_layers_is_a_single_linear_map():
    cfg = mlp.EncoderConfig(input_dim=3, hidden_dims=(), latent_dim=2)
    p = mlp.init_params(cfg, Rng(2))
    assert p.hidden == []
    x = Rng(3).gaussian_matrix(5, 3)
    assert np.array_equal(mlp.encode(x, p), linalg.matmul(x, p.final_w))
    assert np.allclose(mlp.encode(x, p), x @ p.final_w)


def test_zero_weights_map_everything_to_zero():
    p = mlp.EncoderParams(
        hidden=[(np.zeros((3, 4)), np.zeros(4))], final_w=np.zeros((4, 2))
    )
    x = Rng(1).gaussian_matrix(6, 3)
    assert np.array_equal(mlp.encode(x, p), np.zeros((6, 2)))


def test_single_unit_hand_forward():
    # hidden ReLU(1*2+0) = 2, output 2 * w_final
    p = mlp.EncoderParams(
        hidden=[(np.array([[1.0]]), np.zeros(1))], final_w=np.array([[0.5]])
    )
    out = mlp.encode(np.array([[2.0]]), p)
    assert out.tolist() == [[1.0]]


def test_batch_shape():
    cfg = mlp.EncoderConfig(input_dim=4, hidden_dims=(6,), latent_dim=3)
    p = mlp.init_params(cfg, Rng(4))
    out = mlp.encode(Rng(5).gaussian_matrix(9, 4), p)
    assert out.shape == (9, 3)


def test_encode_rejects_wrong_input_width():
    cfg = mlp.EncoderConfig(input_dim=4, hidden_dims=(6,), latent_dim=3)
    p = mlp.init_params(cfg, Rng(4))
    with pytest.raises(DimensionError):
        mlp.encode(np.zeros((2, 5)), p)


def test_positive_homogeneity_in_final_layer():
    # scaling the bias-free final layer by 2 scales outputs by exactly 2
    cfg = mlp.EncoderConfig(input_dim=4, hidden_dims=(6,), latent_dim=3)
    p = mlp.init_params(cfg, Rng(8))
    doubled = mlp.EncoderParams(hidden=p.hidden, final_w=2.0 * p.final_w)
    x = Rng(9).gaussian_matrix(5, 4)
    assert np.array_equal(mlp.encode(x, doubled), 2.0 * mlp.encode(x, p))


def test_backward_zero_upstream_gives_zero_grads():
    cfg = mlp.EncoderConfig(input_dim=4, hidden_dims=(6,), latent_dim=3)
    p = mlp.init_params(cfg, Rng(4))
    x = Rng(5).gaussian_matrix(7, 4)
    g = mlp.encode_backward(x, p, np.zeros((7, 3)))
    assert not g.final_w.any()
    assert all(not dw.any() and not db.any() for dw, db in g.hidden)


def test_backward_linear_in_upstream():
    cfg = mlp.EncoderConfig(input_dim=4, hidden_dims=(6,), latent_dim=3)
    p = mlp.init_params(cfg, Rng(4))
    x = Rng(5).gaussian_matrix(7, 4)
    up = Rng(6).gaussian_matrix(7, 3)
    g1 = mlp.encode_backward(x, p, up)
    g2 = mlp.encode_backward(x, p, 2.0 * up)
    assert np.array_equal(g2.final_w, 2.0 * g1.final_w)
    for (dw2, db2), (dw1, db1) in zip(g2.hidden, g1.hidden):
        assert np.array_equal(dw2, 2.0 * dw1)
        assert np.array_equal(db2, 2.0 * db1)


def test_backward_rejects_wrong_upstream_shape():
    cfg = mlp.EncoderConfig(input_dim=4, hidden_dims=(6,), latent_dim=3)
    p = mlp.init_params(cfg, Rng(4))
    with pytest.raises(DimensionError):
        mlp.encode_backward(np.zeros((2, 4)), p, np.zeros((2, 5)))


def test_relu_derivative_at_zero_is_zero():
    p = mlp.EncoderParams(
        hidden=[(np.array([[1.0]]), np.zeros(1))], final_w=np.array([[1.0]])
    )
    g = mlp.encode_backward(np.array([[0.0]]), p, np.array([[1.0]]))
    assert g.hidden[0][0][0, 0] == 0.0
    assert g.hidden[0][1][0] == 0.0


def _quadratic_head_loss(x, params, with_bias):
    z, cache = mlp.encode_with_cache(x, params)
    loss = float(np.sum(z * z))
    grads = mlp.encode_backward(x, params, 2.0 * z, cache=cache)
    return loss, mlp.grad_arrays(grads, with_bias)


def test_gradcheck_with_final_bias():
    cfg = mlp.EncoderConfig(input_dim=4, hidden_dims=(5,), latent_dim=3, final_bias=True)
    p = mlp.init_params(cfg, Rng(11))
    x = Rng(12).gaussian_matrix(5, 4)
    arrays = mlp.param_arrays(p)
    err = grad_check(lambda _: _quadratic_head_loss(x, p, True), arrays, h=1e-5)
    assert err <= 1e-4


def test_param_arrays_are_live_views():
    cfg = mlp.EncoderConfig(input_dim=3, hidden_dims=(4,), latent_dim=2)
    p = mlp.init_params(cfg, Rng(17))
    arrays = mlp.param_arrays(p)
    assert arrays[0] is p.hidden[0][0]
    assert arrays[1] is p.hidden[0][1]
    assert arrays[2] is p.final_w

"""ReLU MLP encoder with analytic backpropagation.

Layout: hidden layers with ReLU, then a linear map into the latent space.
The final layer carries no bias by default, which keeps the trained
hypersphere from collapsing onto a constant map. Weights are stored
(fan_in, fan_out) so a batch is encoded as x @ W + b; the ReLU derivative
at exactly 0 is 0.
"""

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import ConfigError, DimensionError


@dataclass
class EncoderConfig:
    input_dim: int
    hidden_dims: tuple = (64,)
    latent_dim: int = 32
    final_bias: bool = False

    def __post_init__(self):
        self.hidden_dims = tuple(int(d) for d in self.hidden_dims)
        dims = (self.input_dim, *self.hidden_dims, self.latent_dim)
        if any(d < 1 for d in dims):
            raise ConfigError(f"encoder dims must all be >= 1, got {dims}")


@dataclass
class EncoderParams:
    """hidden: list of (W, b) per ReLU layer; final: linear map to latents."""

    hidden: list
    final_w: np.ndarray
    final_b: np.ndarray = None

    @property
    def input_dim(self):
        return self.hidden[0][0].shape[0] if self.hidden else self.final_w.shape[0]

    @property
    def latent_dim(self):
        return self.final_w.shape[1]


@dataclass
class EncoderGrads:
    hidden: list = field(default_factory=list)
    final_w: np.ndarray = None
    final_b: np.ndarray = None


def init_params(config, rng):
    """Seeded init: hidden weights ~ N(0, 2/fan_in) (ReLU gain), zero biases;
    final weights ~ N(0, 1/fan_in)."""
    hidden = []
    fan_in = config.input_dim
    for width in config.hidden_dims:
        w = rng.gaussian_matrix(fan_in, width) * np.sqrt(2.0 / fan_in)
        hidden.append((w, np.zeros(width)))
        fan_in = width
    final_w = rng.gaussian_matrix(fan_in, config.latent_dim) * np.sqrt(1.0 / fan_in)
    final_b = np.zeros(config.latent_dim) if config.final_bias else None
    return EncoderParams(hidden=hidden, final_w=final_w, final_b=final_b)


def trunk_forward(x, hidden):
    """Hidden-layer forward pass; returns (activations, cache for backward)."""
    cache = []
    a = x
    for w, b in hidden:
        z = linalg.matmul(a, w) + b
        cache.append((a, z))
        a = np.maximum(z, 0.0)
    return a, cache


def trunk_backward(hidden, cache, dout):
    """Gradients of the hidden stack given d(loss)/d(activations): a list of
    (dW, db) per layer."""
    grads = [None] * len(hidden)
    da = dout
    for k in range(len(hidden) - 1, -1, -1):
        a_prev, z = cache[k]
        dz = da * (z > 0.0)
        dw = linalg.matmul(a_prev.T, dz)
        db = linalg.colsum(dz)
        grads[k] = (dw, db)
        if k > 0:
            da = linalg.matmul(dz, hidden[k][0].T)
    return grads


def encode_with_cache(x, params):
    if x.shape[1] != params.input_dim:
        raise DimensionError(
            f"encode: input has {x.shape[1]} features, encoder expects {params.input_dim}"
        )
    a, cache = trunk_forward(x, params.hidden)
    z = linalg.matmul(a, params.final_w)
    if params.final_b is not None:
        z = z + params.final_b
    return z, (a, cache)


def encode(x, params):
    """Map a feature batch to latent space (batch x latent_dim)."""
    z, _ = encode_with_cache(x, params)
    return z


def encode_backward(x, params, dlatent, cache=None):
    """Analytic gradients of encode w.r.t. all parameters."""
    if cache is None:
        _, cache = encode_with_cache(x, params)
    a_last, trunk_cache = cache
    if dlatent.shape != (x.shape[0], params.latent_dim):
        raise DimensionError(
            f"encode_backward: upstream gradient shape {dlatent.shape} != "
            f"({x.shape[0]}, {params.latent_dim})"
        )
    dfinal_w = linalg.matmul(a_last.T, dlatent)
    dfinal_b = linalg.colsum(dlatent) if params.final_b is not None else None
    da = linalg.matmul(dlatent, params.final_w.T)
    hidden_grads = trunk_backward(params.hidden, trunk_cache, da)
    return EncoderGrads(hidden=hidden_grads, final_w=dfinal_w, final_b=dfinal_b)


def param_arrays(params):
    """Flat parameter list in a fixed order (hidden W, b pairs, then final)."""
    out = []
    for w, b in params.hidden:
        out.append(w)
        out.append(b)
    out.append(params.final_w)
    if params.final_b is not None:
        out.append(params.final_b)
    return out


def grad_arrays(grads, with_bias):
    out = []
    for dw, db in grads.hidden:
        out.append(dw)
        out.append(db)
    out.append(grads.final_w)
    if with_bias:
        out.append(grads.final_b)
    return out

"""One-class SVDD with a neural encoder: fixed-center hypersphere training and scoring.

Training minimizes the mean squared distance of encoded samples to a center
that is set once from the initial pass over the data and never updated; the
anomaly score of a sample is its squared latent distance to that center.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import linalg, mlp
from .errors import ConfigError, DataError, NumericError
from .optim import Adam
from .rng import Rng


@dataclass
class TrainConfig:
    batch_size: int = 64
    lr: float = 1e-4
    epochs: int = 100
    latent_dim: int = 32
    seed: int = 0
    # floor on |center coordinate|; 0 disables. With a bias-free final layer
    # a zero coordinate admits collapse along that axis.
    center_floor: float = 0.1

    def __post_init__(self):
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ConfigError(f"lr must be finite and > 0, got {self.lr}")
        if self.latent_dim < 1:
            raise ConfigError(f"latent_dim must be >= 1, got {self.latent_dim}")
        if not math.isfinite(self.center_floor):
            raise ConfigError(f"center_floor must be finite, got {self.center_floor}")


@dataclass
class OneClassModel:
    params: mlp.EncoderParams
    config: mlp.EncoderConfig
    center: np.ndarray


def init_center(features, params, floor=0.1):
    """Center = mean encoding of the batch, with small coordinates pushed
    out to +-floor (sign(0) counts as +)."""
    if features.shape[0] < 1:
        raise DataError("init_center: empty batch")
    c = linalg.colmean_exact(mlp.encode(features, params))
    if floor > 0.0:
        small = np.abs(c) < floor
        sign = np.where(c < 0.0, -1.0, 1.0)
        c = np.where(small, floor * sign, c)
    return c


def svdd_loss(latents, center):
    """Mean squared distance to the center and its gradient w.r.t. latents.

    The sum over rows is exactly rounded (math.fsum), so the loss value is
    invariant under any permutation of the batch.
    """
    n = latents.shape[0]
    if n < 1:
        raise DataError("svdd_loss: empty batch")
    sq = linalg.row_sqdist(latents, center)
    loss = math.fsum(sq) / n
    grad = (2.0 / n) * (latents - center)
    return loss, grad


def train_svdd(features, config, encoder_config=None):
    """Train a one-class model on in-distribution feature rows.

    Returns (model, epoch_losses). Deterministic for a given seed: parameter
    init draws from Rng(seed), epoch e shuffles with Rng(seed + e).
    """
    features = linalg.as_matrix(features, "training features")
    n = features.shape[0]
    if n < 1:
        raise DataError("train_svdd: no training samples")
    if encoder_config is None:
        encoder_config = mlp.EncoderConfig(
            input_dim=features.shape[1], latent_dim=config.latent_dim
        )
    params = mlp.init_params(encoder_config, Rng(config.seed))
    center = init_center(features, params, config.center_floor)

    opt = Adam(mlp.param_arrays(params), lr=config.lr)
    with_bias = params.final_b is not None
    losses = []
    for epoch in range(config.epochs):
        perm = Rng(config.seed + epoch).permutation(n)
        epoch_loss = 0.0
        n_batches = 0
        for start in range(0, n, config.batch_size):
            batch = features[perm[start : start + config.batch_size]]
            latents, cache = mlp.encode_with_cache(batch, params)
            loss, dlat = svdd_loss(latents, center)
            if not np.isfinite(loss):
                raise NumericError(
                    f"train_svdd: non-finite loss at epoch {epoch}, batch {n_batches}"
                )
            grads = mlp.encode_backward(batch, params, dlat, cache=cache)
            opt.step(mlp.grad_arrays(grads, with_bias))
            epoch_loss += loss
            n_batches += 1
        losses.append(epoch_loss / n_batches)
    return OneClassModel(params=params, config=encoder_config, center=center), losses


def score(features, model):
    """Squared latent distance to the center, one score per row (larger =
    more anomalous); preserves input order."""
    latents = mlp.encode(linalg.as_matrix(features, "features"), model.params)
    return linalg.row_sqdist(latents, model.center)

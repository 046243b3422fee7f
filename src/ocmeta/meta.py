"""Episodic meta-learning of the one-class objective.

Instead of training an encoder per task, a shared trunk plus an amortized
inference network are meta-trained across tasks. For a new task the
inference net maps the mean of the support features to a diagonal Gaussian
over the encoder's final layer; sampled final layers are scored against a
per-episode center (the mean support latent under the posterior-mean final
layer). The episodic loss pulls in-distribution queries toward the center
and pushes out-of-distribution queries away through an inverse-distance
penalty weighted by eta. Adaptation at test time is a single forward pass:
no parameter updates happen after meta-training.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import linalg, mlp
from .errors import ConfigError, DataError, DimensionError, NumericError
from .rng import Rng

LOGVAR_MIN = -10.0
LOGVAR_MAX = 10.0
# keeps the inverse-distance penalty finite when a latent hits the center
EPS_INV = 1e-6


@dataclass
class MetaConfig:
    posterior_samples: int = 10  # function draws per episode (L)
    meta_batch: int = 5
    eta: float = 1.0
    support_size: int = 10
    query_in: int = 10
    query_out: int = 10
    lr: float = 1e-4
    meta_steps: int = 500
    seed: int = 0
    latent_dim: int = 32
    inference_hidden: tuple = (64, 64)

    def __post_init__(self):
        if self.posterior_samples < 1:
            raise ConfigError(f"posterior_samples must be >= 1, got {self.posterior_samples}")
        if self.meta_batch < 1:
            raise ConfigError(f"meta_batch must be >= 1, got {self.meta_batch}")
        if not (math.isfinite(self.eta) and self.eta > 0):
            raise ConfigError(f"eta must be finite and > 0, got {self.eta}")
        if self.support_size < 1:
            raise ConfigError(f"support_size must be >= 1, got {self.support_size}")
        if self.query_in < 1 or self.query_out < 0:
            raise ConfigError("query sizes must satisfy query_in >= 1, query_out >= 0")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ConfigError(f"lr must be finite and > 0, got {self.lr}")
        if self.meta_steps < 1:
            raise ConfigError(f"meta_steps must be >= 1, got {self.meta_steps}")
        if self.latent_dim < 1:
            raise ConfigError(f"latent_dim must be >= 1, got {self.latent_dim}")
        if len(self.inference_hidden) != 2 or min(self.inference_hidden) < 1:
            raise ConfigError(
                f"inference_hidden must name exactly 2 widths >= 1, got {self.inference_hidden}"
            )


@dataclass
class Episode:
    task_id: str
    support: np.ndarray  # (S, d), all in-distribution
    query_x: np.ndarray  # (N + M, d), in-distribution rows first
    query_y: np.ndarray  # labels in {+1, -1}


@dataclass
class InferenceNetParams:
    """Three fully connected layers (ReLU between) mapping pooled support
    features to (mean, log-variance) halves over the final-layer weights."""

    layers: list  # 3 x (W, b), W stored (fan_in, fan_out)
    latent_dim: int
    final_bias: bool = False

    @property
    def feat_dim(self):
        return self.layers[0][0].shape[0]

    @property
    def n_final(self):
        n = self.feat_dim * self.latent_dim
        if self.final_bias:
            n += self.latent_dim
        return n


@dataclass
class FinalLayerPosterior:
    """Diagonal Gaussian over the flattened final layer; logvar is clamped
    to [-10, 10]."""

    mu: np.ndarray
    logvar: np.ndarray
    feat_dim: int
    latent_dim: int
    final_bias: bool = False

    def materialize(self, flat):
        """Flat parameter vector -> (weights, bias or None)."""
        nw = self.feat_dim * self.latent_dim
        w = np.ascontiguousarray(flat[:nw].reshape(self.feat_dim, self.latent_dim))
        b = flat[nw:].copy() if self.final_bias else None
        return w, b

    def mean_layer(self):
        return self.materialize(self.mu)


def init_inference_net(feat_dim, latent_dim, hidden=(64, 64), final_bias=False, rng=None):
    """Hidden layers get ReLU-gain init; the output layer starts at zero with
    the log-variance bias at -4 so early posteriors are narrow."""
    h1, h2 = hidden
    n_final = feat_dim * latent_dim + (latent_dim if final_bias else 0)
    v1 = rng.gaussian_matrix(feat_dim, h1) * np.sqrt(2.0 / feat_dim)
    v2 = rng.gaussian_matrix(h1, h2) * np.sqrt(2.0 / h1)
    v3 = np.zeros((h2, 2 * n_final))
    c3 = np.concatenate([np.zeros(n_final), np.full(n_final, -4.0)])
    layers = [(v1, np.zeros(h1)), (v2, np.zeros(h2)), (v3, c3)]
    return InferenceNetParams(layers=layers, latent_dim=latent_dim, final_bias=final_bias)


def _infer_forward(pooled, phi):
    x = pooled.reshape(1, -1)
    (v1, c1), (v2, c2), (v3, c3) = phi.layers
    g1 = linalg.matmul(x, v1) + c1
    r1 = np.maximum(g1, 0.0)
    g2 = linalg.matmul(r1, v2) + c2
    r2 = np.maximum(g2, 0.0)
    out = linalg.matmul(r2, v3) + c3
    n = phi.n_final
    if out.shape[1] != 2 * n:
        raise DimensionError(
            f"inference net emits {out.shape[1]} values, expected {2 * n}"
        )
    mu = out[0, :n].copy()
    lv_raw = out[0, n:].copy()
    posterior = FinalLayerPosterior(
        mu=mu,
        logvar=np.clip(lv_raw, LOGVAR_MIN, LOGVAR_MAX),
        feat_dim=phi.feat_dim,
        latent_dim=phi.latent_dim,
        final_bias=phi.final_bias,
    )
    return posterior, (x, g1, r1, g2, r2, lv_raw)


def _infer_backward(cache, phi, dout):
    x, g1, r1, g2, r2, _ = cache
    (v1, _), (v2, _), (v3, _) = phi.layers
    dv3 = linalg.matmul(r2.T, dout)
    dc3 = dout[0].copy()
    dr2 = linalg.matmul(dout, v3.T)
    dg2 = dr2 * (g2 > 0.0)
    dv2 = linalg.matmul(r1.T, dg2)
    dc2 = dg2[0].copy()
    dr1 = linalg.matmul(dg2, v2.T)
    dg1 = dr1 * (g1 > 0.0)
    dv1 = linalg.matmul(x.T, dg1)
    dc1 = dg1[0].copy()
    dpooled = linalg.matmul(dg1, v1.T)[0]
    return dpooled, [(dv1, dc1), (dv2, dc2), (dv3, dc3)]


def infer_posterior(support, trunk, phi):
    """Posterior over the final layer from mean-pooled trunk features.

    Mean pooling uses exactly rounded summation, so the result is invariant
    under any permutation of the support rows.
    """
    if support.shape[0] < 1:
        raise DataError("infer_posterior: empty support set")
    h, _ = mlp.trunk_forward(support, trunk)
    return _pooled_posterior(h, phi)


def _pooled_posterior(h, phi):
    """Posterior from the trunk features h of a support set."""
    posterior, _ = _infer_forward(linalg.colmean_exact(h), phi)
    return posterior


def sample_final_layer(posterior, rng, noise=None):
    """Reparameterized draw: mu + exp(logvar/2) * eps, returned as (W, b)."""
    if noise is None:
        noise = rng.gaussian_matrix(1, posterior.mu.shape[0])[0]
    flat = posterior.mu + np.exp(0.5 * posterior.logvar) * noise
    return posterior.materialize(flat)


def sample_episode(tasks, task_id, rng, config):
    """Support/query split for one task.

    Support: seeded draw (without replacement) from the in-distribution rows.
    Query: disjoint in-distribution rows plus out-of-distribution rows.
    """
    by_id = tasks if isinstance(tasks, dict) else {t.task_id: t for t in tasks}
    if task_id not in by_id:
        raise DataError(f"unknown task {task_id!r}")
    task = by_id[task_id]
    pos = np.flatnonzero(task.labels == 1)
    neg = np.flatnonzero(task.labels == -1)
    s = config.support_size
    if pos.shape[0] <= s:
        raise DataError(
            f"task {task_id!r}: {pos.shape[0]} in-distribution samples cannot "
            f"cover a support of {s} plus a disjoint query"
        )
    if neg.shape[0] < 1:
        raise DataError(f"task {task_id!r}: no out-of-distribution samples to query")
    perm = rng.permutation(pos.shape[0])
    support_idx = pos[perm[:s]]
    spare = pos[perm[s:]]
    q_in = spare[: min(config.query_in, spare.shape[0])]
    nperm = rng.permutation(neg.shape[0])
    q_out = neg[nperm[: min(config.query_out, neg.shape[0])]]
    query_idx = np.concatenate([q_in, q_out])
    query_y = np.concatenate([np.ones(q_in.shape[0]), -np.ones(q_out.shape[0])])
    return Episode(
        task_id=task_id,
        support=task.features[support_idx],
        query_x=task.features[query_idx],
        query_y=query_y,
    )


def _flat_layer_grad(dw, db, final_bias):
    if final_bias:
        return np.concatenate([dw.reshape(-1), db])
    return dw.reshape(-1)


@dataclass
class _EpisodeCache:
    """What the backward half of episode_loss needs from its forward half."""

    pos_mask: np.ndarray
    neg_mask: np.ndarray
    eta: float
    denom: int
    h_s: np.ndarray
    cache_s: list
    inf_cache: tuple
    posterior: FinalLayerPosterior
    sigma: np.ndarray
    eps: np.ndarray  # (L, n_flat), row l is draw l's noise
    w_mu: np.ndarray
    center: np.ndarray
    h_q: np.ndarray
    cache_q: list
    w_all: np.ndarray  # (feat_dim, L * latent_dim): [W_1 ... W_L]
    z: np.ndarray  # (L, n_query, latent_dim): z[l] = h_q @ W_l (+ b_l)
    inv: np.ndarray  # (L, n_out): 1 / (distance^2 + EPS_INV)


def _episode_forward(episode, trunk, phi, config, rng, noise):
    """Forward half of episode_loss: (loss, cache for _episode_backward).

    The L draws are stacked: one (L, n_flat) noise matrix, the sampled
    weight matrices side by side, and one h_q @ [W_1 ... W_L] product. Every
    element is the same k-ordered sum as in a per-draw product, and the
    brackets are added in draw order, so the loss is bit-identical to
    evaluating the draws one at a time.
    """
    L = config.posterior_samples
    pos_mask = episode.query_y == 1
    neg_mask = episode.query_y == -1
    n_pos = int(np.count_nonzero(pos_mask))
    n_neg = int(np.count_nonzero(neg_mask))
    if n_pos < 1:
        raise DataError("episode_loss: query set has no in-distribution samples")
    if noise is not None and len(noise) != L:
        raise DimensionError(f"episode_loss: {len(noise)} noise vectors for L={L}")

    h_s, cache_s = mlp.trunk_forward(episode.support, trunk)
    pooled = linalg.colmean_exact(h_s)
    posterior, inf_cache = _infer_forward(pooled, phi)
    mu, logvar = posterior.mu, posterior.logvar
    sigma = np.exp(0.5 * logvar)
    w_mu, b_mu = posterior.mean_layer()

    z_c = linalg.matmul(h_s, w_mu)
    if b_mu is not None:
        z_c = z_c + b_mu
    center = linalg.colmean_exact(z_c)

    h_q, cache_q = mlp.trunk_forward(episode.query_x, trunk)

    n_flat = mu.shape[0]
    if noise is None:
        # the same row-major stream as L single-row draws
        eps = rng.gaussian_matrix(L, n_flat)
    else:
        eps = np.asarray(noise, dtype=np.float64)
        if eps.shape != (L, n_flat):
            raise DimensionError(
                f"episode_loss: noise of shape {eps.shape}, expected {(L, n_flat)}"
            )
    flat = mu + sigma * eps
    fd, d = posterior.feat_dim, posterior.latent_dim
    nw = fd * d
    w_all = flat[:, :nw].reshape(L, fd, d).transpose(1, 0, 2).reshape(fd, L * d)
    z_all = linalg.matmul(h_q, w_all)
    if posterior.final_bias:
        z_all = z_all + flat[:, nw:].reshape(-1)
    n_q = h_q.shape[0]
    z = np.ascontiguousarray(z_all.reshape(n_q, L, d).transpose(1, 0, 2))
    sq = linalg.row_sqdist(z.reshape(L * n_q, d), center).reshape(L, n_q)
    inv = 1.0 / (sq[:, neg_mask] + EPS_INV)
    bracket_total = 0.0
    for l in range(L):
        bracket_total += linalg.vsum(sq[l, pos_mask]) + config.eta * linalg.vsum(inv[l])
    denom = L * (n_pos + n_neg + L)
    loss = bracket_total / denom
    if not np.isfinite(loss):
        raise NumericError("episode_loss: non-finite loss")
    cache = _EpisodeCache(
        pos_mask=pos_mask,
        neg_mask=neg_mask,
        eta=config.eta,
        denom=denom,
        h_s=h_s,
        cache_s=cache_s,
        inf_cache=inf_cache,
        posterior=posterior,
        sigma=sigma,
        eps=eps,
        w_mu=w_mu,
        center=center,
        h_q=h_q,
        cache_q=cache_q,
        w_all=w_all,
        z=z,
        inv=inv,
    )
    return loss, cache


def _episode_backward(c, trunk, phi):
    """Backward half of episode_loss: (trunk_grads, phi_grads) from the cache.

    The weight gradients of all draws are one h_q^T @ [dz_1 ... dz_L] product
    and their column sums one colsum; each element keeps its own k-ordered
    sum. The per-draw dh_q products dz_l @ W_l^T are one stacked matmul.
    dh_q, dcenter, dmu and dlv accumulate per draw in draw order (a single
    L*latent-term dh_q sum would round differently).
    """
    posterior = c.posterior
    L, n_q, d = c.z.shape
    fd = posterior.feat_dim
    n_flat = posterior.mu.shape[0]
    coef = 1.0 / c.denom
    dsq = np.zeros((L, n_q))
    dsq[:, c.pos_mask] = coef
    dsq[:, c.neg_mask] = -c.eta * coef * c.inv * c.inv
    dz = (2.0 * dsq)[:, :, None] * (c.z - c.center)
    dz_all = dz.transpose(1, 0, 2).reshape(n_q, L * d)
    dz_colsum = linalg.colsum(dz_all)
    dw_all = linalg.matmul(c.h_q.T, dz_all)
    # row l: draw l's flattened final-layer gradient (weights, then bias)
    dw_flat = dw_all.reshape(fd, L, d).transpose(1, 0, 2).reshape(L, fd * d)
    if posterior.final_bias:
        dw_flat = np.concatenate([dw_flat, dz_colsum.reshape(L, d)], axis=1)
    dlv_terms = dw_flat * c.eps * c.sigma * 0.5
    # (L, d, fd): draw l's W_l^T
    w_t = c.w_all.reshape(fd, L, d).transpose(1, 2, 0)
    dh_parts = linalg.matmul_stack(dz, w_t)

    dmu = np.zeros(n_flat)
    dlv = np.zeros(n_flat)
    dh_q = np.zeros_like(c.h_q)
    dcenter = np.zeros_like(c.center)
    for l in range(L):
        cols = slice(l * d, (l + 1) * d)
        dcenter -= dz_colsum[cols]
        dh_q += dh_parts[l]
        dmu += dw_flat[l]
        dlv += dlv_terms[l]

    # center path: center = colmean(h_s @ w_mu), so each support row sees
    # dcenter / ns
    ns = c.h_s.shape[0]
    dz_c = np.tile(dcenter / ns, (ns, 1))
    dw_mu = linalg.matmul(c.h_s.T, dz_c)
    db_mu = linalg.colsum(dz_c) if posterior.final_bias else None
    dmu += _flat_layer_grad(dw_mu, db_mu, posterior.final_bias)
    dh_s = linalg.matmul(dz_c, c.w_mu.T)

    # clamp: no gradient outside [LOGVAR_MIN, LOGVAR_MAX]
    lv_raw = c.inf_cache[5]
    dlv_raw = dlv * ((lv_raw >= LOGVAR_MIN) & (lv_raw <= LOGVAR_MAX))
    dout = np.concatenate([dmu, dlv_raw]).reshape(1, -1)
    dpooled, phi_grads = _infer_backward(c.inf_cache, phi, dout)

    # pooled = colmean(h_s): every support row sees dpooled / ns
    dh_s = dh_s + np.tile(dpooled / ns, (ns, 1))

    gs = mlp.trunk_backward(trunk, c.cache_s, dh_s)
    gq = mlp.trunk_backward(trunk, c.cache_q, dh_q)
    trunk_grads = [(a[0] + b[0], a[1] + b[1]) for a, b in zip(gs, gq)]
    return trunk_grads, phi_grads


def episode_loss(episode, trunk, phi, config, rng=None, noise=None):
    """Episodic one-class loss and its gradients w.r.t. trunk and inference
    net parameters.

    For each of L sampled final layers the in-distribution query distances
    to the episode center are summed and each out-of-distribution query
    contributes eta / (distance^2 + 1e-6); each bracket is normalized by
    (N + M + L) and the L brackets are averaged. Gradients flow through the
    query encodings, the reparameterized samples, and the center (the mean
    support latent under the posterior-mean final layer).

    noise, if given, is L noise vectors (a list or an (L, n_flat) array);
    otherwise one (L, n_flat) matrix is drawn from rng. Returns
    (loss, trunk_grads, phi_grads).
    """
    loss, cache = _episode_forward(episode, trunk, phi, config, rng, noise)
    trunk_grads, phi_grads = _episode_backward(cache, trunk, phi)
    return loss, trunk_grads, phi_grads


def episode_loss_value(episode, trunk, phi, config, rng=None, noise=None):
    """The loss of episode_loss alone, bit-identical to it, without the
    backward pass. Draws the same noise from rng when none is given."""
    return _episode_forward(episode, trunk, phi, config, rng, noise)[0]


def trunk_param_arrays(trunk):
    out = []
    for w, b in trunk:
        out.append(w)
        out.append(b)
    return out


def phi_param_arrays(phi):
    out = []
    for w, b in phi.layers:
        out.append(w)
        out.append(b)
    return out


def init_trunk(input_dim, hidden_dims, rng):
    trunk = []
    fan_in = input_dim
    for width in hidden_dims:
        w = rng.gaussian_matrix(fan_in, width) * np.sqrt(2.0 / fan_in)
        trunk.append((w, np.zeros(width)))
        fan_in = width
    return trunk, fan_in


def meta_train(tasks, holdout_ids, config, hidden_dims=(64,)):
    """Meta-train (trunk, inference net) over a task pool.

    Each step draws meta_batch tasks (holdouts excluded), evaluates one
    episode per task, accumulates the gradients by summation in draw order,
    and applies a single Adam update. Returns (trunk, phi, per-step mean
    episode loss). Deterministic for a given seed.
    """
    from .optim import Adam

    holdout_ids = set(holdout_ids)
    pool = sorted((t for t in tasks if t.task_id not in holdout_ids), key=lambda t: t.task_id)
    if len(pool) < 2:
        raise DataError(f"meta_train: need at least 2 non-holdout tasks, have {len(pool)}")
    widths = {t.features.shape[1] for t in pool}
    if len(widths) != 1:
        raise DataError(f"meta_train: tasks disagree on feature width ({sorted(widths)})")
    input_dim = widths.pop()

    rng = Rng(config.seed)
    trunk, feat_dim = init_trunk(input_dim, hidden_dims, rng)
    phi = init_inference_net(feat_dim, config.latent_dim, config.inference_hidden, rng=rng)
    params = trunk_param_arrays(trunk) + phi_param_arrays(phi)
    opt = Adam(params, lr=config.lr)

    pool_map = {t.task_id: t for t in pool}
    ids = [t.task_id for t in pool]
    log = []
    for _ in range(config.meta_steps):
        if len(ids) >= config.meta_batch:
            chosen = [ids[i] for i in rng.sample_indices(len(ids), config.meta_batch)]
        else:
            chosen = [ids[rng.below(len(ids))] for _ in range(config.meta_batch)]
        accum = [np.zeros_like(p) for p in params]
        step_loss = 0.0
        for task_id in chosen:
            ep = sample_episode(pool_map, task_id, rng, config)
            loss, tg, pg = episode_loss(ep, trunk, phi, config, rng)
            for acc, g in zip(accum, [g for pair in tg + pg for g in pair]):
                acc += g
            step_loss += loss
        opt.step(accum)
        log.append(step_loss / len(chosen))
    return trunk, phi, log


def adapt_and_score(support, queries, trunk, phi):
    """Few-shot scoring of queries against a support set; no training.

    Scores with the posterior-mean final layer and the mean support latent
    as center, deterministically.
    """
    if support.shape[0] < 1:
        raise DataError("adapt_and_score: empty support set")
    h_s, _ = mlp.trunk_forward(support, trunk)
    posterior = _pooled_posterior(h_s, phi)
    h_q, _ = mlp.trunk_forward(queries, trunk)
    w, b = posterior.mean_layer()
    z_s = linalg.matmul(h_s, w)
    z_q = linalg.matmul(h_q, w)
    if b is not None:
        z_s = z_s + b
        z_q = z_q + b
    return linalg.row_sqdist(z_q, linalg.colmean_exact(z_s))

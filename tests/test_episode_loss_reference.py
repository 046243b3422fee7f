"""episode_loss pinned to a frozen per-draw reference implementation.

`reference_episode_loss` is the loop version of the episodic loss: one
noise draw, one query product and one backward pass per posterior sample.
The library stacks the L draws into single products; every loss and
gradient must stay bit-identical to the loop, signs of zeros included, and
the loss-only entry point must return the same loss.
"""

import numpy as np
import pytest

from ocmeta import linalg, meta, mlp
from ocmeta.errors import DataError, DimensionError, NumericError
from ocmeta.meta import EPS_INV, LOGVAR_MAX, LOGVAR_MIN
from ocmeta.rng import Rng


def reference_episode_loss(episode, trunk, phi, config, rng=None, noise=None):
    L = config.posterior_samples
    pos_mask = episode.query_y == 1
    neg_mask = episode.query_y == -1
    n_pos = int(np.count_nonzero(pos_mask))
    n_neg = int(np.count_nonzero(neg_mask))
    if n_pos < 1:
        raise DataError("episode_loss: query set has no in-distribution samples")
    if noise is not None and len(noise) != L:
        raise DimensionError(f"episode_loss: {len(noise)} noise vectors for L={L}")

    ns = episode.support.shape[0]
    h_s, cache_s = mlp.trunk_forward(episode.support, trunk)
    pooled = linalg.colmean_exact(h_s)
    posterior, inf_cache = meta._infer_forward(pooled, phi)
    mu, logvar = posterior.mu, posterior.logvar
    sigma = np.exp(0.5 * logvar)
    w_mu, b_mu = posterior.mean_layer()

    z_c = linalg.matmul(h_s, w_mu)
    if b_mu is not None:
        z_c = z_c + b_mu
    center = linalg.colmean_exact(z_c)

    h_q, cache_q = mlp.trunk_forward(episode.query_x, trunk)

    denom = L * (n_pos + n_neg + L)
    coef = 1.0 / denom
    bracket_total = 0.0
    draws = []
    for l in range(L):
        eps = noise[l] if noise is not None else rng.gaussian_matrix(1, mu.shape[0])[0]
        w_flat = mu + sigma * eps
        w_l, b_l = posterior.materialize(w_flat)
        z_l = linalg.matmul(h_q, w_l)
        if b_l is not None:
            z_l = z_l + b_l
        sq = linalg.row_sqdist(z_l, center)
        inv = 1.0 / (sq[neg_mask] + EPS_INV)
        bracket_total += linalg.vsum(sq[pos_mask]) + config.eta * linalg.vsum(inv)
        draws.append((eps, w_l, z_l, sq, inv))
    loss = bracket_total / denom
    if not np.isfinite(loss):
        raise NumericError("episode_loss: non-finite loss")

    n_flat = mu.shape[0]
    dmu = np.zeros(n_flat)
    dlv = np.zeros(n_flat)
    dh_q = np.zeros_like(h_q)
    dcenter = np.zeros_like(center)
    for eps, w_l, z_l, sq, inv in draws:
        dsq = np.zeros(sq.shape[0])
        dsq[pos_mask] = coef
        dsq[neg_mask] = -config.eta * coef * inv * inv
        dz_l = (2.0 * dsq)[:, None] * (z_l - center)
        dcenter -= linalg.colsum(dz_l)
        dh_q += linalg.matmul(dz_l, np.ascontiguousarray(w_l.T))
        dw_l = linalg.matmul(np.ascontiguousarray(h_q.T), dz_l)
        db_l = linalg.colsum(dz_l) if posterior.final_bias else None
        dw_flat = meta._flat_layer_grad(dw_l, db_l, posterior.final_bias)
        dmu += dw_flat
        dlv += dw_flat * eps * sigma * 0.5

    dz_c = np.tile(dcenter / ns, (ns, 1))
    dw_mu = linalg.matmul(np.ascontiguousarray(h_s.T), dz_c)
    db_mu = linalg.colsum(dz_c) if posterior.final_bias else None
    dmu += meta._flat_layer_grad(dw_mu, db_mu, posterior.final_bias)
    dh_s = linalg.matmul(dz_c, np.ascontiguousarray(w_mu.T))

    lv_raw = inf_cache[5]
    dlv_raw = dlv * ((lv_raw >= LOGVAR_MIN) & (lv_raw <= LOGVAR_MAX))
    dout = np.concatenate([dmu, dlv_raw]).reshape(1, -1)
    dpooled, phi_grads = meta._infer_backward(inf_cache, phi, dout)

    dh_s = dh_s + np.tile(dpooled / ns, (ns, 1))

    gs, _ = mlp.trunk_backward(trunk, cache_s, dh_s)
    gq, _ = mlp.trunk_backward(trunk, cache_q, dh_q)
    trunk_grads = [(a[0] + b[0], a[1] + b[1]) for a, b in zip(gs, gq)]
    return loss, trunk_grads, phi_grads


def _instance(L, final_bias, query_out, seed=21):
    rng = Rng(seed)
    config = meta.MetaConfig(
        posterior_samples=L,
        eta=1.7,
        support_size=5,
        query_in=6,
        query_out=query_out,
        latent_dim=4,
        inference_hidden=(8, 8),
    )
    query = rng.gaussian_matrix(6 + query_out, 3)
    query[6:] += 2.0
    episode = meta.Episode(
        task_id="pin",
        support=rng.gaussian_matrix(5, 3),
        query_x=query,
        query_y=np.concatenate([np.ones(6), -np.ones(query_out)]),
    )
    trunk, feat_dim = meta.init_trunk(3, (6,), rng)
    phi = meta.init_inference_net(feat_dim, 4, (8, 8), final_bias, rng)
    v3, c3 = phi.layers[2]
    phi.layers[2] = (
        v3 + 0.2 * rng.gaussian_matrix(*v3.shape),
        c3 + 0.2 * rng.gaussian_matrix(1, c3.shape[0])[0],
    )
    return episode, trunk, phi, config


def _flat(result):
    loss, tg, pg = result
    arrays = [a for pair in tg + pg for a in pair]
    return loss, arrays


def _assert_bit_identical(got, want):
    loss, arrays = _flat(got)
    ref_loss, ref_arrays = _flat(want)
    assert loss == ref_loss
    assert len(arrays) == len(ref_arrays)
    for a, b in zip(arrays, ref_arrays):
        assert a.shape == b.shape
        assert np.array_equal(a, b)
        assert np.array_equal(np.signbit(a), np.signbit(b))


CASES = [
    (L, final_bias, query_out)
    for L in (1, 2, 3, 10)
    for final_bias in (False, True)
    for query_out in (0, 4)
]


@pytest.mark.parametrize("L,final_bias,query_out", CASES)
def test_given_noise_matches_reference(L, final_bias, query_out):
    episode, trunk, phi, config = _instance(L, final_bias, query_out)
    noise_rng = Rng(5)
    noise = [noise_rng.gaussian_matrix(1, phi.n_final)[0] for _ in range(L)]
    want = reference_episode_loss(episode, trunk, phi, config, noise=noise)
    _assert_bit_identical(meta.episode_loss(episode, trunk, phi, config, noise=noise), want)
    stacked = np.array(noise)
    _assert_bit_identical(meta.episode_loss(episode, trunk, phi, config, noise=stacked), want)
    assert meta.episode_loss_value(episode, trunk, phi, config, noise=noise) == want[0]


@pytest.mark.parametrize("L,final_bias,query_out", CASES)
def test_drawn_noise_matches_reference(L, final_bias, query_out):
    episode, trunk, phi, config = _instance(L, final_bias, query_out)
    ref_rng, rng, value_rng = Rng(77), Rng(77), Rng(77)
    # an odd fill first, so the Box-Muller spare carries into the draws
    for r in (ref_rng, rng, value_rng):
        r.gaussian_matrix(1, 3)
    want = reference_episode_loss(episode, trunk, phi, config, rng=ref_rng)
    _assert_bit_identical(meta.episode_loss(episode, trunk, phi, config, rng=rng), want)
    assert meta.episode_loss_value(episode, trunk, phi, config, rng=value_rng) == want[0]
    for r in (rng, value_rng):
        assert (r.state, r._has_spare, r._spare) == (
            ref_rng.state,
            ref_rng._has_spare,
            ref_rng._spare,
        )


def test_noise_of_wrong_width_is_dimension_error():
    episode, trunk, phi, config = _instance(2, False, 4)
    with pytest.raises(DimensionError):
        meta.episode_loss(episode, trunk, phi, config, noise=np.zeros((2, phi.n_final + 1)))
    with pytest.raises(DimensionError):
        meta.episode_loss_value(episode, trunk, phi, config, noise=[np.zeros(phi.n_final)])

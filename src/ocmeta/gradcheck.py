"""Finite-difference verification of analytic gradients."""

import math

import numpy as np

from .errors import NumericError


def grad_check(loss_and_grad, params, h=1e-4):
    """Max relative error between analytic and numeric gradients.

    loss_and_grad(params) must be pure and return (loss, grads) with grads
    aligned to params. grads may be a zero-argument callable returning them:
    it is called once, at the unperturbed point, and never for the +-h
    evaluations, so those can skip the backward pass. loss_and_grad is
    called exactly 2n + 1 times for n coordinates.

    Each coordinate is perturbed by +-h in place, giving lp and lm besides
    the unperturbed loss l0. The analytic value a is compared with three
    differences n: central (lp - lm) / 2h, forward (lp - l0) / h and
    backward (l0 - lm) / h. Its error is the smallest of
    |a - n| / max(1e-8, |a| + |n|) over the three. On a smooth coordinate
    the central difference is the closest; where a ReLU kink lies within h
    of the point, one one-sided difference still sees a single linear piece,
    so a correct gradient is not failed there.

    A difference cannot resolve below the round-off of the losses (a few
    ulp of the loss, divided by 2h), so disagreement under that resolution
    counts as exact agreement; otherwise a coordinate whose true gradient is
    zero would fail on one bit of floating-point jitter.
    """
    loss, grads = loss_and_grad(params)
    if not math.isfinite(loss):
        raise NumericError("grad_check: loss is not finite")
    if callable(grads):
        grads = grads()
    resolution = 32.0 * math.ulp(max(1.0, abs(loss))) / (2.0 * h)
    worst = 0.0
    for p, g in zip(params, grads):
        flat = p.reshape(-1)
        gflat = np.asarray(g).reshape(-1)
        for i in range(flat.shape[0]):
            orig = flat[i]
            flat[i] = orig + h
            lp, _ = loss_and_grad(params)
            flat[i] = orig - h
            lm, _ = loss_and_grad(params)
            flat[i] = orig
            if not (math.isfinite(lp) and math.isfinite(lm)):
                raise NumericError("grad_check: perturbed loss is not finite")
            analytic = gflat[i]
            err = min(
                _relative_error(analytic, numeric, resolution)
                for numeric in ((lp - lm) / (2.0 * h), (lp - loss) / h, (loss - lm) / h)
            )
            if err > worst:
                worst = err
    return worst


def _relative_error(analytic, numeric, resolution):
    gap = max(0.0, abs(analytic - numeric) - resolution)
    return gap / max(1e-8, abs(analytic) + abs(numeric))


def check_oneclass(seed, h=1e-5, input_dim=8, hidden=(16,), latent_dim=4, n=8):
    """Gradient fidelity of the one-class loss through a small random encoder.

    Builds a seeded instance (fixed center, as in training) and returns the
    max relative error over every encoder parameter.
    """
    from . import mlp, svdd
    from .rng import Rng

    rng = Rng(seed)
    x = rng.gaussian_matrix(n, input_dim)
    enc = mlp.EncoderConfig(input_dim=input_dim, hidden_dims=hidden, latent_dim=latent_dim)
    params = mlp.init_params(enc, rng)
    center = svdd.init_center(x, params)
    arrays = mlp.param_arrays(params)

    def loss_and_grad(_):
        latents, cache = mlp.encode_with_cache(x, params)
        loss, dlat = svdd.svdd_loss(latents, center)
        grads = mlp.encode_backward(x, params, dlat, cache=cache)
        return loss, mlp.grad_arrays(grads, params.final_b is not None)

    return grad_check(loss_and_grad, arrays, h=h)


def check_episodic(
    seed,
    h=1e-5,
    input_dim=8,
    hidden=(16,),
    latent_dim=4,
    n_support=6,
    n_in=4,
    n_out=4,
    samples=2,
):
    """Gradient fidelity of the episodic loss with the sampling noise frozen.

    Covers every trunk and inference-net parameter, including the pooled
    support path and the per-episode center path. The zero-initialized
    inference output layer is nudged so no path is structurally dead. The
    +-h evaluations run the loss-only forward pass (meta.episode_loss_value);
    the analytic gradients come from meta.episode_loss, once.
    """
    from . import meta
    from .rng import Rng

    rng = Rng(seed)
    config = meta.MetaConfig(
        posterior_samples=samples,
        support_size=n_support,
        query_in=n_in,
        query_out=n_out,
        latent_dim=latent_dim,
        inference_hidden=(16, 16),
        seed=seed,
    )
    episode = meta.Episode(
        task_id="gradcheck",
        support=rng.gaussian_matrix(n_support, input_dim),
        query_x=np.concatenate(
            [rng.gaussian_matrix(n_in, input_dim), rng.gaussian_matrix(n_out, input_dim) + 3.0]
        ),
        query_y=np.concatenate([np.ones(n_in), -np.ones(n_out)]),
    )
    trunk, feat_dim = meta.init_trunk(input_dim, hidden, rng)
    phi = meta.init_inference_net(feat_dim, latent_dim, (16, 16), False, rng)
    v3, c3 = phi.layers[2]
    phi.layers[2] = (
        v3 + 0.1 * rng.gaussian_matrix(*v3.shape),
        c3 + 0.1 * rng.gaussian_matrix(1, c3.shape[0])[0],
    )
    noise = [rng.gaussian_matrix(1, phi.n_final)[0] for _ in range(samples)]
    arrays = meta.trunk_param_arrays(trunk) + meta.phi_param_arrays(phi)

    def grads():
        _, tg, pg = meta.episode_loss(episode, trunk, phi, config, noise=noise)
        return [g for pair in tg + pg for g in pair]

    def loss_and_grad(_):
        return meta.episode_loss_value(episode, trunk, phi, config, noise=noise), grads

    return grad_check(loss_and_grad, arrays, h=h)

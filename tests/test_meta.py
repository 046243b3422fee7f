import numpy as np
import pytest

from helpers import toy_tasks
from ocmeta.data import TaskDataset
from ocmeta.errors import ConfigError, DataError, DimensionError
from ocmeta import linalg, mlp
from ocmeta.meta import (
    Episode,
    InferenceNetParams,
    MetaConfig,
    adapt_and_score,
    episode_loss,
    infer_posterior,
    init_inference_net,
    init_trunk,
    meta_train,
    phi_param_arrays,
    sample_episode,
    sample_final_layer,
    trunk_param_arrays,
)
from ocmeta.optim import Adam
from ocmeta.rng import Rng
from ocmeta.svdd import svdd_loss


def small_config(**overrides):
    base = dict(
        posterior_samples=2,
        meta_batch=2,
        eta=1.0,
        support_size=5,
        query_in=4,
        query_out=4,
        lr=1e-3,
        meta_steps=1,
        latent_dim=4,
        inference_hidden=(8, 8),
        seed=0,
    )
    base.update(overrides)
    return MetaConfig(**base)


def identity_phi(feat_dim, latent_dim, mu_flat, logvar_value):
    """Inference net whose output is a constant: V3 = 0 so only the bias
    matters, which makes hand calculations exact."""
    n_final = feat_dim * latent_dim
    h1, h2 = 4, 4
    v1 = np.zeros((feat_dim, h1))
    v2 = np.zeros((h1, h2))
    v3 = np.zeros((h2, 2 * n_final))
    c3 = np.concatenate([np.asarray(mu_flat, dtype=float), np.full(n_final, logvar_value)])
    layers = [(v1, np.zeros(h1)), (v2, np.zeros(h2)), (v3, c3)]
    return InferenceNetParams(layers=layers, latent_dim=latent_dim, final_bias=False)


def test_config_validation():
    with pytest.raises(ConfigError):
        MetaConfig(posterior_samples=0)
    with pytest.raises(ConfigError):
        MetaConfig(eta=0.0)
    with pytest.raises(ConfigError):
        MetaConfig(query_in=0)
    with pytest.raises(ConfigError):
        MetaConfig(inference_hidden=(64,))
    with pytest.raises(ConfigError):
        MetaConfig(inference_hidden=(64, 0))
    with pytest.raises(ConfigError):
        MetaConfig(latent_dim=0)
    with pytest.raises(ConfigError):
        MetaConfig(meta_steps=0)


def _labeled_task(n_pos=30, n_neg=20, dim=3):
    n = n_pos + n_neg
    features = np.arange(n * dim, dtype=float).reshape(n, dim)
    labels = np.concatenate([np.ones(n_pos, dtype=np.int64), -np.ones(n_neg, dtype=np.int64)])
    return TaskDataset(task_id="t0", features=features, labels=labels)


def test_sample_episode_shapes_and_disjointness():
    task = _labeled_task()
    cfg = small_config(support_size=5, query_in=4, query_out=3)
    ep = sample_episode([task], "t0", Rng(1), cfg)
    assert ep.support.shape == (5, 3)
    assert ep.query_x.shape == (7, 3)
    assert np.array_equal(ep.query_y, np.concatenate([np.ones(4), -np.ones(3)]))
    support_rows = {tuple(r) for r in ep.support}
    in_rows = {tuple(r) for r, y in zip(ep.query_x, ep.query_y) if y == 1}
    assert not support_rows & in_rows
    # in-distribution queries come from positive rows, negatives from negative rows
    pos_rows = {tuple(r) for r in task.features[:30]}
    neg_rows = {tuple(r) for r in task.features[30:]}
    assert in_rows <= pos_rows
    out_rows = {tuple(r) for r, y in zip(ep.query_x, ep.query_y) if y == -1}
    assert out_rows <= neg_rows


def test_sample_episode_is_deterministic():
    task = _labeled_task()
    cfg = small_config()
    e1 = sample_episode([task], "t0", Rng(3), cfg)
    e2 = sample_episode([task], "t0", Rng(3), cfg)
    assert np.array_equal(e1.support, e2.support)
    assert np.array_equal(e1.query_x, e2.query_x)
    assert np.array_equal(e1.query_y, e2.query_y)


def test_sample_episode_errors():
    cfg = small_config(support_size=5)
    too_few_pos = _labeled_task(n_pos=5, n_neg=5)
    with pytest.raises(DataError):
        sample_episode([too_few_pos], "t0", Rng(0), cfg)
    no_neg = _labeled_task(n_pos=30, n_neg=0)
    with pytest.raises(DataError):
        sample_episode([no_neg], "t0", Rng(0), cfg)
    with pytest.raises(DataError):
        sample_episode([_labeled_task()], "missing", Rng(0), cfg)


def test_infer_posterior_is_permutation_invariant_bitwise():
    rng = Rng(5)
    trunk, feat_dim = init_trunk(3, (6,), rng)
    phi = init_inference_net(feat_dim, 4, (8, 8), False, rng)
    # give the zero-initialized output layer some signal
    phi.layers[2][0][:] = rng.gaussian_matrix(8, phi.layers[2][0].shape[1])
    support = rng.gaussian_matrix(9, 3)
    base = infer_posterior(support, trunk, phi)
    for seed in range(4):
        perm = Rng(seed).permutation(9)
        p = infer_posterior(support[perm], trunk, phi)
        assert np.array_equal(p.mu, base.mu)
        assert np.array_equal(p.logvar, base.logvar)


def test_infer_posterior_empty_support():
    rng = Rng(5)
    trunk, feat_dim = init_trunk(3, (6,), rng)
    phi = init_inference_net(feat_dim, 4, (8, 8), False, rng)
    with pytest.raises(DataError):
        infer_posterior(np.zeros((0, 3)), trunk, phi)


def test_logvar_is_clamped():
    phi = identity_phi(2, 2, mu_flat=np.zeros(4), logvar_value=20.0)
    posterior = infer_posterior(np.ones((3, 2)), [], phi)
    assert np.all(posterior.logvar == 10.0)
    phi = identity_phi(2, 2, mu_flat=np.zeros(4), logvar_value=-25.0)
    posterior = infer_posterior(np.ones((3, 2)), [], phi)
    assert np.all(posterior.logvar == -10.0)


def test_clamped_logvar_blocks_gradient():
    phi = identity_phi(2, 2, mu_flat=np.array([1.0, 0.0, 0.0, 1.0]), logvar_value=20.0)
    ep = Episode(
        task_id="t",
        support=np.array([[1.0, 0.0], [-1.0, 0.0]]),
        query_x=np.array([[2.0, 0.0], [1.0, 1.0]]),
        query_y=np.array([1.0, -1.0]),
    )
    cfg = small_config(posterior_samples=1)
    _, _, phi_grads = episode_loss(ep, [], phi, cfg, noise=[np.zeros(4)])
    dc3 = phi_grads[2][1]
    assert np.all(dc3[4:] == 0.0)  # log-variance half sees no gradient
    assert np.any(dc3[:4] != 0.0)  # mean half still does


def test_sample_final_layer_hand_values():
    from ocmeta.meta import FinalLayerPosterior

    posterior = FinalLayerPosterior(
        mu=np.ones(4), logvar=np.zeros(4), feat_dim=2, latent_dim=2
    )
    w, b = sample_final_layer(posterior, rng=None, noise=np.full(4, 0.5))
    assert np.array_equal(w, np.full((2, 2), 1.5))
    assert b is None
    posterior = FinalLayerPosterior(
        mu=np.ones(4), logvar=np.full(4, -10.0), feat_dim=2, latent_dim=2
    )
    w, _ = sample_final_layer(posterior, rng=None, noise=np.ones(4))
    assert np.array_equal(w, np.full((2, 2), 1.0 + np.exp(-5.0)))


def test_episode_loss_hand_value():
    phi = identity_phi(2, 2, mu_flat=np.array([1.0, 0.0, 0.0, 1.0]), logvar_value=-10.0)
    ep = Episode(
        task_id="t",
        support=np.array([[1.0, 0.0], [-1.0, 0.0]]),
        query_x=np.array([[2.0, 0.0], [1.0, 1.0]]),
        query_y=np.array([1.0, -1.0]),
    )
    cfg = small_config(posterior_samples=1, eta=1.0)
    loss, _, _ = episode_loss(ep, [], phi, cfg, noise=[np.zeros(4)])
    # center = mean support = origin; in-query distance^2 = 4, out = 2
    expected = (4.0 + 1.0 / (2.0 + 1e-6)) / 3.0
    assert loss == expected


def test_episode_loss_zero_when_queries_sit_on_center():
    phi = identity_phi(2, 2, mu_flat=np.array([1.0, 0.0, 0.0, 1.0]), logvar_value=-10.0)
    ep = Episode(
        task_id="t",
        support=np.array([[3.0, 1.0], [3.0, 1.0]]),
        query_x=np.array([[3.0, 1.0], [3.0, 1.0]]),
        query_y=np.array([1.0, 1.0]),
    )
    cfg = small_config(posterior_samples=1)
    loss, _, _ = episode_loss(ep, [], phi, cfg, noise=[np.zeros(4)])
    assert loss == 0.0


def test_reduction_identity_single_instance():
    """With no out-of-distribution queries, one posterior-mean draw, the
    episodic loss equals N/(N+1) times the one-class loss at the episode
    center."""
    rng = Rng(8)
    trunk, feat_dim = init_trunk(3, (6,), rng)
    phi = init_inference_net(feat_dim, 4, (8, 8), False, rng)
    phi.layers[2][0][:] = rng.gaussian_matrix(8, phi.layers[2][0].shape[1]) * 0.3
    support = rng.gaussian_matrix(5, 3)
    n = 7
    query = rng.gaussian_matrix(n, 3)
    ep = Episode(task_id="t", support=support, query_x=query, query_y=np.ones(n))
    cfg = small_config(posterior_samples=1)
    meta_loss, _, _ = episode_loss(ep, trunk, phi, cfg, noise=[np.zeros(phi.n_final)])

    posterior = infer_posterior(support, trunk, phi)
    w_mu, _ = posterior.mean_layer()
    h_s, _ = mlp.trunk_forward(support, trunk)
    center = linalg.colmean_exact(linalg.matmul(h_s, w_mu))
    h_q, _ = mlp.trunk_forward(query, trunk)
    oc_loss, _ = svdd_loss(linalg.matmul(h_q, w_mu), center)
    assert abs(meta_loss - n / (n + 1) * oc_loss) <= 1e-12


def test_loss_decreases_as_outliers_move_away():
    phi = identity_phi(2, 2, mu_flat=np.array([1.0, 0.0, 0.0, 1.0]), logvar_value=-10.0)
    support = np.array([[1.0, 0.0], [-1.0, 0.0]])
    cfg = small_config(posterior_samples=1)
    losses = []
    for radius in [1.0, 2.0, 5.0, 20.0]:
        ep = Episode(
            task_id="t",
            support=support,
            query_x=np.array([[0.0, 0.0], [radius, radius]]),
            query_y=np.array([1.0, -1.0]),
        )
        loss, _, _ = episode_loss(ep, [], phi, cfg, noise=[np.zeros(4)])
        losses.append(loss)
    assert losses == sorted(losses, reverse=True)


def test_loss_is_affine_in_eta():
    phi = identity_phi(2, 2, mu_flat=np.array([1.0, 0.0, 0.0, 1.0]), logvar_value=-10.0)
    ep = Episode(
        task_id="t",
        support=np.array([[1.0, 0.0], [-1.0, 0.0]]),
        query_x=np.array([[2.0, 0.0], [1.0, 1.0], [4.0, 1.0]]),
        query_y=np.array([1.0, -1.0, -1.0]),
    )
    losses = []
    for eta in [1.0, 2.0, 3.0]:
        cfg = small_config(posterior_samples=1, eta=eta)
        loss, _, _ = episode_loss(ep, [], phi, cfg, noise=[np.zeros(4)])
        losses.append(loss)
    assert losses[1] - losses[0] == pytest.approx(losses[2] - losses[1], rel=1e-9)
    assert losses[1] > losses[0]  # outlier term grows with eta


def test_episode_loss_requires_in_distribution_queries():
    phi = identity_phi(2, 2, mu_flat=np.zeros(4), logvar_value=-4.0)
    ep = Episode(
        task_id="t",
        support=np.ones((2, 2)),
        query_x=np.ones((2, 2)),
        query_y=-np.ones(2),
    )
    with pytest.raises(DataError):
        episode_loss(ep, [], phi, small_config(), noise=None, rng=Rng(0))


def test_episode_loss_noise_count_must_match():
    phi = identity_phi(2, 2, mu_flat=np.zeros(4), logvar_value=-4.0)
    ep = Episode(
        task_id="t",
        support=np.ones((2, 2)),
        query_x=np.ones((2, 2)),
        query_y=np.ones(2),
    )
    with pytest.raises(DimensionError):
        episode_loss(ep, [], phi, small_config(posterior_samples=3), noise=[np.zeros(4)])


def test_meta_train_is_bit_deterministic():
    tasks = toy_tasks()
    cfg = small_config(meta_steps=3)
    t1, p1, log1 = meta_train(tasks, [], cfg, hidden_dims=(8,))
    t2, p2, log2 = meta_train(tasks, [], cfg, hidden_dims=(8,))
    assert log1 == log2
    for a, b in zip(trunk_param_arrays(t1), trunk_param_arrays(t2)):
        assert np.array_equal(a, b)
    for a, b in zip(phi_param_arrays(p1), phi_param_arrays(p2)):
        assert np.array_equal(a, b)


def test_meta_train_first_step_matches_manual_replication():
    tasks = toy_tasks()
    cfg = small_config(meta_steps=1)
    hidden_dims = (8,)
    got_trunk, got_phi, got_log = meta_train(tasks, [], cfg, hidden_dims=hidden_dims)

    rng = Rng(cfg.seed)
    trunk, feat_dim = init_trunk(tasks[0].features.shape[1], hidden_dims, rng)
    phi = init_inference_net(feat_dim, cfg.latent_dim, cfg.inference_hidden, False, rng)
    params = trunk_param_arrays(trunk) + phi_param_arrays(phi)
    opt = Adam(params, lr=cfg.lr)
    ids = sorted(t.task_id for t in tasks)
    pool_map = {t.task_id: t for t in tasks}
    chosen = [ids[i] for i in rng.sample_indices(len(ids), cfg.meta_batch)]
    accum = [np.zeros_like(p) for p in params]
    step_loss = 0.0
    for task_id in chosen:
        ep = sample_episode(pool_map, task_id, rng, cfg)
        loss, tg, pg = episode_loss(ep, trunk, phi, cfg, rng)
        flat = []
        for dw, db in tg + pg:
            flat.append(dw)
            flat.append(db)
        for acc, g in zip(accum, flat):
            acc += g
        step_loss += loss
    opt.step(accum)

    assert got_log == [step_loss / len(chosen)]
    for a, b in zip(trunk_param_arrays(got_trunk), trunk_param_arrays(trunk)):
        assert np.array_equal(a, b)
    for a, b in zip(phi_param_arrays(got_phi), phi_param_arrays(phi)):
        assert np.array_equal(a, b)


def test_meta_train_reduces_loss_on_separated_tasks():
    tasks = toy_tasks(n_tasks=3, dim=4, per_class=24, spread=6.0, seed=11)
    cfg = small_config(meta_steps=40, lr=1e-3, meta_batch=2, posterior_samples=3)
    _, _, log = meta_train(tasks, [], cfg, hidden_dims=(8,))
    assert np.mean(log[-5:]) < np.mean(log[:5])


def test_meta_train_needs_two_training_tasks():
    tasks = toy_tasks()
    with pytest.raises(DataError):
        meta_train(tasks, [t.task_id for t in tasks[:2]], small_config())


def test_meta_train_excludes_holdouts():
    tasks = toy_tasks()
    cfg = small_config(meta_steps=2)
    # Perturbing the holdout task must not change the result at all.
    t1, p1, log1 = meta_train(tasks, [tasks[2].task_id], cfg, hidden_dims=(8,))
    tasks2 = toy_tasks()
    tasks2[2].features[:] += 100.0
    t2, p2, log2 = meta_train(tasks2, [tasks2[2].task_id], cfg, hidden_dims=(8,))
    assert log1 == log2
    for a, b in zip(trunk_param_arrays(t1), trunk_param_arrays(t2)):
        assert np.array_equal(a, b)
    for a, b in zip(phi_param_arrays(p1), phi_param_arrays(p2)):
        assert np.array_equal(a, b)


def _tiny_meta_model(seed=6):
    rng = Rng(seed)
    trunk, feat_dim = init_trunk(3, (6,), rng)
    phi = init_inference_net(feat_dim, 4, (8, 8), False, rng)
    phi.layers[2][0][:] = rng.gaussian_matrix(8, phi.layers[2][0].shape[1]) * 0.2
    return trunk, phi


def test_adapt_and_score_is_deterministic_and_pure():
    trunk, phi = _tiny_meta_model()
    rng = Rng(9)
    support = rng.gaussian_matrix(6, 3)
    queries = rng.gaussian_matrix(10, 3)
    before = [a.copy() for a in trunk_param_arrays(trunk) + phi_param_arrays(phi)]
    s1 = adapt_and_score(support, queries, trunk, phi)
    s2 = adapt_and_score(support, queries, trunk, phi)
    assert np.array_equal(s1, s2)
    after = trunk_param_arrays(trunk) + phi_param_arrays(phi)
    for a, b in zip(before, after):
        assert np.array_equal(a, b)


def test_adapt_and_score_is_query_permutation_equivariant():
    trunk, phi = _tiny_meta_model()
    rng = Rng(2)
    support = rng.gaussian_matrix(6, 3)
    queries = rng.gaussian_matrix(10, 3)
    base = adapt_and_score(support, queries, trunk, phi)
    perm = Rng(4).permutation(10)
    assert np.array_equal(adapt_and_score(support, queries[perm], trunk, phi), base[perm])


def test_adapt_and_score_single_support_row_scores_itself_zero():
    trunk, phi = _tiny_meta_model()
    row = Rng(3).gaussian_matrix(1, 3)
    scores = adapt_and_score(row, row, trunk, phi)
    assert scores[0] == 0.0


def test_adapt_and_score_sampled_mode():
    trunk, phi = _tiny_meta_model()
    rng = Rng(2)
    support = rng.gaussian_matrix(6, 3)
    queries = rng.gaussian_matrix(10, 3)
    s1 = adapt_and_score(support, queries, trunk, phi, posterior_samples=3, rng=Rng(7))
    s2 = adapt_and_score(support, queries, trunk, phi, posterior_samples=3, rng=Rng(7))
    assert np.array_equal(s1, s2)
    assert s1.shape == (10,)
    assert np.all(np.isfinite(s1))


def test_adapt_and_score_empty_support():
    trunk, phi = _tiny_meta_model()
    with pytest.raises(DataError):
        adapt_and_score(np.zeros((0, 3)), np.zeros((2, 3)), trunk, phi)

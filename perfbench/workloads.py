"""The four benchmark workloads.

Each workload builds its inputs from the workload seed in its constructor
(the set-up), then runs operations one at a time. `op(i)` makes the
library calls being measured and returns (work items, start and end of the
timed calls on the performance counter, output);
`check(i, output)` verifies the output afterwards, outside the timing, and
returns the reasons it failed. Inputs of operation i depend on the seed and
on i alone, so every run attempts the same sequence of operations.

All library calls go through module attributes (`svdd.train_svdd`, not an
imported name), so the tracer's wrappers see them.
"""

import time
from dataclasses import replace

import numpy as np

import checks
from ocmeta import data, gradcheck, meta, metrics, mlp, model_io, svdd, synth

# Task pools: isotropic unit-variance Gaussian clusters whose means lie at
# least `separation` apart (synth places them uniformly in a box that widens
# with the task count). At separation 0.5 in 16 dimensions clusters overlap
# enough that AUCs stay below 1 (at 6 every AUC is exactly 1, which would
# hide a loss of detection quality). The one-class pool has the shapes of the
# one-class acceptance fixture; the meta pool has 12 tasks so the quality
# figures average over more tasks and vary less from seed to seed.
OC_POOL = dict(n_tasks=8, dim=16, samples_per_class=200, separation=0.5)
META_POOL = dict(n_tasks=12, dim=16, samples_per_class=200, separation=0.5)
FAST_POOL = dict(n_tasks=4, dim=4, samples_per_class=30, separation=0.5)


def _derive(seed, *tags):
    """A 63-bit library seed drawn from the workload seed and tags."""
    return int(np.random.default_rng([seed, *tags]).integers(2**63))


def _pool(seed, fast, workdir, shape):
    """Synthesize the task pool, write it as task files and read it back
    through the task-file loader, as a user's data would arrive."""
    cfg = synth.SynthConfig(**(FAST_POOL if fast else shape), seed=_derive(seed, 0))
    made = synth.make_tasks(cfg)
    loaded = []
    for task in made:
        path = workdir / f"{task.task_id}.csv"
        data.save_task(path, task)
        loaded.append(data.load_task(path))
    for a, b in zip(made, loaded):
        if not (np.array_equal(a.features, b.features) and np.array_equal(a.labels, b.labels)):
            raise RuntimeError(f"task file round trip changed {a.task_id}")
    return loaded


def _split(task, support_size, rng):
    """Seeded support indices (in-distribution rows) and the remaining rows."""
    pos = np.flatnonzero(task.labels == 1)
    support = rng.choice(pos, support_size, replace=False)
    rest = np.setdiff1d(np.arange(task.labels.shape[0]), support)
    return support, rest


def _encoder_param_count(input_dim, hidden, latent):
    dims = (input_dim, *hidden)
    return sum(a * b + b for a, b in zip(dims, dims[1:])) + dims[-1] * latent


def _meta_param_count(input_dim, hidden, latent, inference_hidden):
    """Trunk plus inference-net parameters, from the shapes the method
    defines (the output layer emits a mean and a log-variance per weight)."""
    dims = (input_dim, *hidden)
    trunk = sum(a * b + b for a, b in zip(dims, dims[1:]))
    n_final = dims[-1] * latent
    h1, h2 = inference_hidden
    phi = (dims[-1] * h1 + h1) + (h1 * h2 + h2) + (h2 * 2 * n_final + 2 * n_final)
    return trunk + phi


class OcTrain:
    """Per-task one-class training and scoring at the stock TrainConfig."""

    name = "oc-train"
    round_size = 1
    # one training batch: forward, backward, column sums
    REFERENCE = dict(shapes=[(64, 16, 64), (64, 64, 32), (64, 64, 32), (64, 32, 64),
                             (1, 64, 64), (16, 64, 64), (1, 64, 64)] * 4)

    def __init__(self, seed, fast, workdir):
        self.tasks = _pool(seed, fast, workdir, OC_POOL)
        base = svdd.TrainConfig(epochs=5) if fast else svdd.TrainConfig()
        self.configs = [replace(base, seed=_derive(seed, 1, k)) for k in range(len(self.tasks))]
        self.min_ops = len(self.tasks)
        self.aucs = {}

    def op(self, i):
        k = i % len(self.tasks)
        task, cfg = self.tasks[k], self.configs[k]
        normal = task.features[task.labels == 1]
        t0 = time.perf_counter()
        model, losses = svdd.train_svdd(normal, cfg)
        t1 = time.perf_counter()
        scores = svdd.score(task.features, model)
        auc = metrics.auc(scores, task.labels)
        return normal.shape[0] * cfg.epochs, t0, t1, (k, model, losses, scores, auc)

    def check(self, i, out):
        k, model, losses, scores, auc = out
        task = self.tasks[k]
        ref = checks.encoder_scores(task.features, model.params.hidden, model.params.final_w, model.center)
        problems = [
            checks.check_close(scores, ref, "one-class scores"),
            checks.check_nonnegative(scores, "one-class scores"),
            checks.check_auc(auc, scores, task.labels),
            checks.check_loss_decreased(losses),
        ]
        if k in self.aucs:
            problems.append(checks.check_identical(auc, self.aucs[k], "retrained AUC"))
        self.aucs.setdefault(k, auc)
        return problems

    def quality(self):
        return float(np.mean([self.aucs[k] for k in range(len(self.tasks))]))

    def finish(self):
        return []

    def expected_per_op(self):
        cfg = self.configs[0]
        n = int(np.count_nonzero(self.tasks[0].labels == 1))
        dim = self.tasks[0].features.shape[1]
        n_params = _encoder_param_count(dim, (64,), cfg.latent_dim)
        batches = -(-n // cfg.batch_size)
        draws = dim * 64 + 64 * cfg.latent_dim
        return {
            "optim.adam_elements": n_params * cfg.epochs * batches,
            "rng.gaussian_draws": draws,
        }


class MetaTrain:
    """`meta_train` for one holdout at the stock MetaConfig, a fixed number
    of steps per call; every call repeats the same training."""

    name = "meta-train"
    round_size = 1
    min_ops = 1
    STEPS = 4
    # a tenth of an episode: one posterior draw's products and its 2,048 draws
    REFERENCE = dict(shapes=[(20, 64, 32), (20, 32, 64), (64, 20, 32), (1, 20, 32),
                             (1, 64, 64), (10, 16, 64)], draws=2048)

    def __init__(self, seed, fast, workdir):
        self.seed = seed
        self.tasks = _pool(seed, fast, workdir, META_POOL)
        pick = np.random.default_rng([seed, 2]).integers(len(self.tasks))
        self.holdout = self.tasks[pick]
        base = meta.MetaConfig(meta_steps=self.STEPS)
        if fast:
            base = replace(base, meta_batch=2, support_size=5, query_in=5, query_out=5,
                           posterior_samples=2, latent_dim=4, inference_hidden=(8, 8))
        self.config = replace(base, seed=_derive(seed, 3))
        self.hidden = (8,) if fast else (64,)
        self.first = None
        self.auc = None

    def op(self, i):
        t0 = time.perf_counter()
        trunk, phi, log = meta.meta_train(
            self.tasks, (self.holdout.task_id,), self.config, hidden_dims=self.hidden
        )
        t1 = time.perf_counter()
        return self.config.meta_steps * self.config.meta_batch, t0, t1, (trunk, phi, log)

    def check(self, i, out):
        trunk, phi, log = out
        problems = [checks.check_finite(log, "meta-step losses")]
        if self.first is not None:
            problems.append(checks.check_identical(log, self.first, "meta-step losses of a repeated call"))
            return problems
        self.first = log
        problems.append(self._check_gradient(trunk, phi))
        # few-shot AUC of the trained model on every task of the pool, five
        # support draws each: one task's AUC alone varies too much by seed
        aucs = []
        for k, task in enumerate(self.tasks):
            for j in range(5):
                support, rest = _split(task, self.config.support_size,
                                       np.random.default_rng([self.seed, 4, k, j]))
                scores = meta.adapt_and_score(task.features[support], task.features[rest], trunk, phi)
                auc = metrics.auc(scores, task.labels[rest])
                problems.append(checks.check_auc(auc, scores, task.labels[rest]))
                aucs.append(auc)
        self.auc = float(np.mean(aucs))
        return problems

    def _check_gradient(self, trunk, phi):
        """Directional derivative of episode_loss at the trained parameters,
        noise frozen, against a central difference."""
        cfg = self.config
        g = np.random.default_rng([self.seed, 5])
        task = next(t for t in self.tasks if t is not self.holdout)
        pos = np.flatnonzero(task.labels == 1)
        neg = np.flatnonzero(task.labels == -1)
        picked = g.choice(pos, cfg.support_size + cfg.query_in, replace=False)
        q_out = g.choice(neg, cfg.query_out, replace=False)
        episode = meta.Episode(
            task_id=task.task_id,
            support=task.features[picked[: cfg.support_size]],
            query_x=task.features[np.concatenate([picked[cfg.support_size:], q_out])],
            query_y=np.concatenate([np.ones(cfg.query_in), -np.ones(cfg.query_out)]),
        )
        noise = [g.standard_normal(phi.n_final) for _ in range(cfg.posterior_samples)]
        params = meta.trunk_param_arrays(trunk) + meta.phi_param_arrays(phi)
        direction = [g.standard_normal(p.shape) for p in params]
        norm = np.sqrt(sum(float(np.sum(d * d)) for d in direction))
        direction = [d / norm for d in direction]

        _, tg, pg = meta.episode_loss(episode, trunk, phi, cfg, noise=noise)
        grads = [x for pair in tg + pg for x in pair]
        originals = [p.copy() for p in params]

        def loss_at(shift):
            for p, o, d in zip(params, originals, direction):
                p[...] = o + shift * d
            try:
                return meta.episode_loss(episode, trunk, phi, cfg, noise=noise)[0]
            finally:
                for p, o in zip(params, originals):
                    p[...] = o

        return checks.check_directional_derivative(loss_at, grads, params, direction)

    def quality(self):
        return self.auc

    def finish(self):
        return []

    def expected_per_op(self):
        cfg = self.config
        dim = self.tasks[0].features.shape[1]
        feat = self.hidden[-1]
        h1, h2 = cfg.inference_hidden
        init_draws = dim * feat + feat * h1 + h1 * h2
        step_draws = cfg.meta_batch * cfg.posterior_samples * feat * cfg.latent_dim
        n_params = _meta_param_count(dim, self.hidden, cfg.latent_dim, cfg.inference_hidden)
        return {
            "rng.gaussian_draws": init_draws + cfg.meta_steps * step_draws,
            "optim.adam_elements": cfg.meta_steps * n_params,
        }


class FewshotAdapt:
    """Few-shot adaptation of a meta-trained model, loaded from its file, to
    tasks held out of meta-training; a fresh seeded support draw per call."""

    name = "fewshot-adapt"
    round_size = 20
    min_ops = 100
    # the products of one adaptation
    REFERENCE = dict(shapes=[(10, 16, 64), (1, 64, 64), (1, 64, 64), (1, 64, 4096),
                             (10, 16, 64), (390, 16, 64), (10, 64, 32), (390, 64, 32)])
    STEPS = 10
    HOLDOUTS = 4

    def __init__(self, seed, fast, workdir):
        self.seed = seed
        tasks = _pool(seed, fast, workdir, META_POOL)
        cfg = meta.MetaConfig(meta_steps=self.STEPS, seed=_derive(seed, 7))
        hidden = (64,)
        holdouts = 2 if fast else self.HOLDOUTS
        pick = np.random.default_rng([seed, 6]).choice(len(tasks), holdouts, replace=False)
        self.holdouts = [tasks[k] for k in sorted(pick)]
        if fast:
            cfg = replace(cfg, meta_steps=2, meta_batch=2, support_size=5, query_in=5,
                          query_out=5, posterior_samples=2, latent_dim=4, inference_hidden=(8, 8))
            hidden = (8,)
        self.support_size = cfg.support_size
        ids = tuple(t.task_id for t in self.holdouts)
        trunk, phi, _ = meta.meta_train(tasks, ids, cfg, hidden_dims=hidden)
        self.trained = (trunk, phi)
        path = workdir / "meta_model.bin"
        enc = mlp.EncoderConfig(input_dim=tasks[0].features.shape[1], hidden_dims=hidden,
                                latent_dim=cfg.latent_dim)
        model_io.save_meta_model(path, trunk, enc, phi.layers)
        trunk, enc, layers = model_io.load_meta_model(path)
        self.trunk = trunk
        self.phi = meta.InferenceNetParams(layers=layers, latent_dim=enc.latent_dim,
                                           final_bias=enc.final_bias)
        self.aucs = []

    def inputs(self, i):
        task = self.holdouts[i % len(self.holdouts)]
        support, rest = _split(task, self.support_size, np.random.default_rng([self.seed, 8, i]))
        return task.features[support], task.features[rest], task.labels[rest]

    def op(self, i):
        support, queries, labels = self.inputs(i)
        t0 = time.perf_counter()
        scores = meta.adapt_and_score(support, queries, self.trunk, self.phi)
        t1 = time.perf_counter()
        auc = metrics.auc(scores, labels)
        return 1, t0, t1, (support, queries, labels, scores, auc)

    def check(self, i, out):
        support, queries, labels, scores, auc = out
        ref = checks.adapt_scores(support, queries, self.trunk, self.phi.layers, self.phi.latent_dim)
        problems = [
            checks.check_close(scores, ref, "few-shot scores"),
            checks.check_nonnegative(scores, "few-shot scores"),
            checks.check_auc(auc, scores, labels),
        ]
        if i % 10 == 0:
            perm = np.random.default_rng([self.seed, 9, i]).permutation(support.shape[0])
            again = meta.adapt_and_score(support[perm], queries, self.trunk, self.phi)
            problems.append(checks.check_identical(again, scores, "scores under a support permutation"))
        if i == 0:
            trunk, phi = self.trained
            before = meta.adapt_and_score(support, queries, trunk, phi)
            problems.append(checks.check_identical(scores, before, "scores of the reloaded model"))
        if len(self.aucs) < self.min_ops:
            self.aucs.append(auc)
        return problems

    def quality(self):
        return float(np.mean(self.aucs))

    def finish(self):
        return []

    def expected_per_op(self):
        # read-only deployment path: no random draws, no optimizer steps
        return {"rng.gaussian_draws": 0, "optim.adam_elements": 0}


class Gradcheck:
    """Both gradient checks at the sizes of the gradient-fidelity acceptance
    criterion, one fresh seed per operation."""

    name = "gradcheck"
    round_size = 1
    min_ops = 1
    SIZES = dict(input_dim=8, hidden=(16,), latent_dim=4)
    EPISODE = dict(n_support=6, n_in=4, n_out=4, samples=2)
    FAST_SIZES = dict(input_dim=3, hidden=(4,), latent_dim=2)
    FAST_EPISODE = dict(n_support=3, n_in=2, n_out=2, samples=1)
    INFERENCE_HIDDEN = (16, 16)  # fixed inside check_episodic
    # the products of one episodic loss evaluation, forward and backward
    REFERENCE = dict(shapes=[(6, 8, 16), (8, 8, 16), (1, 16, 16), (1, 16, 16), (1, 16, 128),
                             (6, 16, 4), (8, 16, 4), (8, 4, 16), (16, 8, 16), (16, 1, 16)])

    def __init__(self, seed, fast, workdir):
        self.seed = seed
        self.sizes = self.FAST_SIZES if fast else self.SIZES
        self.episode = self.FAST_EPISODE if fast else self.EPISODE
        s = self.sizes
        self.coords = _encoder_param_count(s["input_dim"], s["hidden"], s["latent_dim"]) + (
            _meta_param_count(s["input_dim"], s["hidden"], s["latent_dim"], self.INFERENCE_HIDDEN)
        )
        self.worst = 0.0

    def op(self, i):
        seed = _derive(self.seed, 10, i)
        t0 = time.perf_counter()
        oc = gradcheck.check_oneclass(seed, n=4, **self.sizes)
        ep = gradcheck.check_episodic(seed, **self.sizes, **self.episode)
        t1 = time.perf_counter()
        return self.coords, t0, t1, (oc, ep)

    def check(self, i, out):
        oc, ep = out
        self.worst = max(self.worst, oc, ep)
        return [
            checks.check_grad_error(oc, "one-class loss"),
            checks.check_grad_error(ep, "episodic loss"),
        ]

    def quality(self):
        return 1.0 - self.worst

    def finish(self):
        """Negative control: a gradient with one coordinate nudged must be
        reported above the bound by the library's checker."""
        worst = nudged_gradient_error(_derive(self.seed, 11))
        if worst <= checks.GRAD_ERR_BOUND:
            return [f"grad_check reported {worst:.3e} for a nudged gradient coordinate"]
        return []

    def expected_per_op(self):
        # every coordinate is evaluated at +h and -h, plus one call at the
        # unperturbed point per grad_check
        return {"gradcheck.coords": self.coords, "gradcheck.loss_evals": 2 * self.coords + 2}


def nudged_gradient_error(seed, nudge=1e-3):
    """grad_check on the one-class loss of a small encoder whose analytic
    gradient has one coordinate moved by `nudge` (relative)."""
    from ocmeta.rng import Rng

    rng = Rng(seed)
    x = rng.gaussian_matrix(4, 3)
    params = mlp.init_params(mlp.EncoderConfig(input_dim=3, hidden_dims=(4,), latent_dim=2), rng)
    center = svdd.init_center(x, params)

    def loss_and_grad(_):
        latents, cache = mlp.encode_with_cache(x, params)
        loss, dlat = svdd.svdd_loss(latents, center)
        grads = mlp.grad_arrays(mlp.encode_backward(x, params, dlat, cache=cache), False)
        grads[0] = grads[0].copy()
        grads[0].flat[0] += nudge * (1.0 + abs(grads[0].flat[0]))
        return loss, grads

    return gradcheck.grad_check(loss_and_grad, mlp.param_arrays(params), h=1e-5)


WORKLOADS = {w.name: w for w in (OcTrain, MetaTrain, FewshotAdapt, Gradcheck)}

"""Tests of the benchmark itself: every workload in its fast mode, and a
negative control for every output check (a corrupted output must fail it).

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import run
import workloads
from ocmeta import meta, metrics, svdd
from ocmeta.rng import Rng

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_fast_mode_reports_every_metric(workload, trace, tmp_path):
    result = run.run(workload, seed=5, seconds=0.0, trace=trace, fast=True, out_dir=tmp_path)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    else:
        assert (tmp_path / f"trace-{workload}-5.npz").is_file()


def test_refuses_without_library(tmp_path):
    (tmp_path / "perfbench").mkdir()
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    for f in HERE.glob("*.py"):
        shutil.copy(f, tmp_path / "perfbench")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    cmd = [sys.executable, "perfbench/run.py", "--workload", "oc-train", "--seed", "1",
           "--seconds", "1", "--trace", "0"]
    done = subprocess.run(cmd, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert done.stdout == ""


def _trained_oc():
    rng = Rng(3)
    x = rng.gaussian_matrix(40, 4)
    labels = np.where(np.arange(40) < 20, 1, -1)
    x[labels == -1] += 2.0
    model, losses = svdd.train_svdd(x[labels == 1], svdd.TrainConfig(epochs=3, seed=1))
    return x, labels, model, losses


def test_oc_scores_check_catches_a_perturbed_score():
    x, _, model, _ = _trained_oc()
    scores = svdd.score(x, model)
    ref = checks.encoder_scores(x, model.params.hidden, model.params.final_w, model.center)
    assert checks.check_close(scores, ref, "s") is None
    bad = scores.copy()
    bad[7] *= 1.0 + 1e-6
    assert checks.check_close(bad, ref, "s") is not None


def test_auc_check_catches_shuffled_labels():
    x, labels, model, _ = _trained_oc()
    scores = svdd.score(x, model)
    auc = metrics.auc(scores, labels)
    assert checks.check_auc(auc, scores, labels) is None
    shuffled = np.random.default_rng(0).permutation(labels)
    assert checks.check_auc(auc, scores, shuffled) is not None


def test_simple_property_checks_catch_corrupted_outputs():
    assert checks.check_nonnegative(np.array([0.0, 1.0]), "s") is None
    assert checks.check_nonnegative(np.array([0.5, -1e-300]), "s") is not None
    assert checks.check_finite([1.0, 2.0], "l") is None
    assert checks.check_finite([1.0, float("nan")], "l") is not None
    assert checks.check_loss_decreased([3.0, 2.0, 1.0]) is None
    assert checks.check_loss_decreased([3.0, 2.0, 3.0]) is not None
    assert checks.check_total("t", 6, 6) is None
    assert checks.check_total("t", 6, 7) is not None


def _model(seed=2, dim=4, latent=3):
    rng = Rng(seed)
    trunk, feat = meta.init_trunk(dim, (6,), rng)
    phi = meta.init_inference_net(feat, latent, (5, 5), False, rng)
    phi.layers[2][0][:] += 0.3 * rng.gaussian_matrix(*phi.layers[2][0].shape)
    return rng, trunk, phi


def test_adapt_check_catches_a_perturbed_score_and_order_dependence():
    rng, trunk, phi = _model()
    support, queries = rng.gaussian_matrix(6, 4), rng.gaussian_matrix(9, 4)
    scores = meta.adapt_and_score(support, queries, trunk, phi)
    ref = checks.adapt_scores(support, queries, trunk, phi.layers, phi.latent_dim)
    assert checks.check_close(scores, ref, "s") is None
    bad = scores.copy()
    bad[0] += 1e-6 * max(1.0, abs(bad[0]))
    assert checks.check_close(bad, ref, "s") is not None

    perm = np.array([5, 0, 3, 1, 4, 2])
    again = meta.adapt_and_score(support[perm], queries, trunk, phi)
    assert checks.check_identical(again, scores, "perm") is None
    # an adaptation whose center is the first support row depends on order
    def first_row_center(s):
        h = np.maximum(s @ trunk[0][0] + trunk[0][1], 0.0)
        return ((h - h[0]) ** 2).sum(axis=1)

    assert checks.check_identical(first_row_center(support[perm]), first_row_center(support), "perm") is not None


def test_directional_derivative_check_catches_a_nudged_coordinate():
    rng, trunk, phi = _model()
    episode = meta.Episode(
        task_id="t",
        support=rng.gaussian_matrix(5, 4),
        query_x=np.concatenate([rng.gaussian_matrix(3, 4), rng.gaussian_matrix(3, 4) + 2.0]),
        query_y=np.concatenate([np.ones(3), -np.ones(3)]),
    )
    cfg = meta.MetaConfig(posterior_samples=2, latent_dim=3, inference_hidden=(5, 5))
    noise = [rng.gaussian_matrix(1, phi.n_final)[0] for _ in range(2)]
    params = meta.trunk_param_arrays(trunk) + meta.phi_param_arrays(phi)
    g = np.random.default_rng(1)
    direction = [g.standard_normal(p.shape) for p in params]
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

    assert checks.check_directional_derivative(loss_at, grads, params, direction) is None
    grads[0] = grads[0].copy()
    grads[0].flat[0] += 1e-2 * (1.0 + abs(grads[0].flat[0])) / abs(direction[0].flat[0])
    assert checks.check_directional_derivative(loss_at, grads, params, direction) is not None


def test_grad_check_reports_a_nudged_coordinate_above_the_bound():
    worst = workloads.nudged_gradient_error(7)
    assert checks.check_grad_error(worst, "nudged") is not None
    assert checks.check_grad_error(0.0, "exact") is None

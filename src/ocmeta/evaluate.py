"""Leave-one-out evaluation over a task collection.

For each task: the one-class model trains on that task's in-distribution
rows and is scored on the full labeled set; the meta model trains on all
OTHER tasks, adapts to a small seeded support set, and is scored on the
remaining rows. All randomness derives from the base seed plus a stable
hash of the task id and role, so results are independent of evaluation
order (tasks could run in parallel) and reruns are byte-identical.
"""

from dataclasses import replace
from pathlib import Path

import numpy as np

from .data import load_task_dir
from .errors import DataError, OcmetaError
from .meta import adapt_and_score, meta_train
from .metrics import auc
from .rng import MASK64, Rng
from .svdd import score, train_svdd

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def stable_hash(text):
    """FNV-1a over the UTF-8 bytes; fixed across platforms and runs."""
    h = _FNV_OFFSET
    for byte in text.encode("utf-8"):
        h = ((h ^ byte) * _FNV_PRIME) & MASK64
    return h


def task_seed(base_seed, task_id, role):
    """Per-task, per-role seed: base seed plus a stable hash of both."""
    return (int(base_seed) + stable_hash(f"{role}:{task_id}")) & MASK64


def draw_support(task, support_size, seed):
    """Seeded support indices (in-distribution rows only) and the query
    / holdout complement, disjoint from the support."""
    pos = np.flatnonzero(task.labels == 1)
    if pos.shape[0] <= support_size:
        raise DataError(
            f"task {task.task_id!r}: {pos.shape[0]} in-distribution rows cannot "
            f"cover a support of {support_size} plus held-out queries"
        )
    rng = Rng(seed)
    support_idx = pos[rng.sample_indices(pos.shape[0], support_size)]
    rest_mask = np.ones(task.labels.shape[0], dtype=bool)
    rest_mask[support_idx] = False
    return support_idx, np.flatnonzero(rest_mask)


def oc_auc_for_task(task, train_config, encoder_config=None):
    """Train on the task's in-distribution rows, score the full labeled set."""
    cfg = replace(train_config, seed=task_seed(train_config.seed, task.task_id, "oc"))
    model, _ = train_svdd(task.features[task.labels == 1], cfg, encoder_config)
    return auc(score(task.features, model), task.labels)


def meta_auc_for_task(task, trunk, phi, meta_config):
    """Adapt to a seeded support set, score the remaining labeled rows."""
    support_idx, rest_idx = draw_support(
        task, meta_config.support_size, task_seed(meta_config.seed, task.task_id, "support")
    )
    scores = adapt_and_score(
        task.features[support_idx], task.features[rest_idx], trunk, phi
    )
    return auc(scores, task.labels[rest_idx])


def write_results(path, rows):
    """`task_id,oc_svdd_auc,meta_svdd_auc` header plus one 4-decimal row per
    task."""
    lines = ["task_id,oc_svdd_auc,meta_svdd_auc"]
    for task_id, oc, meta in rows:
        lines.append(f"{task_id},{oc:.4f},{meta:.4f}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def eval_loo(
    tasks,
    train_config,
    meta_config,
    out_path=None,
    shared_meta=False,
    hidden_dims=(64,),
):
    """Full leave-one-out table; returns [(task_id, oc_auc, meta_auc), ...]
    sorted by task id and optionally writes the results file.

    shared_meta=True meta-trains a single model on ALL tasks instead of one
    per holdout — a fast smoke-run shortcut, not the faithful protocol (a
    task's own rows then influence its meta model beyond the support set).
    """
    if isinstance(tasks, (str, Path)):
        tasks = load_task_dir(tasks)
    tasks = sorted(tasks, key=lambda t: t.task_id)
    if len(tasks) < 3:
        raise DataError(f"eval_loo: need at least 3 tasks, have {len(tasks)}")
    shared = None
    if shared_meta:
        shared = meta_train(tasks, (), meta_config, hidden_dims=hidden_dims)[:2]
    rows = []
    for task in tasks:
        try:
            oc = oc_auc_for_task(task, train_config)
            if shared is not None:
                trunk, phi = shared
            else:
                cfg = replace(
                    meta_config,
                    seed=task_seed(meta_config.seed, task.task_id, "meta"),
                )
                trunk, phi, _ = meta_train(
                    tasks, (task.task_id,), cfg, hidden_dims=hidden_dims
                )
            meta = meta_auc_for_task(task, trunk, phi, meta_config)
        except OcmetaError as e:
            e.args = (f"task {task.task_id!r}: {e}",)
            raise
        rows.append((task.task_id, oc, meta))
    if out_path is not None:
        write_results(out_path, rows)
    return rows

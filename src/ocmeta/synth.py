"""Synthetic task generation: well-separated Gaussian clusters.

Each task is an isotropic unit-variance Gaussian cluster; its file holds the
cluster's own samples labeled +1 and an equal-size pool drawn uniformly from
the other clusters labeled -1 (the other categories play the role of the
out-of-distribution class, matching the one-vs-rest evaluation).
"""

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import TaskDataset, save_task
from .errors import ConfigError
from .rng import Rng

_PLACEMENT_ATTEMPTS = 10_000


@dataclass
class SynthConfig:
    n_tasks: int = 8
    dim: int = 16
    samples_per_class: int = 200
    separation: float = 6.0  # distance between cluster means, in cluster-std units
    seed: int = 0

    def __post_init__(self):
        if self.n_tasks < 2:
            raise ConfigError(f"n_tasks must be >= 2, got {self.n_tasks}")
        if self.dim < 1:
            raise ConfigError(f"dim must be >= 1, got {self.dim}")
        if self.samples_per_class < 1:
            raise ConfigError(
                f"samples_per_class must be >= 1, got {self.samples_per_class}"
            )
        if not (math.isfinite(self.separation) and self.separation > 0):
            raise ConfigError(f"separation must be finite and > 0, got {self.separation}")


def _place_means(config, rng):
    """Rejection placement: uniform draws in a box until all pairwise
    distances reach the separation."""
    half_width = config.separation * max(2.0, 0.5 * config.n_tasks)
    means = []
    for _ in range(config.n_tasks):
        for _ in range(_PLACEMENT_ATTEMPTS):
            cand = np.array(
                [(2.0 * rng.uniform() - 1.0) * half_width for _ in range(config.dim)]
            )
            if all(
                np.sqrt(np.sum((cand - m) ** 2)) >= config.separation for m in means
            ):
                means.append(cand)
                break
        else:
            raise ConfigError(
                f"could not place {config.n_tasks} cluster means at separation "
                f"{config.separation} in {config.dim} dimensions; use a larger "
                f"dim or a smaller separation"
            )
    return means


def make_tasks(config):
    """Generate the task collection in memory; deterministic given the seed."""
    rng = Rng(config.seed)
    means = _place_means(config, rng)
    n = config.samples_per_class
    width = len(str(config.n_tasks - 1))
    tasks = []
    for t in range(config.n_tasks):
        own = means[t] + rng.gaussian_matrix(n, config.dim)
        others = [m for i, m in enumerate(means) if i != t]
        noise = rng.gaussian_matrix(n, config.dim)
        pool = np.empty((n, config.dim))
        for i in range(n):
            pool[i] = others[rng.below(len(others))] + noise[i]
        features = np.concatenate([own, pool])
        labels = np.concatenate(
            [np.ones(n, dtype=np.int64), -np.ones(n, dtype=np.int64)]
        )
        tasks.append(
            TaskDataset(task_id=f"task{t:0{width}d}", features=features, labels=labels)
        )
    return tasks


def generate_synthetic(config, out_dir):
    """Write the generated tasks as one file per task; byte-identical for a
    given seed. Returns the written paths."""
    tasks = make_tasks(config)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for task in tasks:
        p = out_dir / f"{task.task_id}.csv"
        save_task(p, task)
        paths.append(p)
    return paths

"""The README's "Library use" block runs as written."""

import re
from pathlib import Path

import numpy as np

from ocmeta import meta, svdd
from ocmeta.synth import SynthConfig, generate_synthetic

README = Path(__file__).resolve().parents[1] / "README.md"


def library_use_block():
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def shrunk(config_cls, **fixed):
    """config_cls with some fields forced, whatever the caller passes."""
    return lambda **kw: config_cls(**{**kw, **fixed})


def test_library_use_block_runs(tmp_path, monkeypatch):
    generate_synthetic(
        SynthConfig(n_tasks=3, dim=4, samples_per_class=30, separation=6.0, seed=5),
        tmp_path / "tasks",
    )
    monkeypatch.chdir(tmp_path)
    # only the run length shrinks; the block's calls are the README's
    monkeypatch.setattr(svdd, "TrainConfig", shrunk(svdd.TrainConfig, epochs=2))
    monkeypatch.setattr(meta, "MetaConfig", shrunk(meta.MetaConfig, meta_steps=2))
    scope = {}
    exec(library_use_block(), scope)
    assert len(scope["losses"]) == 2 and len(scope["log"]) == 2
    assert scope["scores"].shape == (scope["task"].features.shape[0],)
    assert np.isfinite(scope["scores"]).all()
    assert [r[0] for r in scope["rows"]] == ["task0", "task1", "task2"]

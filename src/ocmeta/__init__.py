"""One-class hypersphere classification and its meta-learned few-shot variant.

Two detectors over a shared MLP encoder core:

- `train_svdd` / `score`: per-task one-class training that pulls
  in-distribution encodings toward a fixed center; anomaly score = squared
  latent distance to the center.
- `meta_train` / `adapt_and_score`: an episodically meta-trained trunk plus
  an amortized inference network that maps a few in-distribution examples to
  a Gaussian posterior over the encoder's final layer, so new tasks adapt
  with a single forward pass and no re-training.

Everything is deterministic given seeds: the same seed gives bit-identical
results on every run (the kernels in `ocmeta.backend` fix every summation
order and the random stream).
"""

from . import backend
from .data import TaskDataset, load_task, load_task_dir, save_task
from .errors import (
    ConfigError,
    DataError,
    DimensionError,
    FormatError,
    NumericError,
    OcmetaError,
    ParseError,
)
from .evaluate import eval_loo, task_seed, write_results
from .gradcheck import grad_check
from .meta import (
    Episode,
    FinalLayerPosterior,
    InferenceNetParams,
    MetaConfig,
    adapt_and_score,
    episode_loss,
    infer_posterior,
    init_inference_net,
    meta_train,
    sample_episode,
    sample_final_layer,
)
from .metrics import auc
from .mlp import EncoderConfig, EncoderParams, encode, encode_backward, init_params
from .model_io import load_meta_model, load_model, save_meta_model, save_model
from .optim import Adam
from .rng import Rng
from .svdd import OneClassModel, TrainConfig, init_center, score, svdd_loss, train_svdd
from .synth import SynthConfig, generate_synthetic, make_tasks

__version__ = "0.1.0"

__all__ = [
    "Adam",
    "ConfigError",
    "DataError",
    "DimensionError",
    "EncoderConfig",
    "EncoderParams",
    "Episode",
    "FinalLayerPosterior",
    "FormatError",
    "InferenceNetParams",
    "MetaConfig",
    "NumericError",
    "OcmetaError",
    "OneClassModel",
    "ParseError",
    "Rng",
    "SynthConfig",
    "TaskDataset",
    "TrainConfig",
    "adapt_and_score",
    "auc",
    "backend",
    "encode",
    "encode_backward",
    "episode_loss",
    "eval_loo",
    "generate_synthetic",
    "grad_check",
    "infer_posterior",
    "init_center",
    "init_inference_net",
    "init_params",
    "load_meta_model",
    "load_model",
    "load_task",
    "load_task_dir",
    "make_tasks",
    "meta_train",
    "sample_episode",
    "sample_final_layer",
    "save_meta_model",
    "save_model",
    "save_task",
    "score",
    "svdd_loss",
    "task_seed",
    "train_svdd",
    "write_results",
]

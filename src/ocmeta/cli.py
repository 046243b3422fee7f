"""Command-line interface.

Subcommands: synth, train-oc, score, train-meta, adapt-score, eval-loo,
gradcheck. `_OPTIONS` declares each option once (type, config field, help)
and `_COMMAND_OPTIONS` names the options of each subcommand; the parser's
flags are generated from the two. Every subcommand but score also reads a
`key = value` config file (--config); explicit flags override file values,
and center_floor is set from a config file only. The CLI passes only the
values a user set, so the defaults are those of svdd.TrainConfig,
meta.MetaConfig and synth.SynthConfig. Exit codes: 0 success, 1 usage or
config error, 2 data or numeric error.
"""

import argparse
import dataclasses
import sys
from collections import namedtuple

import numpy as np

from . import gradcheck as gradcheck_mod
from . import linalg, meta, mlp, model_io, svdd
from .config import parse_config
from .data import load_task, load_task_dir
from .errors import ConfigError, OcmetaError
from .evaluate import draw_support, eval_loo, task_seed
from .synth import SynthConfig, generate_synthetic

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2


def _bool(raw):
    low = raw.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


# type: parses a flag or config value; field: the TrainConfig / MetaConfig /
# SynthConfig field the option sets, or None; help: the flag's help, or None
# for an option set from a config file only
_Option = namedtuple("_Option", "type field help")

_OPTIONS = {
    "seed": _Option(int, "seed", "random seed"),
    "latent": _Option(int, "latent_dim", "latent dimension"),
    "epochs": _Option(int, "epochs", "one-class training epochs"),
    "lr": _Option(float, "lr", "Adam learning rate"),
    "batch": _Option(int, "batch_size", "one-class minibatch size"),
    "center_floor": _Option(float, "center_floor", None),
    "L": _Option(int, "posterior_samples", "posterior samples per episode"),
    "meta_batch": _Option(int, "meta_batch", "tasks per meta-training step"),
    "eta": _Option(float, "eta", "weight of the out-of-distribution repulsion"),
    "support": _Option(int, "support_size", "support rows per task"),
    "steps": _Option(int, "meta_steps", "meta-training steps"),
    "holdout": _Option(str, None, "comma-separated task ids to exclude"),
    "shared_meta": _Option(
        _bool, None, "meta-train once on all tasks (fast, non-faithful smoke mode)"
    ),
    "tasks": _Option(int, "n_tasks", "number of tasks"),
    "dim": _Option(int, "dim", "feature dimension"),
    "per_class": _Option(int, "samples_per_class", "rows per class in each task"),
    "sep": _Option(float, "separation", "distance between cluster means"),
}

# the options each subcommand takes; one that takes any also takes --config
_COMMAND_OPTIONS = {
    "synth": ("tasks", "dim", "per_class", "sep", "seed"),
    "train-oc": ("latent", "epochs", "lr", "batch", "center_floor", "seed"),
    "score": (),
    "train-meta": (
        "latent", "lr", "L", "meta_batch", "eta", "support", "steps", "holdout", "seed",
    ),
    "adapt-score": ("support", "seed"),
    "eval-loo": (
        "latent", "epochs", "lr", "batch", "center_floor",
        "L", "meta_batch", "eta", "support", "steps", "shared_meta", "seed",
    ),
    "gradcheck": ("seed",),
}


def _resolve(args):
    """The options the user set: config file values, overridden by flags."""
    names = _COMMAND_OPTIONS[args.command]
    values = {}
    config_path = getattr(args, "config", None)
    if config_path:
        for key, raw in parse_config(config_path).items():
            if key not in names:
                raise ConfigError(f"{config_path}: unknown key {key!r} for {args.command}")
            try:
                values[key] = _OPTIONS[key].type(raw)
            except ValueError as e:
                raise ConfigError(f"{config_path}: key {key!r}: {e}") from None
    for name in names:
        flag = getattr(args, name, None)
        if flag is not None:
            values[name] = flag
    return values


def _config(cls, values):
    """cls from the user-set values of its fields; cls declares the defaults."""
    fields = {f.name for f in dataclasses.fields(cls)}
    return cls(**{
        _OPTIONS[k].field: v for k, v in values.items() if _OPTIONS[k].field in fields
    })


def _write_scores(out, scores):
    lines = "\n".join(repr(float(s)) for s in scores) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as f:
            f.write(lines)
    else:
        sys.stdout.write(lines)


def _cmd_synth(args):
    config = _config(SynthConfig, _resolve(args))
    paths = generate_synthetic(config, args.out)
    print(f"wrote {len(paths)} task files to {args.out}")
    return EXIT_OK


def _cmd_train_oc(args):
    v = _resolve(args)
    task = load_task(args.data)
    features = task.features[task.labels == 1]
    model, losses = svdd.train_svdd(features, _config(svdd.TrainConfig, v))
    model_io.save_model(args.out, model.params, model.config, model.center)
    print(
        f"trained on {features.shape[0]} in-distribution rows; "
        f"final epoch loss {losses[-1]:.6f}; model -> {args.out}"
    )
    return EXIT_OK


def _cmd_score(args):
    params, config, center = model_io.load_model(args.model)
    if center is None:
        raise OcmetaError(f"{args.model}: model has no center; cannot score")
    task = load_task(args.data)
    model = svdd.OneClassModel(params=params, config=config, center=center)
    _write_scores(args.out, svdd.score(task.features, model))
    return EXIT_OK


def _cmd_train_meta(args):
    v = _resolve(args)
    tasks = load_task_dir(args.data)
    holdout = tuple(h for h in v.get("holdout", "").split(",") if h)
    unknown = sorted(set(holdout) - {t.task_id for t in tasks})
    if unknown:
        raise ConfigError(
            f"--holdout names unknown task ids {', '.join(map(repr, unknown))} "
            f"(not in {args.data})"
        )
    config = _config(meta.MetaConfig, v)
    trunk, phi, log = meta.meta_train(tasks, holdout, config)
    enc_config = mlp.EncoderConfig(
        input_dim=tasks[0].features.shape[1],
        hidden_dims=tuple(w.shape[1] for w, _ in trunk),
        latent_dim=config.latent_dim,
    )
    model_io.save_meta_model(args.out, trunk, enc_config, phi.layers)
    print(
        f"meta-trained on {len(tasks) - len(set(holdout))} tasks for "
        f"{config.meta_steps} steps; final step loss {log[-1]:.6f}; model -> {args.out}"
    )
    return EXIT_OK


def _cmd_adapt_score(args):
    config = _config(meta.MetaConfig, _resolve(args))
    trunk, enc_config, layers = model_io.load_meta_model(args.model)
    phi = meta.InferenceNetParams(
        layers=layers, latent_dim=enc_config.latent_dim, final_bias=enc_config.final_bias
    )
    task = load_task(args.data)
    support_idx, rest_idx = draw_support(
        task, config.support_size, task_seed(config.seed, task.task_id, "support")
    )
    scores = meta.adapt_and_score(
        task.features[support_idx], task.features[rest_idx], trunk, phi
    )
    _write_scores(args.out, scores)
    return EXIT_OK


def _cmd_eval_loo(args):
    v = _resolve(args)
    rows = eval_loo(
        args.data,
        _config(svdd.TrainConfig, v),
        _config(meta.MetaConfig, v),
        out_path=args.out,
        shared_meta=v.get("shared_meta", False),
    )
    for task_id, oc, mt in rows:
        print(f"{task_id}: oc {oc:.4f}  meta {mt:.4f}")
    mean_oc = linalg.vsum(np.array([r[1] for r in rows])) / len(rows)
    mean_meta = linalg.vsum(np.array([r[2] for r in rows])) / len(rows)
    print(f"mean: oc {mean_oc:.4f}  meta {mean_meta:.4f}")
    if args.out:
        print(f"results -> {args.out}")
    return EXIT_OK


def _cmd_gradcheck(args):
    seed = _resolve(args).get("seed", 0)
    err_oc = gradcheck_mod.check_oneclass(seed)
    err_meta = gradcheck_mod.check_episodic(seed)
    print(f"one-class loss: max relative gradient error {err_oc:.3e}")
    print(f"episodic loss:  max relative gradient error {err_meta:.3e}")
    if err_oc <= 1e-4 and err_meta <= 1e-4:
        return EXIT_OK
    print("gradient check FAILED (tolerance 1e-4)", file=sys.stderr)
    return EXIT_DATA


def _add_options(p, command):
    """--config and the flags of command's options, from the table."""
    options = _COMMAND_OPTIONS[command]
    if options:
        p.add_argument("--config", help="key = value config file")
    for key in options:
        option = _OPTIONS[key]
        if option.help is None:
            continue
        flag = "--" + key.replace("_", "-")
        if option.type is _bool:
            p.add_argument(flag, dest=key, action="store_const", const=True, help=option.help)
        else:
            p.add_argument(flag, dest=key, type=option.type, help=option.help)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ocmeta",
        description="One-class hypersphere training, meta-learned few-shot "
        "adaptation, and leave-one-out evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate synthetic Gaussian-cluster tasks")
    p.add_argument("--out", required=True, help="output task directory")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("train-oc", help="train a one-class model on a task file")
    p.add_argument("--data", required=True, help="task file")
    p.add_argument("--out", required=True, help="model file to write")
    p.set_defaults(func=_cmd_train_oc)

    p = sub.add_parser("score", help="score a task file with a trained model")
    p.add_argument("--model", required=True, help="model file")
    p.add_argument("--data", required=True, help="task file")
    p.add_argument("--out", help="scores file (default: stdout)")
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("train-meta", help="meta-train across a task directory")
    p.add_argument("--data", required=True, help="task directory")
    p.add_argument("--out", required=True, help="meta-model file to write")
    p.set_defaults(func=_cmd_train_meta)

    p = sub.add_parser("adapt-score", help="few-shot adapt and score a task file")
    p.add_argument("--model", required=True, help="meta-model file")
    p.add_argument("--data", required=True, help="task file")
    p.add_argument("--out", help="scores file (default: stdout)")
    p.set_defaults(func=_cmd_adapt_score)

    p = sub.add_parser("eval-loo", help="leave-one-out evaluation over a task dir")
    p.add_argument("--data", required=True, help="task directory")
    p.add_argument("--out", help="results file to write")
    p.set_defaults(func=_cmd_eval_loo)

    p = sub.add_parser("gradcheck", help="verify analytic gradients of both losses")
    p.set_defaults(func=_cmd_gradcheck)

    for command, p in sub.choices.items():
        _add_options(p, command)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on usage problems; --help exits 0
        return EXIT_OK if not e.code else EXIT_USAGE
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"ocmeta: config error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except OcmetaError as e:
        print(f"ocmeta: error: {e}", file=sys.stderr)
        return EXIT_DATA
    except OSError as e:
        print(f"ocmeta: error: {e}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())

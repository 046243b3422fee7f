"""Command-line interface.

Subcommands: synth, train-oc, score, train-meta, adapt-score, eval-loo,
gradcheck. Hyperparameters may come from a `key = value` config file
(--config); explicit flags override file values. Exit codes: 0 success,
1 usage/config error, 2 data or numeric error.
"""

import argparse
import sys

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


# config-file keys each subcommand accepts, with their types
_CONFIG_KEYS = {
    "synth": {"tasks": int, "dim": int, "per_class": int, "sep": float, "seed": int},
    "train-oc": {
        "seed": int,
        "latent": int,
        "epochs": int,
        "lr": float,
        "batch": int,
        "center_floor": float,
    },
    "score": {},
    "train-meta": {
        "seed": int,
        "latent": int,
        "lr": float,
        "L": int,
        "meta_batch": int,
        "eta": float,
        "support": int,
        "steps": int,
        "holdout": str,
    },
    "adapt-score": {"seed": int, "support": int},
    "eval-loo": {
        "seed": int,
        "latent": int,
        "epochs": int,
        "lr": float,
        "batch": int,
        "center_floor": float,
        "L": int,
        "meta_batch": int,
        "eta": float,
        "support": int,
        "steps": int,
        "shared_meta": _bool,
    },
    "gradcheck": {"seed": int},
}

_DEFAULTS = {
    "seed": 0,
    "latent": 32,
    "epochs": 100,
    "lr": 1e-4,
    "batch": 64,
    "center_floor": 0.1,
    "L": 10,
    "meta_batch": 5,
    "eta": 1.0,
    "support": 10,
    "steps": 500,
    "holdout": "",
    "shared_meta": False,
    "tasks": 8,
    "dim": 16,
    "per_class": 200,
    "sep": 6.0,
}


def _resolve(args, command):
    """Effective option values: defaults, then config file, then flags."""
    keys = _CONFIG_KEYS[command]
    values = {k: _DEFAULTS[k] for k in keys}
    config_path = getattr(args, "config", None)
    if config_path:
        for key, raw in parse_config(config_path).items():
            if key not in keys:
                raise ConfigError(f"{config_path}: unknown key {key!r} for {command}")
            try:
                values[key] = keys[key](raw)
            except ValueError as e:
                raise ConfigError(f"{config_path}: key {key!r}: {e}") from None
    for key in keys:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    return values


def _write_scores(out, scores):
    lines = "\n".join(repr(float(s)) for s in scores) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as f:
            f.write(lines)
    else:
        sys.stdout.write(lines)


def _train_config(v):
    return svdd.TrainConfig(
        batch_size=v["batch"],
        lr=v["lr"],
        epochs=v["epochs"],
        latent_dim=v["latent"],
        seed=v["seed"],
        center_floor=v["center_floor"],
    )


def _meta_config(v):
    return meta.MetaConfig(
        posterior_samples=v["L"],
        meta_batch=v["meta_batch"],
        eta=v["eta"],
        support_size=v["support"],
        lr=v["lr"],
        meta_steps=v["steps"],
        seed=v["seed"],
        latent_dim=v["latent"],
    )


def _cmd_synth(args):
    v = _resolve(args, "synth")
    config = SynthConfig(
        n_tasks=v["tasks"],
        dim=v["dim"],
        samples_per_class=v["per_class"],
        separation=v["sep"],
        seed=v["seed"],
    )
    paths = generate_synthetic(config, args.out)
    print(f"wrote {len(paths)} task files to {args.out}")
    return EXIT_OK


def _cmd_train_oc(args):
    v = _resolve(args, "train-oc")
    task = load_task(args.data)
    features = task.features[task.labels == 1]
    model, losses = svdd.train_svdd(features, _train_config(v))
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
    v = _resolve(args, "train-meta")
    tasks = load_task_dir(args.data)
    holdout = tuple(h for h in v["holdout"].split(",") if h)
    unknown = sorted(set(holdout) - {t.task_id for t in tasks})
    if unknown:
        raise ConfigError(
            f"--holdout names unknown task ids {', '.join(map(repr, unknown))} "
            f"(not in {args.data})"
        )
    config = _meta_config(v)
    trunk, phi, log = meta.meta_train(tasks, holdout, config)
    enc_config = mlp.EncoderConfig(
        input_dim=tasks[0].features.shape[1],
        hidden_dims=tuple(w.shape[1] for w, _ in trunk),
        latent_dim=config.latent_dim,
    )
    model_io.save_meta_model(args.out, trunk, enc_config, phi.layers)
    print(
        f"meta-trained on {len(tasks) - len(set(holdout))} tasks for {v['steps']} steps; "
        f"final step loss {log[-1]:.6f}; model -> {args.out}"
    )
    return EXIT_OK


def _cmd_adapt_score(args):
    v = _resolve(args, "adapt-score")
    trunk, config, layers = model_io.load_meta_model(args.model)
    phi = meta.InferenceNetParams(
        layers=layers, latent_dim=config.latent_dim, final_bias=config.final_bias
    )
    task = load_task(args.data)
    support_idx, rest_idx = draw_support(
        task, v["support"], task_seed(v["seed"], task.task_id, "support")
    )
    scores = meta.adapt_and_score(
        task.features[support_idx], task.features[rest_idx], trunk, phi
    )
    _write_scores(args.out, scores)
    return EXIT_OK


def _cmd_eval_loo(args):
    v = _resolve(args, "eval-loo")
    rows = eval_loo(
        args.data,
        _train_config(v),
        _meta_config(v),
        out_path=args.out,
        shared_meta=v["shared_meta"],
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
    v = _resolve(args, "gradcheck")
    err_oc = gradcheck_mod.check_oneclass(v["seed"])
    err_meta = gradcheck_mod.check_episodic(v["seed"])
    print(f"one-class loss: max relative gradient error {err_oc:.3e}")
    print(f"episodic loss:  max relative gradient error {err_meta:.3e}")
    if err_oc <= 1e-4 and err_meta <= 1e-4:
        return EXIT_OK
    print("gradient check FAILED (tolerance 1e-4)", file=sys.stderr)
    return EXIT_DATA


def _add_common(p, *names):
    if "config" in names:
        p.add_argument("--config", help="key = value config file")
    if "seed" in names:
        p.add_argument("--seed", type=int)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ocmeta",
        description="One-class hypersphere training, meta-learned few-shot "
        "adaptation, and leave-one-out evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate synthetic Gaussian-cluster tasks")
    p.add_argument("--out", required=True, help="output task directory")
    p.add_argument("--tasks", type=int)
    p.add_argument("--dim", type=int)
    p.add_argument("--per-class", dest="per_class", type=int)
    p.add_argument("--sep", type=float)
    _add_common(p, "config", "seed")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("train-oc", help="train a one-class model on a task file")
    p.add_argument("--data", required=True, help="task file")
    p.add_argument("--out", required=True, help="model file to write")
    p.add_argument("--latent", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--batch", type=int)
    _add_common(p, "config", "seed")
    p.set_defaults(func=_cmd_train_oc)

    p = sub.add_parser("score", help="score a task file with a trained model")
    p.add_argument("--model", required=True, help="model file")
    p.add_argument("--data", required=True, help="task file")
    p.add_argument("--out", help="scores file (default: stdout)")
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("train-meta", help="meta-train across a task directory")
    p.add_argument("--data", required=True, help="task directory")
    p.add_argument("--out", required=True, help="meta-model file to write")
    p.add_argument("--latent", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--L", dest="L", type=int, help="posterior samples per episode")
    p.add_argument("--meta-batch", dest="meta_batch", type=int)
    p.add_argument("--eta", type=float)
    p.add_argument("--support", type=int)
    p.add_argument("--steps", type=int, help="meta-training steps")
    p.add_argument("--holdout", help="comma-separated task ids to exclude")
    _add_common(p, "config", "seed")
    p.set_defaults(func=_cmd_train_meta)

    p = sub.add_parser("adapt-score", help="few-shot adapt and score a task file")
    p.add_argument("--model", required=True, help="meta-model file")
    p.add_argument("--data", required=True, help="task file")
    p.add_argument("--out", help="scores file (default: stdout)")
    p.add_argument("--support", type=int)
    _add_common(p, "config", "seed")
    p.set_defaults(func=_cmd_adapt_score)

    p = sub.add_parser("eval-loo", help="leave-one-out evaluation over a task dir")
    p.add_argument("--data", required=True, help="task directory")
    p.add_argument("--out", help="results file to write")
    p.add_argument("--latent", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--batch", type=int)
    p.add_argument("--L", dest="L", type=int)
    p.add_argument("--meta-batch", dest="meta_batch", type=int)
    p.add_argument("--eta", type=float)
    p.add_argument("--support", type=int)
    p.add_argument("--steps", type=int)
    p.add_argument(
        "--shared-meta",
        dest="shared_meta",
        action="store_const",
        const=True,
        help="meta-train once on all tasks (fast, non-faithful smoke mode)",
    )
    _add_common(p, "config", "seed")
    p.set_defaults(func=_cmd_eval_loo)

    p = sub.add_parser("gradcheck", help="verify analytic gradients of both losses")
    _add_common(p, "config", "seed")
    p.set_defaults(func=_cmd_gradcheck)

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

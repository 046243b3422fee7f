"""End-to-end command-line tests, run in-process via cli.main."""

import numpy as np
import pytest

from ocmeta import cli


def run(*argv):
    return cli.main(list(argv))


@pytest.fixture(scope="module")
def task_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("tasks")
    code = run(
        "synth", "--out", str(d),
        "--tasks", "3", "--dim", "4", "--per-class", "30", "--sep", "6", "--seed", "5",
    )
    assert code == 0
    return d


OC_FLAGS = ["--epochs", "2", "--latent", "4", "--batch", "8", "--seed", "3"]
META_FLAGS = [
    "--steps", "3", "--L", "2", "--meta-batch", "2", "--support", "5", "--latent", "4",
]


def test_synth_writes_expected_files(task_dir):
    names = sorted(p.name for p in task_dir.iterdir())
    assert names == ["task0.csv", "task1.csv", "task2.csv"]


def test_full_pipeline(task_dir, tmp_path, capsys):
    model = tmp_path / "oc.bin"
    assert run("train-oc", "--data", str(task_dir / "task0.csv"), "--out", str(model), *OC_FLAGS) == 0
    assert model.exists()

    scores = tmp_path / "scores.txt"
    assert run("score", "--model", str(model), "--data", str(task_dir / "task0.csv"), "--out", str(scores)) == 0
    values = [float(line) for line in scores.read_text().splitlines()]
    assert len(values) == 60
    assert all(np.isfinite(values))

    meta_model = tmp_path / "meta.bin"
    assert run("train-meta", "--data", str(task_dir), "--out", str(meta_model), *META_FLAGS) == 0

    ascores = tmp_path / "ascores.txt"
    assert run(
        "adapt-score", "--model", str(meta_model), "--data", str(task_dir / "task1.csv"),
        "--out", str(ascores), "--support", "5",
    ) == 0
    assert len(ascores.read_text().splitlines()) == 55  # 60 rows minus 5 support

    results = tmp_path / "results.csv"
    capsys.readouterr()
    assert run(
        "eval-loo", "--data", str(task_dir), "--out", str(results),
        "--epochs", "2", "--batch", "8", *META_FLAGS,
    ) == 0
    text = results.read_text()
    assert text.startswith("task_id,oc_svdd_auc,meta_svdd_auc\n")
    assert len(text.splitlines()) == 4
    out = capsys.readouterr().out
    assert "task0: oc" in out and "mean: oc" in out


def test_score_to_stdout(task_dir, tmp_path, capsys):
    model = tmp_path / "oc.bin"
    run("train-oc", "--data", str(task_dir / "task0.csv"), "--out", str(model), *OC_FLAGS)
    capsys.readouterr()
    assert run("score", "--model", str(model), "--data", str(task_dir / "task0.csv")) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 60
    float(lines[0])  # parses


def test_train_oc_rerun_is_byte_identical(task_dir, tmp_path):
    m1, m2 = tmp_path / "m1.bin", tmp_path / "m2.bin"
    args = ["--data", str(task_dir / "task0.csv")] + OC_FLAGS
    assert run("train-oc", *args, "--out", str(m1)) == 0
    assert run("train-oc", *args, "--out", str(m2)) == 0
    assert m1.read_bytes() == m2.read_bytes()


def test_flags_override_config_file(task_dir, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("epochs = 5\n")
    data = ["--data", str(task_dir / "task0.csv")]
    base, flagged, filed = (tmp_path / n for n in ["base.bin", "flag.bin", "file.bin"])
    assert run("train-oc", *data, "--out", str(base), *OC_FLAGS) == 0
    # flag --epochs 2 beats the file's epochs = 5
    assert run("train-oc", *data, "--out", str(flagged), "--config", str(cfg), *OC_FLAGS) == 0
    assert flagged.read_bytes() == base.read_bytes()
    # without the flag the file's value applies
    assert run(
        "train-oc", *data, "--out", str(filed), "--config", str(cfg),
        "--latent", "4", "--batch", "8", "--seed", "3",
    ) == 0
    assert filed.read_bytes() != base.read_bytes()


def test_unknown_config_key_is_usage_error(task_dir, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("bogus = 1\n")
    code = run(
        "train-oc", "--data", str(task_dir / "task0.csv"),
        "--out", str(tmp_path / "m.bin"), "--config", str(cfg),
    )
    assert code == 1
    assert "ocmeta:" in capsys.readouterr().err


def test_bad_config_value_is_usage_error(task_dir, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("epochs = soon\n")
    assert run(
        "train-oc", "--data", str(task_dir / "task0.csv"),
        "--out", str(tmp_path / "m.bin"), "--config", str(cfg),
    ) == 1


def test_unknown_holdout_is_usage_error(task_dir, tmp_path, capsys):
    model = tmp_path / "meta.bin"
    capsys.readouterr()
    code = run(
        "train-meta", "--data", str(task_dir), "--out", str(model),
        "--holdout", "task1,nosuch", *META_FLAGS,
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "'nosuch'" in err and "'task1'" not in err
    assert not model.exists()


def test_train_meta_reports_the_real_pool_size(task_dir, tmp_path, capsys):
    capsys.readouterr()
    assert run(
        "train-meta", "--data", str(task_dir), "--out", str(tmp_path / "meta.bin"),
        "--holdout", "task0,task0", *META_FLAGS,
    ) == 0
    assert "meta-trained on 2 tasks" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ["train-meta", "--data", "{tasks}", "--latent", "0"],
        ["train-oc", "--data", "{tasks}/task0.csv", "--lr", "nan"],
        ["synth", "--tasks", "3", "--dim", "4", "--per-class", "5", "--sep", "nan"],
    ],
)
def test_bad_config_value_flag_exits_one(argv, task_dir, tmp_path, capsys):
    argv = [arg.format(tasks=task_dir) for arg in argv]
    capsys.readouterr()
    assert run(*argv, "--out", str(tmp_path / "out")) == 1
    err = capsys.readouterr().err
    assert "ocmeta: config error" in err and "must be" in err
    assert not (tmp_path / "out").exists()


def test_usage_errors_exit_one(capsys):
    assert run() == 1
    assert run("frobnicate") == 1
    assert run("train-oc", "--no-such-flag") == 1
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert run("--help") == 0
    capsys.readouterr()


def test_malformed_data_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("2,1.0\n")
    assert run("train-oc", "--data", str(bad), "--out", str(tmp_path / "m.bin")) == 2
    err = capsys.readouterr().err
    assert "ocmeta:" in err and "bad.csv:1" in err


def test_missing_data_file_exits_two(tmp_path):
    assert run(
        "train-oc", "--data", str(tmp_path / "absent.csv"), "--out", str(tmp_path / "m.bin")
    ) == 2


def test_truncated_model_exits_two(task_dir, tmp_path, capsys):
    model = tmp_path / "oc.bin"
    run("train-oc", "--data", str(task_dir / "task0.csv"), "--out", str(model), *OC_FLAGS)
    cut = tmp_path / "cut.bin"
    cut.write_bytes(model.read_bytes()[:20])
    assert run("score", "--model", str(cut), "--data", str(task_dir / "task0.csv")) == 2
    assert "byte" in capsys.readouterr().err


def test_impossible_synth_exits_one(tmp_path):
    assert run(
        "synth", "--out", str(tmp_path / "d"), "--tasks", "1", "--dim", "4",
        "--per-class", "5", "--sep", "4",
    ) == 1


def test_gradcheck_subcommand(capsys):
    assert run("gradcheck", "--seed", "0") == 0
    out = capsys.readouterr().out
    assert "one-class loss" in out and "episodic loss" in out


def test_gradcheck_subcommand_passes_at_relu_kink(capsys):
    # a trunk pre-activation of this seed's episodic check lies within h of
    # zero; the correct gradient there must not be reported as failed
    assert run("gradcheck", "--seed", "6078018368569209128") == 0
    assert "FAILED" not in capsys.readouterr().err

import pytest

from ocmeta.config import parse_config
from ocmeta.errors import ConfigError
from ocmeta.meta import MetaConfig
from ocmeta.svdd import TrainConfig
from ocmeta.synth import SynthConfig


def write(tmp_path, text):
    p = tmp_path / "run.cfg"
    p.write_text(text)
    return p


def test_basic_parse(tmp_path):
    p = write(tmp_path, "epochs = 5\nlr=0.001\n")
    assert parse_config(p) == {"epochs": "5", "lr": "0.001"}


def test_comments_and_blank_lines(tmp_path):
    p = write(tmp_path, "# a comment\n\nepochs = 5  # trailing comment\n")
    assert parse_config(p) == {"epochs": "5"}


def test_hyphens_normalize_to_underscores(tmp_path):
    p = write(tmp_path, "meta-batch = 3\n")
    assert parse_config(p) == {"meta_batch": "3"}


def test_values_keep_inner_spaces_but_are_stripped(tmp_path):
    p = write(tmp_path, "name =  a b \n")
    assert parse_config(p) == {"name": "a b"}


def test_missing_equals_is_config_error(tmp_path):
    p = write(tmp_path, "epochs 5\n")
    with pytest.raises(ConfigError):
        parse_config(p)


def test_empty_key_is_config_error(tmp_path):
    p = write(tmp_path, "= 5\n")
    with pytest.raises(ConfigError):
        parse_config(p)


def test_duplicate_key_is_config_error(tmp_path):
    p = write(tmp_path, "lr = 1\nlr = 2\n")
    with pytest.raises(ConfigError):
        parse_config(p)


def test_duplicate_after_normalization(tmp_path):
    p = write(tmp_path, "meta-batch = 1\nmeta_batch = 2\n")
    with pytest.raises(ConfigError):
        parse_config(p)


def test_missing_file_is_config_error(tmp_path):
    with pytest.raises(ConfigError):
        parse_config(tmp_path / "absent.cfg")


def _synth(**kw):
    return SynthConfig(n_tasks=3, dim=4, samples_per_class=10, **kw)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize(
    "make, field",
    [
        (TrainConfig, "lr"),
        (TrainConfig, "center_floor"),
        (MetaConfig, "lr"),
        (MetaConfig, "eta"),
        (_synth, "separation"),
    ],
)
def test_non_finite_config_value_is_config_error(make, field, value):
    with pytest.raises(ConfigError, match=field):
        make(**{field: value})

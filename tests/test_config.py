"""Tests for the key = value run configuration parser."""

from dataclasses import fields

import pytest

from clamseg import config
from clamseg.errors import UsageError


def test_empty_text_gives_defaults():
    rc = config.parse_config("")
    assert rc == config.RunConfig()


def test_basic_parse_with_comments_and_blanks():
    text = "\n".join([
        "# full-line comment",
        "",
        "levels = 4",
        "lr = 0.01  # inline comment",
        "siamese = true",
        "kernel_schedule = 3,3,5",
    ])
    rc = config.parse_config(text)
    assert rc.levels == 4
    assert rc.lr == 0.01
    assert rc.siamese is True
    assert rc.kernel_schedule == "3,3,5"
    # untouched keys keep their defaults
    assert rc.base_channels == 8


def test_bool_words():
    for word, expect in [("true", True), ("Yes", True), ("1", True),
                         ("false", False), ("NO", False), ("0", False)]:
        rc = config.parse_config(f"siamese = {word}")
        assert rc.siamese is expect
    with pytest.raises(UsageError, match="expects true/false"):
        config.parse_config("siamese = maybe")


def test_unknown_key_cites_line():
    text = "levels = 3\nbogus = 1\n"
    with pytest.raises(UsageError, match=r"config:2: unknown config key 'bogus'"):
        config.parse_config(text)


def test_duplicate_key_cites_line():
    with pytest.raises(UsageError, match=r"cfg:3: duplicate key 'lr'"):
        config.parse_config("lr = 0.1\n\nlr = 0.2\n", name="cfg")


def test_missing_equals_cites_line():
    with pytest.raises(UsageError, match=r"config:1: expected key = value"):
        config.parse_config("levels 3\n")


def test_bad_numeric_values():
    with pytest.raises(UsageError, match=r"config:1: bad value 'three'"):
        config.parse_config("levels = three")
    with pytest.raises(UsageError, match=r"bad value 'fast'"):
        config.parse_config("lr = fast")


def test_load_config_missing_file(tmp_path):
    with pytest.raises(UsageError, match="cannot read config"):
        config.load_config(str(tmp_path / "nope.cfg"))


def test_load_config_reads_file(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("tile_size = 32\n")
    rc = config.load_config(str(p))
    assert rc.tile_size == 32


def test_format_parse_roundtrip():
    rc = config.RunConfig(levels=5, lr=0.02, siamese=True,
                          kernel_schedule="3,5", default_eta=0.25)
    text = config.format_config(rc)
    assert config.parse_config(text) == rc


def test_help_mentions_every_key_and_default():
    text = config.config_help()
    for f in fields(config.RunConfig):
        assert f.name in text
        assert config.KEY_DOCS[f.name] in text
        shown = str(f.default) if f.default != "" else "(empty)"
        assert shown in text


def test_to_model_config():
    rc = config.parse_config("levels = 2\ntile_size = 16\nbase_channels = 4\n"
                             "kernel_schedule = 3,5\nheads = 1\n")
    mc = config.to_model_config(rc)
    assert mc.levels == 2
    assert mc.input_size == 16
    assert mc.base_channels == 4
    assert tuple(mc.kernel_schedule) == (3, 5)
    assert tuple(mc.heads) == (1,)
    assert mc.repeat_levels == frozenset()


def test_to_model_config_bad_kernel():
    rc = config.parse_config("levels = 2\nkernel_schedule = 4,4\n")
    with pytest.raises(UsageError, match="bad model configuration"):
        config.to_model_config(rc)


def test_to_optimizer_config():
    rc = config.parse_config("optimizer = sgd\nlr = 0.5\n")
    oc = config.to_optimizer_config(rc)
    assert oc.kind == "sgd"
    assert oc.lr == 0.5
    rc = config.parse_config("optimizer = adagrad\n")
    with pytest.raises(UsageError, match="bad optimizer configuration"):
        config.to_optimizer_config(rc)


@pytest.mark.parametrize("key", ["lr", "eps"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_to_optimizer_config_rejects_non_finite(key, value):
    rc = config.parse_config(f"{key} = {value}\n")
    with pytest.raises(UsageError, match=f"must be positive and finite, got {value}"):
        config.to_optimizer_config(rc)


def test_to_policy():
    rc = config.parse_config("n_augment = 1\nn_normal = 0\nn_cross = 3\n"
                             "tile_size = 8\ndefault_eta = 0.75\n")
    pol = config.to_policy(rc)
    assert (pol.n_augment, pol.n_normal, pol.n_cross) == (1, 0, 3)
    assert pol.tile_size == 8
    assert pol.default_eta == 0.75


def test_to_policy_rejects_bad_values():
    with pytest.raises(UsageError, match="zero pairs"):
        config.to_policy(config.parse_config(
            "n_augment = 0\nn_normal = 0\nn_cross = 0\n"))
    with pytest.raises(UsageError, match="nonnegative"):
        config.to_policy(config.parse_config("n_augment = -1\n"))
    with pytest.raises(UsageError, match="tile_size"):
        config.to_policy(config.parse_config("tile_size = 1\n"))
    with pytest.raises(UsageError, match="default_eta"):
        config.to_policy(config.parse_config("default_eta = 1.5\n"))


def test_to_run_config_inverts_the_to_functions():
    rc = config.parse_config("levels = 4\nbase_channels = 2\ntile_size = 16\n"
                             "repeat_seed = 3\nheads = 1,3\noptimizer = sgd\n"
                             "lr = 0.25\nn_cross = 0\ndefault_eta = 0.75\n"
                             "siamese = true\ncheckpoint_every = 5\n")
    mc = config.to_model_config(rc)
    oc = config.to_optimizer_config(rc)
    pol = config.to_policy(rc)
    back = config.to_run_config(mc, oc, pol, rc.siamese)
    assert vars(config.to_model_config(back)) == vars(mc)
    assert config.to_optimizer_config(back) == oc
    assert config.to_policy(back) == pol
    assert back.siamese is True
    # the drawn repeat levels are written out; the loop setting is not kept
    assert back.repeat_seed == "" and back.checkpoint_every == 0
    assert config.parse_config(config.format_config(back)) == back

"""End-to-end tests for the command-line interface."""

import os
import shutil
import struct

import numpy as np
import pytest

from clamseg import augment, checkpoint, cli, config, manifest, pgm, trainer
from clamseg.errors import DataError, NonFiniteLossError


def _tree(root):
    """Map relative path -> file bytes for every file under root."""
    out = {}
    for dirpath, _, names in os.walk(str(root)):
        for n in names:
            p = os.path.join(dirpath, n)
            with open(p, "rb") as fh:
                out[os.path.relpath(p, str(root))] = fh.read()
    return out


TINY_CFG = ("levels = 3\nbase_channels = 2\ntile_size = 32\n"
            "n_augment = 1\nn_normal = 1\nn_cross = 1\n")


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """Generated dataset plus a 2-step trained checkpoint."""
    root = tmp_path_factory.mktemp("cli_ws")
    data = str(root / "data")
    assert cli.main(["gen-data", "--out", data, "--count", "8",
                     "--positive-frac", "0.5", "--seed", "5",
                     "--size", "64"]) == 0
    cfg = root / "run.cfg"
    cfg.write_text(TINY_CFG)
    ckpt = str(root / "model.ckpt")
    assert cli.main(["train", "--data", data, "--config", str(cfg),
                     "--out", ckpt, "--steps", "2", "--seed", "7"]) == 0
    recs = manifest.read_manifest(manifest.manifest_path(data, "test"))
    return {"root": root, "data": data, "cfg": str(cfg), "ckpt": ckpt,
            "test_image": os.path.join(data, recs[0].image)}


def test_help_documents_every_config_key(capsys):
    assert cli.main(["--help"]) == 0
    out = capsys.readouterr().out
    from dataclasses import fields
    for f in fields(config.RunConfig):
        assert f.name in out
        shown = str(f.default) if f.default != "" else "(empty)"
        assert f"{f.name} (default {shown})" in out
        assert config.KEY_DOCS[f.name] in out


def test_usage_errors_exit_1(capsys):
    assert cli.main([]) == 1
    assert cli.main(["no-such-command"]) == 1
    assert cli.main(["train", "--data", "somewhere"]) == 1  # missing required
    capsys.readouterr()


def test_gen_data_deterministic_and_counted(tmp_path, capsys):
    args = ["gen-data", "--count", "6", "--positive-frac", "0.5",
            "--seed", "3", "--size", "32"]
    assert cli.main(args + ["--out", str(tmp_path / "d1")]) == 0
    out = capsys.readouterr().out
    assert "wrote 6 images (3 positive)" in out
    assert cli.main(args + ["--out", str(tmp_path / "d2")]) == 0
    assert _tree(tmp_path / "d1") == _tree(tmp_path / "d2")


def test_gen_data_bad_fraction_exits_1(tmp_path, capsys):
    assert cli.main(["gen-data", "--out", str(tmp_path / "d"), "--count", "4",
                     "--positive-frac", "1.5", "--seed", "0"]) == 1
    assert "error" in capsys.readouterr().err


def test_all_negative_dataset_fails_cross_pair_training(tmp_path, capsys):
    data = str(tmp_path / "neg")
    assert cli.main(["gen-data", "--out", data, "--count", "4",
                     "--positive-frac", "0", "--seed", "1",
                     "--size", "64"]) == 0
    cfg = tmp_path / "run.cfg"
    cfg.write_text(TINY_CFG)
    ckpt = str(tmp_path / "m.ckpt")
    assert cli.main(["train", "--data", data, "--config", str(cfg),
                     "--out", ckpt, "--steps", "1", "--seed", "0"]) == 2
    assert "positive-labeled" in capsys.readouterr().err
    assert not os.path.exists(ckpt)


def test_train_missing_data_dir_exits_2_without_checkpoint(tmp_path, capsys):
    ckpt = str(tmp_path / "m.ckpt")
    assert cli.main(["train", "--data", str(tmp_path / "nope"),
                     "--out", ckpt, "--steps", "1", "--seed", "0"]) == 2
    assert "data error" in capsys.readouterr().err
    assert not os.path.exists(ckpt)


def test_train_empty_manifest_exits_2(ws, tmp_path, capsys):
    data = str(tmp_path / "data")
    shutil.copytree(ws["data"], data)
    open(manifest.manifest_path(data, "train"), "w").close()
    out = str(tmp_path / "out.ckpt")
    assert cli.main(["train", "--data", data, "--config", ws["cfg"], "--out", out,
                     "--steps", "1", "--seed", "0"]) == 2
    assert "train manifest in" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_train_out_in_missing_dir_exits_2_before_any_step(ws, tmp_path, capsys, monkeypatch):
    steps = []
    train_step = trainer.train_step
    monkeypatch.setattr(trainer, "train_step",
                        lambda *a: steps.append(1) or train_step(*a))
    assert cli.main(["train", "--data", ws["data"], "--config", ws["cfg"],
                     "--out", str(tmp_path / "missing" / "m.ckpt"),
                     "--steps", "20", "--seed", "7"]) == 2
    assert "data error" in capsys.readouterr().err
    assert steps == []


def test_train_negative_checkpoint_every_exits_1_before_reading_data(tmp_path, capsys):
    cfg = tmp_path / "neg.cfg"
    cfg.write_text("checkpoint_every = -3\n")
    ckpt = str(tmp_path / "m.ckpt")
    # the data directory is missing, so reading it first would exit 2
    assert cli.main(["train", "--data", str(tmp_path / "nope"), "--config", str(cfg),
                     "--out", ckpt, "--steps", "1", "--seed", "0"]) == 1
    assert "checkpoint_every must be nonnegative" in capsys.readouterr().err
    assert not os.path.exists(ckpt)


def test_non_ascii_config_exits_1_naming_it(ws, tmp_path, capsys):
    cfg = tmp_path / "odd.cfg"
    cfg.write_bytes(TINY_CFG.encode("ascii") + b"# \xe9\n")
    assert cli.main(["dump-pairs", "--data", ws["data"], "--config", str(cfg),
                     "--out", str(tmp_path / "out"), "--seed", "0"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read config ") and str(cfg) in err


def test_non_ascii_manifest_exits_2_naming_it(ws, tmp_path, capsys):
    data = str(tmp_path / "data")
    shutil.copytree(ws["data"], data)
    path = manifest.manifest_path(data, "train")
    with open(path, "wb") as fh:
        fh.write(b"images/\xe9.pgm\tpos\n")
    assert cli.main(["dump-pairs", "--data", data, "--config", ws["cfg"],
                     "--out", str(tmp_path / "out"), "--seed", "0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: cannot read manifest ") and path in err


def test_train_bad_config_cites_line(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("levels = 2\nwat = 1\n")
    assert cli.main(["train", "--data", str(tmp_path), "--config", str(cfg),
                     "--out", str(tmp_path / "m.ckpt"),
                     "--steps", "1", "--seed", "0"]) == 1
    err = capsys.readouterr().err
    assert ":2:" in err and "wat" in err


def test_train_reruns_are_byte_identical(ws, tmp_path):
    ckpt2 = str(tmp_path / "again.ckpt")
    assert cli.main(["train", "--data", ws["data"], "--config", ws["cfg"],
                     "--out", ckpt2, "--steps", "2", "--seed", "7"]) == 0
    with open(ws["ckpt"], "rb") as fh:
        first = fh.read()
    with open(ckpt2, "rb") as fh:
        assert fh.read() == first
    with open(ws["ckpt"] + ".log", "rb") as fh:
        log1 = fh.read()
    with open(ckpt2 + ".log", "rb") as fh:
        assert fh.read() == log1


def test_eval_writes_reports(ws, capsys):
    assert cli.main(["eval", "--ckpt", ws["ckpt"], "--data", ws["data"],
                     "--split", "test"]) == 0
    out = capsys.readouterr().out
    assert "mean dice" in out
    assert os.path.exists(ws["ckpt"] + ".eval_test.txt")
    kv = ws["ckpt"] + ".eval_test.kv"
    assert os.path.exists(kv)
    with open(kv) as fh:
        text = fh.read()
    assert "mean_dice=" in text


def test_eval_too_few_trials_exits_1_before_any_inference(ws, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(trainer, "load_state", lambda *a: calls.append("load"))
    monkeypatch.setattr(trainer, "infer_state", lambda *a, **kw: calls.append("infer"))
    assert cli.main(["eval", "--ckpt", ws["ckpt"], "--data", ws["data"],
                     "--trials", "50"]) == 1
    assert "at least 100 trials" in capsys.readouterr().err
    assert calls == []


def test_eval_hidden_mask_of_another_size_exits_2_naming_the_image(ws, tmp_path, capsys):
    data = str(tmp_path / "data")
    shutil.copytree(ws["data"], data)
    name = os.path.basename(ws["test_image"])
    pgm.write_mask(os.path.join(data, "eval_masks", name), np.ones((32, 32), dtype=bool))
    ckpt = str(tmp_path / "model.ckpt")
    shutil.copy(ws["ckpt"], ckpt)
    assert cli.main(["eval", "--ckpt", ckpt, "--data", data]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and name in err


def test_eval_missing_checkpoint_exits_2(ws, capsys):
    assert cli.main(["eval", "--ckpt", ws["ckpt"] + ".nope",
                     "--data", ws["data"]]) == 2
    capsys.readouterr()


def test_infer_writes_mask(ws, tmp_path, capsys):
    out = str(tmp_path / "mask.pgm")
    assert cli.main(["infer", "--ckpt", ws["ckpt"],
                     "--image", ws["test_image"], "--out", out]) == 0
    assert "marker pixels" in capsys.readouterr().out
    mask = pgm.read_mask(out)
    assert mask.shape == (64, 64)
    assert mask.dtype == bool


def test_infer_depth_matches_pruned_checkpoint(ws, tmp_path, capsys):
    direct = str(tmp_path / "direct.pgm")
    assert cli.main(["infer", "--ckpt", ws["ckpt"], "--image", ws["test_image"],
                     "--out", direct, "--depth", "1"]) == 0
    pruned_ckpt = str(tmp_path / "pruned.ckpt")
    assert cli.main(["prune", "--ckpt", ws["ckpt"], "--out", pruned_ckpt,
                     "--depth", "1"]) == 0
    assert "pruned to depth 1" in capsys.readouterr().out
    via_pruned = str(tmp_path / "pruned.pgm")
    assert cli.main(["infer", "--ckpt", pruned_ckpt,
                     "--image", ws["test_image"], "--out", via_pruned]) == 0
    with open(direct, "rb") as fh:
        d = fh.read()
    with open(via_pruned, "rb") as fh:
        assert fh.read() == d


def test_pruned_checkpoint_reloads_with_fewer_heads(ws, tmp_path):
    pruned_ckpt = str(tmp_path / "p.ckpt")
    assert cli.main(["prune", "--ckpt", ws["ckpt"], "--out", pruned_ckpt,
                     "--depth", "1"]) == 0
    full = trainer.load_state(ws["ckpt"])
    small = trainer.load_state(pruned_ckpt)
    assert small.model_a.config.heads == (1,)
    assert small.model_a.parameter_count() < full.model_a.parameter_count()


def _settings_text(path):
    text, _ = checkpoint.load_checkpoint(path)
    return "".join(ln for ln in text.splitlines(keepends=True)
                   if not ln.startswith("train."))


def test_checkpoint_config_block_is_run_config_text(ws, tmp_path):
    pruned_ckpt = str(tmp_path / "p.ckpt")
    assert cli.main(["prune", "--ckpt", ws["ckpt"], "--out", pruned_ckpt,
                     "--depth", "1"]) == 0
    rc = config.parse_config(TINY_CFG)
    pruned = trainer.prune_state(trainer.load_state(ws["ckpt"]), 1)
    for path, model_config, opt_config, policy in [
            (ws["ckpt"], config.to_model_config(rc), config.to_optimizer_config(rc),
             config.to_policy(rc)),
            (pruned_ckpt, pruned.model_a.config, pruned.optimizer.config, pruned.policy)]:
        text = _settings_text(path)
        # checkpoint_every steers the loop; the file does not record it
        assert "checkpoint_every" not in text
        saved = config.parse_config(text)
        assert vars(config.to_model_config(saved)) == vars(model_config)
        assert config.to_optimizer_config(saved) == opt_config
        assert config.to_policy(saved) == policy
    assert pruned.model_a.config.heads == (1,)


def _rewrite_config_line(src, dst, key, value):
    """Copy checkpoint src to dst with the config line of key set to value,
    or dropped when value is None."""
    text, tensors = checkpoint.load_checkpoint(src)
    lines = text.splitlines(keepends=True)
    hit = [i for i, ln in enumerate(lines) if ln.split("=", 1)[0].strip() == key]
    assert len(hit) == 1, key
    if value is None:
        del lines[hit[0]]
    else:
        lines[hit[0]] = f"{key} = {value}\n"
    checkpoint.save_checkpoint(dst, "".join(lines), tensors)


@pytest.mark.parametrize("key, value, message", [
    ("levels", "x", "bad value 'x' for levels"),
    ("lr", "-1", "learning rate must be positive"),
    ("n_cross", "-4", "n_cross must be nonnegative"),
    ("lr", None, "missing 'lr = 0.001'"),
    ("train.seed", None, "missing key 'train.seed'"),
    ("train.step", "x", "bad train value"),
    ("train.marker_channel", "7", "marker_channel=7"),
], ids=["levels-not-int", "lr-negative", "n_cross-negative", "lr-missing",
        "train-key-missing", "train-value-not-int", "marker-channel-out-of-range"])
def test_corrupt_config_block_is_a_data_error(ws, tmp_path, capsys, key, value, message):
    bad = str(tmp_path / "bad.ckpt")
    _rewrite_config_line(ws["ckpt"], bad, key, value)
    with pytest.raises(DataError, match=message):
        trainer.load_state(bad)
    assert cli.main(["infer", "--ckpt", bad, "--image", ws["test_image"],
                     "--out", str(tmp_path / "m.pgm")]) == 2
    assert "data error" in capsys.readouterr().err


def test_infer_rejects_version_1_checkpoint(ws, tmp_path, capsys):
    with open(ws["ckpt"], "rb") as fh:
        raw = fh.read()
    for version in (1, 2):
        old = tmp_path / f"v{version}.ckpt"
        old.write_bytes(raw[:4] + struct.pack("<I", version) + raw[8:])
        assert cli.main(["infer", "--ckpt", str(old), "--image", ws["test_image"],
                         "--out", str(tmp_path / "m.pgm")]) == 2
        assert f"unsupported checkpoint version {version}" in capsys.readouterr().err


def test_infer_undecodable_tensor_name_exits_2(ws, tmp_path, capsys):
    with open(ws["ckpt"], "rb") as fh:
        raw = fh.read()
    name_at = 12 + struct.unpack("<I", raw[8:12])[0] + 4
    bad = tmp_path / "name.ckpt"
    bad.write_bytes(raw[:name_at] + b"\xff\xfe" + raw[name_at + 2:])
    assert cli.main(["infer", "--ckpt", str(bad), "--image", ws["test_image"],
                     "--out", str(tmp_path / "m.pgm")]) == 2
    assert "tensor name is not valid utf-8" in capsys.readouterr().err


def test_infer_missing_image_exits_2(ws, tmp_path, capsys):
    missing = str(tmp_path / "missing.pgm")
    assert cli.main(["infer", "--ckpt", ws["ckpt"], "--image", missing,
                     "--out", str(tmp_path / "m.pgm")]) == 2
    err = capsys.readouterr().err
    assert "data error: cannot read image" in err and missing in err
    assert not os.path.exists(tmp_path / "m.pgm")


def test_infer_unwritable_out_exits_2(ws, tmp_path, capsys, monkeypatch):
    # the directory is checked before the checkpoint is loaded
    calls = []
    monkeypatch.setattr(trainer, "load_state", lambda *a: calls.append("load"))
    monkeypatch.setattr(trainer, "infer_state", lambda *a, **kw: calls.append("infer"))
    out = str(tmp_path / "missing_dir" / "m.pgm")
    assert cli.main(["infer", "--ckpt", ws["ckpt"], "--image", ws["test_image"],
                     "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and out in err
    assert not os.path.exists(tmp_path / "missing_dir")
    assert calls == []


def test_prune_unwritable_out_exits_2(ws, tmp_path, capsys, monkeypatch):
    # the directory is checked before the checkpoint is loaded and pruned
    calls = []
    monkeypatch.setattr(trainer, "load_state", lambda *a: calls.append("load"))
    monkeypatch.setattr(trainer, "prune_state", lambda *a: calls.append("prune"))
    out = str(tmp_path / "missing_dir" / "p.ckpt")
    assert cli.main(["prune", "--ckpt", ws["ckpt"], "--out", out, "--depth", "1"]) == 2
    err = capsys.readouterr().err
    assert err == f"data error: cannot write {out}: no directory {os.path.dirname(out)}\n"
    assert not os.path.exists(tmp_path / "missing_dir")
    assert calls == []


def test_preprocess_out_under_a_regular_file_exits_2(ws, tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory\n")
    assert cli.main(["preprocess", "--in", ws["data"], "--out", str(blocker / "pre"),
                     "--size", "16"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and str(blocker) in err
    assert blocker.read_text() == "not a directory\n"


def test_preprocess_sizes_and_idempotence(tmp_path, capsys):
    data = str(tmp_path / "raw")
    assert cli.main(["gen-data", "--out", data, "--count", "6",
                     "--positive-frac", "0.5", "--seed", "11",
                     "--size", "64"]) == 0
    p1 = str(tmp_path / "p1")
    assert cli.main(["preprocess", "--in", data, "--out", p1,
                     "--size", "16"]) == 0
    out = capsys.readouterr().out
    assert "images preprocessed" in out
    for dirpath, _, names in os.walk(os.path.join(p1, "images")):
        for n in names:
            assert pgm.read_unit(os.path.join(dirpath, n)).shape == (16, 16)
    # a second pass over the already-cropped data changes nothing
    p2 = str(tmp_path / "p2")
    assert cli.main(["preprocess", "--in", p1, "--out", p2,
                     "--size", "16"]) == 0
    t1, t2 = _tree(p1), _tree(p2)
    hidden = [rel for rel in t1 if rel.split(os.sep)[0] == "eval_masks"]
    assert len(hidden) == 6 and os.path.join("eval_masks", "gen_params.tsv") not in t1
    for rel in t1:
        if rel.split(os.sep)[0] in ("images", "masks", "eval_masks"):
            assert t2[rel] == t1[rel], rel


@pytest.mark.parametrize("sub", ["organ_masks", "eval_masks"])
def test_preprocess_mask_of_another_size_exits_2_naming_it(tmp_path, capsys, sub):
    data = str(tmp_path / "raw")
    assert cli.main(["gen-data", "--out", data, "--count", "4",
                     "--positive-frac", "0.5", "--seed", "11",
                     "--size", "64"]) == 0
    name = sorted(n for n in os.listdir(os.path.join(data, sub)) if n.endswith(".pgm"))[0]
    bad = os.path.join(data, sub, name)
    pgm.write_mask(bad, np.ones((32, 32), dtype=bool))
    capsys.readouterr()
    assert cli.main(["preprocess", "--in", data, "--out", str(tmp_path / "pre"),
                     "--size", "16"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and bad in err


def test_preprocess_all_fail_exits_2(tmp_path, capsys):
    data = tmp_path / "blank"
    os.makedirs(data / "images")
    for name in ("a", "b"):
        pgm.write_unit(str(data / "images" / f"{name}.pgm"),
                       np.zeros((32, 32), dtype=np.float32))
    (data / "manifest_train.tsv").write_text(
        "images/a.pgm\tneg\nimages/b.pgm\tneg\n")
    assert cli.main(["preprocess", "--in", str(data),
                     "--out", str(tmp_path / "out"),
                     "--mask-mode", "threshold", "--size", "16"]) == 2
    assert "data error" in capsys.readouterr().err


def test_dump_pairs_layout_and_determinism(ws, tmp_path, capsys):
    out1 = str(tmp_path / "pairs1")
    assert cli.main(["dump-pairs", "--data", ws["data"], "--config", ws["cfg"],
                     "--out", out1, "--seed", "9"]) == 0
    capsys.readouterr()
    with open(os.path.join(out1, "pairs.tsv")) as fh:
        lines = fh.read().splitlines()
    assert lines[0].split("\t") == ["index", "kind", "source_a", "source_b",
                                    "tile", "eta", "draws"]
    rows = [ln.split("\t") for ln in lines[1:]]
    assert [r[1] for r in rows] == ["augment", "normal", "cross"]
    for i, r in enumerate(rows):
        assert int(r[0]) == i
        float(r[5])  # eta parses
        for side in "ab":
            p = os.path.join(out1, f"pair_{i:03d}_{r[1]}_{side}.pgm")
            assert pgm.read_unit(p).shape == (32, 32)
    out2 = str(tmp_path / "pairs2")
    assert cli.main(["dump-pairs", "--data", ws["data"], "--config", ws["cfg"],
                     "--out", out2, "--seed", "9"]) == 0
    assert _tree(out1) == _tree(out2)


@pytest.mark.parametrize("command", ["train", "dump-pairs"])
@pytest.mark.parametrize("shape, message", [((32, 32), "differ in size"),
                                            ((64, 48), "is not square")],
                         ids=["smaller", "not-square"])
def test_train_image_of_another_size_exits_2_naming_it(ws, tmp_path, capsys,
                                                      command, shape, message):
    data = str(tmp_path / "data")
    shutil.copytree(ws["data"], data)
    odd = manifest.read_manifest(manifest.manifest_path(data, "train"))[1].image
    pgm.write_unit(os.path.join(data, odd), np.zeros(shape, dtype=np.float32))
    out = str(tmp_path / "out")
    extra = ["--steps", "1"] if command == "train" else []
    assert cli.main([command, "--data", data, "--config", ws["cfg"], "--out", out,
                     "--seed", "0"] + extra) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and message in err
    assert os.path.basename(odd) in err


def test_gradcheck_subset_passes(capsys):
    assert cli.main(["gradcheck", "--module", "loss", "--seeds", "2"]) == 0
    out = capsys.readouterr().out
    assert "0 failures" in out
    assert "FAIL" not in out


def test_gradcheck_failure_exits_3(monkeypatch, capsys):
    def fake(module, seeds):
        return [("broken", {"pass": False, "max_rel_err": 1.0,
                            "n_checked": 4, "n_skipped": 0})]
    monkeypatch.setattr(cli.gradcheck, "run_suite", fake)
    assert cli.main(["gradcheck", "--module", "tensor"]) == 3
    captured = capsys.readouterr()
    assert "FAIL" in captured.out
    assert "numeric failure" in captured.err


def test_nonfinite_loss_prints_pair_provenance(monkeypatch, tmp_path, capsys):
    tile = np.zeros((4, 4), dtype=np.float32)
    pairs = [augment.PairSample("augment", tile, tile, 1.0, "img_003", "img_003", (1, 0),
                                {"b": {"flip": 1, "angle": 12.5}}),
             augment.PairSample("cross", tile, tile, 0.4, "img_001", "img_007", (0, 2),
                                {"a": {"gamma": 0.9}, "b": {"flip": 0}})]

    def fake(**kwargs):
        raise NonFiniteLossError("non-finite loss at step 3: boom",
                                 provenance=[trainer._pair_provenance(p) for p in pairs])

    monkeypatch.setattr(cli.trainer, "run_training", fake)
    assert cli.main(["train", "--data", str(tmp_path), "--out", str(tmp_path / "m.ckpt"),
                     "--steps", "1", "--seed", "0"]) == 3
    assert capsys.readouterr().err.splitlines() == [
        "numeric failure: non-finite loss at step 3: boom",
        "pair 0: kind=augment sources=img_003,img_003 tile=1,0 eta=1 draws=b.angle=12.5;b.flip=1",
        "pair 1: kind=cross sources=img_001,img_007 tile=0,2 eta=0.4 draws=a.gamma=0.9;b.flip=0",
    ]

import os
from pathlib import Path

import numpy as np
import pytest

from clamseg import manifest as M
from clamseg import pgm, phantoms
from clamseg.seeding import derive_rng


def small_params():
    return phantoms.PhantomParams.easy(size=64)


def read_all_bytes(root):
    out = {}
    for dirpath, _, names in os.walk(root):
        for n in sorted(names):
            p = os.path.join(dirpath, n)
            with open(p, "rb") as fh:
                out[os.path.relpath(p, root)] = fh.read()
    return out


def test_make_phantom_geometry():
    rng = derive_rng(7, "phantom", "0000")
    img, lesions, organ, info = phantoms.make_phantom(rng, small_params(), True)
    assert img.shape == (64, 64) and img.dtype == np.float32
    assert organ.any() and lesions.any()
    # lesions live strictly inside the organ
    assert not (lesions & ~organ).any()
    assert info["lesions"]
    # background stays dim, organ interior stays bright
    assert img[~organ].max() <= 0.06 + 1e-6
    interior = organ & ~lesions
    assert img[interior].min() > 0.25
    assert img[lesions].min() > 0.8


def test_negative_has_no_lesions():
    rng = derive_rng(7, "phantom", "0001")
    _, lesions, organ, info = phantoms.make_phantom(rng, small_params(), False)
    assert not lesions.any()
    assert info["lesions"] == []
    assert organ.any()


def test_generate_layout_and_counts(tmp_path):
    out = str(tmp_path / "ds")
    summary = phantoms.generate_phantoms(out, 10, 0.5, seed=3, params=small_params())
    assert summary["n_pos"] == 5
    assert sum(summary["splits"].values()) == 10
    for sub in ("images", "organ_masks", "eval_masks"):
        assert len([n for n in os.listdir(os.path.join(out, sub)) if n.endswith(".pgm")]) == 10
    total = []
    for split in M.SPLITS:
        recs = M.read_manifest(M.manifest_path(out, split))
        for r in recs:
            assert r.mask.startswith("organ_masks/")
            assert r.eta is None
        total += recs
    assert len(total) == 10
    assert sum(r.label == "pos" for r in total) == 5
    assert os.path.exists(os.path.join(out, "eval_masks", "gen_params.tsv"))


def test_split_is_stratified(tmp_path):
    out = str(tmp_path / "ds")
    phantoms.generate_phantoms(out, 20, 0.5, seed=11, params=small_params())
    train = M.read_manifest(M.manifest_path(out, "train"))
    # 10 positives at 0.7 train fraction: exactly 7 land in train
    assert sum(r.label == "pos" for r in train) == 7
    assert sum(r.label == "neg" for r in train) == 7


def test_eval_masks_match_labels(tmp_path):
    out = str(tmp_path / "ds")
    phantoms.generate_phantoms(out, 8, 0.5, seed=5, params=small_params())
    for split in M.SPLITS:
        for rec in M.read_manifest(M.manifest_path(out, split)):
            name = os.path.basename(rec.image)
            mask = pgm.read_mask(os.path.join(out, "eval_masks", name))
            assert mask.any() == (rec.label == "pos")


def test_regeneration_is_byte_identical(tmp_path):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    phantoms.generate_phantoms(a, 6, 0.5, seed=42, params=small_params())
    phantoms.generate_phantoms(b, 6, 0.5, seed=42, params=small_params())
    ba, bb = read_all_bytes(a), read_all_bytes(b)
    assert ba.keys() == bb.keys()
    for k in ba:
        assert ba[k] == bb[k], k


def test_seed_changes_images(tmp_path):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    phantoms.generate_phantoms(a, 2, 1.0, seed=1, params=small_params())
    phantoms.generate_phantoms(b, 2, 1.0, seed=2, params=small_params())
    pa = Path(os.path.join(a, "images", "img_0000.pgm")).read_bytes()
    pb = Path(os.path.join(b, "images", "img_0000.pgm")).read_bytes()
    assert pa != pb


def test_generate_validation(tmp_path):
    with pytest.raises(ValueError):
        phantoms.generate_phantoms(str(tmp_path / "x"), 0, 0.5, seed=1)
    with pytest.raises(ValueError):
        phantoms.generate_phantoms(str(tmp_path / "x"), 4, 1.5, seed=1)
    with pytest.raises(ValueError):
        phantoms.generate_phantoms(str(tmp_path / "x"), 4, 0.5, seed=1,
                                   split_fracs=(0.5, 0.5, 0.5))


def test_presets():
    easy = phantoms.PRESETS["easy"](size=128)
    hard = phantoms.PRESETS["hard"](size=128)
    assert easy.size == hard.size == 128
    # the hard preset pulls lesion contrast toward the organ band
    assert hard.lesion_value[1] < easy.lesion_value[0]
    assert hard.noise_hi > easy.noise_hi

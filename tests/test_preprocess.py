import os
import shutil
from pathlib import Path

import numpy as np
import pytest

from clamseg import manifest as M
from clamseg import imops, pgm, phantoms, preprocess
from clamseg.errors import DataError


def dice(a, b):
    a, b = a.astype(bool), b.astype(bool)
    denom = a.sum() + b.sum()
    if denom == 0:
        return 1.0
    return 2.0 * (a & b).sum() / denom


def test_crop_box_has_four_pixel_margin():
    img = np.zeros((64, 64), dtype=np.float32)
    mask = np.zeros((64, 64), dtype=bool)
    mask[10:51, 20:41] = True
    img[mask] = 0.6
    out, geom = preprocess.crop_and_resize(img, mask, 32)
    assert (geom["r0"], geom["r1"]) == (6, 55)
    assert (geom["c0"], geom["c1"]) == (16, 45)
    assert geom["side"] == 49
    assert out.shape == (32, 32)


def test_crop_box_clamps_at_borders():
    mask = np.zeros((32, 32), dtype=bool)
    mask[0:30, 2:32] = True
    _, geom = preprocess.crop_and_resize(mask.astype(np.float32), mask, 32)
    assert (geom["r0"], geom["r1"]) == (0, 32)
    assert (geom["c0"], geom["c1"]) == (0, 32)


def test_background_zeroed_before_crop():
    # bright background pixel inside the crop box but outside the mask
    img = np.full((40, 40), 0.9, dtype=np.float32)
    mask = np.zeros((40, 40), dtype=bool)
    mask[8:32, 8:32] = True
    mask[8:12, 8:12] = False  # notch
    out, geom = preprocess.crop_and_resize(img, mask, geom_side(mask))
    # identity-size output: the notch region must be exactly zero
    r0, c0 = geom["r0"], geom["c0"]
    assert out[8 - r0 + 1, 8 - c0 + 1] == 0.0
    assert out[20 - r0, 20 - c0] == pytest.approx(0.9, abs=1e-6)


def geom_side(mask):
    rows = np.flatnonzero(mask.any(axis=1))
    cols = np.flatnonzero(mask.any(axis=0))
    h = min(rows[-1] + 5, mask.shape[0]) - max(rows[0] - 4, 0)
    w = min(cols[-1] + 5, mask.shape[1]) - max(cols[0] - 4, 0)
    return int(max(h, w))


def test_rect_mask_is_centered():
    img = np.zeros((64, 64), dtype=np.float32)
    mask = np.zeros((64, 64), dtype=bool)
    mask[20:30, 10:50] = True
    img[mask] = 0.5
    out, geom = preprocess.crop_and_resize(img, mask, 48)
    assert geom["side"] == 48  # wide box: 48 wide, 18 tall
    # the crop (margin 4) is padded by (48 - 18) // 2 rows on top, none on the left
    assert np.array_equal(np.flatnonzero(out.any(axis=1)), np.arange(15 + 4, 15 + 14))
    assert np.array_equal(np.flatnonzero(out.any(axis=0)), np.arange(4, 44))
    assert out.shape == (48, 48)
    # content row band sits in the vertical middle
    assert out[24].max() > 0.4
    assert out[2].max() == 0.0


def test_empty_mask_rejected():
    img = np.zeros((16, 16), dtype=np.float32)
    with pytest.raises(DataError, match="empty"):
        preprocess.crop_and_resize(img, np.zeros((16, 16), dtype=bool), 16)


def test_transform_mask_identity_geometry():
    mask = np.zeros((32, 32), dtype=bool)
    mask[5:20, 7:25] = True
    geom = {"r0": 0, "c0": 0, "r1": 32, "c1": 32,
            "side": 32, "out_size": 32, "src_h": 32, "src_w": 32}
    assert np.array_equal(preprocess.transform_mask(mask, geom), mask)


def test_transform_mask_scales_area():
    mask = np.zeros((64, 64), dtype=bool)
    mask[24:40, 24:40] = True  # 16x16 block
    img = mask.astype(np.float32) * 0.7
    out, geom = preprocess.crop_and_resize(img, mask, 48)
    tm = preprocess.transform_mask(mask, geom, threshold=0.5)
    # box is 24 wide; upscaled to 48 the block roughly doubles per side
    area_scale = tm.sum() / mask.sum()
    assert 3.0 < area_scale < 5.0
    # the mask covers where the image is bright
    assert tm[out > 0.35].mean() > 0.95


def test_organ_stub_recovers_phantom_organ(tmp_path):
    out = str(tmp_path / "ds")
    phantoms.generate_phantoms(out, 10, 0.5, seed=21,
                               params=phantoms.PhantomParams.easy(size=64))
    scores = []
    for split in M.SPLITS:
        for rec in M.read_manifest(M.manifest_path(out, split)):
            img = pgm.read_unit(os.path.join(out, rec.image))
            truth = pgm.read_mask(os.path.join(out, rec.mask))
            stub = preprocess.organ_mask_threshold(img)
            scores.append(dice(stub, truth))
    assert min(scores) >= 0.95


def test_organ_stub_drops_a_stray_blob_and_fills_a_hole():
    # Otsu's threshold alone keeps the blob and the hole: each of the
    # component step and the closing changes this image's mask
    organ = np.zeros((32, 32), dtype=bool)
    organ[8:24, 6:20] = True
    img = np.where(organ, 0.6, 0.0)
    img[15, 12] = 0.0  # a one-pixel hole inside the organ
    img[26:29, 24:28] = 0.8  # a separate bright blob
    np.testing.assert_array_equal(preprocess.organ_mask_threshold(img), organ)
    assert np.array_equal(imops.close_3x3(organ), organ)
    otsu = img > imops.otsu_threshold(img)
    assert not np.array_equal(imops.close_3x3(otsu), organ)
    assert not np.array_equal(imops.largest_component(otsu), organ)


def test_organ_stub_empty_on_blank():
    assert not preprocess.organ_mask_threshold(np.zeros((32, 32), dtype=np.float32)).any()


def make_dataset(tmp_path, n=6, seed=13, size=64, params=None):
    out = str(tmp_path / "src")
    phantoms.generate_phantoms(out, n, 0.5, seed=seed,
                               params=params or phantoms.PhantomParams.easy(size=size))
    return out


def test_preprocess_dataset_external(tmp_path):
    src = make_dataset(tmp_path)
    dst = str(tmp_path / "pre")
    report = preprocess.preprocess_dataset(src, dst, mask_mode="external", out_size=48)
    assert report["warnings"] == []
    for split, c in report["splits"].items():
        assert c["in"] == c["out"]
        recs = M.read_manifest(M.manifest_path(dst, split))
        for rec in recs:
            img = pgm.read_unit(os.path.join(dst, rec.image))
            assert img.shape == (48, 48)
            assert rec.mask == "masks/" + os.path.basename(rec.image)
    hidden = sorted(os.listdir(os.path.join(dst, "eval_masks")))
    assert len(hidden) == 6
    for n in hidden:
        assert pgm.read_mask(os.path.join(dst, "eval_masks", n)).shape == (48, 48)


def test_hidden_masks_are_mapped_through_each_images_crop(tmp_path):
    src = make_dataset(tmp_path)
    dst = str(tmp_path / "pre")
    preprocess.preprocess_dataset(src, dst, mask_mode="external", out_size=48)
    labels = []
    for split in M.SPLITS:
        for rec in M.read_manifest(M.manifest_path(src, split)):
            name = os.path.basename(rec.image)
            img = pgm.read_unit(os.path.join(src, rec.image))
            _, geom = preprocess.crop_and_resize(
                img, pgm.read_mask(os.path.join(src, rec.mask)), 48)
            raw = pgm.read_mask(os.path.join(src, "eval_masks", name))
            got = pgm.read_mask(os.path.join(dst, "eval_masks", name))
            np.testing.assert_array_equal(got, preprocess.transform_mask(raw, geom, 0.5))
            assert got.any() == (rec.label == "pos"), name
            labels.append(rec.label)
    assert sorted(set(labels)) == ["neg", "pos"]
    # the draw log stays with the raw tree, and no manifest lists a hidden mask
    assert not os.path.exists(os.path.join(dst, "eval_masks", "gen_params.tsv"))
    for split in M.SPLITS:
        for rec in M.read_manifest(M.manifest_path(dst, split)):
            assert "eval_masks" not in (rec.image + str(rec.mask))


def test_an_image_without_a_hidden_mask_gets_none(tmp_path):
    src = make_dataset(tmp_path, n=4)
    victim = sorted(n for n in os.listdir(os.path.join(src, "eval_masks"))
                    if n.endswith(".pgm"))[0]
    os.remove(os.path.join(src, "eval_masks", victim))
    dst = str(tmp_path / "pre")
    preprocess.preprocess_dataset(src, dst, mask_mode="external", out_size=32)
    hidden = os.listdir(os.path.join(dst, "eval_masks"))
    assert victim not in hidden and len(hidden) == 3
    # an input with no hidden masks at all gives an output with none
    shutil.rmtree(os.path.join(src, "eval_masks"))
    bare = str(tmp_path / "bare")
    preprocess.preprocess_dataset(src, bare, mask_mode="external", out_size=32)
    assert not os.path.exists(os.path.join(bare, "eval_masks"))


def test_preprocess_dataset_threshold_mode(tmp_path):
    src = make_dataset(tmp_path)
    dst = str(tmp_path / "pre")
    report = preprocess.preprocess_dataset(src, dst, mask_mode="threshold", out_size=48)
    assert report["warnings"] == []
    assert sum(c["out"] for c in report["splits"].values()) == 6


def test_preprocess_skips_empty_mask(tmp_path):
    src = make_dataset(tmp_path, n=4)
    # blank out one image so the threshold stub finds nothing
    recs = M.read_manifest(M.manifest_path(src, "train"))
    victim = os.path.join(src, recs[0].image)
    pgm.write_unit(victim, np.zeros((64, 64), dtype=np.float32))
    dst = str(tmp_path / "pre")
    report = preprocess.preprocess_dataset(src, dst, mask_mode="threshold", out_size=32)
    assert any("empty organ mask" in w for w in report["warnings"])
    kept = M.read_manifest(M.manifest_path(dst, "train"))
    assert len(kept) == len(recs) - 1


def test_preprocess_all_fail_is_error(tmp_path):
    src = str(tmp_path / "src")
    os.makedirs(os.path.join(src, "images"))
    pgm.write_unit(os.path.join(src, "images", "a.pgm"),
                   np.zeros((32, 32), dtype=np.float32))
    M.write_manifest(M.manifest_path(src, "train"),
                     [M.Record("images/a.pgm", "neg")])
    with pytest.raises(DataError, match="every image failed"):
        preprocess.preprocess_dataset(src, str(tmp_path / "pre"),
                                      mask_mode="threshold", out_size=32)


def test_preprocess_external_needs_mask_paths(tmp_path):
    src = str(tmp_path / "src")
    os.makedirs(os.path.join(src, "images"))
    pgm.write_unit(os.path.join(src, "images", "a.pgm"),
                   np.full((32, 32), 0.5, dtype=np.float32))
    M.write_manifest(M.manifest_path(src, "train"),
                     [M.Record("images/a.pgm", "pos")])
    with pytest.raises(DataError, match="every image failed"):
        preprocess.preprocess_dataset(src, str(tmp_path / "pre"),
                                      mask_mode="external", out_size=32)


def test_preprocess_no_manifest_is_error(tmp_path):
    with pytest.raises(DataError, match="no manifest"):
        preprocess.preprocess_dataset(str(tmp_path), str(tmp_path / "o"))


def test_second_pass_reproduces_bytes(tmp_path):
    # organs big enough that the crop clamps to the full frame
    params = phantoms.PhantomParams.easy(size=48)
    params.organ_scale = (0.48, 0.495)
    src = make_dataset(tmp_path, n=4, seed=31, size=48, params=params)
    p1 = str(tmp_path / "p1")
    p2 = str(tmp_path / "p2")
    preprocess.preprocess_dataset(src, p1, mask_mode="external", out_size=48)
    preprocess.preprocess_dataset(p1, p2, mask_mode="external", out_size=48)
    names = sorted(os.listdir(os.path.join(p1, "images")))
    assert names
    for n in names:
        b1 = Path(os.path.join(p1, "images", n)).read_bytes()
        b2 = Path(os.path.join(p2, "images", n)).read_bytes()
        assert b1 == b2, n
        m1 = Path(os.path.join(p1, "masks", n)).read_bytes()
        m2 = Path(os.path.join(p2, "masks", n)).read_bytes()
        assert m1 == m2, n

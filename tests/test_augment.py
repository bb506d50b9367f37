import os
import tracemalloc

import numpy as np
import pytest

from clamseg import augment, manifest, pgm, phantoms
from clamseg.errors import DataError
from clamseg.seeding import derive_rng


class ScriptRng:
    """Feeds scripted values to uniform/integers calls."""

    def __init__(self, uniforms, ints=()):
        self.uniforms = list(uniforms)
        self.ints = list(ints)

    def uniform(self, lo, hi, size=None):
        assert size is None
        v = self.uniforms.pop(0)
        assert lo <= v <= hi
        return v

    def integers(self, n):
        return self.ints.pop(0)


def phantom_image(seed=0, size=64):
    rng = derive_rng(seed, "phantom", "0000")
    img, _, _, _ = phantoms.make_phantom(rng, phantoms.PhantomParams.easy(size=size), True)
    return img


def test_blur_preserves_dims_and_records_r():
    img = phantom_image()
    out, draws = augment.blur(img, derive_rng(1, "t"))
    assert out.shape == img.shape
    assert 0.90 <= draws["r"] < 1.00
    assert out.dtype == np.float32


def test_blur_constant_image_unchanged():
    img = np.full((32, 32), 0.37, dtype=np.float32)
    out, _ = augment.blur(img, derive_rng(2, "t"))
    assert np.allclose(out, 0.37, atol=1e-6)


def test_blur_actually_blurs():
    img = np.zeros((32, 32), dtype=np.float32)
    img[16, 16] = 1.0
    out, _ = augment.blur(img, derive_rng(3, "t"))
    assert out[16, 16] < 1.0
    assert out.sum() == pytest.approx(img.sum(), rel=0.2)


def test_distort_identity_on_unit_scales():
    img = phantom_image()
    out, draws = augment.distort(img, ScriptRng([1.0, 1.0], [0]))
    assert np.array_equal(out, img)
    assert draws == {"sx": 1.0, "sy": 1.0, "pad": False}


def test_distort_pad_branch_geometry():
    img = np.full((256, 256), 0.5, dtype=np.float32)
    out, draws = augment.distort(img, ScriptRng([0.8, 0.8], [1]))
    assert draws["pad"] is True
    # 0.8 * 256 rounds half-up to 205; centered offset floors to 25
    content = out[25:230, 25:230]
    assert np.allclose(content, 0.5, atol=1e-6)
    border = out.copy()
    border[25:230, 25:230] = 0.0
    assert border.max() == 0.0


def test_distort_resize_branch_restores_dims():
    img = phantom_image()
    out, draws = augment.distort(img, ScriptRng([0.85, 0.92], [0]))
    assert out.shape == img.shape
    assert draws["pad"] is False


@pytest.mark.parametrize("op,keys,los,his,strict_hi", [
    ("blur", ("r",), (0.90,), (1.00,), True),
    ("distort", ("sx", "sy"), (0.80, 0.80), (1.00, 1.00), False),
])
def test_draw_ranges_and_coverage(op, keys, los, his, strict_hi):
    img = np.full((16, 16), 0.5, dtype=np.float32)
    fn = getattr(augment, op)
    seen = {k: [] for k in keys}
    rng = derive_rng(123, "ranges", op)
    for _ in range(1000):
        _, draws = fn(img, rng)
        for k in keys:
            seen[k].append(draws[k])
    for k, lo, hi in zip(keys, los, his):
        v = np.array(seen[k])
        assert v.min() >= lo
        assert v.max() < hi if strict_hi else v.max() <= hi
        # draws should cover at least 90% of the admissible range
        assert v.max() - v.min() >= 0.9 * (hi - lo)


def test_tile_counts_and_reassembly():
    img = phantom_image(size=64)
    tiles = augment.tile(img, 16)
    assert len(tiles) == 16
    assert tiles[0][0] == (0, 0) and tiles[1][0] == (0, 1) and tiles[4][0] == (1, 0)
    back = np.zeros_like(img)
    for (r, c), sl in tiles:
        back[r * 16:(r + 1) * 16, c * 16:(c + 1) * 16] = sl
    assert np.array_equal(back, img)

    whole = augment.tile(img, 64)
    assert len(whole) == 1
    assert np.array_equal(whole[0][1], img)


def test_tile_rejects_bad_size():
    with pytest.raises(ValueError, match="divide"):
        augment.tile(np.zeros((64, 64), dtype=np.float32), 24)


def make_batch(n_pos=2, n_neg=2, size=64, eta=None):
    batch = []
    for i in range(n_pos + n_neg):
        rng = derive_rng(50 + i, "phantom", "0000")
        pos = i < n_pos
        img, _, _, _ = phantoms.make_phantom(rng, phantoms.PhantomParams.easy(size=size), pos)
        batch.append(augment.BatchImage(name=f"img_{i:04d}.pgm",
                                        label="pos" if pos else "neg",
                                        pixels=pgm.from_unit(img), eta=eta if pos else None))
    return batch


def test_make_pairs_counts_and_kinds():
    policy = augment.PairPolicy(n_augment=3, n_normal=2, n_cross=2, tile_size=16, default_eta=0.5)
    pairs = augment.make_pairs(make_batch(), seed=7, policy=policy)
    assert [p.kind for p in pairs] == ["augment"] * 3 + ["normal"] * 2 + ["cross"] * 2
    for p in pairs:
        assert p.slice_a.shape == (16, 16) and p.slice_b.shape == (16, 16)
        assert p.slice_a.dtype == np.float32 and p.slice_b.dtype == np.float32
        assert 0.0 <= p.slice_a.min() and p.slice_a.max() <= 1.0
        assert 0.0 <= p.slice_b.min() and p.slice_b.max() <= 1.0


def test_augment_pair_is_tile_plus_twin():
    policy = augment.PairPolicy(n_augment=2, n_normal=0, n_cross=0, tile_size=16, default_eta=0.5)
    batch = make_batch()
    pairs = augment.make_pairs(batch, seed=11, policy=policy)
    by_name = {b.name: b.image for b in batch}
    for p in pairs:
        assert p.source_a == p.source_b
        (r, c) = p.coords
        raw = by_name[p.source_a][r * 16:(r + 1) * 16, c * 16:(c + 1) * 16]
        assert np.array_equal(p.slice_a, raw)
        assert not np.array_equal(p.slice_b, raw)
        assert set(p.draws["b"]) == {"r", "sx", "sy", "pad"}
        assert p.eta == 1.0


def test_normal_pairs_use_negative_sources():
    policy = augment.PairPolicy(n_augment=0, n_normal=4, n_cross=0, tile_size=16, default_eta=0.5)
    batch = make_batch()
    labels = {b.name: b.label for b in batch}
    for p in augment.make_pairs(batch, seed=13, policy=policy):
        assert labels[p.source_a] == "neg"
        assert labels[p.source_b] == "neg"
        assert p.eta == 1.0
        assert set(p.draws) == {"a", "b"}


def test_cross_pair_eta_from_manifest_or_default():
    policy = augment.PairPolicy(n_augment=0, n_normal=0, n_cross=3, tile_size=16,
                                default_eta=0.33)
    labels = {}
    batch = make_batch(eta=0.8)
    labels = {b.name: b.label for b in batch}
    for p in augment.make_pairs(batch, seed=17, policy=policy):
        assert labels[p.source_a] == "pos" and labels[p.source_b] == "neg"
        assert p.eta == 0.8

    batch = make_batch(eta=None)
    for p in augment.make_pairs(batch, seed=17, policy=policy):
        assert p.eta == 0.33


def test_make_pairs_missing_class_errors():
    policy = augment.PairPolicy(n_augment=0, n_normal=1, n_cross=0, tile_size=16, default_eta=0.5)
    with pytest.raises(DataError, match="negative"):
        augment.make_pairs(make_batch(n_pos=2, n_neg=0), seed=1, policy=policy)
    policy = augment.PairPolicy(n_augment=0, n_normal=0, n_cross=1, tile_size=16, default_eta=0.5)
    with pytest.raises(DataError, match="positive"):
        augment.make_pairs(make_batch(n_pos=0, n_neg=2), seed=1, policy=policy)
    with pytest.raises(DataError, match="empty"):
        augment.make_pairs([], seed=1, policy=policy)


def test_make_pairs_deterministic_stream():
    policy = augment.PairPolicy(n_augment=2, n_normal=2, n_cross=2, tile_size=16, default_eta=0.5)
    a = augment.make_pairs(make_batch(), seed=23, policy=policy)
    b = augment.make_pairs(make_batch(), seed=23, policy=policy)
    for pa, pb in zip(a, b):
        assert pa.slice_a.tobytes() == pb.slice_a.tobytes()
        assert pa.slice_b.tobytes() == pb.slice_b.tobytes()
        assert pa.draws == pb.draws and pa.coords == pb.coords
        assert (pa.source_a, pa.source_b, pa.eta) == (pb.source_a, pb.source_b, pb.eta)
    c = augment.make_pairs(make_batch(), seed=24, policy=policy)
    assert any(pa.slice_b.tobytes() != pc.slice_b.tobytes() for pa, pc in zip(a, c))


def test_pair_indices_get_distinct_draws():
    policy = augment.PairPolicy(n_augment=6, n_normal=0, n_cross=0, tile_size=16, default_eta=0.5)
    pairs = augment.make_pairs(make_batch(), seed=29, policy=policy)
    rs = {p.draws["b"]["r"] for p in pairs}
    assert len(rs) == 6


def test_load_batch(tmp_path):
    out = str(tmp_path / "ds")
    phantoms.generate_phantoms(out, 6, 0.5, seed=3,
                               params=phantoms.PhantomParams.easy(size=32))
    paths = {os.path.basename(r.image): os.path.join(out, r.image)
             for r in manifest.read_manifest(manifest.manifest_path(out, "train"))}
    batch = augment.load_batch(out, "train")
    assert batch
    for b in batch:
        assert b.image.shape == (32, 32)
        assert b.label in ("pos", "neg")
        assert b.eta is None
        # the batch holds the read-only 8-bit raster; image converts on each read
        assert b.pixels.dtype == np.uint8 and b.pixels.shape == (32, 32)
        assert not b.pixels.flags.writeable
        img = b.image
        assert img.dtype == np.float32
        assert np.array_equal(img, pgm.read_unit(paths[b.name]))
        img[:] = 0.0
        assert np.array_equal(b.image, pgm.read_unit(paths[b.name]))


def test_load_batch_holds_about_one_byte_a_pixel(tmp_path):
    out = str(tmp_path / "ds")
    phantoms.generate_phantoms(out, 20, 0.5, seed=5,
                               params=phantoms.PhantomParams.easy(size=64))
    n = len(manifest.read_manifest(manifest.manifest_path(out, "train")))
    augment.load_batch(out, "train")  # warm imports and caches
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        batch = augment.load_batch(out, "train")
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(batch) == n
    # a float32 copy per image would hold over 4 bytes a pixel
    assert held < 1.5 * n * 64 * 64


def test_make_pairs_converts_at_most_two_images_a_pair(monkeypatch):
    calls = []
    to_unit = pgm.to_unit

    def spy(img8):
        calls.append(img8.shape)
        return to_unit(img8)

    monkeypatch.setattr(pgm, "to_unit", spy)
    batch = make_batch(n_pos=10, n_neg=10)
    policy = augment.PairPolicy(n_augment=3, n_normal=2, n_cross=2, tile_size=16, default_eta=0.5)
    pairs = augment.make_pairs(batch, seed=31, policy=policy)
    assert len(pairs) == 7
    # validating the 20 images must not convert them
    assert len(calls) <= 2 * len(pairs)

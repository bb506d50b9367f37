"""Image-op tests: scalar resize oracle, Otsu brute force, and exact oracles
for the distance transform, the largest component and the closing, also
cross-checked against scipy.ndimage when it is installed."""

import math
from collections import deque

import numpy as np
import pytest

from clamseg import imops, phantoms
from clamseg import tensor as T


def resize_scalar_oracle(img, out_h, out_w):
    h, w = img.shape
    out = np.zeros((out_h, out_w))

    def px(i, j):
        return float(img[min(max(i, 0), h - 1), min(max(j, 0), w - 1)])

    for r in range(out_h):
        for c in range(out_w):
            sr = (r + 0.5) * h / out_h - 0.5
            sc = (c + 0.5) * w / out_w - 0.5
            fr, fc = math.floor(sr), math.floor(sc)
            tr, tc = sr - fr, sc - fc
            out[r, c] = ((1 - tr) * (1 - tc) * px(fr, fc) + (1 - tr) * tc * px(fr, fc + 1)
                         + tr * (1 - tc) * px(fr + 1, fc) + tr * tc * px(fr + 1, fc + 1))
    return out


def otsu_brute_force(img):
    hist, edges = np.histogram(np.asarray(img, dtype=np.float64), bins=256, range=(0.0, 1.0))
    centers = (edges[:-1] + edges[1:]) / 2
    best_k, best_v = 0, -1.0
    for k in range(256):
        w0, w1 = hist[:k + 1].sum(), hist[k + 1:].sum()
        if w0 == 0 or w1 == 0:
            continue
        m0 = (hist[:k + 1] * centers[:k + 1]).sum() / w0
        m1 = (hist[k + 1:] * centers[k + 1:]).sum() / w1
        v = w0 * w1 * (m0 - m1) ** 2
        if v > best_v:
            best_k, best_v = k, v
    return float(edges[best_k + 1])


def edt_brute_force(mask):
    """Min over every background pixel of the Euclidean distance, per pixel."""
    fg, bg = np.argwhere(mask), np.argwhere(~mask)
    out = np.zeros(mask.shape)
    if len(fg) and not len(bg):
        out[mask] = math.inf
    elif len(fg):
        sq = ((fg[:, None, :] - bg[None, :, :]) ** 2).sum(axis=2)
        out[mask] = np.sqrt(sq.min(axis=1).astype(np.float64))
    return out


def largest_component_bfs(mask):
    """Breadth-first 4-connected labels in raster order of first pixels; the
    first of the largest components."""
    h, w = mask.shape
    seen = np.zeros_like(mask)
    best = []
    for y0 in range(h):
        for x0 in range(w):
            if not mask[y0, x0] or seen[y0, x0]:
                continue
            seen[y0, x0] = True
            comp, queue = [], deque([(y0, x0)])
            while queue:
                y, x = queue.popleft()
                comp.append((y, x))
                for ny, nx in ((y - 1, x), (y + 1, x), (y, x - 1), (y, x + 1)):
                    if 0 <= ny < h and 0 <= nx < w and mask[ny, nx] and not seen[ny, nx]:
                        seen[ny, nx] = True
                        queue.append((ny, nx))
            if len(comp) > len(best):
                best = comp
    out = np.zeros_like(mask)
    for y, x in best:
        out[y, x] = True
    return out


def close_loop(mask):
    """3x3 dilation then erosion by neighbourhood loops; outside is background."""
    h, w = mask.shape

    def at(m, y, x):
        return 0 <= y < h and 0 <= x < w and m[y, x]

    def hood(y, x):
        return [(y + dy, x + dx) for dy in (-1, 0, 1) for dx in (-1, 0, 1)]

    dil = np.array([[any(at(mask, *p) for p in hood(y, x)) for x in range(w)] for y in range(h)])
    return np.array([[all(at(dil, *p) for p in hood(y, x)) for x in range(w)] for y in range(h)])


def random_masks(seed, count, max_side):
    """Masks of random shape and density, from empty to full."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        shape = tuple(int(n) for n in rng.integers(1, max_side + 1, 2))
        yield rng.random(shape) < rng.random()


def phantom_organs(size, count):
    """Organ ellipses of the phantom generator at one image size."""
    return [phantoms.make_phantom(np.random.default_rng(size + i),
                                  phantoms.PhantomParams.easy(size=size), True)[2]
            for i in range(count)]


def test_round_half_up():
    assert imops.round_half_up(2.5) == 3
    assert imops.round_half_up(3.5) == 4
    assert imops.round_half_up(-0.5) == 0
    assert imops.round_half_up(0.49) == 0
    assert imops.round_half_up(204.8) == 205


@pytest.mark.parametrize("shape,out", [((4, 6), (8, 3)), ((5, 5), (7, 7)),
                                       ((3, 4), (3, 4)), ((6, 2), (2, 6)),
                                       ((64, 64), (58, 58)), ((51, 51), (64, 64))])
def test_resize_matches_scalar_oracle(shape, out):
    # 64 -> 58 and 51 -> 64 are augmentation zoom sizes; an integer image
    # resizes in float64
    rng = np.random.default_rng(sum(shape) * 10 + sum(out))
    img = rng.uniform(0, 1, shape)
    for src in (img, (img * 255).astype(np.uint8)):
        got = imops.bilinear_resize(src, out)
        assert got.dtype == np.float64
        np.testing.assert_allclose(got, resize_scalar_oracle(src, *out), atol=1e-12)


def test_resize_axis_taps_are_read_only():
    imops.bilinear_resize(np.zeros((6, 5)), (4, 9))
    for arr in imops._axis_taps(6, 4) + imops._axis_taps(5, 9):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0


def test_resize_identity_and_constants():
    rng = np.random.default_rng(3)
    img = rng.uniform(0, 1, (5, 7))
    np.testing.assert_allclose(imops.bilinear_resize(img, (5, 7)), img, atol=1e-12)
    const = np.full((6, 6), 0.37)
    np.testing.assert_allclose(imops.bilinear_resize(const, (4, 9)), 0.37, atol=1e-12)


def test_resize_double_agrees_with_model_upsampler():
    # one projectwide convention: the data-side resize at exactly 2x matches
    # the autodiff upsample op
    rng = np.random.default_rng(4)
    img = rng.uniform(0, 1, (5, 4))
    via_op = T.upsample_bilinear2x(T.Tensor(img[None, None], dtype=np.float64)).data[0, 0]
    via_resize = imops.bilinear_resize(img, (10, 8))
    np.testing.assert_allclose(via_resize, via_op, atol=1e-12)


def test_resize_validation():
    with pytest.raises(ValueError):
        imops.bilinear_resize(np.zeros((2, 2, 2)), (4, 4))
    with pytest.raises(ValueError):
        imops.bilinear_resize(np.zeros((2, 2)), (0, 4))


def test_pad_center_offsets_and_fill():
    img = np.ones((205, 205))
    out = imops.pad_center(img, 256, 256)
    assert out.shape == (256, 256)
    assert out[25:230, 25:230].min() == 1.0
    assert out[:25].max() == 0.0 and out[230:].max() == 0.0
    assert out[:, :25].max() == 0.0 and out[:, 230:].max() == 0.0
    with pytest.raises(ValueError):
        imops.pad_center(np.ones((10, 10)), 8, 12)


@pytest.mark.parametrize("seed", range(6))
def test_otsu_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    img = np.concatenate([rng.normal(0.2, 0.05, 300), rng.normal(0.7, 0.08, 200)])
    img = np.clip(img, 0, 1).reshape(20, 25)
    assert imops.otsu_threshold(img) == pytest.approx(otsu_brute_force(img), abs=1e-12)


def test_otsu_separates_bimodal_phantom_like_image():
    rng = np.random.default_rng(9)
    img = rng.uniform(0.0, 0.06, (32, 32))
    img[8:24, 8:24] = rng.uniform(0.45, 0.75, (16, 16))
    t = imops.otsu_threshold(img)
    fg = img > t
    want = np.zeros((32, 32), dtype=bool)
    want[8:24, 8:24] = True
    np.testing.assert_array_equal(fg, want)


def test_largest_component_uses_4_connectivity():
    mask = np.zeros((5, 5), dtype=bool)
    mask[0, 0] = True         # single pixel
    mask[2:4, 2:4] = True     # 2x2 block
    mask[4, 4] = True         # diagonal neighbor of the block: separate under 4-conn
    out = imops.largest_component(mask)
    want = np.zeros((5, 5), dtype=bool)
    want[2:4, 2:4] = True
    np.testing.assert_array_equal(out, want)


def test_largest_component_empty_mask():
    out = imops.largest_component(np.zeros((4, 4), dtype=bool))
    assert not out.any()


def test_close_3x3_fills_small_holes_and_keeps_blobs():
    mask = np.zeros((9, 9), dtype=bool)
    mask[2:7, 2:7] = True
    mask[4, 4] = False  # pinhole
    closed = imops.close_3x3(mask)
    assert closed[4, 4]
    assert closed[2:7, 2:7].all()
    assert closed.sum() == 25


def test_edt_matches_brute_force_on_random_masks():
    for mask in random_masks(11, 300, 12):
        assert np.array_equal(imops.distance_transform_edt(mask), edt_brute_force(mask))


def test_edt_special_masks():
    one_bg = np.ones((5, 7), dtype=bool)
    one_bg[4, 0] = False  # a single background pixel, in a corner
    border = np.zeros((6, 6), dtype=bool)
    border[:, :4] = True  # touches three sides of the image
    ring = np.ones((7, 7), dtype=bool)
    ring[3, 3] = False  # a hole in a mask that fills the frame
    for mask in (one_bg, border, ring, np.zeros((4, 5), dtype=bool), np.ones((1, 1), dtype=bool)):
        assert np.array_equal(imops.distance_transform_edt(mask), edt_brute_force(mask))
    assert imops.distance_transform_edt(one_bg)[0, 6] == math.sqrt(4 ** 2 + 6 ** 2)
    assert not imops.distance_transform_edt(np.zeros((3, 3), dtype=bool)).any()
    assert np.isinf(imops.distance_transform_edt(np.ones((2, 3), dtype=bool))).all()
    assert imops.distance_transform_edt(border).dtype == np.float64
    with pytest.raises(ValueError):
        imops.distance_transform_edt(np.ones(4, dtype=bool))


def test_edt_matches_brute_force_on_a_phantom_organ():
    organ = phantom_organs(64, 1)[0]
    assert np.array_equal(imops.distance_transform_edt(organ), edt_brute_force(organ))


def test_largest_component_matches_bfs_on_random_masks():
    for mask in random_masks(12, 300, 16):
        assert np.array_equal(imops.largest_component(mask), largest_component_bfs(mask))


def test_largest_component_tie_goes_to_the_first_in_raster_order():
    mask = np.zeros((6, 6), dtype=bool)
    mask[4:6, 0:2] = True  # size 4, first pixel (4, 0)
    mask[0, 2:6] = True    # size 4, first pixel (0, 2): comes first
    mask[2:5, 4] = True    # size 3
    want = np.zeros_like(mask)
    want[0, 2:6] = True
    assert np.array_equal(largest_component_bfs(mask), want)
    assert np.array_equal(imops.largest_component(mask), want)
    # a U whose arms meet only at the bottom is one component, rooted at its
    # first pixel although its right arm starts on the same row
    u = np.zeros((5, 5), dtype=bool)
    u[0:5, 0] = u[0:5, 4] = u[4, :] = True
    mask = u.copy()
    mask[0:2, 2] = True
    assert np.array_equal(imops.largest_component(mask), u)


def test_close_3x3_matches_neighbourhood_loops_on_random_masks():
    for mask in random_masks(13, 300, 12):
        assert np.array_equal(imops.close_3x3(mask), close_loop(mask))


def test_mask_ops_match_scipy_ndimage():
    ndimage = pytest.importorskip("scipy.ndimage")
    cross = ndimage.generate_binary_structure(2, 1)
    box = np.ones((3, 3), dtype=bool)

    def scipy_largest(mask):
        labels, n = ndimage.label(mask, structure=cross)
        if n == 0:
            return np.zeros_like(mask)
        sizes = ndimage.sum_labels(mask, labels, index=np.arange(1, n + 1))
        return labels == int(np.argmax(sizes)) + 1

    for mask in random_masks(14, 1200, 40):
        if not mask.all():  # scipy has no defined distance without a background pixel
            assert np.array_equal(imops.distance_transform_edt(mask),
                                  ndimage.distance_transform_edt(mask))
        assert np.array_equal(imops.largest_component(mask), scipy_largest(mask))
        assert np.array_equal(imops.close_3x3(mask),
                              ndimage.binary_erosion(ndimage.binary_dilation(mask, box), box))
    for size in (64, 128, 256):
        for organ in phantom_organs(size, 8):
            assert np.array_equal(imops.distance_transform_edt(organ),
                                  ndimage.distance_transform_edt(organ))

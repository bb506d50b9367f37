"""Plain-numpy image operations shared by phantoms, preprocessing and augmentation.

All resampling here uses the same half-pixel bilinear convention as the
model's upsampler: output pixel j on an axis of length ``out`` reads source
coordinate ``(j + 0.5) * in / out - 0.5`` with clamped neighbor gather.
Integer sizing decisions use round-half-up, floor(x + 0.5).

The binary-mask operations are exact and need nothing but numpy: a Euclidean
distance transform (a separable pass in integer squared distances, after
Felzenszwalb & Huttenlocher 2012), the largest 4-connected component
(union-find with pointer jumping over row runs) and a 3x3 closing.  Their
outputs equal those of ``scipy.ndimage``'s ``distance_transform_edt``,
``label`` + ``sum_labels`` + ``argmax`` and ``binary_dilation`` +
``binary_erosion``.
"""

from functools import lru_cache

import numpy as np


def round_half_up(x):
    """floor(x + 0.5) as int; ties like 2.5 go up (no banker's rounding)."""
    return int(np.floor(float(x) + 0.5))


@lru_cache(maxsize=128)
def _axis_taps(n_in, n_out):
    """(i0, i1, t) of one axis, read-only: output j = (1 - t[j]) * x[i0[j]] + t[j] * x[i1[j]].

    Bounded, because preprocessing resizes crops of arbitrary sides.
    """
    dst = np.arange(n_out)
    src = (dst + 0.5) * (n_in / n_out) - 0.5
    f = np.floor(src)
    t = src - f
    i0 = np.clip(f, 0, n_in - 1).astype(np.intp)
    i1 = np.clip(f + 1, 0, n_in - 1).astype(np.intp)
    for a in (i0, i1, t):
        a.flags.writeable = False
    return i0, i1, t


def bilinear_resize(img, out_hw):
    """Resize a 2-d float array to (out_h, out_w), half-pixel centers.

    Separable: one two-tap lerp along the rows, then one along the columns.
    """
    img = np.asarray(img)
    if img.ndim != 2:
        raise ValueError(f"bilinear_resize expects a 2-d array, got shape {img.shape}")
    out_h, out_w = int(out_hw[0]), int(out_hw[1])
    if out_h < 1 or out_w < 1:
        raise ValueError(f"bad output size {out_hw}")
    dtype = img.dtype if img.dtype.kind == "f" else np.float64
    r0, r1, tr = _axis_taps(img.shape[0], out_h)
    c0, c1, tc = _axis_taps(img.shape[1], out_w)
    tr = tr[:, None].astype(dtype)
    tc = tc.astype(dtype)
    rows = img[r0] * (1 - tr) + img[r1] * tr
    return rows[:, c0] * (1 - tc) + rows[:, c1] * tc


def pad_center(img, out_h, out_w):
    """Place img centered in an (out_h, out_w) zero canvas; odd slack floors
    the top/left offset."""
    img = np.asarray(img)
    h, w = img.shape
    if h > out_h or w > out_w:
        raise ValueError(f"content {img.shape} larger than canvas {(out_h, out_w)}")
    top = (out_h - h) // 2
    left = (out_w - w) // 2
    out = np.zeros((out_h, out_w), dtype=img.dtype)
    out[top:top + h, left:left + w] = img
    return out


def otsu_threshold(img):
    """Otsu's between-class-variance threshold of a [0,1] image, 256 bins.

    Returns the threshold as a float in [0,1); pixels strictly above it are
    foreground.
    """
    img = np.asarray(img, dtype=np.float64)
    hist, edges = np.histogram(img, bins=256, range=(0.0, 1.0))
    total = hist.sum()
    if total == 0:
        raise ValueError("empty image")
    centers = (edges[:-1] + edges[1:]) / 2
    weight = hist / total
    omega = np.cumsum(weight)
    mu = np.cumsum(weight * centers)
    mu_t = mu[-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        sigma_b = (mu_t * omega - mu) ** 2 / (omega * (1 - omega))
    sigma_b[~np.isfinite(sigma_b)] = 0
    k = int(np.argmax(sigma_b))
    return float(edges[k + 1])


_EDT_BLOCK = 1 << 18  # 1 MB of int32 per block of the row pass


def _column_sq_distance(box):
    """Squared distance from each pixel to the nearest False pixel of its column.

    A column without one gets (h + w)**2, more than any squared distance
    inside the box.
    """
    h, w = box.shape
    far = h + w
    idx = np.arange(h)[:, None]
    above = np.maximum.accumulate(np.where(box, -far, idx), axis=0)
    below = np.minimum.accumulate(np.where(box, h + far, idx)[::-1], axis=0)[::-1]
    g = np.minimum(np.minimum(idx - above, below - idx), far)
    return g * g


def distance_transform_edt(mask):
    """Euclidean distance from each True pixel of a 2-d mask to the nearest False one.

    False pixels get 0; a mask without any False pixel gets inf everywhere.
    Exact: the distances are squared integers until one float64 ``sqrt``.
    The pass runs on the True pixels' bounding box grown by 1 pixel, which
    holds the nearest False pixel of every pixel inside it.  The row pass is
    a dense min over the box's columns, in blocks of rows of about
    ``_EDT_BLOCK`` elements.
    """
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim != 2:
        raise ValueError(f"distance_transform_edt expects a 2-d mask, got shape {mask.shape}")
    if mask.all():
        return np.full(mask.shape, np.inf)
    out = np.zeros(mask.shape)
    if not mask.any():
        return out
    rows = np.flatnonzero(mask.any(axis=1))
    cols = np.flatnonzero(mask.any(axis=0))
    r0, r1 = max(int(rows[0]) - 1, 0), min(int(rows[-1]) + 2, mask.shape[0])
    c0, c1 = max(int(cols[0]) - 1, 0), min(int(cols[-1]) + 2, mask.shape[1])
    col_sq = _column_sq_distance(mask[r0:r1, c0:c1])
    h, w = col_sq.shape
    # every sum below stays under 2 * (h + w)**2: int32 unless that could wrap
    dtype = np.int32 if 2 * (h + w) ** 2 < 2 ** 31 else np.int64
    col_sq = col_sq.astype(dtype)
    j = np.arange(w, dtype=dtype)
    sq_offset = (j[:, None] - j[None, :]) ** 2
    sq = np.empty_like(col_sq)
    step = max(1, _EDT_BLOCK // (w * w))
    for i in range(0, h, step):
        sq[i:i + step] = (col_sq[i:i + step, None, :] + sq_offset).min(axis=2)
    out[r0:r1, c0:c1] = np.sqrt(sq.astype(np.float64))
    return out


def largest_component(mask):
    """Largest 4-connected component of a boolean mask (empty stays empty).

    Of components of equal size, the one whose first pixel comes first in
    raster order wins.  Union-find with pointer jumping over the mask's
    runs (maximal stretches of True along a row), numbered in raster order.
    """
    mask = np.asarray(mask, dtype=bool)
    if not mask.any():
        return np.zeros_like(mask)
    starts = mask.copy()
    starts[:, 1:] &= ~mask[:, :-1]
    run = np.cumsum(starts.ravel()).reshape(mask.shape) - 1  # on background: the run before
    # one link per stretch of columns where a run touches a run of the next row
    down = mask[:-1] & mask[1:]
    link = down.copy()
    link[:, 1:] &= ~down[:, :-1]
    a, b = run[:-1][link], run[1:][link]
    # every root is its component's first run, which holds its first pixel
    root = np.arange(int(starts.sum()))
    while True:
        ra, rb = root[a], root[b]
        hook = ra != rb
        if not hook.any():
            break
        np.minimum.at(root, np.maximum(ra[hook], rb[hook]), np.minimum(ra[hook], rb[hook]))
        while True:
            jumped = root[root]
            if np.array_equal(jumped, root):
                break
            root = jumped
    sizes = np.bincount(root[run[mask]])
    return mask & (root[run] == int(np.argmax(sizes)))


def _box_3x3(mask, op):
    """op (logical or/and) over each pixel's 3x3 neighbourhood; outside pixels are False."""
    p = np.pad(mask, 1)
    rows = op(op(p[:, :-2], p[:, 1:-1]), p[:, 2:])
    return op(op(rows[:-2], rows[1:-1]), rows[2:])


def close_3x3(mask):
    """One pass of 3x3 morphological closing (dilate then erode).

    Pixels outside the image count as background in both steps, so the
    image's border pixels always come out False.
    """
    mask = np.asarray(mask, dtype=bool)
    return _box_3x3(_box_3x3(mask, np.logical_or), np.logical_and)

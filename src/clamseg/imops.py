"""Plain-numpy image operations shared by preprocessing and augmentation.

All resampling here uses the same half-pixel bilinear convention as the
model's upsampler: output pixel j on an axis of length ``out`` reads source
coordinate ``(j + 0.5) * in / out - 0.5`` with clamped neighbor gather.
Integer sizing decisions use round-half-up, floor(x + 0.5).
"""

from functools import lru_cache

import numpy as np
from scipy import ndimage


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


_CROSS = ndimage.generate_binary_structure(2, 1)  # 4-connectivity


def largest_component(mask):
    """Largest 4-connected component of a boolean mask (empty stays empty)."""
    mask = np.asarray(mask, dtype=bool)
    labels, n = ndimage.label(mask, structure=_CROSS)
    if n == 0:
        return np.zeros_like(mask)
    sizes = ndimage.sum_labels(mask, labels, index=np.arange(1, n + 1))
    return labels == (int(np.argmax(sizes)) + 1)


def close_3x3(mask):
    """One pass of 3x3 morphological closing (dilate then erode)."""
    mask = np.asarray(mask, dtype=bool)
    box = np.ones((3, 3), dtype=bool)
    dilated = ndimage.binary_dilation(mask, structure=box)
    return ndimage.binary_erosion(dilated, structure=box)

"""Organ-focused preprocessing: mask, crop, square-pad, resize.

The organ mask comes either from the manifest (``external`` mode) or from a
classical stub (``threshold`` mode: Otsu threshold, largest 4-connected
component, one 3x3 closing pass).  Pixels outside the mask are zeroed before
cropping so background never leaks into the resampled frame.  The crop is the
mask bounding box plus a 4-pixel margin (clamped), padded to square, then
resampled bilinearly to the output size.

Each kept image's hidden evaluation mask (``eval_masks/<name>``, when the
input has one) goes through the same crop, pad and resize once, cut at 0.5
(organ masks are cut at 0.0), into the output's ``eval_masks/``.  So a
preprocessed tree has a generated tree's layout and needs nothing from its
source.  No manifest lists a hidden mask.
"""

import os

import numpy as np

from . import pgm
from .errors import DataError
from .imops import bilinear_resize, close_3x3, largest_component, otsu_threshold, pad_center
from .manifest import (SPLITS, Record, manifest_path, read_manifest, remove_manifests,
                       write_manifest)

CROP_MARGIN = 4


def organ_mask_threshold(img):
    """Classical organ stub; may return an all-false mask."""
    try:
        t = otsu_threshold(img)
    except ValueError:
        return np.zeros(img.shape, dtype=bool)
    comp = largest_component(img > t)
    if not comp.any():
        return comp
    return close_3x3(comp)


def _reframe(arr, geom):
    """The crop, square-pad and resize chain of one geometry, in float64."""
    # float64 before padding: the resize runs in its input's dtype
    crop = arr[geom["r0"]:geom["r1"], geom["c0"]:geom["c1"]].astype(np.float64)
    square = pad_center(crop, geom["side"], geom["side"])
    return bilinear_resize(square, (geom["out_size"], geom["out_size"]))


def crop_and_resize(image, mask, out_size):
    """Apply the mask-zero / crop / pad-square / resize chain to one image."""
    if image.shape != mask.shape:
        raise ValueError(f"image {image.shape} vs mask {mask.shape}")
    if not mask.any():
        raise DataError("empty organ mask")
    h, w = image.shape
    rows = np.flatnonzero(mask.any(axis=1))
    cols = np.flatnonzero(mask.any(axis=0))
    r0 = max(int(rows[0]) - CROP_MARGIN, 0)
    r1 = min(int(rows[-1]) + 1 + CROP_MARGIN, h)
    c0 = max(int(cols[0]) - CROP_MARGIN, 0)
    c1 = min(int(cols[-1]) + 1 + CROP_MARGIN, w)
    side = max(r1 - r0, c1 - c0)
    geom = {"r0": r0, "c0": c0, "r1": r1, "c1": c1,
            "top": (side - (r1 - r0)) // 2, "left": (side - (c1 - c0)) // 2,
            "side": side, "out_size": out_size, "src_h": h, "src_w": w}
    out = _reframe(np.where(mask, image, 0.0), geom).astype(np.float32)
    return out, geom


def transform_mask(mask, geom, threshold=0.5):
    """Map a source-frame binary mask through a crop geometry."""
    if mask.shape != (geom["src_h"], geom["src_w"]):
        raise ValueError(f"mask shape {mask.shape} does not match geometry")
    return _reframe(mask, geom) > threshold


def _read_mask(path, shape):
    mask = pgm.read_mask(path)
    if mask.shape != shape:
        raise DataError(f"{path}: mask {mask.shape} vs image {shape}")
    return mask


def preprocess_dataset(in_dir, out_dir, mask_mode="external", out_size=256):
    """Preprocess every split manifest found in in_dir.

    Images whose organ mask comes out empty (or is missing in external mode)
    are skipped with a warning; if every image of a split fails, that is an
    error.  Returns a report dict with per-split counts and warnings.
    """
    if mask_mode not in ("external", "threshold"):
        raise ValueError(f"mask_mode must be external or threshold, got {mask_mode!r}")
    found = [s for s in SPLITS if os.path.exists(manifest_path(in_dir, s))]
    if not found:
        raise DataError(f"no manifest_*.tsv files found in {in_dir}")

    splits = {split: read_manifest(manifest_path(in_dir, split)) for split in found}
    img_dir = os.path.join(out_dir, "images")
    mask_dir = os.path.join(out_dir, "masks")
    os.makedirs(img_dir, exist_ok=True)
    os.makedirs(mask_dir, exist_ok=True)
    hidden_in = os.path.join(in_dir, "eval_masks")
    hidden_out = os.path.join(out_dir, "eval_masks")
    if os.path.isdir(hidden_in):
        os.makedirs(hidden_out, exist_ok=True)
    remove_manifests(out_dir)

    warnings = []
    counts = {}
    for split, records in splits.items():
        kept = []
        for rec in records:
            name = os.path.basename(rec.image)
            img = pgm.read_unit(os.path.join(in_dir, rec.image))
            if mask_mode == "external":
                if rec.mask is None:
                    warnings.append(f"{split}/{name}: no mask path in manifest, skipped")
                    continue
                mask = _read_mask(os.path.join(in_dir, rec.mask), img.shape)
            else:
                mask = organ_mask_threshold(img)
            if not mask.any():
                warnings.append(f"{split}/{name}: empty organ mask, skipped")
                continue
            out_img, geom = crop_and_resize(img, mask, out_size)
            # keep every pixel the resampler touched; a second pass is a no-op
            # only where this one shrank the crop (an enlarged crop's margin
            # grows, and a second pass finds a tighter box)
            out_mask = transform_mask(mask, geom, threshold=0.0)
            pgm.write_unit(os.path.join(img_dir, name), out_img)
            pgm.write_mask(os.path.join(mask_dir, name), out_mask)
            hidden = os.path.join(hidden_in, name)
            if os.path.exists(hidden):
                pgm.write_mask(os.path.join(hidden_out, name),
                               transform_mask(_read_mask(hidden, img.shape), geom))
            kept.append(Record(image=f"images/{name}", label=rec.label,
                               mask=f"masks/{name}", eta=rec.eta))
        if records and not kept:
            raise DataError(f"{split}: every image failed masking "
                            f"({len(warnings)} warnings)")
        write_manifest(manifest_path(out_dir, split), kept)
        counts[split] = {"in": len(records), "out": len(kept)}

    return {"splits": counts, "warnings": warnings}

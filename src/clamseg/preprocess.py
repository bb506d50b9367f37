"""Organ-focused preprocessing: mask, crop, square-pad, resize.

The organ mask comes either from the manifest (``external`` mode) or from a
classical stub (``threshold`` mode: Otsu threshold, largest 4-connected
component, one 3x3 closing pass).  Pixels outside the mask are zeroed before
cropping so background never leaks into the resampled frame.  The crop is the
mask bounding box plus a 4-pixel margin (clamped), padded to square, then
resampled bilinearly to the output size.

A ``geometry.tsv`` sidecar records the crop box and padding for every image,
and the source directory relative to the output directory, so that masks
living in the source frame (for example held-out evaluation masks) can be
mapped into the output frame later, also after both directories move together.
"""

import os

import numpy as np

from . import pgm
from .errors import DataError
from .files import read_text, write_atomic
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

    # float64 before padding: the resize runs in its input's dtype
    crop = np.where(mask, image, 0.0)[r0:r1, c0:c1].astype(np.float64)
    ch, cw = crop.shape
    side = max(ch, cw)
    square = pad_center(crop, side, side)

    out = bilinear_resize(square, (out_size, out_size)).astype(np.float32)
    geom = {"r0": r0, "c0": c0, "r1": r1, "c1": c1,
            "top": (side - ch) // 2, "left": (side - cw) // 2,
            "side": side, "out_size": out_size, "src_h": h, "src_w": w}
    return out, geom


def transform_mask(mask, geom, threshold=0.5):
    """Map a source-frame binary mask through a recorded crop geometry."""
    if mask.shape != (geom["src_h"], geom["src_w"]):
        raise ValueError(f"mask shape {mask.shape} does not match geometry")
    crop = mask[geom["r0"]:geom["r1"], geom["c0"]:geom["c1"]].astype(np.float64)
    square = pad_center(crop, geom["side"], geom["side"])
    out = bilinear_resize(square, (geom["out_size"], geom["out_size"]))
    return out > threshold


_GEOM_KEYS = ("r0", "c0", "r1", "c1", "top", "left", "side", "out_size",
              "src_h", "src_w")
_GEOM_HEADER = "name\t" + "\t".join(_GEOM_KEYS)


def write_geometry(out_dir, source_dir, geoms):
    rows = [f"# source\t{source_dir}", _GEOM_HEADER]
    rows += [name + "\t" + "\t".join(str(geoms[name][k]) for k in _GEOM_KEYS)
             for name in sorted(geoms)]
    write_atomic(os.path.join(out_dir, "geometry.tsv"), "".join(r + "\n" for r in rows))


def read_geometry(out_dir):
    """Returns (absolute source data dir, {image basename: geometry dict}).

    The recorded source dir is resolved against ``out_dir``; an absolute one
    stays itself.
    """
    path = os.path.join(out_dir, "geometry.tsv")
    lines = read_text(path, "geometry sidecar").splitlines()
    if not lines or not lines[0].startswith("# source\t"):
        raise DataError(f"{path}: missing source header")
    if lines[1:2] != [_GEOM_HEADER]:
        raise DataError(f"{path}: line 2 is not the column header {_GEOM_HEADER!r}")
    source_dir = os.path.abspath(os.path.join(out_dir, lines[0].split("\t", 1)[1]))
    geoms = {}
    for lineno, line in enumerate(lines[2:], start=3):
        if not line.strip():
            continue
        name, *fields = line.split("\t")
        try:
            values = [int(v) for v in fields]
        except ValueError:
            values = []
        if len(values) != len(_GEOM_KEYS):
            raise DataError(f"{path}:{lineno}: bad geometry row {line!r}")
        geoms[name] = dict(zip(_GEOM_KEYS, values))
    return source_dir, geoms


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
    remove_manifests(out_dir)

    warnings = []
    geoms = {}
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
                mask = pgm.read_mask(os.path.join(in_dir, rec.mask))
            else:
                mask = organ_mask_threshold(img)
            if not mask.any():
                warnings.append(f"{split}/{name}: empty organ mask, skipped")
                continue
            out_img, geom = crop_and_resize(img, mask, out_size)
            # keep every pixel the resampler touched so a second pass is a no-op
            out_mask = transform_mask(mask, geom, threshold=0.0)
            pgm.write_unit(os.path.join(img_dir, name), out_img)
            pgm.write_mask(os.path.join(mask_dir, name), out_mask)
            geoms[name] = geom
            kept.append(Record(image=f"images/{name}", label=rec.label,
                               mask=f"masks/{name}", eta=rec.eta))
        if records and not kept:
            raise DataError(f"{split}: every image failed masking "
                            f"({len(warnings)} warnings)")
        write_manifest(manifest_path(out_dir, split), kept)
        counts[split] = {"in": len(records), "out": len(kept)}

    write_geometry(out_dir, os.path.relpath(in_dir, out_dir), geoms)
    return {"splits": counts, "warnings": warnings}

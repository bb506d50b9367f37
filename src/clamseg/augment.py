"""Slice pairing with blur / stretch augmentations.

Three pair categories feed the twin-model training objective:

* ``augment``: a tile paired with its own blurred-then-distorted copy
  (slice-level augmentation), weight eta = 1.
* ``normal``: tiles at one position from two negative-labeled images, each
  image augmented before tiling, eta = 1.
* ``cross``: a tile from a positive-labeled image against the same position
  in a negative-labeled image; eta comes from the positive image's manifest
  entry, falling back to the policy default.

Every random draw is recorded on the PairSample, and each pair gets its own
counter-derived RNG stream, so the stream is reproducible and order-stable.
"""

import os
from dataclasses import dataclass, field

import numpy as np

from . import pgm
from .errors import DataError
from .imops import bilinear_resize, pad_center, round_half_up
from .manifest import manifest_path, read_manifest
from .seeding import derive_rng

BLUR_RANGE = (0.90, 1.00)
DISTORT_RANGE = (0.80, 1.00)


def _check_square(image):
    if image.ndim != 2 or image.shape[0] != image.shape[1]:
        raise ValueError(f"expected a square 2-d image, got shape {image.shape}")


def blur(image, rng):
    """Drop resolution to r in [0.90, 1.00) and sample back up."""
    _check_square(image)
    s = image.shape[0]
    r = float(rng.uniform(*BLUR_RANGE))
    small = max(round_half_up(r * s), 1)
    out = bilinear_resize(bilinear_resize(image, (small, small)), (s, s))
    return out, {"r": r}


def distort(image, rng):
    """Scale the axes by sx, sy in [0.80, 1.00], then either resize back or
    zero-pad centered, chosen by a coin flip."""
    _check_square(image)
    s = image.shape[0]
    sx = float(rng.uniform(*DISTORT_RANGE))
    sy = float(rng.uniform(*DISTORT_RANGE))
    pad = bool(rng.integers(2))
    h = max(round_half_up(sy * s), 1)
    w = max(round_half_up(sx * s), 1)
    scaled = bilinear_resize(image, (h, w))
    if pad:
        out = pad_center(scaled, s, s)
    else:
        out = bilinear_resize(scaled, (s, s))
    return out, {"sx": sx, "sy": sy, "pad": pad}


def augment_chain(image, rng):
    """blur then distort, with merged draw records."""
    out, d1 = blur(image, rng)
    out, d2 = distort(out, rng)
    return out, {**d1, **d2}


def tile(image, tile_size):
    """Split an S x S image into raster-order T x T tiles -> [((r, c), tile)]."""
    _check_square(image)
    s = image.shape[0]
    t = int(tile_size)
    if t < 1 or s % t != 0:
        raise ValueError(f"tile size {tile_size} does not divide image size {s}")
    out = []
    for r in range(s // t):
        for c in range(s // t):
            out.append(((r, c), image[r * t:(r + 1) * t, c * t:(c + 1) * t].copy()))
    return out


@dataclass
class BatchImage:
    """One training image.  ``pixels`` is the PGM's uint8 raster, the only
    copy a batch holds; ``image`` converts it to float32 [0,1] on each read,
    so writing into a returned ``image`` does not change the batch."""
    name: str
    label: str
    pixels: np.ndarray
    eta: float = None

    @property
    def image(self):
        return pgm.to_unit(self.pixels)


def load_batch(data_dir, split):
    """Read a split's images (never its masks) into BatchImage records,
    each holding its read-only 8-bit raster, 1 byte a pixel."""
    records = read_manifest(manifest_path(data_dir, split))
    if not records:
        raise DataError(f"{split} manifest in {data_dir} is empty")
    for rec in records:
        for p in (rec.image, rec.mask):
            if p and "eval_masks" in p.split("/"):
                raise DataError(f"manifest references hidden evaluation data: {p}")
    batch = []
    for rec in records:
        pixels = pgm.read_pgm(os.path.join(data_dir, rec.image))
        batch.append(BatchImage(name=os.path.basename(rec.image), label=rec.label,
                                pixels=pixels, eta=rec.eta))
    return batch


@dataclass
class PairPolicy:
    n_augment: int
    n_normal: int
    n_cross: int
    tile_size: int
    default_eta: float


@dataclass
class PairSample:
    kind: str
    slice_a: np.ndarray
    slice_b: np.ndarray
    eta: float
    source_a: str
    source_b: str
    coords: tuple
    draws: dict = field(default_factory=dict)


def _pick(rng, items):
    return items[int(rng.integers(len(items)))]


def make_pairs(batch, seed, policy):
    """Build the pair list for one step; fully determined by seed and policy."""
    if not batch:
        raise DataError("empty batch")
    # checked on the 8-bit rasters: a step converts only the images it picks
    s = batch[0].pixels.shape[0]
    for b in batch:
        if b.pixels.ndim != 2 or b.pixels.shape[0] != b.pixels.shape[1]:
            raise DataError(f"image {b.name} is not square: shape {b.pixels.shape}")
        if b.pixels.shape[0] != s:
            raise DataError(f"batch images differ in size: {b.name} is {b.pixels.shape[0]} px, "
                            f"{batch[0].name} is {s} px")
    if s % policy.tile_size != 0:
        raise ValueError(f"tile size {policy.tile_size} does not divide image size {s}")
    n_tiles = (s // policy.tile_size) ** 2

    pos = [b for b in batch if b.label == "pos"]
    neg = [b for b in batch if b.label == "neg"]
    if (policy.n_normal > 0 or policy.n_cross > 0) and not neg:
        raise DataError("policy needs negative-labeled images but batch has none")
    if policy.n_cross > 0 and not pos:
        raise DataError("policy needs positive-labeled images but batch has none")

    pairs = []
    for i in range(policy.n_augment):
        rng = derive_rng(seed, "pair", "augment", f"{i:05d}")
        src = _pick(rng, batch)
        coords, sl = tile(src.image, policy.tile_size)[int(rng.integers(n_tiles))]
        twin, draws = augment_chain(sl, rng)
        pairs.append(PairSample("augment", sl, twin.astype(np.float32), 1.0,
                                src.name, src.name, coords, {"b": draws}))
    # normal pairs draw both images from neg, cross pairs image a from pos
    for kind, n, pool_a in (("normal", policy.n_normal, neg), ("cross", policy.n_cross, pos)):
        for i in range(n):
            rng = derive_rng(seed, "pair", kind, f"{i:05d}")
            ia, ib = _pick(rng, pool_a), _pick(rng, neg)
            img_a, da = augment_chain(ia.image, rng)
            img_b, db = augment_chain(ib.image, rng)
            ti = int(rng.integers(n_tiles))
            coords, sa = tile(img_a.astype(np.float32), policy.tile_size)[ti]
            _, sb = tile(img_b.astype(np.float32), policy.tile_size)[ti]
            eta = 1.0 if kind == "normal" else (policy.default_eta if ia.eta is None else ia.eta)
            pairs.append(PairSample(kind, sa, sb, float(eta), ia.name, ib.name,
                                    coords, {"a": da, "b": db}))
    return pairs

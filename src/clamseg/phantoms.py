"""Synthetic phantom generator.

Each image is a noisy background plus a sharp-edged textured organ ellipse;
positive images additionally contain small bright lesion disks strictly
inside the organ.  Pixel-level lesion masks are written to a held-out
``eval_masks/`` directory (all-zero masks for negatives) and never appear in
the training manifests, which carry image-level labels only.

Layout under the output directory:

    images/img_0000.pgm        the phantoms
    organ_masks/img_0000.pgm   true organ support (referenced by manifests)
    eval_masks/img_0000.pgm    hidden lesion masks, same basenames
    eval_masks/gen_params.tsv  per-image draw log
    manifest_{train,val,test}.tsv
"""

import os
from dataclasses import dataclass

import numpy as np

from . import pgm
from .files import write_atomic
from .imops import distance_transform_edt, round_half_up
from .manifest import Record, manifest_path, remove_manifests, write_manifest
from .seeding import derive_rng


@dataclass
class PhantomParams:
    size: int = 256
    noise_hi: float = 0.06
    organ_scale: tuple = (0.30, 0.42)
    organ_value: tuple = (0.45, 0.62)
    texture_amp: float = 0.08
    lesion_count: tuple = (1, 3)
    lesion_radius: tuple = (0.07, 0.12)
    lesion_value: tuple = (0.88, 0.97)

    @staticmethod
    def easy(size=256):
        return PhantomParams(size=size)

    @staticmethod
    def hard(size=256):
        return PhantomParams(
            size=size,
            noise_hi=0.10,
            organ_value=(0.40, 0.66),
            texture_amp=0.10,
            lesion_count=(1, 4),
            lesion_radius=(0.03, 0.06),
            lesion_value=(0.55, 0.72),
        )


PRESETS = {"easy": PhantomParams.easy, "hard": PhantomParams.hard}


def _ellipse_mask(size, cy, cx, a, b, theta):
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float64)
    dy, dx = yy - cy, xx - cx
    u = dx * np.cos(theta) + dy * np.sin(theta)
    v = -dx * np.sin(theta) + dy * np.cos(theta)
    return (u / a) ** 2 + (v / b) ** 2 <= 1.0


def make_phantom(rng, params, positive):
    """Draw one phantom; returns (image f32, lesion mask, organ mask, info)."""
    s = params.size
    cy = s / 2 + rng.uniform(-0.04, 0.04) * s
    cx = s / 2 + rng.uniform(-0.04, 0.04) * s
    a = rng.uniform(*params.organ_scale) * s
    b = rng.uniform(*params.organ_scale) * s
    theta = rng.uniform(0.0, np.pi)
    base = rng.uniform(*params.organ_value)
    amp = rng.uniform(0.03, params.texture_amp)
    freq = rng.uniform(1.5, 4.0)
    phi = rng.uniform(0.0, np.pi)
    psi = rng.uniform(0.0, 2 * np.pi)

    organ = _ellipse_mask(s, cy, cx, a, b, theta)
    bg = rng.uniform(0.0, params.noise_hi, size=(s, s))
    speckle = rng.uniform(-0.01, 0.01, size=(s, s))

    yy, xx = np.mgrid[0:s, 0:s].astype(np.float64)
    wave = np.sin(2 * np.pi * freq * (xx * np.cos(phi) + yy * np.sin(phi)) / s + psi)
    tex = base + amp * wave + speckle

    img = bg
    img[organ] = tex[organ]

    lesions = np.zeros((s, s), dtype=bool)
    info = {"cy": cy, "cx": cx, "a": a, "b": b, "theta": theta, "base": base,
            "lesions": []}
    if positive:
        # distance-to-boundary (imops' exact Euclidean distance transform)
        # keeps every lesion disk strictly inside the organ
        dist = distance_transform_edt(organ)
        n = int(rng.integers(params.lesion_count[0], params.lesion_count[1] + 1))
        for _ in range(n):
            r = rng.uniform(*params.lesion_radius) * s
            val = rng.uniform(*params.lesion_value)
            while True:
                cand = np.argwhere(dist >= r + 1.5)
                if len(cand) or r <= 2.0:
                    break
                r *= 0.8
            if not len(cand):
                continue
            ly, lx = cand[int(rng.integers(len(cand)))]
            disk = (yy - ly) ** 2 + (xx - lx) ** 2 <= r * r
            img[disk] = val
            lesions |= disk
            info["lesions"].append((int(ly), int(lx), r, val))

    return np.clip(img, 0.0, 1.0).astype(np.float32), lesions, organ, info


def _split_indices(labels, seed, fracs):
    if abs(sum(fracs) - 1.0) > 1e-9 or len(fracs) != 3:
        raise ValueError(f"split fractions must be 3 values summing to 1, got {fracs}")
    out = {"train": [], "val": [], "test": []}
    for cls in ("pos", "neg"):
        idx = np.array([i for i, lab in enumerate(labels) if lab == cls], dtype=int)
        perm = idx[derive_rng(seed, "split", cls).permutation(len(idx))]
        n = len(perm)
        c1 = round_half_up(n * fracs[0])
        c2 = round_half_up(n * (fracs[0] + fracs[1]))
        out["train"] += list(perm[:c1])
        out["val"] += list(perm[c1:c2])
        out["test"] += list(perm[c2:])
    return {k: sorted(v) for k, v in out.items()}


def generate_phantoms(out_dir, count, positive_fraction, seed, params=None,
                      split_fracs=(0.7, 0.15, 0.15)):
    """Generate a phantom dataset; fully determined by seed and params."""
    if params is None:
        params = PhantomParams.easy()
    if not 0.0 <= positive_fraction <= 1.0:
        raise ValueError(f"positive fraction {positive_fraction} outside [0, 1]")
    if count < 1:
        raise ValueError("count must be positive")

    n_pos = round_half_up(count * positive_fraction)
    labels = ["pos" if i < n_pos else "neg" for i in range(count)]

    img_dir = os.path.join(out_dir, "images")
    organ_dir = os.path.join(out_dir, "organ_masks")
    eval_dir = os.path.join(out_dir, "eval_masks")
    for d in (img_dir, organ_dir, eval_dir):
        os.makedirs(d, exist_ok=True)
    remove_manifests(out_dir)

    log_rows = ["name\tlabel\tcy\tcx\ta\tb\ttheta\tbase\tlesions"]
    for i in range(count):
        rng = derive_rng(seed, "phantom", f"{i:04d}")
        img, lesions, organ, info = make_phantom(rng, params, labels[i] == "pos")
        name = f"img_{i:04d}.pgm"
        pgm.write_unit(os.path.join(img_dir, name), img)
        pgm.write_mask(os.path.join(organ_dir, name), organ)
        pgm.write_mask(os.path.join(eval_dir, name), lesions)
        les = ";".join(f"{y}:{x}:{r:.3f}:{v:.3f}" for y, x, r, v in info["lesions"])
        log_rows.append("\t".join([
            name, labels[i],
            f"{info['cy']:.3f}", f"{info['cx']:.3f}", f"{info['a']:.3f}",
            f"{info['b']:.3f}", f"{info['theta']:.4f}", f"{info['base']:.4f}", les,
        ]))

    write_atomic(os.path.join(eval_dir, "gen_params.tsv"),
                 "".join(row + "\n" for row in log_rows))

    splits = _split_indices(labels, seed, split_fracs)
    for split, idxs in splits.items():
        records = [Record(image=f"images/img_{i:04d}.pgm", label=labels[i],
                          mask=f"organ_masks/img_{i:04d}.pgm") for i in idxs]
        write_manifest(manifest_path(out_dir, split), records)

    return {"count": count, "n_pos": n_pos,
            "splits": {k: len(v) for k, v in splits.items()}}

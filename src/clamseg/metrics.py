"""Segmentation metrics, a seeded random baseline, and report generation.

Convention: when prediction and truth are both empty the score is 1.0 for
both Dice and IoU; an empty prediction on an empty truth (a correctly
rejected negative image) counts as success.

The random baseline scores masks that fire on each pixel independently at
the matched rate.  A mask's Dice depends only on how many pixels it fires
inside the truth and how many outside, so each trial draws those two
counts per truth instead of a mask, from the same distribution.
"""

import os

import numpy as np

from . import pgm, preprocess, trainer
from .errors import DataError
from .files import write_atomic
from .manifest import manifest_path, read_manifest
from .seeding import derive_rng


def _as_masks(pred, truth):
    pred = np.asarray(pred).astype(bool)
    truth = np.asarray(truth).astype(bool)
    if pred.shape != truth.shape:
        raise ValueError(f"mask shapes differ: {pred.shape} vs {truth.shape}")
    return pred, truth


def dice(pred, truth):
    pred, truth = _as_masks(pred, truth)
    denom = int(pred.sum()) + int(truth.sum())
    if denom == 0:
        return 1.0
    return 2.0 * int((pred & truth).sum()) / denom


def iou(pred, truth):
    pred, truth = _as_masks(pred, truth)
    union = int((pred | truth).sum())
    if union == 0:
        return 1.0
    return int((pred & truth).sum()) / union


MIN_TRIALS = 100  # fewest random-baseline trials for a stable mean


def random_baseline(truths, positive_rate, seed=0, trials=200):
    """Mean Dice of random masks firing at positive_rate against the truths.

    A truth with c marker pixels out of N gets Binomial(c, r) fired pixels
    inside it and, independently, Binomial(N - c, r) outside it.
    """
    truths = [np.asarray(t).astype(bool) for t in truths]
    if not truths:
        raise ValueError("no truth masks given")
    if trials < MIN_TRIALS:
        raise ValueError(f"need at least {MIN_TRIALS} trials, got {trials}")
    if not 0.0 <= positive_rate <= 1.0:
        raise ValueError(f"positive rate {positive_rate} outside [0, 1]")
    counts = np.array([np.count_nonzero(t) for t in truths])
    sizes = np.array([t.size for t in truths])
    rng = derive_rng(seed, "baseline")
    shape = (trials, len(truths))
    inside = rng.binomial(counts, positive_rate, size=shape)
    outside = rng.binomial(sizes - counts, positive_rate, size=shape)
    denom = inside + outside + counts
    # dice()'s rule and formula, on the counts
    return float(np.where(denom == 0, 1.0, 2.0 * inside / np.maximum(denom, 1)).mean())


def _fmt(v):
    return f"{v:.6f}"


def evaluate(ckpt_path, data_dir, split="test", threshold=0.5, depth=None,
             seed=0, trials=200, out_prefix=None):
    """Infer every image of a split and score against hidden masks.

    Hidden masks are looked up by image basename.  When the data dir carries
    a preprocessing geometry sidecar, masks come from the recorded source
    dataset and are mapped into the preprocessed frame; otherwise they are
    read from `<data_dir>/eval_masks` as-is.  Writes a human-readable table
    and a key=value file next to the checkpoint and returns the report dict.
    """
    if trials < MIN_TRIALS:
        raise ValueError(f"need at least {MIN_TRIALS} trials, got {trials}")
    state = trainer.load_state(ckpt_path)
    records = read_manifest(manifest_path(data_dir, split))
    if not records:
        raise DataError(f"{split} manifest in {data_dir} is empty")

    geoms = None
    if os.path.exists(os.path.join(data_dir, "geometry.tsv")):
        source_dir, geoms = preprocess.read_geometry(data_dir)
        mask_dir = os.path.join(source_dir, "eval_masks")
    else:
        mask_dir = os.path.join(data_dir, "eval_masks")

    rows = []
    rate_sum = 0.0
    truths = []
    for rec in records:
        name = os.path.basename(rec.image)
        mask_path = os.path.join(mask_dir, name)
        if not os.path.exists(mask_path):
            raise DataError(f"missing hidden mask {mask_path}")
        truth = pgm.read_mask(mask_path)
        if geoms is not None:
            if name not in geoms:
                raise DataError(f"{name} not present in geometry sidecar")
            truth = preprocess.transform_mask(truth, geoms[name], threshold=0.5)
        img = pgm.read_unit(os.path.join(data_dir, rec.image))
        pred = trainer.infer_state(state, img, depth=depth, threshold=threshold)
        if pred.shape != truth.shape:
            raise DataError(f"{name}: prediction {pred.shape} vs truth {truth.shape}")
        rows.append((name, rec.label, dice(pred, truth), iou(pred, truth)))
        rate_sum += float(pred.mean())
        truths.append(truth)

    dices = np.array([r[2] for r in rows])
    ious = np.array([r[3] for r in rows])
    rate = rate_sum / len(rows)
    baseline = random_baseline(truths, rate, seed=seed, trials=trials)
    used_depth = state.model_a.resolve_depth(depth)

    report = {
        "checkpoint": os.path.basename(ckpt_path),
        "split": split,
        "threshold": threshold,
        "depth": used_depth,
        "n_images": len(rows),
        "mean_dice": float(dices.mean()),
        "std_dice": float(dices.std()),
        "mean_iou": float(ious.mean()),
        "std_iou": float(ious.std()),
        "baseline_rate": rate,
        "baseline_trials": trials,
        "baseline_dice": baseline,
        "per_image": rows,
    }

    if out_prefix is None:
        out_prefix = f"{ckpt_path}.eval_{split}"
    _write_reports(out_prefix, report)
    return report


def _write_reports(out_prefix, report):
    rows = [f"evaluation of {report['checkpoint']} on split "
            f"{report['split']} (depth {report['depth']}, "
            f"threshold {report['threshold']})",
            f"{'image':<20}{'label':<8}{'dice':>10}{'iou':>10}"]
    rows += [f"{name:<20}{label:<8}{_fmt(d):>10}{_fmt(i):>10}"
             for name, label, d, i in report["per_image"]]
    rows += [f"mean dice {_fmt(report['mean_dice'])} (std {_fmt(report['std_dice'])})",
             f"mean iou  {_fmt(report['mean_iou'])} (std {_fmt(report['std_iou'])})",
             f"random baseline dice {_fmt(report['baseline_dice'])} at "
             f"matched positive rate {_fmt(report['baseline_rate'])} "
             f"({report['baseline_trials']} trials)"]
    write_atomic(out_prefix + ".txt", "".join(r + "\n" for r in rows))

    rows = [f"checkpoint={report['checkpoint']}", f"split={report['split']}",
            f"threshold={_fmt(report['threshold'])}", f"depth={report['depth']}",
            f"n_images={report['n_images']}"]
    rows += [f"{key}={_fmt(report[key])}" for key in
             ("mean_dice", "std_dice", "mean_iou", "std_iou", "baseline_rate", "baseline_dice")]
    rows.append(f"baseline_trials={report['baseline_trials']}")
    for name, label, d, i in report["per_image"]:
        rows += [f"image.{name}.label={label}", f"image.{name}.dice={_fmt(d)}",
                 f"image.{name}.iou={_fmt(i)}"]
    write_atomic(out_prefix + ".kv", "".join(r + "\n" for r in rows))

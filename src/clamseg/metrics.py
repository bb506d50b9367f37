"""Segmentation metrics, a seeded random baseline, and report generation.

Convention: when prediction and truth are both empty the score is 1.0 for
both Dice and IoU; an empty prediction on an empty truth (a correctly
rejected negative image) counts as success.
"""

import os

import numpy as np

from . import pgm, preprocess, trainer
from .errors import DataError
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
    """Mean Dice of random masks firing at positive_rate against the truths."""
    truths = [np.asarray(t).astype(bool) for t in truths]
    if not truths:
        raise ValueError("no truth masks given")
    if trials < MIN_TRIALS:
        raise ValueError(f"need at least {MIN_TRIALS} trials, got {trials}")
    if not 0.0 <= positive_rate <= 1.0:
        raise ValueError(f"positive rate {positive_rate} outside [0, 1]")
    rng = derive_rng(seed, "baseline")
    total = 0.0
    for _ in range(trials):
        for truth in truths:
            pred = rng.random(truth.shape) < positive_rate
            total += dice(pred, truth)
    return total / (trials * len(truths))


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
    with open(out_prefix + ".txt", "w", encoding="ascii") as fh:
        fh.write(f"evaluation of {report['checkpoint']} on split "
                 f"{report['split']} (depth {report['depth']}, "
                 f"threshold {report['threshold']})\n")
        fh.write(f"{'image':<20}{'label':<8}{'dice':>10}{'iou':>10}\n")
        for name, label, d, i in report["per_image"]:
            fh.write(f"{name:<20}{label:<8}{_fmt(d):>10}{_fmt(i):>10}\n")
        fh.write(f"mean dice {_fmt(report['mean_dice'])} "
                 f"(std {_fmt(report['std_dice'])})\n")
        fh.write(f"mean iou  {_fmt(report['mean_iou'])} "
                 f"(std {_fmt(report['std_iou'])})\n")
        fh.write(f"random baseline dice {_fmt(report['baseline_dice'])} at "
                 f"matched positive rate {_fmt(report['baseline_rate'])} "
                 f"({report['baseline_trials']} trials)\n")

    with open(out_prefix + ".kv", "w", encoding="ascii") as fh:
        fh.write(f"checkpoint={report['checkpoint']}\n")
        fh.write(f"split={report['split']}\n")
        fh.write(f"threshold={_fmt(report['threshold'])}\n")
        fh.write(f"depth={report['depth']}\n")
        fh.write(f"n_images={report['n_images']}\n")
        for key in ("mean_dice", "std_dice", "mean_iou", "std_iou",
                    "baseline_rate", "baseline_dice"):
            fh.write(f"{key}={_fmt(report[key])}\n")
        fh.write(f"baseline_trials={report['baseline_trials']}\n")
        for name, label, d, i in report["per_image"]:
            fh.write(f"image.{name}.label={label}\n")
            fh.write(f"image.{name}.dice={_fmt(d)}\n")
            fh.write(f"image.{name}.iou={_fmt(i)}\n")

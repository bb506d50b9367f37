"""Dataset manifests: one tab-separated record per line.

Fields: image path, label (``pos``/``neg``), optional organ-mask path,
optional per-image slice weight eta in [0,1].  Trailing fields may be empty
or omitted.  Paths are stored relative to the manifest's directory.  Splits
live in separate files ``manifest_train.tsv`` / ``manifest_val.tsv`` /
``manifest_test.tsv`` next to the data.
"""

import contextlib
import os
from dataclasses import dataclass

from .errors import DataError
from .files import read_text, write_atomic

SPLITS = ("train", "val", "test")
LABELS = ("pos", "neg")


@dataclass
class Record:
    image: str
    label: str
    mask: str = None
    eta: float = None


def manifest_path(data_dir, split):
    if split not in SPLITS:
        raise ValueError(f"unknown split {split!r}; expected one of {SPLITS}")
    return os.path.join(data_dir, f"manifest_{split}.tsv")


def remove_manifests(data_dir):
    """Removes the split manifests of ``data_dir``.  A rewrite of a tree's
    images does this first, so a kill part-way reads as a missing manifest,
    never as a split that mixes old and new images."""
    for split in SPLITS:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(manifest_path(data_dir, split))


def parse_manifest_text(text, name="manifest"):
    records = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip("\n")
        if not line.strip():
            continue
        fields = line.split("\t")
        if not 2 <= len(fields) <= 4:
            raise DataError(f"{name}:{ln}: expected 2-4 tab-separated fields, got {len(fields)}")
        image, label = fields[0], fields[1]
        if not image:
            raise DataError(f"{name}:{ln}: empty image path")
        if label not in LABELS:
            raise DataError(f"{name}:{ln}: label must be pos or neg, got {label!r}")
        mask = fields[2] if len(fields) > 2 and fields[2] != "" else None
        eta = None
        if len(fields) > 3 and fields[3] != "":
            try:
                eta = float(fields[3])
            except ValueError:
                raise DataError(f"{name}:{ln}: bad eta {fields[3]!r}") from None
            if not 0.0 <= eta <= 1.0:
                raise DataError(f"{name}:{ln}: eta {eta} outside [0, 1]")
        records.append(Record(image=image, label=label, mask=mask, eta=eta))
    return records


def read_manifest(path):
    """Load records and verify that the files they reference exist."""
    records = parse_manifest_text(read_text(path, "manifest"), name=os.path.basename(path))
    base = os.path.dirname(os.path.abspath(path))
    missing = []
    for rec in records:
        for p in (rec.image, rec.mask):
            if p is not None and not os.path.exists(os.path.join(base, p)):
                missing.append(p)
    if missing:
        listed = ", ".join(missing[:5])
        more = f" (+{len(missing) - 5} more)" if len(missing) > 5 else ""
        raise DataError(f"{path}: missing referenced files: {listed}{more}")
    return records


def format_record(rec):
    fields = [rec.image, rec.label]
    if rec.mask is not None or rec.eta is not None:
        fields.append(rec.mask or "")
    if rec.eta is not None:
        fields.append(f"{rec.eta:.6g}")
    return "\t".join(fields)


def write_manifest(path, records):
    write_atomic(path, "".join(format_record(rec) + "\n" for rec in records))

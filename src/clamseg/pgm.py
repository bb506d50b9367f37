"""Binary 8-bit PGM (P5) reading and writing.

Header: magic ``P5`` at byte 0, then width, height and maxval (must be 255
here, the only value the writer uses and the scale the readers assume), each
a decimal of at most nine digits after one or more separators: a whitespace
byte or a ``#`` comment through its end of line.  Exactly one whitespace
byte follows maxval; every byte after it is raster, one per pixel, with no
trailing bytes.  Grayscale values map to [0,1] by v/255; the reverse
quantization is round-half-up, floor(v*255 + 0.5).  Masks are stored as
0/255 and read back as value > 127.
"""

import re

import numpy as np

from .errors import DataError


# Each separator alternative starts with a different byte, so the match is
# linear in the header's length, and a digit inside a comment is never a
# field.  Nine digits bound a field well below int()'s digit limit.
_SEP = rb"(?:\s|#[^\r\n]*[\r\n])+"
_HEADER = re.compile(rb"P5" + (_SEP + rb"(\d{1,9})") * 3 + rb"\s")


def read_pgm(path):
    """Read a P5 file into a uint8 H x W array."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as e:
        raise DataError(f"cannot read image {path}: {e}") from None
    m = _HEADER.match(data)
    if m is None:
        raise DataError(f"{path}: not a P5 PGM or bad header")
    w, h, mv = (int(g) for g in m.groups())
    if w < 1 or h < 1:
        raise DataError(f"{path}: bad dimensions {w}x{h}")
    if mv != 255:
        raise DataError(f"{path}: unsupported maxval {mv} (255 only)")
    raster = data[m.end():]
    if len(raster) != w * h:
        raise DataError(f"{path}: raster has {len(raster)} bytes, expected {w * h}")
    return np.frombuffer(raster, dtype=np.uint8).reshape(h, w)


def write_pgm(path, img):
    """Write a uint8 H x W array as P5 with maxval 255."""
    img = np.asarray(img)
    if img.ndim != 2 or img.dtype != np.uint8:
        raise ValueError(f"write_pgm expects a uint8 2-d array, got {img.dtype} {img.shape}")
    h, w = img.shape
    with open(path, "wb") as fh:
        fh.write(b"P5\n%d %d\n255\n" % (w, h))
        fh.write(img.tobytes())


def to_unit(img8):
    """uint8 image -> float32 in [0,1]."""
    return np.asarray(img8, dtype=np.float32) / 255.0


def from_unit(img):
    """[0,1] float image -> uint8 by round-half-up quantization."""
    arr = np.asarray(img, dtype=np.float64)
    q = np.floor(arr * 255.0 + 0.5)
    return np.clip(q, 0, 255).astype(np.uint8)


def read_unit(path):
    return to_unit(read_pgm(path))


def write_unit(path, img):
    write_pgm(path, from_unit(img))


def read_mask(path):
    """Binary mask from PGM: foreground where value > 127."""
    return read_pgm(path) > 127


def write_mask(path, mask):
    write_pgm(path, np.where(np.asarray(mask, dtype=bool), 255, 0).astype(np.uint8))

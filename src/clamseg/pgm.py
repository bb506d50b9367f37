"""Binary 8-bit PGM (P5) reading and writing.

Header: magic ``P5``, whitespace-separated width, height, maxval (must be
255 here, the only value the writer uses and the scale the readers assume),
with ``#`` comments allowed between tokens; then one raster byte per pixel.  Grayscale values map to [0,1] by v/255; the reverse
quantization is round-half-up, floor(v*255 + 0.5).  Masks are stored as
0/255 and read back as value > 127.
"""

import numpy as np

from .errors import DataError


def _next_token(data, pos):
    n = len(data)
    while pos < n:
        ch = data[pos:pos + 1]
        if ch == b"#":
            while pos < n and data[pos:pos + 1] not in (b"\n", b"\r"):
                pos += 1
        elif ch.isspace():
            pos += 1
        else:
            break
    start = pos
    while pos < n and not data[pos:pos + 1].isspace() and data[pos:pos + 1] != b"#":
        pos += 1
    if start == pos:
        raise DataError("truncated PGM header")
    return data[start:pos], pos


def read_pgm(path):
    """Read a P5 file into a uint8 H x W array."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as e:
        raise DataError(f"cannot read image {path}: {e}") from None
    try:
        magic, pos = _next_token(data, 0)
        if magic != b"P5":
            raise DataError(f"{path}: not a P5 PGM (magic {magic!r})")
        width, pos = _next_token(data, pos)
        height, pos = _next_token(data, pos)
        maxval, pos = _next_token(data, pos)
        w, h, mv = int(width), int(height), int(maxval)
    except ValueError as e:
        raise DataError(f"{path}: bad PGM header: {e}") from None
    except DataError as e:
        raise DataError(f"{path}: {e}") from None
    if w < 1 or h < 1:
        raise DataError(f"{path}: bad dimensions {w}x{h}")
    if mv != 255:
        raise DataError(f"{path}: unsupported maxval {mv} (255 only)")
    pos += 1  # single whitespace byte after maxval
    raster = data[pos:pos + w * h]
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

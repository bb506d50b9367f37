"""Binary checkpoint container.

Layout (all integers little-endian):

    magic b"CLAM" | version u32 | config length u32 | config utf-8 bytes |
    then one record per tensor, in sorted-name order:
        name length u32 | name utf-8 | rank u32 | dims u32 x rank | data f32

The config text is the run's `key = value` settings (written and checked by
``trainer``).  The sorted record order and the canonical config text make the
file a pure function of its contents, so identical states produce identical
bytes.  A save writes a temp file beside the target and renames it over the
target, so an interrupted save keeps the previous checkpoint.  Version 1
files, with an older config block, are rejected.
"""

import contextlib
import os
import struct

import numpy as np

from .errors import DataError

MAGIC = b"CLAM"
VERSION = 2


def save_checkpoint(path, config_text, tensors):
    blob = bytearray()
    blob += MAGIC
    blob += struct.pack("<I", VERSION)
    enc = config_text.encode("utf-8")
    blob += struct.pack("<I", len(enc))
    blob += enc
    for name in sorted(tensors):
        arr = np.asarray(tensors[name], dtype="<f4")
        nb = name.encode("utf-8")
        blob += struct.pack("<I", len(nb))
        blob += nb
        blob += struct.pack("<I", arr.ndim)
        blob += struct.pack(f"<{arr.ndim}I", *arr.shape)
        blob += arr.tobytes(order="C")
    _write_atomic(path, blob)


def _write_atomic(path, data):
    """Replaces ``path`` by ``data`` in one step, via a synced temp file beside
    it.  A kill at any point leaves the old file or the new one; an error
    also removes the temp file."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


class _Reader:
    def __init__(self, path, data):
        self.path = path
        self.data = data
        self.pos = 0

    def take(self, n, what):
        if self.pos + n > len(self.data):
            raise DataError(f"{self.path}: truncated checkpoint while reading {what}")
        out = self.data[self.pos:self.pos + n]
        self.pos += n
        return out

    def u32(self, what):
        return struct.unpack("<I", self.take(4, what))[0]

    def done(self):
        return self.pos >= len(self.data)


def load_checkpoint(path):
    """Returns (config_text, {name: float32 array})."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as e:
        raise DataError(f"cannot read checkpoint {path}: {e}") from None
    rd = _Reader(path, data)
    if rd.take(4, "magic") != MAGIC:
        raise DataError(f"{path}: not a checkpoint file (bad magic)")
    version = rd.u32("version")
    if version != VERSION:
        raise DataError(f"{path}: unsupported checkpoint version {version}")
    clen = rd.u32("config length")
    try:
        config_text = rd.take(clen, "config").decode("utf-8")
    except UnicodeDecodeError:
        raise DataError(f"{path}: config block is not valid utf-8") from None
    tensors = {}
    while not rd.done():
        nlen = rd.u32("name length")
        try:
            name = rd.take(nlen, "name").decode("utf-8")
        except UnicodeDecodeError:
            raise DataError(f"{path}: tensor name is not valid utf-8") from None
        if name in tensors:
            raise DataError(f"{path}: duplicate tensor {name!r}")
        rank = rd.u32("rank")
        if rank > 8:
            raise DataError(f"{path}: implausible rank {rank} for {name!r}")
        dims = struct.unpack(f"<{rank}I", rd.take(4 * rank, "dims"))
        count = 1
        for d in dims:
            count *= d
        raw = rd.take(4 * count, f"data of {name!r}")
        tensors[name] = np.frombuffer(raw, dtype="<f4").reshape(dims).copy()
    return config_text, tensors

"""Binary checkpoint container.

Layout (all integers little-endian):

    magic b"CLAM" | version u32 | config length u32 | config utf-8 bytes |
    then one record per tensor, in sorted-name order:
        name length u32 | name utf-8 | rank u32 | dims u32 x rank | data f32

The config text is the run's `key = value` settings (written and checked by
``trainer``).  The sorted record order and the canonical config text make the
file a pure function of its contents, so identical states produce identical
bytes.  A save goes through ``files.write_atomic``, so an interrupted save
keeps the previous checkpoint.  This is version 3; versions 1 and 2, whose
config blocks differ, are rejected.
"""

import math
import struct

import numpy as np

from .errors import DataError
from .files import write_atomic

MAGIC = b"CLAM"
VERSION = 3


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
    write_atomic(path, blob)


def load_checkpoint(path):
    """Returns (config_text, {name: float32 array}); the arrays are read-only."""
    try:
        with open(path, "rb") as fh:
            data = memoryview(fh.read())
    except OSError as e:
        raise DataError(f"cannot read checkpoint {path}: {e}") from None
    pos = 0

    def take(n, what):
        nonlocal pos
        if pos + n > len(data):
            raise DataError(f"{path}: truncated checkpoint while reading {what}")
        pos += n
        return data[pos - n:pos]

    def u32(what):
        return struct.unpack("<I", take(4, what))[0]

    def utf8(what):
        try:
            return str(take(u32(f"{what} length"), what), "utf-8")
        except UnicodeDecodeError:
            raise DataError(f"{path}: {what} is not valid utf-8") from None

    if take(4, "magic") != MAGIC:
        raise DataError(f"{path}: not a checkpoint file (bad magic)")
    version = u32("version")
    if version != VERSION:
        raise DataError(f"{path}: unsupported checkpoint version {version}")
    config_text = utf8("config block")
    tensors = {}
    while pos < len(data):
        name = utf8("tensor name")
        if name in tensors:
            raise DataError(f"{path}: duplicate tensor {name!r}")
        rank = u32("rank")
        if rank > 8:
            raise DataError(f"{path}: implausible rank {rank} for {name!r}")
        dims = struct.unpack(f"<{rank}I", take(4 * rank, "dims"))
        raw = take(4 * math.prod(dims), f"data of {name!r}")
        try:
            tensors[name] = np.frombuffer(raw, dtype="<f4").reshape(dims)
        except ValueError as e:  # a zero dim beside dims too large for numpy
            raise DataError(f"{path}: bad dims {dims} for {name!r}: {e}") from None
    return config_text, tensors

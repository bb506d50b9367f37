import struct
from pathlib import Path

import numpy as np
import pytest

from clamseg import checkpoint as ckpt
from clamseg import files
from clamseg.errors import DataError


def sample_tensors():
    return {
        "model_a/node_0_0.conv1.weight": np.arange(24, dtype=np.float32).reshape(2, 3, 2, 2),
        "model_a/node_0_0.conv1.bias": np.array([0.5, -1.5], dtype=np.float32),
        "opt/m/a/x": np.zeros((3,), dtype=np.float32),
    }


def test_roundtrip(tmp_path):
    p = str(tmp_path / "c.clam")
    ckpt.save_checkpoint(p, "a=1\nb=two\n", sample_tensors())
    text, tensors = ckpt.load_checkpoint(p)
    assert text == "a=1\nb=two\n"
    assert set(tensors) == set(sample_tensors())
    for k, v in sample_tensors().items():
        assert tensors[k].dtype == np.float32
        assert np.array_equal(tensors[k], v)


def test_header_bytes(tmp_path):
    p = str(tmp_path / "c.clam")
    ckpt.save_checkpoint(p, "x=1\n", {})
    raw = Path(p).read_bytes()
    assert raw[:4] == b"CLAM"
    assert struct.unpack("<I", raw[4:8])[0] == ckpt.VERSION
    assert struct.unpack("<I", raw[8:12])[0] == 4
    assert raw[12:16] == b"x=1\n"
    assert len(raw) == 16


def test_record_layout(tmp_path):
    p = str(tmp_path / "c.clam")
    arr = np.array([[1.0, 2.0]], dtype=np.float32)
    ckpt.save_checkpoint(p, "", {"w": arr})
    raw = Path(p).read_bytes()
    body = raw[12:]
    assert struct.unpack("<I", body[:4])[0] == 1
    assert body[4:5] == b"w"
    assert struct.unpack("<I", body[5:9])[0] == 2  # rank
    assert struct.unpack("<II", body[9:17]) == (1, 2)
    assert np.frombuffer(body[17:], dtype="<f4").tolist() == [1.0, 2.0]


def test_insertion_order_does_not_matter(tmp_path):
    t = sample_tensors()
    rev = dict(reversed(list(t.items())))
    pa, pb = str(tmp_path / "a"), str(tmp_path / "b")
    ckpt.save_checkpoint(pa, "k=v\n", t)
    ckpt.save_checkpoint(pb, "k=v\n", rev)
    assert Path(pa).read_bytes() == Path(pb).read_bytes()


def test_save_load_save_is_byte_identical(tmp_path):
    pa, pb = str(tmp_path / "a"), str(tmp_path / "b")
    ckpt.save_checkpoint(pa, "cfg=1\n", sample_tensors())
    text, tensors = ckpt.load_checkpoint(pa)
    ckpt.save_checkpoint(pb, text, tensors)
    assert Path(pa).read_bytes() == Path(pb).read_bytes()


def test_rank_zero_scalar(tmp_path):
    p = str(tmp_path / "c.clam")
    ckpt.save_checkpoint(p, "", {"s": np.float32(2.5)})
    _, tensors = ckpt.load_checkpoint(p)
    assert tensors["s"].shape == ()
    assert tensors["s"] == 2.5


def test_bad_magic(tmp_path):
    p = tmp_path / "c.clam"
    p.write_bytes(b"NOPE" + b"\0" * 16)
    with pytest.raises(DataError, match="magic"):
        ckpt.load_checkpoint(str(p))


def test_bad_version(tmp_path):
    p = tmp_path / "c.clam"
    p.write_bytes(b"CLAM" + struct.pack("<I", 9) + struct.pack("<I", 0))
    with pytest.raises(DataError, match="version"):
        ckpt.load_checkpoint(str(p))


def test_version_1_rejected(tmp_path):
    # v1 files carry the older model./opt./policy. config block
    p = tmp_path / "c.clam"
    text = b"model.levels=2\n"
    p.write_bytes(b"CLAM" + struct.pack("<I", 1) + struct.pack("<I", len(text)) + text)
    with pytest.raises(DataError, match="unsupported checkpoint version 1"):
        ckpt.load_checkpoint(str(p))


def test_truncated(tmp_path):
    good = tmp_path / "good.clam"
    ckpt.save_checkpoint(str(good), "k=v\n", sample_tensors())
    raw = good.read_bytes()
    bad = tmp_path / "bad.clam"
    bad.write_bytes(raw[:-3])
    with pytest.raises(DataError, match="truncated"):
        ckpt.load_checkpoint(str(bad))


def test_every_truncation_raises_or_drops_whole_records(tmp_path):
    # the format has no record count, so a cut at a record boundary reads as
    # the leading records; load_state then reports the missing tensors
    good = tmp_path / "good.clam"
    ckpt.save_checkpoint(str(good), "k=v\n", sample_tensors())
    raw = good.read_bytes()
    names = sorted(sample_tensors())
    bad = tmp_path / "bad.clam"
    kept = []
    for n in range(len(raw)):
        bad.write_bytes(raw[:n])
        try:
            text, tensors = ckpt.load_checkpoint(str(bad))
        except DataError as e:
            assert "truncated checkpoint while reading" in str(e)
            continue
        assert text == "k=v\n"
        kept.append(list(tensors))
    assert kept == [names[:i] for i in range(len(names))]


def _record(name, dims, data=b""):
    return (struct.pack("<I", len(name)) + name + struct.pack("<I", len(dims))
            + struct.pack(f"<{len(dims)}I", *dims) + data)


def _file(config, *records):
    return b"CLAM" + struct.pack("<II", ckpt.VERSION, len(config)) + config + b"".join(records)


@pytest.mark.parametrize("raw, message", [
    (_file(b"", _record(b"w", (1,), bytes(4)), _record(b"w", (1,), bytes(4))),
     "duplicate tensor 'w'"),
    (_file(b"", _record(b"w", (1,) * 9, bytes(4))), "implausible rank 9 for 'w'"),
    (_file(b"k=\xff\n"), "config block is not valid utf-8"),
    # 2**31 * 2**31 * 4 wraps to 0 in int64
    (_file(b"", _record(b"w", (2**31, 2**31, 4))),
     "truncated checkpoint while reading data of 'w'"),
    (_file(b"", _record(b"w", (0, 2**32 - 1, 2**32 - 1, 2**32 - 1))), "bad dims"),
], ids=["duplicate-name", "rank-9", "config-not-utf8", "dims-overflow-int64",
        "zero-size-huge-dims"])
def test_malformed_records_are_data_errors(tmp_path, raw, message):
    p = tmp_path / "c.clam"
    p.write_bytes(raw)
    with pytest.raises(DataError, match=message):
        ckpt.load_checkpoint(str(p))


def test_loaded_arrays_are_read_only(tmp_path):
    p = str(tmp_path / "c.clam")
    ckpt.save_checkpoint(p, "", sample_tensors())
    for arr in ckpt.load_checkpoint(p)[1].values():
        assert not arr.flags.writeable


def test_missing_file():
    with pytest.raises(DataError, match="cannot read"):
        ckpt.load_checkpoint("/nonexistent/c.clam")


def test_undecodable_tensor_name(tmp_path):
    p = tmp_path / "c.clam"
    ckpt.save_checkpoint(str(p), "", {"ab": np.zeros(2, dtype=np.float32)})
    raw = p.read_bytes()
    assert raw[16:18] == b"ab"
    p.write_bytes(raw[:16] + b"\xff\xfe" + raw[18:])
    with pytest.raises(DataError, match="tensor name is not valid utf-8"):
        ckpt.load_checkpoint(str(p))


def _fail(*args, **kwargs):
    raise OSError("disk full")


@pytest.mark.parametrize("target", ["replace", "fsync"])
def test_failed_save_keeps_the_old_checkpoint_and_no_temp_file(tmp_path, monkeypatch, target):
    p = tmp_path / "c.clam"
    ckpt.save_checkpoint(str(p), "k=old\n", sample_tensors())
    old = p.read_bytes()
    monkeypatch.setattr(files.os, target, _fail)
    with pytest.raises(OSError, match="disk full"):
        ckpt.save_checkpoint(str(p), "k=new\n", {"x": np.ones(5, dtype=np.float32)})
    monkeypatch.undo()
    assert p.read_bytes() == old
    assert sorted(f.name for f in tmp_path.iterdir()) == ["c.clam"]


def test_save_replaces_the_target_and_leaves_no_temp_file(tmp_path):
    p = tmp_path / "c.clam"
    ckpt.save_checkpoint(str(p), "k=old\n", sample_tensors())
    ckpt.save_checkpoint(str(p), "k=new\n", sample_tensors())
    assert ckpt.load_checkpoint(str(p))[0] == "k=new\n"
    assert sorted(f.name for f in tmp_path.iterdir()) == ["c.clam"]

"""P5 PGM round trips, header parsing edge cases, quantization rules."""

import time

import numpy as np
import pytest

from clamseg import pgm
from clamseg.errors import DataError


def test_write_read_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    img = rng.integers(0, 256, size=(7, 5), dtype=np.uint8)
    path = tmp_path / "a.pgm"
    pgm.write_pgm(path, img)
    np.testing.assert_array_equal(pgm.read_pgm(path), img)


def test_written_header_layout(tmp_path):
    path = tmp_path / "b.pgm"
    pgm.write_pgm(path, np.zeros((2, 3), dtype=np.uint8))
    raw = path.read_bytes()
    assert raw.startswith(b"P5\n3 2\n255\n")
    assert len(raw) == len(b"P5\n3 2\n255\n") + 6


def test_read_accepts_comments_and_odd_whitespace(tmp_path):
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P5 # magic\n# a comment line\n 3\t2 # dims\n255\n" + bytes(range(6)))
    img = pgm.read_pgm(path)
    np.testing.assert_array_equal(img, np.arange(6, dtype=np.uint8).reshape(2, 3))


def test_read_rejects_bad_files(tmp_path):
    p6 = tmp_path / "p6.ppm"
    p6.write_bytes(b"P6\n1 1\n255\n\x00\x00\x00")
    with pytest.raises(DataError):
        pgm.read_pgm(p6)
    wide = tmp_path / "wide.pgm"
    wide.write_bytes(b"P5\n2 2\n65535\n\x00\x00\x00\x00\x00\x00\x00\x00")
    with pytest.raises(DataError):
        pgm.read_pgm(wide)
    # the readers scale by 255, so any other maxval would be misread: a
    # maxval-1 mask as all background, a maxval-15 byte 0xff as 1.0
    for mv, raster in ((1, b"\x00\x01\x01\x00"), (15, b"\x00\x0f\xff\x07")):
        low = tmp_path / f"maxval{mv}.pgm"
        low.write_bytes(b"P5\n2 2\n%d\n" % mv + raster)
        with pytest.raises(DataError, match=f"maxval {mv}"):
            pgm.read_pgm(low)
    short = tmp_path / "short.pgm"
    short.write_bytes(b"P5\n4 4\n255\n\x00\x00")
    with pytest.raises(DataError):
        pgm.read_pgm(short)
    trunc = tmp_path / "trunc.pgm"
    trunc.write_bytes(b"P5\n4")
    with pytest.raises(DataError):
        pgm.read_pgm(trunc)


@pytest.mark.parametrize("raw", [
    b"P5\n2 2\n255# note\n" + bytes([10, 20, 30, 40]),
    b"P5\n2 2\n255\n" + bytes(6),
    b"P5\n2 2\n255\r\n" + bytes(4),
    b"\nP5\n2 2\n255\n" + bytes(4),
    b"P5\n#1 2 255\n" + bytes(2),
    b"P5\n" + b"1" * 5000 + b" 1\n255\n" + bytes(4),
    b"P5\n0 2\n255\n",
], ids=["comment-after-maxval", "trailing-raster-bytes", "crlf-after-maxval",
        "byte-before-magic", "digits-in-comment", "5000-digit-width", "zero-width"])
def test_read_rejects_malformed_header_or_raster_length(tmp_path, raw):
    path = tmp_path / "bad.pgm"
    path.write_bytes(raw)
    with pytest.raises(DataError):
        pgm.read_pgm(path)


def test_every_truncation_is_a_data_error(tmp_path):
    raw = b"P5 # magic\n# a comment line\n 3\t2 # dims\n255\n" + bytes(range(6))
    path = tmp_path / "t.pgm"
    for n in range(len(raw)):
        path.write_bytes(raw[:n])
        with pytest.raises(DataError):
            pgm.read_pgm(path)


@pytest.mark.parametrize("filler", [b" ", b"#c\n"], ids=["spaces", "comment-lines"])
def test_long_separator_runs_are_rejected_in_linear_time(tmp_path, filler):
    path = tmp_path / "long.pgm"
    path.write_bytes(b"P5" + filler * (200_000 // len(filler)) + b"x")
    start = time.perf_counter()
    with pytest.raises(DataError):
        pgm.read_pgm(path)
    assert time.perf_counter() - start < 1.0


def test_missing_file_is_a_data_error(tmp_path):
    with pytest.raises(DataError, match="cannot read image"):
        pgm.read_pgm(str(tmp_path / "missing.pgm"))


def test_write_requires_uint8_2d():
    with pytest.raises(ValueError):
        pgm.write_pgm("/dev/null", np.zeros((2, 2), dtype=np.float32))
    with pytest.raises(ValueError):
        pgm.write_pgm("/dev/null", np.zeros((2, 2, 2), dtype=np.uint8))


def test_quantization_round_half_up():
    vals = np.array([0.0, 0.5, 1.0, 0.001, 0.999, 1.2, -0.3])
    out = pgm.from_unit(vals.reshape(1, -1))[0]
    np.testing.assert_array_equal(out, [0, 128, 255, 0, 255, 255, 0])


def test_unit_round_trip_is_exact_for_all_levels():
    levels = np.arange(256, dtype=np.uint8).reshape(16, 16)
    np.testing.assert_array_equal(pgm.from_unit(pgm.to_unit(levels)), levels)


def test_unit_file_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    img = rng.uniform(0, 1, (6, 6)).astype(np.float32)
    path = tmp_path / "u.pgm"
    pgm.write_unit(path, img)
    back = pgm.read_unit(path)
    assert np.abs(back - img).max() <= 0.5 / 255 + 1e-6


def test_mask_round_trip(tmp_path):
    mask = np.zeros((4, 4), dtype=bool)
    mask[1:3, 1:3] = True
    path = tmp_path / "m.pgm"
    pgm.write_mask(path, mask)
    raw = pgm.read_pgm(path)
    assert set(np.unique(raw)) <= {0, 255}
    np.testing.assert_array_equal(pgm.read_mask(path), mask)

import os

import pytest

from clamseg import manifest as M
from clamseg.errors import DataError


def test_roundtrip(tmp_path):
    recs = [
        M.Record("images/a.pgm", "pos", "masks/a.pgm", 0.5),
        M.Record("images/b.pgm", "neg"),
        M.Record("images/c.pgm", "pos", None, 1.0),
    ]
    p = tmp_path / "manifest_train.tsv"
    M.write_manifest(str(p), recs)
    back = M.parse_manifest_text(p.read_text())
    assert back == recs


def test_field_variants():
    text = "a.pgm\tpos\nb.pgm\tneg\tmb.pgm\nc.pgm\tpos\t\t0.25\n\n"
    recs = M.parse_manifest_text(text)
    assert len(recs) == 3
    assert recs[0].mask is None and recs[0].eta is None
    assert recs[1].mask == "mb.pgm" and recs[1].eta is None
    assert recs[2].mask is None and recs[2].eta == 0.25


@pytest.mark.parametrize("line,frag", [
    ("a.pgm", "2-4"),
    ("a.pgm\tpos\tm.pgm\t0.5\tjunk", "2-4"),
    ("a.pgm\tmaybe", "label"),
    ("\tpos", "empty image"),
    ("a.pgm\tpos\tm.pgm\tnope", "bad eta"),
    ("a.pgm\tpos\tm.pgm\t1.5", "outside"),
])
def test_parse_errors(line, frag):
    with pytest.raises(DataError, match=frag):
        M.parse_manifest_text("ok.pgm\tpos\n" + line + "\n")


def test_error_cites_line_number():
    with pytest.raises(DataError, match=":3:"):
        M.parse_manifest_text("a.pgm\tpos\nb.pgm\tneg\nc.pgm\twhat\n")


def test_missing_files_checked(tmp_path):
    p = tmp_path / "manifest_test.tsv"
    p.write_text("images/a.pgm\tpos\n")
    with pytest.raises(DataError, match="missing"):
        M.read_manifest(str(p))
    os.makedirs(tmp_path / "images")
    (tmp_path / "images" / "a.pgm").write_bytes(b"x")
    assert len(M.read_manifest(str(p))) == 1


def test_manifest_path():
    assert M.manifest_path("/d", "val") == "/d/manifest_val.tsv"
    with pytest.raises(ValueError):
        M.manifest_path("/d", "validation")


def test_eta_formatting_roundtrips(tmp_path):
    p = tmp_path / "manifest_val.tsv"
    M.write_manifest(str(p), [M.Record("a.pgm", "pos", "m.pgm", 0.123456)])
    rec = M.parse_manifest_text(p.read_text())[0]
    assert abs(rec.eta - 0.123456) < 1e-9

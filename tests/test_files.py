import ast
import os
import subprocess
import sys

import pytest

import clamseg
from clamseg import files

SRC = os.path.dirname(clamseg.__file__)

# (module, function) -> why it may write a file without files.write_atomic
DIRECT_WRITES = {
    ("pgm.py", "write_pgm"): "read_pgm rejects a raster that is not exactly w*h bytes, "
                             "and a synced rename per image would cost more than the write",
    ("trainer.py", "run_training"): "the metrics log appends steps past the checkpoint's; "
                                    "its carried prefix goes through write_atomic first",
}


def _writes(tree):
    """(function, line, what) for each open with a writing mode and each
    os.replace, os.rename or os.fsync call in a module."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Call):
            f = node.func
            if isinstance(f, ast.Name) and f.id == "open":
                mode = node.args[1] if len(node.args) > 1 else next(
                    (k.value for k in node.keywords if k.arg == "mode"), ast.Constant("r"))
                if not (isinstance(mode, ast.Constant) and not set(mode.value) & set("wax+")):
                    found.append((func, node.lineno, "open for writing"))
            if (isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name)
                    and f.value.id == "os" and f.attr in ("replace", "rename", "fsync")):
                found.append((func, node.lineno, f"os.{f.attr}"))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return found


def test_only_files_py_decides_how_an_artifact_reaches_disk():
    offenders = []
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py") or name == "files.py":
            continue
        with open(os.path.join(SRC, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=name)
        for func, line, what in _writes(tree):
            if what != "open for writing" or (name, func) not in DIRECT_WRITES:
                offenders.append(f"{name}:{line} {what} in {func}")
    assert offenders == []


def test_the_scan_sees_each_kind_of_write():
    tree = ast.parse("def f(p):\n    open(p, 'ab')\n    open(p, mode=m)\n"
                     "    open(p)\n    open(p, 'rb')\n    os.fsync(3)\n    os.replace(p, p)\n")
    assert [(line, what) for _, line, what in _writes(tree)] == [
        (2, "open for writing"), (3, "open for writing"), (6, "os.fsync"), (7, "os.replace")]


def test_write_atomic_writes_a_str_as_ascii_or_leaves_the_old_file(tmp_path):
    p = tmp_path / "a.tsv"
    files.write_atomic(str(p), "x\ty\n")
    assert p.read_bytes() == b"x\ty\n" and files.read_text(str(p), "table") == "x\ty\n"
    with pytest.raises(UnicodeEncodeError):
        files.write_atomic(str(p), "\xe9\n")
    assert p.read_bytes() == b"x\ty\n"
    assert sorted(f.name for f in tmp_path.iterdir()) == ["a.tsv"]


def test_a_save_removes_the_temp_files_that_dead_writers_left_and_keeps_a_live_ones(tmp_path):
    gone = subprocess.Popen([sys.executable, "-c", ""])
    gone.wait()
    dead, live = gone.pid, os.getppid()
    left = [f"r.clam.{dead}.tmp", f"r.clam.{live}.tmp", f"r.clam.log.{dead}.tmp",
            f"q.clam.{dead}.tmp", "r.clam.x.tmp"]
    for name in left:
        (tmp_path / name).write_bytes(b"cut")
    files.write_atomic(str(tmp_path / "r.clam"), b"new")
    # only r.clam's own temp files of a pid that no longer runs go
    assert sorted(f.name for f in tmp_path.iterdir()) == sorted(["r.clam"] + left[1:])
    assert (tmp_path / "r.clam").read_bytes() == b"new"

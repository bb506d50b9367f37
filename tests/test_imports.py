"""Every clamseg module imports first in a fresh interpreter, and none of
them loads scipy.

An import cycle between two modules breaks only when one of them is the
first to load, so each module gets its own interpreter.
"""

import os
import pkgutil
import subprocess
import sys

import pytest

import clamseg

MODULES = sorted(m.name for m in pkgutil.iter_modules(clamseg.__path__))


def run_fresh(code):
    src = os.path.dirname(os.path.dirname(os.path.abspath(clamseg.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("name", MODULES)
def test_module_imports_first(name):
    run_fresh(f"import clamseg.{name}")


def test_no_module_loads_scipy():
    # numpy is the one run-time dependency; importing scipy.ndimage alone
    # cost every process about 26 MB and 0.3 s of its start
    names = ["cli"] + MODULES
    out = run_fresh(
        "import importlib, sys\n"
        f"for name in {names!r}:\n"
        "    importlib.import_module('clamseg.' + name)\n"
        "    if 'scipy' in sys.modules:\n"
        "        print(name)\n"
        "        break\n")
    assert out == "", f"importing clamseg.{out.strip()} loads scipy"

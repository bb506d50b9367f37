"""Every clamseg module imports first in a fresh interpreter.

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


@pytest.mark.parametrize("name", MODULES)
def test_module_imports_first(name):
    src = os.path.dirname(os.path.dirname(os.path.abspath(clamseg.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", f"import clamseg.{name}"],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr

"""Every top-level function and class of ``src/clamseg`` has a caller in the
program: its name appears, as a whole word, somewhere in the Python text of
``src/`` or ``bench/`` other than its own ``def``/``class`` line.  Tests are
not callers, so code that only tests use fails here.
"""

import ast
import glob
import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _program_lines():
    """{path: lines} of every non-test Python file under src/ and bench/."""
    paths = glob.glob(os.path.join(ROOT, "src", "**", "*.py"), recursive=True)
    paths += glob.glob(os.path.join(ROOT, "bench", "**", "*.py"), recursive=True)
    out = {}
    for path in paths:
        if not os.path.basename(path).startswith("test_"):
            with open(path, encoding="utf-8") as fh:
                out[path] = fh.read().splitlines()
    return out


def test_every_top_level_def_in_src_has_a_caller():
    lines = _program_lines()
    modules = sorted(glob.glob(os.path.join(ROOT, "src", "clamseg", "*.py")))
    assert modules
    unreferenced = []
    for module in modules:
        defs = [node for node in ast.parse("\n".join(lines[module])).body
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
        for node in defs:
            word = re.compile(rf"\b{re.escape(node.name)}\b")
            if not any(word.search(line)
                       for path, text in lines.items()
                       for i, line in enumerate(text, start=1)
                       if not (path == module and i == node.lineno)):
                unreferenced.append(f"{os.path.basename(module)}:{node.lineno} {node.name}")
    assert unreferenced == []

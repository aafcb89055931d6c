"""The package's runtime dependency is numpy alone: no module imports scipy,
which only the tests' reference implementations use."""

import ast
import os
import pathlib
import subprocess
import sys

import glmmvb

PACKAGE = pathlib.Path(glmmvb.__file__).parent


def _scipy_imports(source):
    """Line of each import of scipy or of a scipy submodule in a module."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        if any(name.split(".")[0] == "scipy" for name in names):
            found.append(node.lineno)
    return sorted(found)


class TestNumpyOnlyRuntime:
    def test_no_module_imports_scipy(self):
        found = {(str(path.relative_to(PACKAGE)), line)
                 for path in PACKAGE.rglob("*.py")
                 for line in _scipy_imports(path.read_text())}
        assert found == set()

    def test_finds_imports(self):
        source = ("import numpy as np\nimport scipy.special as sc\nfrom scipy import linalg\n"
                  "from . import scipy\ndef f():\n    import os, scipy\n"
                  "from scipyx import y\n")
        assert _scipy_imports(source) == [2, 3, 6]

    def test_fresh_interpreter_loads_no_scipy(self):
        code = ("import sys, glmmvb, glmmvb.cli\n"
                "print(glmmvb.__file__)\n"
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
        path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                              capture_output=True, text=True, timeout=60, check=True)
        imported_from, loaded = done.stdout.splitlines()
        assert pathlib.Path(imported_from).parent == PACKAGE
        assert loaded == "[]"

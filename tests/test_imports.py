"""Every module of the package imports on its own, in a fresh
interpreter, so that a missing import cannot hide behind one that an
earlier import happened to provide."""

from __future__ import annotations

import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import planarconn

SRC = str(Path(planarconn.__file__).resolve().parent.parent)
MODULES = ["planarconn"] + sorted(
    f"planarconn.{m.name}" for m in pkgutil.iter_modules(planarconn.__path__))


@pytest.mark.parametrize("module", MODULES)
def test_module_imports(module):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    res = subprocess.run([sys.executable, "-c", f"import {module}"],
                         env=env, capture_output=True, text=True)
    assert res.returncode == 0, res.stderr

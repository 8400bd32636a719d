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


def _fresh(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a new interpreter that finds this package."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", code],
                          env=env, capture_output=True, text=True)


@pytest.mark.parametrize("module", MODULES)
def test_module_imports(module):
    res = _fresh(f"import {module}")
    assert res.returncode == 0, res.stderr


def test_no_third_party_or_oracle_import():
    """The program runs on the standard library alone, and production
    code never leans on the brute-force oracle."""
    mods = [m for m in MODULES if m != "planarconn.oracle"]
    code = ("import sys\n" + "".join(f"import {m}\n" for m in mods)
            + "print(sorted(m for m in ('numpy', 'scipy', 'planarconn.oracle')"
            " if m in sys.modules))")
    res = _fresh(code)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"

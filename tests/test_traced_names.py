"""Every entry point the benchmark's tracer wraps exists in the package.

``perfbench/tracing.py`` names functions and methods by string; a
rename in the package would break every traced benchmark run while
the rest of the suite stays green.  This resolves each name the way
``Tracer.install`` does: module attributes with ``getattr``, class
attributes through the class ``__dict__``.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _traced():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing",
                                                  TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.TRACED


@pytest.mark.parametrize("name,module,path", _traced())
def test_traced_name_resolves(name, module, path):
    owner = importlib.import_module(f"planarconn.{module}")
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    if isinstance(owner, type):
        assert attr in owner.__dict__, f"{name}: {path} is not defined"
    else:
        assert callable(getattr(owner, attr)), f"{name}: {path}"

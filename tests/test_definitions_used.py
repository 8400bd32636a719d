"""Every function, method and class of the package is used somewhere.

A definition that nothing names is dead code: it is neither run nor
tested, and it drifts from the code around it.  This reads every
``def`` and ``class`` line of ``src/planarconn``, counts each defined
name's occurrences as an identifier in the Python files of ``src/``,
``tests/`` and ``perfbench/`` (strings included, since the benchmark's
tracer names entry points by string), and asks for more occurrences
than definitions.  Dunder methods are called by the language and are
exempt.
"""

from __future__ import annotations

import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "planarconn"
SEARCHED = ("src", "tests", "perfbench")
DEFINITION = re.compile(
    r"^[ \t]*(?:async[ \t]+)?(?:def|class)[ \t]+(\w+)[(:]",
    re.MULTILINE)


def test_every_definition_is_named_elsewhere():
    words: Counter[str] = Counter()
    for top in SEARCHED:
        for path in (ROOT / top).rglob("*.py"):
            words.update(re.findall(r"\w+", path.read_text()))
    defined: Counter[str] = Counter()
    where: dict[str, str] = {}
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text()
        for m in DEFINITION.finditer(text):
            name = m.group(1)
            if name.startswith("__") and name.endswith("__"):
                continue
            defined[name] += 1
            line = text.count("\n", 0, m.start()) + 1
            where.setdefault(name, f"{path.name}:{line}")
    assert len(defined) > 100, "definitions not found"
    unused = sorted(f"{where[name]} {name}"
                    for name, n in defined.items() if words[name] <= n)
    assert not unused, f"defined but never named: {unused}"

"""Every function, method and class of the package is used somewhere,
and every name its docstrings refer to exists.

A definition that nothing names is dead code: it is neither run nor
tested, and it drifts from the code around it.  This reads every
``def`` and ``class`` line of ``src/planarconn``, counts each defined
name's occurrences as an identifier in the Python files of ``src/``,
``tests/`` and ``perfbench/`` (strings included, since the benchmark's
tracer names entry points by string), and asks for more occurrences
than definitions.  Dunder methods are called by the language and are
exempt.

The converse check reads the references of the package's text: every
``:func:``, ``:meth:`` and ``:class:`` target, and every
double-backticked name that is private or dotted.  Each must end in a
name that the package defines, as a function, class, module, attribute
or variable, so a reference to code that was removed or renamed fails.
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
# a target of an assignment or an annotation, an attribute of self too
ASSIGNMENT = re.compile(
    r"^[ \t]*(?:self\.)?(\w+)[ \t]*(?::[ \t]*\S|=(?!=))", re.MULTILINE)
REFERENCE = re.compile(
    r":(?:func|meth|class):`~?([\w.]+)`|``((?:_|\w+\.)[\w.]*)``")


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


def test_every_reference_names_a_definition():
    defined = {path.stem for path in PACKAGE.glob("*.py")}
    refs: dict[str, str] = {}
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text()
        defined.update(DEFINITION.findall(text))
        defined.update(ASSIGNMENT.findall(text))
        for m in REFERENCE.finditer(text):
            line = text.count("\n", 0, m.start()) + 1
            refs.setdefault(m.group(1) or m.group(2), f"{path.name}:{line}")
    assert len(refs) > 30, "references not found"
    unresolved = sorted(f"{where} {ref}" for ref, where in refs.items()
                        if ref.rsplit(".", 1)[-1] not in defined)
    assert not unresolved, f"names no definition: {unresolved}"

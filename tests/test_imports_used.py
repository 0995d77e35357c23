"""Every name a module of `src/entwine` or of `tests` imports is used in
that module.

The package's `__init__.py` imports to re-export, so it is not checked,
and `from __future__ import annotations` binds no name.  A name counts
as used when it is read anywhere in the module, annotations included.

Needs no pytest: `python tests/test_imports_used.py` runs every test here.
"""

from __future__ import annotations

import ast
import os
import sys

TESTS = os.path.dirname(os.path.abspath(__file__))
PKG = os.path.join(os.path.dirname(TESTS), "src", "entwine")


def unused_imports(source: str) -> list[str]:
    """The names that source imports and never reads, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in imported if name not in read]


def test_checker_flags_only_unread_names():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "from .a import b, c as d, e\n"
              "def f(x: b) -> None:\n"
              "    return os.path.join(d, x)\n")
    assert unused_imports(source) == ["e"]


def _unused_in(directory: str, skip=()) -> list[str]:
    names = sorted(f for f in os.listdir(directory)
                   if f.endswith(".py") and f not in skip)
    assert names
    unused = []
    for name in names:
        with open(os.path.join(directory, name), encoding="utf-8") as f:
            unused += ["%s: %s" % (name, u) for u in unused_imports(f.read())]
    return unused


def test_every_import_is_used():
    unused = _unused_in(PKG, skip=("__init__.py",))
    assert unused == [], "unused imports: " + ", ".join(unused)


def test_every_import_of_the_tests_is_used():
    unused = _unused_in(TESTS)
    assert unused == [], "unused imports: " + ", ".join(unused)


if __name__ == "__main__":
    tests = [(n, f) for n, f in list(globals().items()) if n.startswith("test_")]
    for name, test in tests:
        test()
        print("passed", name)
    print("%d passed on Python %s" % (len(tests), sys.version.split()[0]))

"""Every name a module of `src/entwine` or of `tests` imports is used in
that module, and every private module-level name of `src/entwine` is
used in the package.

The package's `__init__.py` imports to re-export, so it is not checked,
and `from __future__ import annotations` binds no name.  A name counts
as used when it is read anywhere in the module, annotations included.
A private name (a function, class or constant bound at module level
whose name starts with one underscore) counts as used when some module
of the package reads it, as a name, as an attribute or in an import, so
a helper that nothing calls any more is caught.

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


def _private_names(tree) -> list[str]:
    """The private names that the module-level statements of tree bind."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def unread_private_names(sources: dict) -> list[str]:
    """The private module-level names of sources {module: source} that no
    module reads, as "module: name"."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(a.name for a in node.names)
    return ["%s: %s" % (name, n) for name, tree in sorted(trees.items())
            for n in _private_names(tree) if n not in read]


def test_private_checker_flags_only_unread_names():
    sources = {"a.py": ("_A = 1\n_b, c = 2, 3\n__all__ = []\n"
                        "class _C:\n    _d = 4\n"
                        "def _e():\n    return _A\n"),
               "b.py": "from .a import _b\nimport a\nx = a._C\n"}
    assert unread_private_names(sources) == ["a.py: _e"]


def test_every_private_name_of_the_package_is_used():
    sources = {}
    for name in sorted(os.listdir(PKG)):
        if name.endswith(".py"):
            with open(os.path.join(PKG, name), encoding="utf-8") as f:
                sources[name] = f.read()
    private = sum(len(_private_names(ast.parse(s))) for s in sources.values())
    assert private > 50
    unread = unread_private_names(sources)
    assert unread == [], "unused private names: " + ", ".join(unread)


if __name__ == "__main__":
    tests = [(n, f) for n, f in list(globals().items()) if n.startswith("test_")]
    for name, test in tests:
        test()
        print("passed", name)
    print("%d passed on Python %s" % (len(tests), sys.version.split()[0]))

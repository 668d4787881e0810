"""Every module of the package uses each name it imports.

No linter ships with the project, so this walks the syntax tree with the
standard library alone.  ``__init__.py`` is exempt: its imports are the
package's public re-exports.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "liepairs"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """Names bound by import statements that the module never reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0]
                         for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(set(imported) - used)


def test_the_check_sees_an_unused_name():
    source = ("from itertools import product, chain\nimport os.path\n"
              "from __future__ import annotations\nchain()\n")
    assert unused_imports(source) == ["os", "product"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def orphaned_private_names(sources):
    """Private module-level functions and classes of the given modules (name
    -> source) that no code of those modules reads outside their own def."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    defined = set()
    used = set()
    for tree in trees.values():
        for node in tree.body:
            own = None
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    and node.name.startswith("_") \
                    and not node.name.startswith("__"):
                own = node.name
                defined.add(own)
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    read = sub.id
                elif isinstance(sub, ast.Attribute):
                    read = sub.attr
                else:
                    continue
                if read != own:
                    used.add(read)
    return sorted(defined - used)


def test_the_check_sees_an_orphaned_helper():
    sources = {
        "a": "def _used():\n    pass\n\ndef _recursive(n):\n"
             "    return _recursive(n - 1)\n\nclass _Orphan:\n    pass\n",
        "b": "from .a import _used\n\ndef public():\n    return _used()\n",
    }
    assert orphaned_private_names(sources) == ["_Orphan", "_recursive"]


def test_no_orphaned_private_helpers():
    sources = {p.name: p.read_text() for p in PACKAGE.glob("*.py")}
    assert orphaned_private_names(sources) == []

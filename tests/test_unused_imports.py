"""No module of ``src/poncelet`` imports a name it never uses, and no
module-level private name is left unread.

Stdlib ``ast`` checks, since no linter is a dependency: every name a
module binds by ``import`` or ``from ... import`` must be read somewhere
in that module.  ``__init__.py`` is left out, as its imports are the
package's public names.  Every private name (one leading underscore) a
module defines at top level must be read somewhere in the package, as a
name or as an attribute.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "poncelet"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
SOURCES = [p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))]


def unused_imports(source: str) -> list[str]:
    """The names ``source`` imports and never reads, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_the_check_sees_an_unused_import():
    source = "import math\nimport os.path\nfrom .chains import pole, join as j\nj(math.pi)\n"
    assert unused_imports(source) == ["os", "pole"]
    assert unused_imports("from __future__ import annotations\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_import(path):
    assert MODULES, "no modules found under src/poncelet"
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def unread_privates(sources: list[str]) -> list[str]:
    """The private names the modules define at top level that none of them reads."""
    trees = [ast.parse(source) for source in sources]
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    defined = []
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [t.id for target in targets for t in ast.walk(target) if isinstance(t, ast.Name)]
    return [name for name in defined
            if name.startswith("_") and not name.startswith("__") and name not in read]


def test_the_check_sees_an_unread_private():
    sources = [
        "_A, _B = 1, 2\n_C: int = 3\ndef _f():\n    return _A\nclass _K: pass\n__all__ = []\n",
        "from .a import _C, _f\nimport a\nprint(_f(), a._B)\n",
    ]
    assert unread_privates(sources) == ["_C", "_K"]


def test_no_unread_private_name():
    assert len(SOURCES) > 1, "no modules found under src/poncelet"
    assert unread_privates(SOURCES) == []

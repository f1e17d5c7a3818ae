"""No module of ``src/poncelet`` imports a name it never uses.

A stdlib ``ast`` check, since no linter is a dependency: every name a
module binds by ``import`` or ``from ... import`` must be read somewhere
in that module.  ``__init__.py`` is left out, as its imports are the
package's public names.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "poncelet"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


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

"""No module of the package or of the tests imports a name it never uses.

The check reads each file's syntax tree with the standard library's `ast`
alone. A name counts as used when it appears anywhere in the module as a
`Name` node (loaded, stored or deleted, which also covers `a.b` through
its root `a`); scopes are not told apart, so an import inside one
function that another function's local of the same name shadows is
missed. `nadpcm/__init__.py` is left out: it imports to re-export.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted([*(ROOT / "src" / "nadpcm").glob("*.py"), *(ROOT / "tests").glob("*.py")])
MODULES = [path for path in MODULES if path.name != "__init__.py"]


def unused_imports(source: str) -> list:
    """(line, name) of every name that `source` imports and never uses."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, alias.asname or alias.name.partition(".")[0])
                         for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, alias.asname or alias.name) for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in imported if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=[str(p.relative_to(ROOT)) for p in MODULES])
def test_every_import_is_used(path):
    unused = unused_imports(path.read_text())
    assert not unused, "; ".join(f"{path.name}:{line} imports {name}" for line, name in unused)


@pytest.mark.parametrize("source, expected", [
    ("import os\n", [(1, "os")]),
    ("import os.path\nos.getcwd()\n", []),
    ("import numpy as np\nimport math\nmath.pi\n", [(1, "np")]),
    ("from a import (b,\n    c as d)\nb()\n", [(1, "d")]),
    ("def f():\n    from scipy.special import expit\n    return expit\n", []),
    ("from __future__ import annotations\n", []),
    ("import x\nx = 1\n", []),
], ids=["unused", "dotted", "alias", "from", "in-function", "future", "rebound"])
def test_unused_imports_found(source, expected):
    assert unused_imports(source) == expected

"""No module of the package or of the tests imports a name it never uses,
no module of the package defines a private name the package never reads,
and no public name of the package is read by the tests alone.

The check reads each file's syntax tree with the standard library's `ast`
alone. A name counts as used when it appears anywhere in the module as a
`Name` node (loaded, stored or deleted, which also covers `a.b` through
its root `a`); scopes are not told apart, so an import inside one
function that another function's local of the same name shadows is
missed. `nadpcm/__init__.py` is left out: it imports to re-export.

A private name is one with a single leading underscore (`_x`) that a
package module binds at its top level by `def`, `class` or assignment. It
counts as read when any package module loads it as a `Name`, reads it as
an attribute (`mod._x`, or any other `._x`) or imports it; the tests are
not readers, so code kept only for a test is reported.

A public name is a top-level function or class of a package module, or a
method or property of one of its classes, whose name has no leading
underscore. It counts as read by the same rule, with the benchmark's
`perfbench/run.py`, `tracing.py` and `workloads.py` as readers too, since
they call the package as a user would; the tests still are not. Names
are matched, not bound objects: a method is read when any reader reads an
attribute of its name on anything, so `Mlp.zero` would pass the check on
`LpcModel.zero`'s readers. A method that a library calls for the package
(argparse's `cli._Parser.error`) is exempt by file and name. The names
that the benchmark alone reads are pinned as a set, so a benchmark-only
hook cannot land unnoticed.

The number rule is `number.as_int`, `number.as_real` and
`number.as_tuple`, and no other package code tests for an integer, a real
or a sequence itself: each name of `NUMBER_RULE`, as a `Name` or a dotted
`Attribute`, may appear only in the one rule function it maps to.

The MLP's output-layer solve (`mlp.solve_output_layer` and the
`_output_solve` it calls) is portable by construction: its sums and its
Cholesky solve are written in a stated order, so it may use no `@`, no
`np.dot`, `np.matmul` or `np.einsum`, nothing of `np.linalg` and no
`math.fsum`, whose order of operations the library chooses.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted([*(ROOT / "src" / "nadpcm").glob("*.py"), *(ROOT / "tests").glob("*.py")])
MODULES = [path for path in MODULES if path.name != "__init__.py"]
PACKAGE = sorted((ROOT / "src" / "nadpcm").glob("*.py"))
BENCHMARK = [ROOT / "perfbench" / name for name in ("run.py", "tracing.py", "workloads.py")]


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


def is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def module_privates(source: str) -> list:
    """(line, name) of every private name `source` binds at its top level."""
    bound = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in target.elts if isinstance(target, (ast.Tuple, ast.List)) else [target]:
                    if isinstance(name, ast.Name):
                        bound.append((node.lineno, name.id))
    return [(line, name) for line, name in bound if is_private(name)]


def names_read(source: str) -> set:
    """Every name `source` loads, reads as an attribute or imports."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def unread(sources: dict, defined, readers=()) -> list:
    """(file, line, name) of each name that `defined` finds in a source of
    `sources` ({file: source}) and that no source and no reader reads."""
    read = set().union(*map(names_read, [*sources.values(), *readers]))
    return [(file, line, name) for file, source in sources.items()
            for line, name in defined(source) if name not in read]


def test_every_private_name_is_read():
    sources = {path.name: path.read_text() for path in PACKAGE}
    assert sum(len(module_privates(source)) for source in sources.values()) > 0
    found = unread(sources, module_privates)
    assert not found, "; ".join(f"{file}:{line} defines {name}, which no module reads"
                                for file, line, name in found)


@pytest.mark.parametrize("sources, expected", [
    ({"a.py": "def _dead():\n    pass\n"}, [("a.py", 1, "_dead")]),
    ({"a.py": "def _f():\n    pass\n_f()\n"}, []),
    ({"a.py": "_X = 1\n", "b.py": "from a import _X\n"}, []),
    ({"a.py": "class _C:\n    pass\n", "b.py": "import a\na._C()\n"}, []),
    ({"a.py": "_a, _b = 1, 2\n_T: int = 0\nprint(_a)\n"}, [("a.py", 1, "_b"), ("a.py", 2, "_T")]),
    ({"a.py": "def f():\n    _local = 1\n    return 0\n__all__ = []\nx = 1\n"}, []),
    ({"a.py": "_x = 1\n_x = 2\n"}, [("a.py", 1, "_x"), ("a.py", 2, "_x")]),
], ids=["unread-def", "called", "imported", "attribute", "assignments", "not-private",
        "stored-only"])
def test_unread_privates_found(sources, expected):
    assert unread(sources, module_privates) == expected


def module_publics(source: str) -> list:
    """(line, name) of every public top-level function or class `source`
    defines, and of every public method or property of its classes."""
    defined = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.append((node.lineno, node.name))
        if isinstance(node, ast.ClassDef):
            defined += [(child.lineno, child.name) for child in node.body
                        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))]
    return [(line, name) for line, name in defined if not name.startswith("_")]


# A public method that a library calls on the package's behalf, exempt by
# (file, name): argparse calls `cli._Parser.error`, the hook it documents for
# overriding. Without the exemption the check would pass only because
# `perfbench/run.py` calls its own parser's `.error`, a name match.
LIBRARY_HOOKS = {("cli.py", "error")}

# The public names that only the benchmark reads: the shims ROADMAP item 1
# and item 4 delete. A new name here is a benchmark-only hook landing in the
# package; a name leaving it is one fewer to delete.
BENCHMARK_ONLY = {"AdaptiveQuantizer", "adapt", "predict"}


def publics_unread(readers=()) -> list:
    """(file, line, name) of each public package name, library hooks aside,
    that no package module and no source of `readers` reads."""
    sources = {path.name: path.read_text() for path in PACKAGE}
    assert sum(len(module_publics(source)) for source in sources.values()) > 0
    return [(file, line, name) for file, line, name in unread(sources, module_publics, readers)
            if (file, name) not in LIBRARY_HOOKS]


def test_every_public_name_is_read():
    found = publics_unread([path.read_text() for path in BENCHMARK])
    assert not found, "; ".join(f"{file}:{line} defines {name}, which only the tests read"
                                for file, line, name in found)


def test_names_only_the_benchmark_reads():
    assert {name for _, _, name in publics_unread()} == BENCHMARK_ONLY


@pytest.mark.parametrize("sources, readers, expected", [
    ({"a.py": "def dead():\n    pass\n"}, [], [("a.py", 1, "dead")]),
    ({"a.py": "def f():\n    pass\n", "b.py": "from a import f\n"}, [], []),
    ({"a.py": "class C:\n    pass\n"}, ["import a\na.C()\n"], []),
    ({"a.py": "class C:\n    def m(self):\n        pass\n\n"
              "    @property\n    def p(self):\n        return 0\n"}, [],
     [("a.py", 1, "C"), ("a.py", 2, "m"), ("a.py", 6, "p")]),
    ({"a.py": "class C:\n    def m(self):\n        return self.p\n\n"
              "    @property\n    def p(self):\n        return 0\nC().m()\n"}, [], []),
    ({"a.py": "class C:\n    def zero(self):\n        pass\n\n"
              "class D:\n    def zero(self):\n        pass\nD().zero()\nC\n"}, [], []),
    ({"a.py": "X = 1\ndef _f():\n    pass\nclass C:\n    def __init__(self):\n"
              "        pass\n    def _g(self):\n        pass\nC\n"}, [], []),
], ids=["unread-def", "imported", "benchmark-reads", "method-and-property", "read-in-package",
        "same-name", "not-public"])
def test_unread_publics_found(sources, readers, expected):
    assert unread(sources, module_publics, readers) == expected


NUMBER_RULE = {"np.integer": "as_int", "operator.index": "as_int", "numbers.Real": "as_real",
               "numbers.Integral": "as_real", "Sequence": "as_tuple"}


def dotted(node) -> str | None:
    """`a.b.c` for a Name or an Attribute chain on one, else None."""
    if isinstance(node, ast.Name):
        return node.id
    base = dotted(node.value) if isinstance(node, ast.Attribute) else None
    return base and f"{base}.{node.attr}"


def number_tests(source: str) -> list:
    """(line, name, where) of each use of a `NUMBER_RULE` name in `source`;
    `where` is the qualified name of the innermost enclosing def or class,
    or "<module>"."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
            elif dotted(child) in NUMBER_RULE:
                found.append((child.lineno, dotted(child), scope or "<module>"))
            else:
                visit(child, scope)

    visit(ast.parse(source), "")
    return found


def test_number_tests_only_in_the_rule():
    uses = {path.name: number_tests(path.read_text()) for path in PACKAGE}
    assert {name for found in uses.values() for _, name, _ in found} >= {"np.integer", "Sequence"}
    stray = [(file, line, name, where) for file, found in uses.items()
             for line, name, where in found if (file, where) != ("number.py", NUMBER_RULE[name])]
    assert not stray, "; ".join(f"{file}:{line} uses {name} in {where}, not in number."
                                f"{NUMBER_RULE[name]}" for file, line, name, where in stray)


@pytest.mark.parametrize("source, expected", [
    ("def as_int(v):\n    return isinstance(v, np.integer)\n", [(2, "np.integer", "as_int")]),
    ("class R:\n    def __init__(self, s):\n        self.s = operator.index(s)\n",
     [(3, "operator.index", "R.__init__")]),
    ("from collections.abc import Sequence\nOK = isinstance(x, Sequence)\n",
     [(2, "Sequence", "<module>")]),
    ("def f(v):\n    def g():\n        return numbers.Real\n    return g\n",
     [(3, "numbers.Real", "f.g")]),
    ("x = np.integers\ny = a.np.integer\nz = numbers\n", []),
], ids=["function", "method", "module", "nested", "other-names"])
def test_number_tests_found(source, expected):
    assert number_tests(source) == expected


PORTABLE_SOLVE = {"solve_output_layer", "_output_solve"}
UNORDERED = {"np.dot", "np.matmul", "np.einsum", "math.fsum"}


def unordered_arithmetic(source: str, functions) -> list:
    """(function, line, what) of each `@`, `UNORDERED` name or use of
    `np.linalg` in the named top-level functions of `source`; a named
    function that `source` does not define is reported as missing."""
    defined = {node.name: node for node in ast.parse(source).body
               if isinstance(node, ast.FunctionDef)}
    found = [(name, 0, "missing") for name in functions if name not in defined]
    for name in functions & defined.keys():
        for node in ast.walk(defined[name]):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
                found.append((name, node.lineno, "@"))
            elif dotted(node) in UNORDERED:
                found.append((name, node.lineno, dotted(node)))
            elif dotted(node) == "np.linalg":
                found.append((name, node.lineno, "np.linalg"))
    return found


def test_output_layer_solve_is_portable():
    source = (ROOT / "src" / "nadpcm" / "mlp.py").read_text()
    found = unordered_arithmetic(source, PORTABLE_SOLVE)
    assert not found, "; ".join(f"mlp.{name}:{line} uses {what}" for name, line, what in found)


@pytest.mark.parametrize("source, expected", [
    ("def f(a, b):\n    return a @ b\n", [("f", 2, "@")]),
    ("def f(a, b):\n    a @= b\n", [("f", 2, "@")]),
    ("def f(a):\n    return np.dot(a, a) + np.einsum('i,i', a, a)\n",
     [("f", 2, "np.dot"), ("f", 2, "np.einsum")]),
    ("def f(a):\n    return np.linalg.solve(a, a)\n", [("f", 2, "np.linalg")]),
    ("def f(a):\n    return math.fsum(a)\n", [("f", 2, "math.fsum")]),
    ("def f(a):\n    return np.add.reduce(a * a) / math.sqrt(2.0)\n", []),
    ("def g(a):\n    return a @ a\n", [("f", 0, "missing")]),
], ids=["matmul", "in-place-matmul", "dot-einsum", "linalg", "fsum", "ordered", "missing"])
def test_unordered_arithmetic_found(source, expected):
    assert unordered_arithmetic(source, {"f"}) == expected

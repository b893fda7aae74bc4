"""Source hygiene: every module-level import in firesim is read, every
private name it defines is named somewhere else in it, and no module-level
name is defined in two of its modules."""

import ast
import pathlib

import pytest

import firesim

PACKAGE = sorted(pathlib.Path(firesim.__file__).parent.glob("*.py"))
# __init__ imports names to re-export them, not to read them
MODULES = [p for p in PACKAGE if p.name != "__init__.py"]


def unused_imports(source: str) -> list[str]:
    """The names bound by the module-level imports of `source` that no name
    in the module reads, with their lines."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                            and node.module != "__future__"):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in bound.items() if name not in read]


def test_unused_imports_finds_only_unread_names():
    src = "import os\nimport numpy as np\nfrom . import a, b as c\ndef f(x: np.ndarray):\n    a.g()\n"
    assert unused_imports(src) == ["os (line 1)", "c (line 3)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


def defined_names(nodes) -> list[tuple[str, int]]:
    """(name, line) of every function, class and plain assignment among the
    statements `nodes`."""
    out = []
    for node in nodes:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.append((node.name, node.lineno))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out += [(t.id, node.lineno) for t in targets if isinstance(t, ast.Name)]
    return out


def dead_private_names(sources: dict) -> list[str]:
    """The module-level private names and private methods defined in
    `sources` (module name -> source) that no name or attribute in any of
    them reads, with their modules and lines."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        methods = [node for cls in tree.body if isinstance(cls, ast.ClassDef)
                   for node in cls.body if isinstance(node, ast.FunctionDef)]
        defined += [(name, module, line) for name, line in defined_names(tree.body + methods)
                    if name.startswith("_") and not name.endswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return [f"{name} ({module}, line {line})" for name, module, line in defined
            if name not in read]


def test_dead_private_names_finds_only_unread_names():
    sources = {"a": "_K = 1\n_DEAD = 2\nclass _C:\n    def _m(self):\n        return _K\n"
                    "    def _gone(self):\n        pass\n    def __init__(self):\n        pass\n",
               "b": "from a import _C\n_C()._m()\n"}
    assert dead_private_names(sources) == ["_DEAD (a, line 2)", "_gone (a, line 6)"]


def test_no_dead_private_names():
    assert dead_private_names({p.name: p.read_text() for p in PACKAGE}) == []


def names_defined_twice(sources: dict) -> list[str]:
    """The module-level names that two or more of `sources` (module name ->
    source) define, with those modules; a name imported from another
    module is not a definition."""
    where: dict = {}
    for module, source in sources.items():
        for name, _ in defined_names(ast.parse(source).body):
            where.setdefault(name, set()).add(module)
    return [f"{name} ({', '.join(sorted(modules))})"
            for name, modules in sorted(where.items()) if len(modules) > 1]


def test_names_defined_twice_finds_only_repeated_definitions():
    sources = {"a": "CAP = 1\ndef f():\n    pass\nclass C:\n    g = 2\n",
               "b": "from a import f\nCAP: int = 2\nclass C:\n    pass\ng = 3\n"}
    assert names_defined_twice(sources) == ["C (a, b)", "CAP (a, b)"]


def test_no_name_defined_in_two_modules():
    """One constant, function or class has one home: two definitions can
    drift apart, as two site caps once did."""
    assert names_defined_twice({p.name: p.read_text() for p in PACKAGE}) == []

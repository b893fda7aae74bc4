"""Source hygiene: every module-level import in firesim is read, and every
private name it defines is named somewhere else in it."""

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


def dead_private_names(sources: dict) -> list[str]:
    """The module-level private names and private methods defined in
    `sources` (module name -> source) that no name or attribute in any of
    them reads, with their modules and lines."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        methods = [node for cls in tree.body if isinstance(cls, ast.ClassDef)
                   for node in cls.body if isinstance(node, ast.FunctionDef)]
        for node in tree.body + methods:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            defined += [(name, module, node.lineno) for name in names
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

"""Source hygiene: every module-level import in firesim is read."""

import ast
import pathlib

import pytest

import firesim

# __init__ imports names to re-export them, not to read them
MODULES = sorted(p for p in pathlib.Path(firesim.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


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

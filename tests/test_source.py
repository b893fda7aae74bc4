"""Source hygiene: every module-level import in firesim is read, every
private name it defines is named somewhere else in it, no module-level
name is defined in two of its modules, every parameter default is
passed by some caller, no function takes a noise field and a model
config both, and every config key the CLI accepts is one it reads."""

import ast
import math
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


# every caller of the package's functions: the package, its tests and perfbench
CALLERS = [*PACKAGE, *sorted(pathlib.Path(__file__).parent.glob("*.py")),
           *sorted((pathlib.Path(__file__).parents[1] / "perfbench").glob("*.py"))]


def called_name(node):
    """The name a call's function node ends in: f for f and for a.b.f."""
    return getattr(node, "attr", getattr(node, "id", None))


def defaults_never_passed(definitions: dict, callers: list) -> list[str]:
    """The parameters with defaults of the functions and methods defined in
    `definitions` (module name -> source) that no call in the sources
    `callers` passes, by keyword or by position, with their modules and
    lines.  Calls match by the called name: a class call matches its
    __init__, functools.partial(f, ...) calls f, and a call with *args or
    **kwargs may pass every parameter."""
    params = []    # (called name, parameter, position or None, module, line)
    for module, source in definitions.items():
        tree = ast.parse(source)
        owner = {id(f): cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                 for f in cls.body if isinstance(f, ast.FunctionDef)}
        for f in ast.walk(tree):
            if not isinstance(f, ast.FunctionDef):
                continue
            name = owner[id(f)] if f.name == "__init__" and id(f) in owner else f.name
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                         for d in f.decorator_list)
            args = f.args.posonlyargs + f.args.args
            args = args[1:] if id(f) in owner and not static else args
            first = len(args) - len(f.args.defaults)
            params += [(name, a.arg, first + i, module, a.lineno)
                       for i, a in enumerate(args[first:])]
            params += [(name, a.arg, None, module, a.lineno)
                       for a, d in zip(f.args.kwonlyargs, f.args.kw_defaults) if d is not None]
    positional, keywords = {}, {}   # called name -> most positional args / keyword names
    for source in callers:
        for call in ast.walk(ast.parse(source)):
            if not isinstance(call, ast.Call):
                continue
            func, args = call.func, call.args
            if called_name(func) == "partial" and args:
                func, args = args[0], args[1:]
            name = called_name(func)
            many = any(isinstance(a, ast.Starred) for a in args)
            positional[name] = max(positional.get(name, 0), math.inf if many else len(args))
            keywords.setdefault(name, set()).update(k.arg for k in call.keywords)
    return [f"{name}({param}) ({module}, line {line})"
            for name, param, pos, module, line in params
            if not (param in keywords.get(name, ()) or None in keywords.get(name, ())
                    or pos is not None and positional.get(name, 0) > pos)]


def test_defaults_never_passed_finds_only_unpassed_defaults():
    definitions = {"a": "def f(x, y=1, *, z=2):\n    pass\nclass C:\n"
                        "    def __init__(self, w=0):\n        pass\n"
                        "    def m(self, v=3, u=4):\n        pass\n"
                        "def g(s=5):\n    pass\n"}
    callers = ["f(1, 2)\nC()\nC().m(5)\nfunctools.partial(f, z=0)\ng(**kw)\n"]
    assert defaults_never_passed(definitions, callers) == ["C(w) (a, line 4)",
                                                           "m(u) (a, line 6)"]


def test_every_parameter_default_is_overridden():
    """A default that every caller keeps is a constant in disguise."""
    assert defaults_never_passed({p.name: p.read_text() for p in PACKAGE},
                                 [p.read_text() for p in CALLERS]) == []


def noise_with_config(source: str) -> list[str]:
    """The functions and methods of `source` that take a `noise` or
    `noises` parameter and a `config` parameter both, with their lines."""
    out = []
    for f in ast.walk(ast.parse(source)):
        if isinstance(f, ast.FunctionDef):
            args = f.args
            names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
            if names & {"noise", "noises"} and "config" in names:
                out.append(f"{f.name} (line {f.lineno})")
    return out


def test_noise_with_config_finds_only_functions_taking_both():
    src = ("def f(noise, config):\n    pass\ndef g(noises, *, config=None):\n    pass\n"
           "def h(noise, t):\n    pass\ndef k(config, seeds):\n    pass\n"
           "class C:\n    def __init__(self, noise, config):\n        pass\n")
    assert noise_with_config(src) == ["f (line 1)", "g (line 3)", "__init__ (line 10)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_function_takes_a_noise_field_and_a_config(path):
    """A noise field carries its model (`NoiseField.config`): a second
    config beside it could name another model, and a run would mix the
    two."""
    assert noise_with_config(path.read_text()) == []


def unread_table_keys(source: str) -> list[str]:
    """The strings that the set displays of `source`'s module-level `*_KEYS`
    tables name and no string literal outside those tables does."""
    tree = ast.parse(source)
    tables = [node for node in tree.body if isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id.endswith("_KEYS") for t in node.targets)]
    in_tables = {id(node) for table in tables for node in ast.walk(table)}
    named = {elt.value for table in tables for node in ast.walk(table)
             if isinstance(node, ast.Set) for elt in node.elts
             if isinstance(elt, ast.Constant) and isinstance(elt.value, str)}
    read = {node.value for node in ast.walk(tree) if id(node) not in in_tables
            and isinstance(node, ast.Constant) and isinstance(node.value, str)}
    return sorted(named - read)


def test_unread_table_keys_finds_only_keys_named_in_tables_alone():
    src = ('_TOP_KEYS = {"a", "b"}\n_KIND_KEYS = {"x": {"c", "d"}, "y": {"e"}}\n'
           '_OTHER = {"f"}\ndef g(spec):\n    return spec.get("a"), spec["d"], "x", "f"\n')
    assert unread_table_keys(src) == ["b", "c", "e"]


def test_every_cli_config_key_is_read():
    """A key the CLI accepts but never looks up would be ignored silently."""
    source = (pathlib.Path(firesim.__file__).parent / "cli.py").read_text()
    assert unread_table_keys(source) == []

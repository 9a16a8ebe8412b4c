"""Every function and method in src/qkan has a caller.

A function counts as used when it is named outside its own body in
src/qkan or in the benchmark under perfbench/, which is read here but
not imported: as a name, as an attribute of a qkan module (`daruan.f`,
`importlib.import_module("qkan.daruan").f`, `sys.modules[...].f`), or
as a whole string that is its name or a module path ending in it
("cmd_eval", "daruan.circuit_forward"). Words in prose strings, in
`__all__` and in docstrings do not count. A method (a def in a class
body) counts as used only through an attribute reference, `obj.name`,
or when it overrides an attribute of a base class from the standard
library, whose code calls it. Tests do not count: a function that only
a test calls belongs in the test's oracle module.
"""

import ast
import importlib
import re
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PATH = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*", re.ASCII)


def _is_docstring(node) -> bool:
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def _binds_all(node) -> bool:
    """Whether `node` assigns or extends `__all__`."""
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target] if isinstance(node, ast.AugAssign) else [])
    return any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets)


class Modules:
    """Which expressions of a file are the package or one of its modules:
    a name the file binds by import, by importlib.import_module("pkg.x")
    or from sys.modules[...]; a sys.modules[...] subscript; and pkg.x."""

    def __init__(self, tree, package: str, modules: set[str]):
        self.package, self.names = package, modules | {package}
        self.aliases = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                    (node.level and node.module is None)
                    or node.module == package):
                self.aliases |= {a.asname or a.name for a in node.names
                                 if a.name in self.names}
            elif isinstance(node, ast.Import):
                self.aliases |= {a.asname or a.name.partition(".")[0]
                                 for a in node.names
                                 if a.name.partition(".")[0] == package}
            elif isinstance(node, ast.Assign) and self.loaded(node.value):
                self.aliases |= {t.id for t in node.targets
                                 if isinstance(t, ast.Name)}

    def loaded(self, node) -> bool:
        """importlib.import_module("pkg...") or sys.modules[...]."""
        if isinstance(node, ast.Subscript):
            return ast.unparse(node.value) == "sys.modules"
        return (isinstance(node, ast.Call)
                and ast.unparse(node.func).endswith("import_module")
                and bool(node.args) and isinstance(node.args[0], ast.Constant)
                and str(node.args[0].value).partition(".")[0] == self.package)

    def __contains__(self, node) -> bool:
        if isinstance(node, ast.Name):
            return node.id in self.aliases
        if isinstance(node, ast.Attribute):
            return node.attr in self.names and node.value in self
        return self.loaded(node)


def references(tree, modules: Modules) -> tuple[Counter, Counter]:
    """Uses in `tree` of a top-level function's name, and attribute
    names. A function is used by a name, by an attribute of one of
    `modules`, or by a string constant, outside docstrings and
    `__all__`, that is its name or a path of module names ending in it."""
    skipped = {id(node.value) for node in ast.walk(tree)
               if _is_docstring(node)}
    skipped |= {id(sub) for node in ast.walk(tree) if _binds_all(node)
                for sub in ast.walk(node)}
    functions, attributes = Counter(), Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            attributes[node.attr] += 1
            if node.value in modules:
                functions[node.attr] += 1
        elif isinstance(node, ast.Name):
            functions[node.id] += 1
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in skipped and PATH.fullmatch(node.value)):
            head, _, name = node.value.rpartition(".")
            if not head or set(head.split(".")) <= modules.names:
                functions[name] += 1
    return functions, attributes


def stdlib_attributes(cls: ast.ClassDef) -> set[str]:
    """The attributes of the bases of `cls` that are builtins or are
    named module.Class with a standard library module."""
    found = set()
    for base in cls.bases:
        module, _, name = ast.unparse(base).rpartition(".")
        module = module or "builtins"
        if module.partition(".")[0] in sys.stdlib_module_names:
            base_class = getattr(importlib.import_module(module), name, None)
            if isinstance(base_class, type):
                found.update(dir(base_class))
    return found


def unused_defs(package: Path, readers: list[Path]) -> list[str]:
    """The non-dunder functions and methods of `package`/*.py that no
    code in `package` or `readers` uses outside their own def."""
    trees = {path: ast.parse(path.read_text(), str(path))
             for path in sorted(package.glob("*.py"))}
    readers = [ast.parse(path.read_text(), str(path)) for path in readers]
    names = {path.stem for path in trees}
    modules = {id(tree): Modules(tree, package.name, names)
               for tree in [*trees.values(), *readers]}
    used, attributes = Counter(), Counter()
    for tree in [*trees.values(), *readers]:
        functions, attrs = references(tree, modules[id(tree)])
        used += functions
        attributes += attrs
    unused = []
    for path, tree in trees.items():
        # method -> the stdlib attributes its class inherits
        methods = {id(node): stdlib_attributes(cls)
                   for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                   for node in cls.body}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            own_functions, own_attributes = references(node, modules[id(tree)])
            if id(node) not in methods:
                alive = used[name] - own_functions[name] > 0
            else:
                alive = (name in methods[id(node)]
                         or attributes[name] - own_attributes[name] > 0)
            if not alive:
                unused.append((path.name, node.lineno, name))
    return [f"{file}:{line} {name}" for file, line, name in sorted(unused)]


def test_every_function_has_a_caller():
    readers = sorted((ROOT / "perfbench").rglob("*.py"))
    assert readers, "perfbench/ holds the benchmark's callers"
    assert unused_defs(ROOT / "src" / "qkan", readers) == []


def test_all_resolves():
    # the guard does not read __all__, so a stale entry would go unseen
    import qkan
    assert len(set(qkan.__all__)) == len(qkan.__all__)
    assert [name for name in qkan.__all__ if not hasattr(qkan, name)] == []
    namespace = {}
    exec("from qkan import *", namespace)
    assert set(qkan.__all__) <= namespace.keys()


def test_guard_flags_a_def_named_only_inside_itself(tmp_path):
    (tmp_path / "mod.py").write_text(
        '"""unused_in_docstring"""\n'
        "def used():\n    return 1\n\n"
        "def recursive(n):\n    return recursive(n - 1) if n else used()\n\n"
        "class C:\n    def method(self):\n"
        "        return ('named_in_string', 'method_named_in_string')\n\n"
        "    def method_named_in_string(self):\n"
        "        return self.called()\n\n"
        "    def called(self):\n        pass\n\n"
        "class P(argparse.ArgumentParser):\n"
        "    def error(self, message):\n        pass\n\n"
        "def named_in_string():\n    pass\n\n"
        "def unused_in_docstring():\n    pass\n")
    assert unused_defs(tmp_path, []) == ["mod.py:5 recursive",
                                         "mod.py:9 method",
                                         "mod.py:12 method_named_in_string",
                                         "mod.py:25 unused_in_docstring"]


def test_guard_counts_module_attributes_and_identifier_strings(tmp_path):
    package = tmp_path / "qkan"
    package.mkdir()
    (package / "__init__.py").write_text(
        "from .mod import only_in_all\n"
        "__all__ = ['only_in_all']\n")
    (package / "mod.py").write_text(
        "def only_in_all():\n    pass\n\n"
        "def only_in_prose():\n    pass\n\n"
        "def run():\n    pass\n\n"
        "def via_alias():\n    pass\n\n"
        "def via_import_module():\n    pass\n\n"
        "def via_sys_modules():\n    pass\n\n"
        "def cmd_named():\n    pass\n\n"
        "def by_path():\n    pass\n\n"
        "def check(x, job):\n"
        "    if not x:\n"
        "        raise ValueError('call only_in_prose first')\n"
        "    return job.run()\n")
    (package / "user.py").write_text(
        "from . import mod as m\n\n"
        "m.via_alias()\n"
        "m.check(1, None)\n"
        "COMMANDS = {'named': 'cmd_named'}\n")
    (tmp_path / "bench.py").write_text(
        "import importlib\nimport sys\n\n"
        "mod = importlib.import_module('qkan.mod')\n"
        "mod.via_import_module()\n"
        "sys.modules['qkan.mod'].via_sys_modules()\n"
        "TARGETS = [('qkan.mod', 'mod.by_path', 'Job.run')]\n")
    assert unused_defs(package, [tmp_path / "bench.py"]) == [
        "mod.py:1 only_in_all", "mod.py:4 only_in_prose", "mod.py:7 run"]

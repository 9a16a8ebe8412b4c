"""Every function and method in src/qkan has a caller.

A function counts as used when its name appears outside its own body in
src/qkan (as a name, an attribute or a word of a string, which covers
`qkan.__all__`) or in the benchmark under perfbench/, which is read
here but not imported. A method (a def in a class body) counts as used
only through an attribute reference, `obj.name`, or when it overrides
an attribute of a base class from the standard library, whose code
calls it. Docstrings do not count, and tests do not count: a function
that only a test calls belongs in the test's oracle module.
"""

import ast
import importlib
import re
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _is_docstring(node) -> bool:
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def references(tree, attributes_only: bool = False) -> Counter:
    """Identifier words in `tree`: attributes, and unless
    `attributes_only`, names and the words of string constants other
    than docstrings."""
    docstrings = {id(node.value) for node in ast.walk(tree)
                  if _is_docstring(node)}
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif attributes_only:
            continue
        elif isinstance(node, ast.Name):
            found[node.id] += 1
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docstrings):
            found.update(WORD.findall(node.value))
    return found


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
    used, attributes = Counter(), Counter()
    for tree in [*trees.values(), *readers]:
        used += references(tree)
        attributes += references(tree, attributes_only=True)
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
            if id(node) not in methods:
                alive = used[name] - references(node)[name] > 0
            else:
                alive = (name in methods[id(node)]
                         or attributes[name] - references(
                             node, attributes_only=True)[name] > 0)
            if not alive:
                unused.append((path.name, node.lineno, name))
    return [f"{file}:{line} {name}" for file, line, name in sorted(unused)]


def test_every_function_has_a_caller():
    readers = sorted((ROOT / "perfbench").rglob("*.py"))
    assert readers, "perfbench/ holds the benchmark's callers"
    assert unused_defs(ROOT / "src" / "qkan", readers) == []


def test_guard_flags_a_def_named_only_inside_itself(tmp_path):
    (tmp_path / "mod.py").write_text(
        '"""unused_in_docstring"""\n'
        "def used():\n    return 1\n\n"
        "def recursive(n):\n    return recursive(n - 1) if n else used()\n\n"
        "class C:\n    def method(self):\n"
        "        return 'named_in_string method_named_in_string'\n\n"
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

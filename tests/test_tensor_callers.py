"""Every public name in the package must have a caller outside the tests.

An op that only verify.py or the tests import is a second op set kept
alive to test itself. This reads each module's ``from .tensor import``
statements (the package ``__init__`` re-export counts) and checks them
against the functions and classes tensor.py defines at module level.

Package-wide, every public function, class and method of every module
must be read somewhere outside its own definition: in a package module
(its own included, ``verify.py`` too) or in a ``perfbench/`` module. The
``__init__`` re-exports and the tests do not count. A read is an
identifier, an attribute name or a from-import name equal to the
definition's name, so a method counts as called when any attribute of
that name is read.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "stochpool"
EXEMPT = {"tensor.py", "verify.py"}


def public_definitions(source: str) -> set:
    return {node.name for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")}


def tensor_imports(source: str) -> set:
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "tensor":
            names.update(alias.name for alias in node.names)
    return names


def uncalled(tensor_source: str, other_sources) -> set:
    imported = set().union(*(tensor_imports(s) for s in other_sources))
    return public_definitions(tensor_source) - imported


def public_members(tree: ast.Module):
    """(qualified name, node) for each public module-level function and class
    and each public method of a public class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{node.name}.{item.name}", item


def reads(tree: ast.AST, skip: ast.AST | None = None) -> set:
    """Identifiers, attribute names and from-import names in ``tree``,
    leaving out the subtree ``skip``."""
    names = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        stack.extend(ast.iter_child_nodes(node))
    return names


def unread(modules: dict, readers=()) -> set:
    """``module:qualname`` of each public member of ``modules`` (file name ->
    source) read nowhere outside its own definition; ``readers`` are
    further sources that count only as readers."""
    trees = {name: ast.parse(source) for name, source in modules.items()}
    read_by = {name: reads(tree) for name, tree in trees.items()}
    outside = set().union(*(reads(ast.parse(source)) for source in readers))
    flagged = set()
    for name, tree in trees.items():
        elsewhere = outside.union(*(r for other, r in read_by.items() if other != name))
        for qualname, node in public_members(tree):
            if node.name not in elsewhere and node.name not in reads(tree, skip=node):
                flagged.add(f"{name}:{qualname}")
    return flagged


def test_scan_reports_names_without_a_caller():
    tensor_source = "class Tensor:\n    pass\ndef used(a):\n    pass\ndef spare(a):\n    pass\n" \
                    "def _helper():\n    pass\n"
    callers = ["from .tensor import (Tensor,\n    used)\n", "from .tensor import _helper\n"]
    assert uncalled(tensor_source, callers) == {"spare"}
    assert uncalled(tensor_source, callers + ["from .tensor import spare\n"]) == set()
    assert uncalled(tensor_source, ["from .attention import spare\n"]) == {"Tensor", "used",
                                                                           "spare"}

    ops = ("class Box:\n    def size(self):\n        return self.size()\n"
           "    def open(self):\n        return _lid()\n"
           "def _lid():\n    return Box().open()\n"
           "def spare():\n    return spare()\n"
           "def twice(a):\n    return a\n")
    assert unread({"ops.py": ops}) == {"ops.py:Box.size", "ops.py:spare", "ops.py:twice"}
    caller = "from .ops import Box, twice\n\ndef run(box):\n    return twice(box.size())\n"
    assert unread({"ops.py": ops, "run.py": caller}) == {"ops.py:spare", "run.py:run"}
    assert unread({"ops.py": ops}, readers=[caller]) == {"ops.py:spare"}


def test_every_public_tensor_name_has_a_caller():
    tensor_source = (PACKAGE / "tensor.py").read_text(encoding="utf-8")
    others = [path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))
              if path.name not in EXEMPT]
    assert len(others) >= 10
    assert uncalled(tensor_source, others) == set(), \
        "public tensor.py names that no package module besides verify.py imports"


def test_every_public_name_in_the_package_has_a_caller():
    modules = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"}
    perfbench = [path.read_text(encoding="utf-8")
                 for path in sorted((ROOT / "perfbench").glob("*.py"))
                 if not path.name.startswith("test_")]
    assert len(modules) >= 14 and len(perfbench) >= 3
    assert unread(modules, perfbench) == set(), \
        "public names that only the tests or the package __init__ read"

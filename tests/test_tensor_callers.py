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
that name is read; except that a method or property whose name numpy
arrays, dicts, lists, sets, strings or numpy Generators also carry, or
that another package class also defines (``shape``, ``get``, ``step``),
counts as read only where the receiver of the attribute resolves to its
class. Receivers resolve from the AST alone: ``self`` in a method,
parameter, field and return annotations, constructor calls, and names and
attributes assigned a resolved value.
"""

import ast
from collections import defaultdict
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "stochpool"
EXEMPT = {"tensor.py", "verify.py"}
COMMON = frozenset(name for owner in (np.ndarray, dict, list, set, str, np.random.Generator)
                   for name in dir(owner))
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)


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


def scope_nodes(scope: ast.AST):
    """The nodes of ``scope`` in source order, outside its nested functions and classes."""
    for node in ast.iter_child_nodes(scope):
        yield node
        if not isinstance(node, SCOPES):
            yield from scope_nodes(node)


class Owners:
    """The package classes that an expression's value may be an instance of."""

    def __init__(self, trees):
        trees = list(trees)
        self.classes = {n.name for t in trees for n in t.body if isinstance(n, ast.ClassDef)}
        self.members = defaultdict(lambda: defaultdict(set))  # class -> attribute -> classes
        self.returns = defaultdict(set)  # module-level function -> classes
        defined = defaultdict(set)  # attribute -> classes that define it
        for tree in trees:
            for node in tree.body:
                if isinstance(node, ast.FunctionDef):
                    self.returns[node.name] |= self.named(node.returns)
                elif isinstance(node, ast.ClassDef):
                    for item in node.body:
                        if isinstance(item, ast.FunctionDef):
                            name, annotation = item.name, item.returns
                        elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                            name, annotation = item.target.id, item.annotation
                        else:
                            continue
                        defined[name].add(node.name)
                        self.members[node.name][name] |= self.named(annotation)
                    for sub in ast.walk(node):
                        if (isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store)
                                and isinstance(sub.value, ast.Name) and sub.value.id == "self"):
                            defined[sub.attr].add(node.name)
        self.by_owner = COMMON | {name for name, owners in defined.items() if len(owners) > 1}
        for tree in trees:  # learn the classes of assigned attributes
            reads(tree, owners=self)

    def named(self, annotation) -> set:
        """The package classes an annotation names, in strings too."""
        found = set()
        for node in ast.walk(annotation) if annotation is not None else ():
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                found |= self.named(ast.parse(node.value, mode="eval"))
            elif isinstance(node, (ast.Name, ast.Attribute)):
                found.add(node.id if isinstance(node, ast.Name) else node.attr)
        return found & self.classes

    def of(self, node, env: dict) -> set:
        if isinstance(node, ast.Name):
            return env.get(node.id, set())
        if isinstance(node, ast.Attribute):
            return set().union(*(self.members[c][node.attr] for c in self.of(node.value, env)))
        if isinstance(node, ast.Call):  # a constructor, a function or a method
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in self.classes:
                return {name}
            found = set(self.returns.get(name, ()))
            return found | self.of(func, env) if isinstance(func, ast.Attribute) else found
        return set()

    def bind(self, scope, env: dict, cls: str | None) -> dict:
        """``env`` extended by the parameters and assignments of ``scope``;
        an assignment to an attribute of a resolved receiver extends the
        members of its class."""
        env = dict(env)
        params = ([] if isinstance(scope, ast.Module) else
                  scope.args.posonlyargs + scope.args.args + scope.args.kwonlyargs)
        for arg in params:
            env[arg.arg] = self.named(arg.annotation)
        if cls and params:
            env[params[0].arg] = {cls}
        for node in scope_nodes(scope):
            if not isinstance(node, ast.Assign):
                continue
            found = self.of(node.value, env)
            for target in node.targets:
                if isinstance(target, ast.Name):
                    env[target.id] = env.get(target.id, set()) | found
                elif isinstance(target, ast.Attribute):
                    for owner in self.of(target.value, env):
                        self.members[owner][target.attr] |= found
        return env


def reads(tree: ast.AST, skip: ast.AST | None = None, owners: Owners | None = None) -> set:
    """Identifiers, attribute names and from-import names in ``tree``,
    leaving out the subtree ``skip``. With ``owners``, an attribute named
    in ``owners.by_owner`` is read as ``Class.name`` for each class its
    receiver resolves to, and not by its name alone."""
    names = set()

    def visit(node, env, cls):
        if node is skip:
            return
        if owners is not None and isinstance(node, (ast.Module, ast.FunctionDef,
                                                    ast.AsyncFunctionDef, ast.Lambda)):
            env = owners.bind(node, env, cls)
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            if owners is not None and node.attr in owners.by_owner:
                names.update(f"{c}.{node.attr}" for c in owners.of(node.value, env))
            else:
                names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        inner = node.name if isinstance(node, ast.ClassDef) else None
        for child in ast.iter_child_nodes(node):
            visit(child, env, inner)

    visit(tree, {}, None)
    return names


def unread(modules: dict, readers=()) -> set:
    """``module:qualname`` of each public member of ``modules`` (file name ->
    source) read nowhere outside its own definition; ``readers`` are
    further sources that count only as readers."""
    trees = {name: ast.parse(source) for name, source in modules.items()}
    owners = Owners(trees.values())
    read_by = {name: reads(tree, owners=owners) for name, tree in trees.items()}
    outside = set().union(*(reads(ast.parse(source), owners=owners) for source in readers))
    flagged = set()
    for name, tree in trees.items():
        elsewhere = outside.union(*(r for other, r in read_by.items() if other != name))
        for qualname, node in public_members(tree):
            key = qualname if "." in qualname and node.name in owners.by_owner else node.name
            if key not in elsewhere and key not in reads(tree, skip=node, owners=owners):
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
    caller = "from .ops import Box, twice\n\ndef run(box: Box):\n    return twice(box.size())\n"
    assert unread({"ops.py": ops, "run.py": caller}) == {"ops.py:spare", "run.py:run"}
    assert unread({"ops.py": ops}, readers=[caller]) == {"ops.py:spare"}
    # arrays have a size too, so only a receiver that resolves to a Box reads Box.size
    unresolved = caller.replace("box: Box", "box")
    assert unread({"ops.py": ops}, readers=[unresolved]) == {"ops.py:Box.size", "ops.py:spare"}
    built = "from .ops import Box\n\ndef run(a):\n    box = Box()\n    return box.size(), a.size\n"
    assert unread({"ops.py": ops}, readers=[built]) == {"ops.py:spare", "ops.py:twice"}


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


def test_a_method_named_like_an_array_attribute_needs_a_caller_of_its_class():
    modules = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"}
    anchor = "    heads: int\n"
    assert anchor in modules["attention.py"]
    modules["attention.py"] = modules["attention.py"].replace(
        anchor, anchor + "\n    def shape(self):\n        return self.w_q.data.shape\n", 1)
    assert "attention.py:AttentionParams.shape" in unread(modules)
